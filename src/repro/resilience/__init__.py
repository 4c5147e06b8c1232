"""Client resilience: timeouts, backoff, retry budgets, breakers.

The paper's bounds make latency *predictable*; this package turns that
predictability into *robustness by construction*: a query whose operation
bound and p99 latency envelope are known statically yields a principled
per-query timeout, retries are paced by exponential
backoff with full jitter under a token-bucket budget (no retry storms),
and per-node circuit breakers steer traffic away from failing replicas.

Everything here is deterministic (seeded jitter, simulated clocks) and
off by default: a database without an attached
:class:`~repro.resilience.policy.ResiliencePolicy` behaves exactly as
before, and even with the default policy the healthy path is untouched —
only failure handling changes.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .budget import TokenBucketRetryBudget
from .policy import ResilienceConfig, ResiliencePolicy

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "TokenBucketRetryBudget",
    "ResilienceConfig",
    "ResiliencePolicy",
]
