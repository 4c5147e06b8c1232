"""Token-bucket retry budget.

Retries are only safe when they are *bounded*: during an outage every
client retrying every failed request multiplies the offered load on the
surviving replicas exactly when they can least afford it (the retry storm
``PiqlDatabase.execute``'s naive loop used to model).  The budget caps the
aggregate retry rate: each retry spends one token, tokens refill at a
fixed rate, and when the bucket is empty the failure surfaces immediately
instead of re-charging the cluster.
"""

from __future__ import annotations


class TokenBucketRetryBudget:
    """A token bucket over simulated time.

    ``capacity`` bounds the burst of retries a client may issue at once;
    ``refill_per_second`` bounds the sustained retry rate.  Time is
    whatever clock the caller passes to :meth:`try_acquire` — the
    simulation's ``SimClock.now`` here — so the budget needs no clock of
    its own and stays deterministic.
    """

    __slots__ = ("capacity", "refill_per_second", "tokens", "_last_refill")

    def __init__(self, capacity: float = 20.0, refill_per_second: float = 4.0):
        if capacity <= 0:
            raise ValueError("budget capacity must be positive")
        if refill_per_second < 0:
            raise ValueError("refill rate must be non-negative")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self.tokens = float(capacity)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self.tokens = min(
                self.capacity, self.tokens + elapsed * self.refill_per_second
            )
        self._last_refill = max(self._last_refill, now)

    def try_acquire(self, now: float) -> bool:
        """Spend one token if the bucket holds it; False otherwise."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
