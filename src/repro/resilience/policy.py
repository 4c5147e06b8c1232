"""Bound-derived resilience policy: the client's failure-handling brain.

One :class:`ResiliencePolicy` is attached per database view.  It owns the
view's retry budget, backoff RNG, and circuit-breaker board, and derives
per-query deadlines from the same static machinery the paper uses to
*predict* latency:

* **timeout** — the prediction model's p99 envelope for the query's
  physical plan, times a slack multiplier, clamped to a sane range.  A
  reply slower than that is treated as lost (the client has better odds
  re-issuing than waiting).  Without a trained model the static
  :data:`DEFAULT_TIMEOUT_SECONDS` applies.
* **hedge delay** — the p95 envelope *divided by the plan's operation
  bound* approximates a per-RPC p95; a read still outstanding after that
  long gets a hedge twin, first response wins.

Retries pace themselves with exponential backoff and **full jitter**
(seeded — deterministic in the simulation) under a token-bucket budget,
and the breaker board fails fast when every replica looks down.  The
``naive`` flag reproduces the old immediate-retry loop for paired
benchmarks: same attempt count, no pacing, no budget — the retry storm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from ..errors import (
    CircuitOpenError,
    PiqlError,
    RetryBudgetExhaustedError,
    UnavailableError,
)
from .breaker import BreakerBoard
from .budget import TokenBucketRetryBudget

T = TypeVar("T")

#: How a derived deadline follows the prediction model: the p99 envelope
#: times a slack multiplier, clamped; the static default without a model.
TIMEOUT_MULTIPLIER = 3.0
TIMEOUT_MIN_SECONDS = 0.02
TIMEOUT_MAX_SECONDS = 2.0
DEFAULT_TIMEOUT_SECONDS = 0.5
#: The hedge delay is the per-RPC share of this quantile's envelope.
HEDGE_QUANTILE = 0.95
DEFAULT_HEDGE_DELAY_SECONDS = 0.02


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables of one view's resilience policy.

    The defaults are deliberately conservative: backoff-paced retries on
    the failure path only, no derived timeouts, no hedging, no breakers —
    a healthy run behaves byte-identically to a database without any
    policy, and even a faulted run only gains pacing.  Chaos/soak arms
    opt into the aggressive features explicitly.
    """

    #: Total attempts per query page (first try + retries); 1 disables
    #: retries.
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_max_seconds: float = 2.0
    budget_capacity: float = 20.0
    budget_refill_per_second: float = 4.0
    #: Derive per-query RPC timeouts from the prediction model's p99
    #: envelope (static default when no model is trained).
    derive_timeouts: bool = False
    hedging_enabled: bool = False
    #: Per-node circuit breakers (the board's own threshold and window).
    breakers_enabled: bool = False
    #: Reproduce the legacy immediate-retry loop (paired-arm baseline):
    #: same attempt count, no backoff, no budget, no breakers.
    naive: bool = False
    seed: int = 0


class ResiliencePolicy:
    """Executes query pages with retries, deadlines, and breakers."""

    def __init__(self, db: Any, config: Optional[ResilienceConfig] = None):
        self.db = db
        self.config = config or ResilienceConfig()
        self.budget = TokenBucketRetryBudget(
            self.config.budget_capacity,
            self.config.budget_refill_per_second,
        )
        self.board: Optional[BreakerBoard] = (
            BreakerBoard()
            if self.config.breakers_enabled and not self.config.naive
            else None
        )
        self._rng = random.Random(self.config.seed)
        #: Per-query (timeout, hedge delay) derived from the prediction
        #: model, cached by SQL text.
        self._envelope_cache: Dict[str, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Bound-derived deadlines
    # ------------------------------------------------------------------
    @staticmethod
    def _clamp(seconds: float) -> float:
        return min(TIMEOUT_MAX_SECONDS, max(TIMEOUT_MIN_SECONDS, seconds))

    def _envelope(self, optimized: Any) -> Tuple[float, float]:
        key = optimized.sql or repr(optimized.physical_plan)
        hit = self._envelope_cache.get(key)
        if hit is not None:
            return hit
        timeout = DEFAULT_TIMEOUT_SECONDS
        hedge = DEFAULT_HEDGE_DELAY_SECONDS
        model = getattr(self.db.auditor, "latency_model", None)
        if model is not None:
            try:
                p99 = model.predict_quantile(optimized.physical_plan, 0.99)
                timeout = self._clamp(p99 * TIMEOUT_MULTIPLIER)
                p_hedge = model.predict_quantile(
                    optimized.physical_plan, HEDGE_QUANTILE
                )
                try:
                    operations = max(1, optimized.operation_bound)
                except PiqlError:
                    operations = 1
                hedge = self._clamp(p_hedge / operations)
            except PiqlError:
                # Untrained model (or a plan it cannot score): keep the
                # static defaults rather than failing the query.
                pass
        envelope = (timeout, hedge)
        self._envelope_cache[key] = envelope
        return envelope

    def timeout_for(self, optimized: Any) -> Optional[float]:
        """Per-RPC deadline for one query, or ``None`` when disabled."""
        if not self.config.derive_timeouts:
            return None
        return self._envelope(optimized)[0]

    def hedge_delay_for(self, optimized: Any) -> Optional[float]:
        """Hedge delay for one query's reads, or ``None`` when disabled."""
        if not self.config.hedging_enabled:
            return None
        return self._envelope(optimized)[1]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_page(
        self,
        optimized: Any,
        parameters: Any,
        cursor: Any,
    ) -> Any:
        """Execute one query page under this policy.

        Called from one place, ``Session._execute_page``, which every
        query path traverses (``db.execute``, serial plans, ``pages()``,
        pipelined sessions, cursor page fetches), so retry/deadline
        behaviour cannot diverge between the sync and async APIs.  The
        per-query deadline and hedge delay are installed on the storage
        client for the duration of the page.
        """
        db = self.db
        client = db.client
        saved_timeout = client.rpc_timeout_seconds
        saved_hedge = client.hedge_delay_seconds
        client.rpc_timeout_seconds = self.timeout_for(optimized)
        client.hedge_delay_seconds = self.hedge_delay_for(optimized)
        try:
            # Looked up per call: tests stand a fake in for the instance's
            # ``execute``.
            return self.run(
                db.executor.execute, optimized, parameters, cursor,
                operation=optimized.sql or "query",
            )
        finally:
            client.rpc_timeout_seconds = saved_timeout
            client.hedge_delay_seconds = saved_hedge

    def run(self, fn: Callable[..., T], *args: Any, operation: str = "query") -> T:
        """Run ``fn(*args)`` with this policy's retry discipline.

        Retries only the transient :class:`UnavailableError` family; the
        terminal members (:class:`RetryBudgetExhaustedError`,
        :class:`CircuitOpenError`) propagate immediately.  Each retry
        spends a budget token and sleeps a full-jitter backoff on the
        client's simulated clock.
        """
        config = self.config
        clock = self.db.client.clock
        metrics = self.db.client.stats.metrics
        attempts = max(1, config.max_attempts)
        last: Optional[UnavailableError] = None
        for attempt in range(attempts):
            if self.board is not None:
                node_ids = [node.node_id for node in self.db.cluster.nodes]
                if self.board.all_open(clock.now, node_ids):
                    metrics.add("resilience.breaker_fast_fails", 1)
                    raise CircuitOpenError(
                        sorted(self.board.suspects(clock.now))
                    )
            try:
                return fn(*args)
            except (RetryBudgetExhaustedError, CircuitOpenError):
                raise
            except UnavailableError as exc:
                last = exc
                metrics.add("resilience.failures", 1)
                if attempt == attempts - 1:
                    break
                if config.naive:
                    metrics.add("resilience.retries", 1)
                    continue
                if not self.budget.try_acquire(clock.now):
                    metrics.add("resilience.budget_exhausted", 1)
                    raise RetryBudgetExhaustedError(
                        operation, attempt + 1
                    ) from exc
                ceiling = min(
                    config.backoff_max_seconds,
                    config.backoff_base_seconds * (2.0 ** attempt),
                )
                sleep = self._rng.uniform(0.0, ceiling)
                started = clock.now
                clock.advance(sleep)
                metrics.add("resilience.retries", 1)
                metrics.add("resilience.backoff_seconds", sleep)
                tracer = self.db.client.tracer
                if tracer is not None:
                    tracer.record(
                        "retry", "resilience", started, clock.now,
                        attempt=attempt + 1, error=type(exc).__name__,
                        backoff_seconds=sleep,
                    )
        assert last is not None
        raise last
