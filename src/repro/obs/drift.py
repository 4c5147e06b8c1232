"""Prediction-drift detection: is the latency model still telling the truth?

The paper's Figure 6/Table 1 claim is that bound-derived latency
predictions match observation — but that comparison was made once, offline,
against the training workload.  A live fleet can drift away from its model
(nodes degrade, contention patterns shift, data grows into different
regimes) without any single query violating its bound.  This module
monitors the claim *continuously*: every audited query contributes its
whole-query latency residual (observed minus predicted p50) to a rolling
per-query-class distribution, and a class is flagged as **drifting** when
its median residual leaves the envelope the model itself stated — the span
between its predicted low and high quantiles, re-centred on the median::

    envelope = [p_low - p50, p_high - p50]      (model-stated spread)
    drifting = median(residuals) outside envelope

Using the model's own spread as the yardstick makes the check
self-calibrating: a class whose prediction is a wide distribution tolerates
proportionally wide residuals, a tight prediction is held to a tight line.

Per-plan predicted quantiles are cached keyed by ``id(plan)`` with a strong
reference to the plan (the same discipline as the auditor's bound-slice
cache), so steady-state cost per query is a dict hit and a deque append.
State is bounded: rolling windows per class, a cap on tracked classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..errors import PredictionError
from ..stats import nearest_rank_percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..optimizer.optimizer import OptimizedQuery
    from ..prediction.model import QueryLatencyModel


@dataclass(frozen=True)
class PredictionEnvelope:
    """The model's stated latency quantiles for one query class."""

    p_low_seconds: float
    p50_seconds: float
    p_high_seconds: float

    @property
    def low_residual(self) -> float:
        return self.p_low_seconds - self.p50_seconds

    @property
    def high_residual(self) -> float:
        return self.p_high_seconds - self.p50_seconds


@dataclass(frozen=True)
class DriftReport:
    """Rolling residual summary of one query class."""

    query_class: str
    observations: int
    envelope: PredictionEnvelope
    median_residual_seconds: float
    p90_residual_seconds: float
    drifting: bool

    def describe(self) -> str:
        state = "DRIFTING" if self.drifting else "ok"
        return (
            f"{self.query_class!r}: median residual "
            f"{self.median_residual_seconds * 1000.0:+.2f} ms over "
            f"{self.observations} obs, envelope "
            f"[{self.envelope.low_residual * 1000.0:+.2f}, "
            f"{self.envelope.high_residual * 1000.0:+.2f}] ms — {state}"
        )


class _ClassState:
    __slots__ = ("envelope", "residuals", "observations")

    def __init__(self, envelope: PredictionEnvelope, window: int):
        self.envelope = envelope
        self.residuals: Deque[float] = deque(maxlen=window)
        self.observations = 0


#: Residuals retained per class (rolling).
WINDOW = 128
#: A class reports ``drifting=False`` until it has this many residuals —
#: one slow cold-cache query must not flag a class.
MIN_OBSERVATIONS = 8
#: The model quantiles that state the envelope.
LOW_QUANTILE = 0.05
HIGH_QUANTILE = 0.99
#: Cap on distinct tracked classes; further classes are counted in
#: ``dropped_classes`` and ignored (ad-hoc one-off queries must not grow
#: state without bound).
MAX_CLASSES = 64


class PredictionDriftDetector:
    """Rolling predicted-vs-observed residuals per query class, checked
    against the trained
    :class:`~repro.prediction.model.QueryLatencyModel` ``latency_model``
    (window, envelope and caps: the module's constants)."""

    def __init__(self, latency_model: "QueryLatencyModel"):
        self.latency_model = latency_model
        self._classes: Dict[str, _ClassState] = {}
        #: Query classes turned away by the cap.
        self.dropped_classes = 0
        #: Queries skipped because the model could not price their plan.
        self.unpredictable = 0
        # Predicted envelope per plan, keyed by id() with a strong plan
        # reference (same aliasing discipline as the auditor's slice cache).
        self._envelope_cache: Dict[int, Tuple[object, PredictionEnvelope]] = {}

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def observe(self, query: "OptimizedQuery", observed_seconds: float) -> None:
        """Record one finished execution of an audited query."""
        key = " ".join(query.sql.split())
        state = self._classes.get(key)
        if state is None:
            if len(self._classes) >= MAX_CLASSES:
                self.dropped_classes += 1
                return
            envelope = self._predict_envelope(query)
            if envelope is None:
                self.unpredictable += 1
                return
            state = _ClassState(envelope, WINDOW)
            self._classes[key] = state
        state.residuals.append(observed_seconds - state.envelope.p50_seconds)
        state.observations += 1

    def _predict_envelope(
        self, query: "OptimizedQuery"
    ) -> Optional[PredictionEnvelope]:
        plan = query.physical_plan
        cached = self._envelope_cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        try:
            distribution = self.latency_model.predict_distribution(plan)
            envelope = PredictionEnvelope(
                p_low_seconds=distribution.quantile(LOW_QUANTILE),
                p50_seconds=distribution.quantile(0.5),
                p_high_seconds=distribution.quantile(HIGH_QUANTILE),
            )
        except PredictionError:
            return None
        if len(self._envelope_cache) >= 128:
            self._envelope_cache.clear()
        self._envelope_cache[id(plan)] = (plan, envelope)
        return envelope

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> List[DriftReport]:
        """Per-class drift summaries, sorted by query class."""
        reports: List[DriftReport] = []
        for key in sorted(self._classes):
            state = self._classes[key]
            residuals = list(state.residuals)
            if not residuals:
                continue
            median = nearest_rank_percentile(residuals, 0.5)
            p90 = nearest_rank_percentile(residuals, 0.9)
            envelope = state.envelope
            drifting = state.observations >= MIN_OBSERVATIONS and not (
                envelope.low_residual <= median <= envelope.high_residual
            )
            reports.append(
                DriftReport(
                    query_class=key,
                    observations=state.observations,
                    envelope=envelope,
                    median_residual_seconds=median,
                    p90_residual_seconds=p90,
                    drifting=drifting,
                )
            )
        return reports

    def reset(self) -> None:
        self._classes.clear()
        self.dropped_classes = 0
        self.unpredictable = 0
