"""Per-operator latency models and whole-plan SLO compliance prediction.

Following Section 6 of the paper:

* every remote operator is modelled as a random variable Θ parameterised by
  the number of tuples it touches (α, and for joins the per-key bound αj)
  and the tuple size β (:class:`OperatorModelKey`);
* model training collects an empirical latency histogram per parameter
  setting *per SLO interval* (:class:`OperatorModelStore`);
* a query's latency distribution is the convolution of its operators'
  distributions (blocking-operator assumption), computed per interval; and
* the prediction reported to the developer is the distribution of
  per-interval high quantiles (:class:`~repro.prediction.slo.SLOPrediction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PredictionError
from ..plans import physical as P
from ..plans.bounds import compute_bound
from ..schema.catalog import Catalog
from .histogram import LatencyHistogram, convolve_all
from .slo import SLOPrediction

#: Operator kinds the model distinguishes.  ``lookup`` covers both the
#: IndexFKJoin / IndexLookup point-get pattern and the dereference step of
#: secondary-index scans (they issue exactly the same request shape).
OPERATOR_KINDS = ("index_scan", "lookup", "sorted_index_join")


@dataclass(frozen=True)
class OperatorModelKey:
    """Parameters of one operator model Θ (Section 6.1)."""

    operator: str              # one of OPERATOR_KINDS
    alpha: int                 # tuples from the child / expected tuples
    cardinality: int = 0       # per-join-key bound (αj); 0 for non-joins
    tuple_bytes: int = 0       # β

    def dominates(self, other: "OperatorModelKey") -> bool:
        """True if this stored key is a conservative stand-in for ``other``."""
        return (
            self.operator == other.operator
            and self.alpha >= other.alpha
            and self.cardinality >= other.cardinality
            and self.tuple_bytes >= other.tuple_bytes
        )


@dataclass(frozen=True)
class OperatorRequirement:
    """What a plan needs from the model store for one remote operator."""

    key: OperatorModelKey
    description: str = ""


class OperatorModelStore:
    """Trained per-operator, per-interval latency histograms."""

    def __init__(self) -> None:
        self._histograms: Dict[OperatorModelKey, Dict[int, LatencyHistogram]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, key: OperatorModelKey, interval: int, latency_seconds: float
    ) -> None:
        """Record one sampled operator latency for one SLO interval."""
        intervals = self._histograms.setdefault(key, {})
        histogram = intervals.get(interval)
        if histogram is None:
            histogram = LatencyHistogram()
            intervals[interval] = histogram
        histogram.add(latency_seconds)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def keys(self) -> List[OperatorModelKey]:
        return sorted(
            self._histograms,
            key=lambda k: (k.operator, k.alpha, k.cardinality, k.tuple_bytes),
        )

    def intervals(self) -> List[int]:
        """All interval indexes for which at least one model has data."""
        seen = set()
        for intervals in self._histograms.values():
            seen.update(intervals)
        return sorted(seen)

    def resolve_key(self, requested: OperatorModelKey) -> OperatorModelKey:
        """Pick the stored key used to answer a request (Section 6.1).

        The closest stored setting that is **at least as large** in every
        dimension is chosen, to avoid underestimating; if none dominates the
        request, the largest stored setting for the operator is used.
        """
        candidates = [k for k in self._histograms if k.operator == requested.operator]
        if not candidates:
            raise PredictionError(
                f"no trained model for operator {requested.operator!r}; "
                "run the OperatorModelTrainer first"
            )
        dominating = [k for k in candidates if k.dominates(requested)]
        if dominating:
            return min(
                dominating, key=lambda k: (k.alpha, k.cardinality, k.tuple_bytes)
            )
        return max(candidates, key=lambda k: (k.alpha, k.cardinality, k.tuple_bytes))

    def histogram(
        self, requested: OperatorModelKey, interval: Optional[int] = None
    ) -> LatencyHistogram:
        """The trained histogram for a requested setting.

        With ``interval=None`` the per-interval histograms are pooled.
        """
        key = self.resolve_key(requested)
        intervals = self._histograms[key]
        if interval is not None:
            histogram = intervals.get(interval)
            if histogram is None or histogram.is_empty:
                # Fall back to the pooled distribution for unseen intervals.
                return self.histogram(requested, interval=None)
            return histogram
        pooled: Optional[LatencyHistogram] = None
        for histogram in intervals.values():
            pooled = histogram if pooled is None else pooled.merge(histogram)
        if pooled is None or pooled.is_empty:
            raise PredictionError(f"model for {key} has no samples")
        return pooled


class QueryLatencyModel:
    """Composes operator models along a physical plan (Sections 6.2/6.3)."""

    def __init__(self, store: OperatorModelStore, catalog: Catalog):
        self.store = store
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Plan -> operator requirements
    # ------------------------------------------------------------------
    def operator_requirements(
        self, plan: P.PhysicalOperator
    ) -> List[OperatorRequirement]:
        """The Θ settings a plan needs, from its annotations and the schema."""
        return [req for _, req in self.requirements_with_operators(plan)]

    def requirements_with_operators(
        self, plan: P.PhysicalOperator
    ) -> List[Tuple[P.PhysicalOperator, OperatorRequirement]]:
        """Like :meth:`operator_requirements`, keyed by the plan node charged.

        A node may carry several requirements (a secondary-index scan is an
        ``index_scan`` plus its dereference ``lookup``); the runtime bound
        auditor sums their predicted latencies per node to compute
        predicted-vs-observed residuals span by span.
        """
        pairs: List[Tuple[P.PhysicalOperator, OperatorRequirement]] = []
        for operator in P.walk(plan):
            if isinstance(operator, P.PhysicalIndexScan):
                alpha = operator.static_limit_hint()
                if alpha is None:
                    raise PredictionError(
                        f"index scan over {operator.table} has no static bound"
                    )
                beta = self._row_bytes(operator.table)
                pairs.append((
                    operator,
                    OperatorRequirement(
                        OperatorModelKey("index_scan", alpha, 0, beta),
                        f"IndexScan({operator.table}, {alpha}x{beta}B)",
                    ),
                ))
                if operator.needs_dereference:
                    pairs.append((
                        operator,
                        OperatorRequirement(
                            OperatorModelKey("lookup", alpha, 0, beta),
                            f"Dereference({operator.table}, {alpha}x{beta}B)",
                        ),
                    ))
            elif isinstance(operator, P.PhysicalIndexLookup):
                alpha = operator.bound or 1
                beta = self._row_bytes(operator.table)
                pairs.append((
                    operator,
                    OperatorRequirement(
                        OperatorModelKey("lookup", alpha, 0, beta),
                        f"IndexLookup({operator.table}, {alpha}x{beta}B)",
                    ),
                ))
            elif isinstance(operator, P.PhysicalIndexFKJoin):
                alpha = compute_bound(operator.child).max_tuples
                beta = self._row_bytes(operator.table)
                pairs.append((
                    operator,
                    OperatorRequirement(
                        OperatorModelKey("lookup", alpha, 0, beta),
                        f"IndexFKJoin({operator.table}, {alpha}x{beta}B)",
                    ),
                ))
            elif isinstance(operator, P.PhysicalSortedIndexJoin):
                alpha_child = compute_bound(operator.child).max_tuples
                alpha_join = operator.limit_hint or 1
                beta = self._row_bytes(operator.table)
                pairs.append((
                    operator,
                    OperatorRequirement(
                        OperatorModelKey(
                            "sorted_index_join", alpha_child, alpha_join, beta
                        ),
                        f"SortedIndexJoin({operator.table}, "
                        f"{alpha_child}x{alpha_join}x{beta}B)",
                    ),
                ))
                if operator.needs_dereference:
                    # The executor fuses the dereference of all children
                    # into one bulk lookup round, and when the join carries
                    # a stop it puts entries in output order first and stops
                    # fetching at the stop — so the latency-relevant fan-out
                    # is min(children x per-key bound, stop), even though
                    # the *operation* bound still counts every entry.
                    deref_alpha = alpha_child * alpha_join
                    stop = operator.static_stop_count()
                    if stop is not None:
                        deref_alpha = min(deref_alpha, stop)
                    pairs.append((
                        operator,
                        OperatorRequirement(
                            OperatorModelKey("lookup", deref_alpha, 0, beta),
                            f"Dereference({operator.table}, {deref_alpha}x{beta}B)",
                        ),
                    ))
        if not pairs:
            raise PredictionError("plan contains no remote operators to model")
        return pairs

    def _row_bytes(self, table_name: str) -> int:
        return self.catalog.table(table_name).estimated_row_bytes()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_distribution(self, plan: P.PhysicalOperator) -> LatencyHistogram:
        """The predicted latency distribution of a plan, intervals pooled."""
        requirements = self.operator_requirements(plan)
        return self.predict_distribution_from_requirements(requirements, None)

    def predict_distribution_from_requirements(
        self,
        requirements: Sequence[OperatorRequirement],
        interval: Optional[int],
    ) -> LatencyHistogram:
        histograms = [
            self.store.histogram(req.key, interval=interval) for req in requirements
        ]
        return convolve_all(histograms)

    def predict(
        self, plan: P.PhysicalOperator, quantile: float = 0.99
    ) -> SLOPrediction:
        """Predict the per-interval ``quantile`` latency distribution."""
        requirements = self.operator_requirements(plan)
        return self.predict_from_requirements(requirements, quantile)

    def predict_from_requirements(
        self, requirements: Sequence[OperatorRequirement], quantile: float = 0.99
    ) -> SLOPrediction:
        intervals = self.store.intervals() or [0]
        per_interval = [
            self.predict_distribution_from_requirements(
                requirements, interval
            ).quantile(quantile)
            for interval in intervals
        ]
        return SLOPrediction(quantile=quantile, interval_quantiles_seconds=per_interval)

    def predict_quantile(
        self, plan: P.PhysicalOperator, quantile: float = 0.99
    ) -> float:
        """Most conservative (max over intervals) predicted quantile, seconds."""
        return self.predict(plan, quantile).max_seconds
