"""The runtime bound auditor: static guarantees checked as live assertions.

PIQL's compiler proves a *static* operation bound for every admitted query
(Section 5.2 of the paper).  Historically the simulator only verified that
claim offline, in benchmark scripts diffing aggregate counters.  The
:class:`BoundAuditor` moves the check into the execution path: every
finished query is compared against its bound, violations become structured
:class:`AuditEvent` objects kept in :attr:`BoundAuditor.events` (strict
mode also raises :class:`~repro.errors.BoundViolationError`; serving mode
lets the query's result stand), and — when a trained latency model is
attached — each operator span is annotated with the slice of the bound it
was charged against and its predicted-vs-observed latency residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import (
    BoundViolationError,
    NotScaleIndependentError,
    PredictionError,
)
from ..plans import physical as P
from ..plans.bounds import compute_bound
from .trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..optimizer.optimizer import OptimizedQuery
    from ..prediction.model import QueryLatencyModel


@dataclass(frozen=True)
class AuditEvent:
    """One observed violation of a query's static operation bound."""

    sql: str
    observed_operations: int
    bound_operations: int
    latency_seconds: float

    def describe(self) -> str:
        return (
            f"bound violation: {self.observed_operations} ops > bound "
            f"{self.bound_operations} ({self.sql.strip()!r})"
        )


#: Violations an auditor keeps, oldest first.
MAX_EVENTS = 256


class BoundAuditor:
    """Asserts observed operations ≤ static bound on every finished query.

    :attr:`mode` is ``"strict"`` on construction: a violation raises
    :class:`BoundViolationError` (tests and benchmarks).  The serving
    simulator sets it to ``"serving"`` for its run, which records the event
    but lets the query's result stand (a live service should degrade
    observably, not crash).

    Parameters
    ----------
    latency_model:
        Optional trained :class:`~repro.prediction.model.QueryLatencyModel`;
        when present, operator spans gain ``predicted_seconds`` and
        ``residual_seconds``.
    """

    def __init__(self, latency_model: Optional["QueryLatencyModel"] = None):
        self.mode = "strict"
        self.latency_model = latency_model
        #: Optional :class:`~repro.obs.drift.PredictionDriftDetector`;
        #: when attached, every audited query feeds its rolling per-class
        #: residual distribution (set by the serving simulator).
        self.drift = None
        #: Optional :class:`~repro.obs.flightrec.FlightRecorder`; when
        #: attached, every audited traced query is offered for tail-based
        #: retention (with its audit event, so bound violations pin their
        #: trace).  The auditor is shared by every ``new_client`` view, so
        #: one recorder covers the whole app-server fleet.
        self.recorder = None
        #: Queries checked since construction (or the last :meth:`reset`).
        self.audited = 0
        #: Violations observed, oldest first, capped at :data:`MAX_EVENTS`.
        self.events: List[AuditEvent] = []
        # Bound slices per plan, keyed by id().  The plan itself is kept as
        # a strong reference so a recycled id() can never alias a new plan.
        self._slice_cache: Dict[
            int, Tuple[P.PhysicalOperator, Dict[int, Tuple[int, int]]]
        ] = {}

    @property
    def violations(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        self.audited = 0
        self.events.clear()

    # ------------------------------------------------------------------
    # The live assertion
    # ------------------------------------------------------------------
    def observe_query(
        self,
        query: "OptimizedQuery",
        observed_operations: int,
        latency_seconds: float,
        span: Optional[Span] = None,
    ) -> Optional[AuditEvent]:
        """Audit one finished execution; returns the event on violation.

        ``span`` is the query's root span when tracing is enabled.  With a
        latency model attached it is annotated in place (bound slices,
        predictions, residuals); without one annotation is deferred to the
        readers that want it (:func:`~repro.obs.explain.explain_analyze`
        calls :meth:`annotate_span` explicitly), keeping the per-query cost
        of plain tracing to the bound comparison below.
        """
        self.audited += 1
        if span is not None and self.latency_model is not None:
            self.annotate_span(query, span)
        if self.drift is not None:
            self.drift.observe(query, latency_seconds)
        bound = query.bound
        event: Optional[AuditEvent] = None
        if bound is not None and observed_operations > bound.max_operations:
            event = AuditEvent(
                sql=query.sql,
                observed_operations=observed_operations,
                bound_operations=bound.max_operations,
                latency_seconds=latency_seconds,
            )
            if len(self.events) < MAX_EVENTS:
                self.events.append(event)
        # The flight recorder sees every traced query — violation or not —
        # and must be fed before strict mode raises, so the offending trace
        # is retained even when the query dies.
        recorder = self.recorder
        if recorder is not None and span is not None:
            recorder.observe_query(query, span, latency_seconds, event=event)
        if event is not None and self.mode == "strict":
            raise BoundViolationError(
                observed_operations, bound.max_operations, query.sql
            )
        return event

    # ------------------------------------------------------------------
    # Span annotation
    # ------------------------------------------------------------------
    def annotate_span(self, query: "OptimizedQuery", span: Span) -> None:
        """Attach bound slices (and predictions, if modelled) to a trace.

        Each ``operator`` span carries ``node_id = id(plan node)``; this maps
        them back to the plan, charges every operator the *slice* of the
        static bound it owns (its subtree bound minus its children's), and —
        with a latency model — records the predicted p50 next to the
        observed duration.
        """
        plan = query.physical_plan
        slices = self._bound_slices(plan)
        predicted = self._predicted_by_node(plan)
        for op_span in span.find("operator"):
            node_id = op_span.attributes.get("node_id")
            if not isinstance(node_id, int):
                continue
            entry = slices.get(node_id)
            if entry is not None:
                own, subtree = entry
                op_span.attributes["bound_slice"] = own
                op_span.attributes["bound_subtree"] = subtree
            prediction = predicted.get(node_id)
            if prediction is not None and op_span.end is not None:
                op_span.attributes["predicted_seconds"] = prediction
                # Observed minus predicted: positive is slower than modelled.
                op_span.attributes["residual_seconds"] = (
                    op_span.duration - prediction
                )

    def _bound_slices(
        self, plan: P.PhysicalOperator
    ) -> Dict[int, Tuple[int, int]]:
        """``id(node) -> (own slice, subtree bound)`` for a plan, cached."""
        cached = self._slice_cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        slices: Dict[int, Tuple[int, int]] = {}
        for node in P.walk(plan):
            try:
                subtree = compute_bound(node).max_operations
                own = subtree - sum(
                    compute_bound(child).max_operations
                    for child in node.children()
                )
            except NotScaleIndependentError:
                # Cost-based-baseline plans are deliberately unbounded.
                continue
            slices[id(node)] = (own, subtree)
        if len(self._slice_cache) >= 128:
            self._slice_cache.clear()
        self._slice_cache[id(plan)] = (plan, slices)
        return slices

    def _predicted_by_node(
        self, plan: P.PhysicalOperator
    ) -> Dict[int, float]:
        """Predicted p50 seconds per plan node, summed over its Θ models."""
        if self.latency_model is None:
            return {}
        try:
            pairs = self.latency_model.requirements_with_operators(plan)
        except PredictionError:
            return {}
        predicted: Dict[int, float] = {}
        for node, requirement in pairs:
            try:
                histogram = self.latency_model.store.histogram(requirement.key)
            except PredictionError:
                continue
            predicted[id(node)] = (
                predicted.get(id(node), 0.0) + histogram.quantile(0.5)
            )
        return predicted
