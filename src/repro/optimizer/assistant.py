"""The Performance Insight Assistant (Section 6.4).

The assistant has two jobs:

1. **Explain rejected queries.**  When the optimizer cannot produce a
   bounded plan it raises :class:`NotScaleIndependentError`; the assistant
   renders the logical plan, highlights the problematic relation, and lists
   the attributes on which a ``CARDINALITY LIMIT`` would let optimization
   proceed.
2. **Recommend cardinality limits.**  Given a trained SLO prediction model
   and an SLO, it picks the largest candidate cardinality whose predicted
   99th-percentile latency stays within the objective.  Pairs of settings,
   as in the paper's Figure 6, are the heatmap's job
   (:func:`~repro.prediction.heatmap.prediction_heatmap` and
   :meth:`~repro.prediction.heatmap.Heatmap.acceptable_settings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from ..errors import NotScaleIndependentError
from ..plans.printer import plan_to_string
from ..schema.catalog import Catalog
from ..sql import ast
from ..sql.parser import parse_select
from .optimizer import OptimizedQuery, PiqlOptimizer


@dataclass
class QueryDiagnosis:
    """The assistant's report for one query."""

    sql: str
    scale_independent: bool
    message: str
    logical_plan: Optional[str] = None
    problem_relation: Optional[str] = None
    candidate_attributes: Sequence[str] = ()
    suggestions: Sequence[str] = ()
    optimized: Optional[OptimizedQuery] = None

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines: List[str] = []
        if self.scale_independent:
            lines.append("query is scale-independent")
            lines.append(self.message)
        else:
            lines.append("query is NOT scale-independent")
            lines.append(self.message)
            if self.problem_relation:
                lines.append(f"problem relation: {self.problem_relation}")
            if self.candidate_attributes:
                lines.append(
                    "candidate CARDINALITY LIMIT attributes: "
                    + ", ".join(self.candidate_attributes)
                )
            for suggestion in self.suggestions:
                lines.append("suggestion: " + suggestion)
        if self.logical_plan:
            lines.append("logical plan:")
            lines.append(self.logical_plan)
        return "\n".join(lines)


class PerformanceInsightAssistant:
    """Developer-facing feedback on scale independence and SLO compliance."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.optimizer = PiqlOptimizer(catalog)

    # ------------------------------------------------------------------
    # Diagnosing queries
    # ------------------------------------------------------------------
    def diagnose(self, query: Union[str, ast.SelectStatement]) -> QueryDiagnosis:
        """Try to compile ``query`` and explain the outcome either way."""
        sql = query if isinstance(query, str) else ""
        statement = parse_select(query) if isinstance(query, str) else query
        logical = None
        try:
            logical = plan_to_string(self.optimizer.prepared_logical_plan(statement))
        except NotScaleIndependentError:
            # Even Phase I can fail (Cartesian products); fall back to the
            # naive plan for display.
            try:
                logical = plan_to_string(self.optimizer.initial_logical_plan(statement))
            except Exception:  # pragma: no cover - display best effort only
                logical = None
        try:
            optimized = self.optimizer.optimize(statement)
        except NotScaleIndependentError as error:
            return QueryDiagnosis(
                sql=sql,
                scale_independent=False,
                message=str(error),
                logical_plan=logical,
                problem_relation=error.relation,
                candidate_attributes=error.candidate_attributes,
                suggestions=error.suggestions,
            )
        message = (
            f"bounded plan found: at most {optimized.operation_bound} key/value "
            f"operations and {optimized.bound.max_tuples} intermediate tuples"
        )
        return QueryDiagnosis(
            sql=sql,
            scale_independent=True,
            message=message,
            logical_plan=logical,
            optimized=optimized,
        )

    # ------------------------------------------------------------------
    # Cardinality recommendations
    # ------------------------------------------------------------------
    def recommend_max_cardinality(
        self,
        predict_quantile: Callable[[int], float],
        slo_latency_seconds: float,
        candidates: Sequence[int],
    ) -> Optional[int]:
        """Largest candidate cardinality whose predicted latency meets the SLO.

        This is the assistant behaviour described at the end of Section 6.4:
        "suggest values that maximize functionality while still meeting
        performance requirements".  Returns ``None`` if no candidate meets
        the SLO.
        """
        acceptable = [
            c for c in candidates if predict_quantile(c) <= slo_latency_seconds
        ]
        return max(acceptable) if acceptable else None
