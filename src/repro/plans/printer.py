"""Pretty-printing of logical and physical plans.

Both operator families expose ``label()`` and ``children()``, so a single
renderer handles Figure-3-style plan diagrams for diagnostics, tests, and
the Performance Insight Assistant.  ``EXPLAIN ANALYZE`` passes an
``annotate`` hook to append per-operator runtime measurements to the same
rendering the static tools produce.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from .logical import LogicalOperator
from .physical import PhysicalOperator

PlanNode = Union[LogicalOperator, PhysicalOperator]

#: Optional per-node annotation hook: returns extra text appended to the
#: node's label line (empty string for none).
Annotator = Callable[[PlanNode], str]


def plan_to_string(plan: PlanNode, annotate: Optional[Annotator] = None) -> str:
    """Render a plan as an indented tree, one operator per line."""
    lines: List[str] = []
    _render(plan, 0, lines, annotate)
    return "\n".join(lines)


def _render(
    node: PlanNode,
    depth: int,
    lines: List[str],
    annotate: Optional[Annotator] = None,
) -> None:
    suffix = annotate(node) if annotate is not None else ""
    lines.append("  " * depth + node.label() + suffix)
    for child in node.children():
        _render(child, depth + 1, lines, annotate)
