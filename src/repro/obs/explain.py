"""``EXPLAIN ANALYZE``: the annotated span tree rendered as a plan.

``explain_analyze`` executes a query with tracing enabled, lets the bound
auditor annotate the resulting span tree, and renders the physical plan
through :func:`repro.plans.printer.plan_to_string` with one runtime
annotation per operator: observed operations, the slice of the static bound
the operator owns, observed latency, and (when a trained latency model is
supplied) the predicted latency next to it.

``render_span_tree`` is the raw-trace counterpart — an indented dump of any
span tree, used by the tracing demo and diagnostics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..plans.printer import plan_to_string
from .audit import BoundAuditor
from .trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import PiqlDatabase
    from ..prediction.model import QueryLatencyModel


def _operator_self_operations(span: Span) -> int:
    """Operations charged by this operator itself (subtree minus children)."""
    total = int(span.attributes.get("operations", 0))
    for child in span.children:
        if child.kind == "operator":
            total -= int(child.attributes.get("operations", 0))
    return total


def explain_analyze(
    db: "PiqlDatabase",
    sql: str,
    parameters: Optional[Dict[str, Any]] = None,
    latency_model: Optional["QueryLatencyModel"] = None,
) -> str:
    """Execute ``sql`` once and render its plan with runtime annotations.

    A view that is not tracing, or whose tracer keeps no roots, traces this
    one call with a private tracer; the view's own tracer (or none) is
    restored afterwards, so ``EXPLAIN ANALYZE`` works on any database view
    without prior setup.  ``latency_model`` adds predicted-vs-observed
    latency per operator when a trained model is available.
    """
    prepared = db.prepare(sql)
    query = prepared.optimized
    client = db.client
    saved = client.tracer
    if saved is not None and not saved.roots.maxlen:
        client.tracer = None  # it would not hand back the root it builds
    tracer = client.enable_tracing(keep=1)
    was_verbose = tracer.verbose
    tracer.verbose = True  # span local operators too, not just storage ones
    try:
        result = prepared.execute(dict(parameters or {}))
        root = tracer.last_root()
    finally:
        tracer.verbose = was_verbose
        client.tracer = saved
    if root is None:  # pragma: no cover - the executor always opens a root
        raise RuntimeError("no trace was recorded for the execution")
    # Annotation (bound slices, predictions) is applied on demand rather
    # than on the query hot path; EXPLAIN ANALYZE always wants it.
    if latency_model is not None:
        BoundAuditor(latency_model=latency_model).annotate_span(query, root)
    else:
        db.auditor.annotate_span(query, root)

    op_spans: Dict[int, Span] = {}
    for op_span in root.find("operator"):
        node_id = op_span.attributes.get("node_id")
        if isinstance(node_id, int):
            op_spans[node_id] = op_span

    def annotate(node) -> str:
        span = op_spans.get(id(node))
        if span is None:
            return ""
        parts: List[str] = [f"ops={_operator_self_operations(span)}"]
        slice_ = span.attributes.get("bound_slice")
        if slice_ is not None:
            parts.append(f"bound<={slice_}")
        parts.append(f"{span.duration * 1000.0:.3f} ms")
        predicted = span.attributes.get("predicted_seconds")
        if predicted is not None:
            parts.append(f"pred {float(predicted) * 1000.0:.3f} ms")
        rows = span.attributes.get("rows")
        if rows is not None:
            parts.append(f"rows={rows}")
        return "   [" + ", ".join(parts) + "]"

    bound = query.bound
    header = [
        "EXPLAIN ANALYZE",
        f"  query: {' '.join(sql.split())}",
        f"  operations: {result.operations}"
        + (f" (bound {bound.max_operations})" if bound is not None else ""),
        f"  rpcs: {result.rpcs}",
        f"  latency: {result.latency_seconds * 1000.0:.3f} ms",
    ]
    plan_text = plan_to_string(query.physical_plan, annotate=annotate)
    return "\n".join(header) + "\n" + plan_text


#: Attributes worth showing inline in a raw span-tree dump.
_RENDER_ATTRS = (
    "operations", "rpcs", "keys", "bytes", "rows", "bound_slice",
    "coalesced", "hinted", "repaired", "namespace",
)


def render_span_tree(root: Span) -> str:
    """An indented, human-readable dump of one span tree."""
    lines: List[str] = []
    _render_span(root, 0, lines)
    return "\n".join(lines)


def _render_span(span: Span, depth: int, lines: List[str]) -> None:
    parts = [f"{span.name} [{span.kind}]", f"{span.duration * 1000.0:.3f} ms"]
    details = [
        f"{name}={span.attributes[name]}"
        for name in _RENDER_ATTRS
        if span.attributes.get(name) not in (None, "", 0, False)
    ]
    if details:
        parts.append("(" + ", ".join(details) + ")")
    lines.append("  " * depth + " ".join(parts))
    for child in span.expanded_children():
        _render_span(child, depth + 1, lines)
