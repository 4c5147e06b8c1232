"""Static operation-bound calculation (Section 1.3 / 5.2 of the paper).

Given a physical plan in which every remote operator carries an explicit
bound, this module computes an upper bound on

* the number of tuples each operator can produce, and
* the number of key/value store operations the whole plan can perform,

independent of the database size.  The execution engine's tests assert that
actually-executed queries never exceed these bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotScaleIndependentError
from . import physical as P


@dataclass(frozen=True)
class PlanBound:
    """Upper bounds for one (sub)plan."""

    max_tuples: int
    max_operations: int

    def __add__(self, other: "PlanBound") -> "PlanBound":
        return PlanBound(
            self.max_tuples + other.max_tuples,
            self.max_operations + other.max_operations,
        )


def compute_bound(plan: P.PhysicalOperator) -> PlanBound:
    """Compute the operation bound of a physical plan.

    Raises :class:`NotScaleIndependentError` if some remote operator carries
    no usable bound (which the optimizer should already have rejected).
    """
    if isinstance(plan, P.PhysicalIndexScan):
        hint = plan.static_limit_hint()
        if hint is None:
            raise NotScaleIndependentError(
                f"index scan over {plan.table} has no limit hint or data-stop",
                relation=plan.table,
            )
        operations = 1 + (hint if plan.needs_dereference else 0)
        return PlanBound(max_tuples=hint, max_operations=operations)

    if isinstance(plan, P.PhysicalIndexLookup):
        bound = plan.bound
        if bound is None:
            raise NotScaleIndependentError(
                f"index lookup on {plan.table} has an unbounded IN list",
                relation=plan.table,
            )
        return PlanBound(max_tuples=bound, max_operations=bound)

    if isinstance(plan, P.PhysicalIndexFKJoin):
        child = compute_bound(plan.child)
        return PlanBound(
            max_tuples=child.max_tuples,
            max_operations=child.max_operations + child.max_tuples,
        )

    if isinstance(plan, P.PhysicalSortedIndexJoin):
        child = compute_bound(plan.child)
        if plan.limit_hint is None:
            raise NotScaleIndependentError(
                f"sorted index join against {plan.table} has no limit hint",
                relation=plan.table,
            )
        fetched = child.max_tuples * plan.limit_hint
        stop = plan.static_stop_count()
        max_tuples = min(fetched, stop) if stop is not None else fetched
        operations = child.max_operations + child.max_tuples
        if plan.needs_dereference:
            operations += fetched
        return PlanBound(max_tuples=max_tuples, max_operations=operations)

    if isinstance(plan, P.PhysicalLocalStop):
        child = compute_bound(plan.child)
        count = plan.static_count()
        max_tuples = (
            min(count, child.max_tuples) if count is not None else child.max_tuples
        )
        return PlanBound(max_tuples=max_tuples, max_operations=child.max_operations)

    if isinstance(
        plan,
        (
            P.PhysicalLocalSelection,
            P.PhysicalLocalSort,
            P.PhysicalLocalProjection,
            P.PhysicalLocalAggregate,
        ),
    ):
        return compute_bound(plan.children()[0])

    raise NotScaleIndependentError(
        f"cannot bound unknown operator {type(plan).__name__}"
    )


def operation_bound(plan: P.PhysicalOperator) -> int:
    """Convenience accessor: the maximum number of key/value operations."""
    return compute_bound(plan).max_operations


def estimated_index_entries(table, index) -> int:
    """Estimated entries one row contributes to ``index``.

    One for a plain index; tokenized columns multiply by an estimated
    per-row token count (~one token per five characters of the declared
    column size).  Shared by the static write bound and the write-latency
    model so the two can never disagree on the same write.
    """
    entries = 1
    for column in index.columns:
        if column.tokenized:
            entries *= max(1, table.column(column.name).estimated_size() // 5)
    return entries


def write_operation_bound(catalog, table_name: str) -> int:
    """Static bound on key/value operations one write to ``table_name`` costs.

    The write-side counterpart of :func:`operation_bound`: base-record
    write, one entry per secondary index (tokenized indexes charge an
    estimated per-row token count derived from the column's declared size),
    one ``count_range`` per cardinality constraint, and — when the table
    drives materialized views — the statically bounded view-maintenance
    delta (:func:`repro.views.maintenance.maintenance_operation_bound`).
    Like read bounds, this is independent of table cardinality, which is
    exactly what keeps writes scale-independent as views are added.  It
    prices a write that is accepted: one refused by a limit runs its
    changes back through the same write body, at most as much again.
    """
    from ..views.maintenance import maintenance_operation_bound

    table = catalog.table(table_name)
    # Base record put / test_and_set / delete, plus the old-row read an
    # update (and an upsert on a view-driving table, or a delete on an
    # indexed or view-driving one) performs first.
    operations = 2
    for index in catalog.indexes_for_table(table.name):
        # An update that changes the indexed value both writes the new
        # entry and deletes the stale one, so each entry counts twice.
        operations += 2 * estimated_index_entries(table, index)
    operations += len(table.cardinality_limits)
    for view in catalog.views_for_table(table.name):
        operations += maintenance_operation_bound(view)
    return operations
