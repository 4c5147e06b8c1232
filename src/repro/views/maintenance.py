"""Delta maintenance for materialized views.

Every write to a view's driving table is translated into a constant number
of key/value operations, independent of table cardinality:

* resolve the delta's group — one bounded point ``get`` per dimension
  relation (FK-shaped joins only, checked at view creation);
* read-modify-write the group's backing record — COUNT/SUM/AVG merge as
  counters, MIN/MAX through a bounded ordered candidate buffer with
  eviction; a group whose row count reaches zero is deleted;
* for top-k views, maintain the bounded ordered view index: delete the
  group's old entry, then re-admit the new value only if the partition has
  spare capacity or the value beats the current worst member (which is then
  evicted).

All billed maintenance goes through the triggering client's
:class:`~repro.kvstore.client.StorageClient`, i.e. the replicated quorum
path — replica crashes hint and heal exactly like base-table writes — and
is charged to that client's clock and operation counters, so the per-write
cost stays statically bounded (:func:`maintenance_operation_bound`).  Bulk
loading and backfill use the latency-free ``load`` path instead.

Known (documented) approximations, both inherent to bounded state:

* an evicted group re-enters the top-k index only on its next delta — after
  deletes shrink a partition, the index may transiently hold fewer than the
  true top-k until evicted groups are touched again.  Aggregates that only
  grow (counters over insert-only tables, e.g. order lines) never hit this;
* a MIN/MAX whose candidate buffer empties while rows remain reports
  ``None`` until a new delta refills it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..kvstore.client import StorageClient
from ..kvstore.cluster import KeyValueCluster
from ..schema.catalog import Catalog
from ..schema.keys import encode_key, prefix_range
from ..storage.rows import (
    deserialize_row,
    index_entries,
    pk_key,
    serialize_row,
)
from .definition import MaterializedView

#: Bounded candidate-buffer size for incremental MIN/MAX (per group).
MINMAX_CANDIDATES = 8

#: Hidden state keys stored inside backing records (never projected).
ROWS_KEY = "_rows"


# ----------------------------------------------------------------------
# Mergeable aggregate states
# ----------------------------------------------------------------------
def fresh_state(view: MaterializedView, group_values: List[Any]) -> Dict[str, Any]:
    """An empty backing record for one group."""
    state: Dict[str, Any] = dict(zip(view.group_column_names, group_values))
    state[ROWS_KEY] = 0
    for aggregate in view.aggregates:
        state[aggregate.output_name] = 0 if aggregate.function == "COUNT" else None
        if aggregate.function in ("SUM", "AVG"):
            state[f"_n_{aggregate.output_name}"] = 0
            if aggregate.function == "AVG":
                state[f"_sum_{aggregate.output_name}"] = 0
        elif aggregate.function in ("MIN", "MAX"):
            state[f"_mm_{aggregate.output_name}"] = []
    return state


def merge_add(
    view: MaterializedView, state: Dict[str, Any], values: Dict[str, Any]
) -> None:
    """Fold one contributing row's aggregate inputs into a group state."""
    state[ROWS_KEY] += 1
    for aggregate in view.aggregates:
        name = aggregate.output_name
        value = values.get(name)
        if aggregate.function == "COUNT":
            if aggregate.argument is None or value is not None:
                state[name] += 1
        elif value is None:
            continue
        elif aggregate.function == "SUM":
            state[name] = value if state[f"_n_{name}"] == 0 else state[name] + value
            state[f"_n_{name}"] += 1
        elif aggregate.function == "AVG":
            state[f"_sum_{name}"] += value
            state[f"_n_{name}"] += 1
            state[name] = state[f"_sum_{name}"] / state[f"_n_{name}"]
        else:  # MIN / MAX: bounded ordered candidate buffer with eviction
            # Copy before mutating: decoded rows share nested values with
            # the deserialize_row cache, so in-place edits would poison
            # every future decode of the same payload bytes.
            buffer = list(state[f"_mm_{name}"])
            buffer.append(value)
            buffer.sort(reverse=aggregate.function == "MAX")
            del buffer[MINMAX_CANDIDATES:]
            state[f"_mm_{name}"] = buffer
            state[name] = buffer[0]


def merge_remove(
    view: MaterializedView, state: Dict[str, Any], values: Dict[str, Any]
) -> None:
    """Retract one contributing row's aggregate inputs from a group state."""
    state[ROWS_KEY] -= 1
    for aggregate in view.aggregates:
        name = aggregate.output_name
        value = values.get(name)
        if aggregate.function == "COUNT":
            if aggregate.argument is None or value is not None:
                state[name] -= 1
        elif value is None:
            continue
        elif aggregate.function == "SUM":
            state[f"_n_{name}"] -= 1
            state[name] = None if state[f"_n_{name}"] == 0 else state[name] - value
        elif aggregate.function == "AVG":
            state[f"_sum_{name}"] -= value
            state[f"_n_{name}"] -= 1
            state[name] = (
                state[f"_sum_{name}"] / state[f"_n_{name}"]
                if state[f"_n_{name}"] > 0
                else None
            )
        else:  # MIN / MAX: drop one occurrence from the candidate buffer
            buffer = list(state[f"_mm_{name}"])  # copy; see merge_add
            if value in buffer:
                buffer.remove(value)
            state[f"_mm_{name}"] = buffer
            state[name] = buffer[0] if buffer else None


def visible_row(view: MaterializedView, state: Dict[str, Any]) -> Dict[str, Any]:
    """The user-visible columns of a backing record (hidden state dropped)."""
    names = list(view.group_column_names) + [
        a.output_name for a in view.aggregates
    ]
    return {name: state.get(name) for name in names}


def maintenance_operation_bound(view: MaterializedView) -> int:
    """Static bound on key/value operations one driving-table write costs.

    Per contribution: one point ``get`` per dimension, the group record's
    read-modify-write (get + put/delete), and for top-k views the ordered
    index update (old-entry delete, partition count, worst-member probe,
    entry put, eviction delete).  The worst case is an update that moves a
    row between groups: both the old and the new contribution are resolved
    (two dimension rounds) and both groups pay the group-local part.
    """
    per_contribution = (
        len(view.dimensions) + 2 + (5 if view.order is not None else 0)
    )
    return 2 * per_contribution


# ----------------------------------------------------------------------
# I/O paths: billed (quorum, charged to the writer) and load (latency-free)
# ----------------------------------------------------------------------
class _BilledIO:
    """Maintenance I/O through the triggering client's quorum path."""

    def __init__(self, client: StorageClient):
        self.client = client

    def get(self, namespace: str, key: bytes) -> Optional[bytes]:
        return self.client.get(namespace, key)

    def put(self, namespace: str, key: bytes, value: bytes) -> None:
        self.client.put(namespace, key, value)

    def delete(self, namespace: str, key: bytes) -> None:
        self.client.delete(namespace, key)

    def count_range(self, namespace: str, start: bytes, end: bytes) -> int:
        return self.client.count_range(namespace, start, end)

    def first_in_range(
        self, namespace: str, start: bytes, end: bytes, ascending: bool
    ) -> Optional[Tuple[bytes, bytes]]:
        pairs = self.client.get_range(
            namespace, start, end, limit=1, ascending=ascending
        )
        return pairs[0] if pairs else None


class _LoadIO:
    """Latency-free maintenance I/O for bulk loading and backfill."""

    def __init__(self, cluster: KeyValueCluster):
        self.cluster = cluster

    def get(self, namespace: str, key: bytes) -> Optional[bytes]:
        return self.cluster.peek(namespace, key)

    def put(self, namespace: str, key: bytes, value: bytes) -> None:
        self.cluster.load(namespace, key, value)

    def delete(self, namespace: str, key: bytes) -> None:
        self.cluster.load_delete(namespace, key)

    def count_range(self, namespace: str, start: bytes, end: bytes) -> int:
        return len(self.cluster.peek_range(namespace, start, end, limit=None))

    def first_in_range(
        self, namespace: str, start: bytes, end: bytes, ascending: bool
    ) -> Optional[Tuple[bytes, bytes]]:
        pairs = self.cluster.peek_range(
            namespace, start, end, limit=1, ascending=ascending
        )
        return pairs[0] if pairs else None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ViewMaintenanceEngine:
    """Applies base-table write deltas to every affected materialized view.

    One hook, :meth:`apply`, takes every change as an ``(old row, new
    row)`` pair: the record manager's write body calls it once per written
    record (a refused write's undo too, with the pair reversed), bulk
    loading with ``billed=False``.  Backfill folds existing rows into the
    one new view only.
    """

    def __init__(self, catalog: Catalog, client: StorageClient):
        self.catalog = catalog
        self.client = client

    # ------------------------------------------------------------------
    # The write hook (called by the RecordManager's write body)
    # ------------------------------------------------------------------
    def relevant_views(self, table_name: str) -> List[MaterializedView]:
        return self.catalog.views_for_table(table_name)

    def apply(
        self,
        table_name: str,
        old: Optional[Dict[str, Any]],
        new: Optional[Dict[str, Any]],
        billed: bool = True,
    ) -> None:
        """Apply one driving-table change — ``old`` row to ``new`` row,
        ``None`` for no row: an insert, update or delete — to every view
        ``table_name`` drives; ``billed=False`` takes the latency-free load
        path."""
        for view in self.relevant_views(table_name):
            io = _BilledIO(self.client) if billed else _LoadIO(self.client.cluster)
            with self._maintenance_span(view, billed):
                self._apply(view, io, old, new)

    @contextmanager
    def _maintenance_span(
        self, view: MaterializedView, billed: bool
    ) -> Iterator[None]:
        """A ``view-maintenance`` span nesting a delta under its write.

        Billed maintenance runs inside the triggering write's ``write`` span
        (same client, same tracer stack), so the extra RPCs are attributed
        to the write that caused them.  Load-path maintenance is free and
        untraced.
        """
        tracer = self.client.tracer if billed else None
        if tracer is None:
            yield
            return
        span = tracer.start_span(
            f"maintain {view.name}", "view-maintenance", view=view.name
        )
        try:
            yield
        finally:
            tracer.end_span(span)

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def _apply(
        self,
        view: MaterializedView,
        io,
        old: Optional[Dict[str, Any]],
        new: Optional[Dict[str, Any]],
    ) -> None:
        if old is not None and new is not None:
            # No-op fast path: an update that leaves every column the view
            # reads unchanged contributes nothing — skip it before paying
            # for dimension lookups (the column set is precomputed at view
            # creation; see MaterializedView.driving_columns).
            if all(
                old.get(column) == new.get(column)
                for column in view.driving_columns
            ):
                return
        removed = self._contribution(view, io, old) if old is not None else None
        added = self._contribution(view, io, new) if new is not None else None
        if removed == added:
            # No-op delta: the write did not change any grouped or aggregated
            # value (or the row never satisfied the view's predicates).
            return
        # Only real deltas are counted: the telemetry scraper reads these as
        # the fleet's view-maintenance rate, and no-op writes cost nothing.
        metrics = self.client.stats.metrics
        metrics.add("views.deltas")
        metrics.add(f"views.deltas.{view.name}")
        if removed is not None and added is not None and removed[0] == added[0]:
            self._group_delta(view, io, removed[0], remove=removed[1], add=added[1])
            return
        if removed is not None:
            self._group_delta(view, io, removed[0], remove=removed[1], add=None)
        if added is not None:
            self._group_delta(view, io, added[0], remove=None, add=added[1])

    def _contribution(
        self, view: MaterializedView, io, row: Dict[str, Any]
    ) -> Optional[Tuple[Tuple[Any, ...], Dict[str, Any]]]:
        """Resolve one driving row to ``(group values, aggregate inputs)``.

        Returns ``None`` when the row contributes nothing: a dimension row is
        missing (inner-join semantics) or a view predicate fails.
        """
        rows: Dict[str, Dict[str, Any]] = {view.driving_alias: row}
        for dimension in view.dimensions:
            key_values = []
            for _, source in dimension.key_sources:
                value = rows[source.relation].get(source.column)
                key_values.append(value)
            if any(value is None for value in key_values):
                return None
            table = self.catalog.table(dimension.table)
            payload = io.get(table.namespace, pk_key(key_values))
            if payload is None:
                return None
            rows[dimension.alias] = deserialize_row(payload)
        from ..execution.evaluate import evaluate_all

        if view.predicates and not evaluate_all(view.predicates, rows, None):
            return None
        group_values = tuple(
            rows[column.relation].get(column.column)
            for column in view.group_columns
        )
        aggregate_inputs = {
            a.output_name: (
                rows[a.argument.relation].get(a.argument.column)
                if a.argument is not None
                else None
            )
            for a in view.aggregates
        }
        return group_values, aggregate_inputs

    def _group_delta(
        self,
        view: MaterializedView,
        io,
        group_values: Tuple[Any, ...],
        remove: Optional[Dict[str, Any]],
        add: Optional[Dict[str, Any]],
    ) -> None:
        group_key = encode_key(list(group_values))
        payload = io.get(view.namespace, group_key)
        state = deserialize_row(payload) if payload is not None else None
        if state is None:
            if add is None:
                return  # retracting from a group that never materialized
            # The group record is missing (never materialized, or lost to a
            # failure): there is nothing to retract, so apply only the
            # addition rather than driving counters negative.
            remove = None
            state = fresh_state(view, list(group_values))
        old_state = dict(state) if payload is not None else None

        if remove is not None:
            merge_remove(view, state, remove)
        if add is not None:
            merge_add(view, state, add)

        if state[ROWS_KEY] <= 0:
            if payload is not None:
                io.delete(view.namespace, group_key)
            new_state: Optional[Dict[str, Any]] = None
        else:
            io.put(view.namespace, group_key, serialize_row(state))
            new_state = state

        if view.order_index is not None:
            self._maintain_order_index(view, io, old_state, new_state)

    # ------------------------------------------------------------------
    # Bounded ordered view index (top-k per partition, with eviction)
    # ------------------------------------------------------------------
    def _entry(
        self, view: MaterializedView, state: Dict[str, Any]
    ) -> Tuple[bytes, bytes]:
        entries = list(
            index_entries(view.order_index, view.backing_table, state)
        )
        assert len(entries) == 1, "view order indexes are never tokenized"
        return entries[0]

    def _maintain_order_index(
        self,
        view: MaterializedView,
        io,
        old_state: Optional[Dict[str, Any]],
        new_state: Optional[Dict[str, Any]],
    ) -> None:
        namespace = view.order_index.namespace
        old_entry = self._entry(view, old_state) if old_state is not None else None
        new_entry = self._entry(view, new_state) if new_state is not None else None
        if old_entry is not None and new_entry is not None and \
                old_entry[0] == new_entry[0]:
            return  # ordering value unchanged: skip the index round trips
        if old_entry is not None:
            # Blind delete: the group may have been evicted, in which case
            # this is a no-op — membership is not tracked client-side.
            io.delete(namespace, old_entry[0])
        if new_entry is None or new_state is None:
            return

        partition = [
            new_state.get(column) for column in view.partition_column_names
        ]
        start, end = prefix_range(partition)
        capacity = view.order.limit
        count = io.count_range(namespace, start, end)
        if count < capacity:
            io.put(namespace, new_entry[0], new_entry[1])
            return
        # Partition at capacity: admit only if the new entry beats the worst
        # member (for a DESC view entries ascend by order value, so the worst
        # is the first ascending entry), evicting it.
        worst = io.first_in_range(
            namespace, start, end, ascending=not view.order.ascending
        )
        if worst is None:
            io.put(namespace, new_entry[0], new_entry[1])
            return
        beats = (
            new_entry[0] > worst[0]
            if not view.order.ascending
            else new_entry[0] < worst[0]
        )
        if beats:
            io.put(namespace, new_entry[0], new_entry[1])
            io.delete(namespace, worst[0])

    # ------------------------------------------------------------------
    # Backfill (CREATE MATERIALIZED VIEW over existing data)
    # ------------------------------------------------------------------
    def backfill(self, view: MaterializedView) -> int:
        """Populate a freshly created view from existing base records.

        Uses the latency-free load path, like index backfill; returns the
        number of driving rows folded in.
        """
        cluster = self.client.cluster
        driving = self.catalog.table(view.driving_table)
        count = 0
        io = _LoadIO(cluster)
        for _, payload in cluster.iter_namespace(driving.namespace):
            self._apply(view, io, None, deserialize_row(payload))
            count += 1
        return count


# ----------------------------------------------------------------------
# Offline recomputation (ground truth for tests and benchmarks)
# ----------------------------------------------------------------------
def recompute_view(
    view: MaterializedView, catalog: Catalog, cluster: KeyValueCluster
) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
    """Recompute a view's visible content from the base tables, offline.

    Full scans over the driving table (and point resolution of dimensions),
    folded through the same merge rules *without* any bounded-state
    trimming: the result is the exact aggregate per group, the ground truth
    incremental maintenance is checked against.
    """
    engine = ViewMaintenanceEngine(catalog, StorageClient(cluster=cluster))
    io = _LoadIO(cluster)
    driving = catalog.table(view.driving_table)
    states: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for _, payload in cluster.iter_namespace(driving.namespace):
        contribution = engine._contribution(view, io, deserialize_row(payload))
        if contribution is None:
            continue
        group_values, aggregate_inputs = contribution
        state = states.get(group_values)
        if state is None:
            state = fresh_state(view, list(group_values))
            states[group_values] = state
        merge_add(view, state, aggregate_inputs)
    return {
        group: visible_row(view, state) for group, state in states.items()
    }


def recompute_top_k(
    view: MaterializedView,
    recomputed: Dict[Tuple[Any, ...], Dict[str, Any]],
    partition: Tuple[Any, ...],
) -> List[Dict[str, Any]]:
    """The exact top-k rows of one partition from recomputed group states.

    Orders groups by their would-be view-index entry keys (order value, then
    primary key), i.e. the identical total order — including ties — that a
    bounded view-index scan returns.
    """
    assert view.order is not None
    keyed: List[Tuple[bytes, Dict[str, Any]]] = []
    width = len(partition)
    for group_values, row in recomputed.items():
        if tuple(group_values[:width]) != tuple(partition):
            continue
        entry_key, _ = next(
            iter(index_entries(view.order_index, view.backing_table, row))
        )
        keyed.append((entry_key, row))
    keyed.sort(key=lambda pair: pair[0], reverse=not view.order.ascending)
    top = keyed[: view.order.limit]
    return [row for _, row in top]
