"""Interpreter for physical plans.

Each physical operator is executed against the simulated key/value store
through the :class:`~repro.kvstore.client.StorageClient`, honouring the
execution strategy (LAZY / SIMPLE / PARALLEL) that Section 8.5 compares:
the strategy decides whether limit hints are used to batch requests and
whether a remote operator's requests are issued in parallel.

Under SIMPLE and PARALLEL the executor plans its fetches **batch-at-a-time**
(``context.batched``):

* **RPC fusion** — the secondary-index dereferences of a sorted index join
  are collected across *all* children and issued as one deduplicated bulk
  ``multi_get`` round instead of one round per child (per-child attribution
  is preserved for the merge);
* **stop-aware dereference** — when the plan carries a data stop / LIMIT,
  index entries are put in output order *before* the base records are
  fetched (the sort columns are decoded from the entry keys), dereferenced
  in stop-sized chunks, and the fetch stops as soon as the stop is
  satisfied;
* **predicate pushdown** — residual predicates that only touch index-key
  fields are evaluated server-side on the index entries
  (``pushed_predicates``), so non-matching entries are charged as examined
  but never shipped or dereferenced.

None of this changes the rows returned, the per-query operation counts, or
the static bounds — logical operations measure *requested* work (skipped
fetches are charged through ``ClientStats.saved_reads``) and only the RPC
round structure and the latency composition improve.  The LAZY strategy
runs none of it: its tuple-at-a-time path (one request per tuple, as in
Figure 12) doubles as the row-level reference the batched path is tested
against.

Operators exchange *internal rows* — dictionaries mapping a relation alias
to that relation's column values — so joins simply merge dictionaries and
the final projection flattens them into user-visible rows.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ExecutionError
from ..plans import logical as L
from ..plans import physical as P
from ..schema.ddl import Table
from ..schema.keys import (
    decode_key,
    encode_key,
    encode_value,
    ordering_bytes,
    prefix_upper_bound,
    successor,
)
from ..sql.ast import Parameter
from ..storage.fulltext import query_token
from ..storage.rows import (
    cached_pk_key,
    deserialize_pk,
    deserialize_row,
    pk_key,
)
from .context import ExecutionContext, ExecutionStrategy, InternalRow
from .evaluate import (
    column_value,
    evaluate_all,
    resolve_in_list,
    resolve_key_part,
    resolve_value,
    sort_rows,
    top_k_rows,
)

KeyValuePairs = List[Tuple[bytes, bytes]]

#: Per-operator-class span metadata, computed once: the display name
#: ("Physical" prefix stripped) and whether the operator is a purely local
#: transform (no storage work, no simulated time) whose span is only worth
#: recording when the tracer is in verbose mode (EXPLAIN ANALYZE).
_SPAN_INFO: Dict[type, Tuple[str, bool]] = {}

_LOCAL_OPERATORS = (
    P.PhysicalLocalSelection,
    P.PhysicalLocalSort,
    P.PhysicalLocalStop,
    P.PhysicalLocalAggregate,
    P.PhysicalLocalProjection,
)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def execute_plan(plan: P.PhysicalOperator, context: ExecutionContext) -> List[InternalRow]:
    """Execute any physical operator, returning internal rows.

    When the execution is traced, every storage-touching operator gets one
    ``operator`` span carrying ``node_id = id(plan node)`` (how the bound
    auditor and ``EXPLAIN ANALYZE`` map spans back to the plan) plus the
    operations, round trips, and rows its subtree produced.  Purely local
    operators are only spanned when the tracer is in verbose mode
    (``EXPLAIN ANALYZE`` sets it): they issue no storage work and take no
    simulated time, so steady-state traces skip them.
    """
    tracer = context.tracer
    if tracer is None:
        return _dispatch(plan, context)
    cls = type(plan)
    info = _SPAN_INFO.get(cls)
    if info is None:
        info = _SPAN_INFO[cls] = (
            cls.__name__.removeprefix("Physical"),
            issubclass(cls, _LOCAL_OPERATORS),
        )
    name, local = info
    if local and not tracer.verbose:
        return _dispatch(plan, context)
    counters = context.counters
    if counters is None:
        counters = context.counters = context.client.stats.metrics.live_counters
    ops_before = counters.get("client.operations", 0)
    rpcs_before = counters.get("client.rpcs", 0)
    span = tracer.start_span(name, "operator", node_id=id(plan))
    try:
        rows = _dispatch(plan, context)
    finally:
        tracer.end_span(span)
    attributes = span.attributes
    attributes["operations"] = counters.get("client.operations", 0) - ops_before
    attributes["rpcs"] = counters.get("client.rpcs", 0) - rpcs_before
    attributes["rows"] = len(rows)
    return rows


def _dispatch(plan: P.PhysicalOperator, context: ExecutionContext) -> List[InternalRow]:
    if isinstance(plan, P.PhysicalIndexScan):
        return _execute_index_scan(plan, context)
    if isinstance(plan, P.PhysicalIndexLookup):
        return _execute_index_lookup(plan, context)
    if isinstance(plan, P.PhysicalIndexFKJoin):
        return _execute_fk_join(plan, context)
    if isinstance(plan, P.PhysicalSortedIndexJoin):
        return _execute_sorted_index_join(plan, context)
    if isinstance(plan, P.PhysicalLocalSelection):
        rows = execute_plan(plan.child, context)
        return [r for r in rows if evaluate_all(plan.predicates, r, context)]
    if isinstance(plan, P.PhysicalLocalSort):
        return sort_rows(execute_plan(plan.child, context), plan.keys)
    if isinstance(plan, P.PhysicalLocalStop):
        rows = execute_plan(plan.child, context)
        count = _resolve_count(plan.count, context)
        return rows if count is None else rows[:count]
    if isinstance(plan, P.PhysicalLocalAggregate):
        return _execute_aggregate(plan, context)
    if isinstance(plan, P.PhysicalLocalProjection):
        # Projection is normally driven through execute_output; executing it
        # as an inner node just forwards the child rows.
        return execute_plan(plan.child, context)
    raise ExecutionError(f"cannot execute operator {type(plan).__name__}")


def execute_output(
    plan: P.PhysicalOperator, context: ExecutionContext
) -> List[Dict[str, Any]]:
    """Execute a full plan and flatten its rows for the user."""
    if isinstance(plan, P.PhysicalLocalProjection):
        # Going through execute_plan (whose dispatch forwards projection to
        # its child) keeps the projection node in the trace.
        rows = execute_plan(plan, context)
        return [_project_row(plan.items, row) for row in rows]
    rows = execute_plan(plan, context)
    return [_project_row((L.StarItem(None),), row) for row in rows]


# ----------------------------------------------------------------------
# Remote operators
# ----------------------------------------------------------------------
def _resolve_count(
    count: Optional[object], context: ExecutionContext
) -> Optional[int]:
    if count is None:
        return None
    if isinstance(count, int):
        return count
    if isinstance(count, Parameter):
        try:
            return int(context.parameter(count.name))
        except KeyError:
            if count.max_cardinality is not None:
                return count.max_cardinality
            raise
    raise ExecutionError(f"cannot resolve count {count!r}")


def _scan_limit(op: P.PhysicalIndexScan, context: ExecutionContext) -> Optional[int]:
    candidates: List[int] = []
    hint = _resolve_count(op.limit_hint, context) if op.limit_hint is not None else None
    if hint is not None:
        candidates.append(hint)
    if op.data_stop is not None:
        candidates.append(op.data_stop)
    return min(candidates) if candidates else None


def _range_for_scan(
    op: P.PhysicalIndexScan, context: ExecutionContext
) -> Tuple[bytes, bytes, List[L.ValuePredicate]]:
    """Compute the byte range of a scan plus any residual local checks."""
    prefix_values: List[Any] = []
    for position, part in enumerate(op.prefix):
        value = resolve_key_part(part, context)
        if (
            not op.index.primary
            and op.index.definition is not None
            and position < len(op.index.definition.columns)
            and op.index.definition.columns[position].tokenized
        ):
            value = query_token(str(value))
        prefix_values.append(value)
    prefix_bytes = encode_key(prefix_values)
    start = prefix_bytes
    end = prefix_upper_bound(prefix_bytes) if prefix_bytes else None
    local_checks: List[L.ValuePredicate] = []
    if op.inequality is not None:
        column, operator, value = op.inequality
        resolved = resolve_key_part(value, context)
        encoded = encode_value(resolved)
        if operator == "<":
            end = prefix_bytes + encoded
        elif operator == "<=":
            end = prefix_bytes + encoded + b"\xff"
        elif operator == ">":
            start = prefix_bytes + encoded + b"\xff"
        elif operator == ">=":
            start = prefix_bytes + encoded
        elif operator == "<>":
            local_checks.append(
                L.AttributeInequality(
                    column=L.BoundColumn(
                        relation=op.relation_alias, table=op.table, column=column
                    ),
                    op="<>",
                    value=value if not isinstance(value, L.BoundColumn) else value,
                )
            )
        else:
            raise ExecutionError(f"unsupported inequality operator {operator!r}")
    return start, end, local_checks


def _fetch_range(
    namespace: str,
    start: Optional[bytes],
    end: Optional[bytes],
    limit: Optional[int],
    ascending: bool,
    context: ExecutionContext,
) -> KeyValuePairs:
    """Fetch a range honouring the execution strategy's batching behaviour."""
    if context.strategy is ExecutionStrategy.LAZY:
        pairs: KeyValuePairs = []
        current_start, current_end = start, end
        while limit is None or len(pairs) < limit:
            batch = context.client.get_range(
                namespace, current_start, current_end, limit=1, ascending=ascending
            )
            if not batch:
                break
            key, value = batch[0]
            pairs.append((key, value))
            if ascending:
                current_start = successor(key)
            else:
                current_end = key
        return pairs
    return context.client.get_range(
        namespace, start, end, limit=limit, ascending=ascending
    )


# ----------------------------------------------------------------------
# Dereferencing (index entry -> base record)
# ----------------------------------------------------------------------
def _lazy_dereference(
    table: Table, entries: KeyValuePairs, context: ExecutionContext
) -> List[Dict[str, Any]]:
    """The Lazy executor's dereference: one request (and one round) per
    secondary index entry."""
    keys = [pk_key(deserialize_pk(value)) for _, value in entries]
    values = [context.client.get(table.namespace, key) for key in keys]
    context.client.stats.metrics.add("client.dereference_rounds", len(keys))
    return [deserialize_row(value) for value in values if value is not None]


def _fused_dereference_map(
    table: Table, entries: KeyValuePairs, context: ExecutionContext
) -> Dict[bytes, Optional[bytes]]:
    """One deduplicated bulk dereference round over many index entries.

    Returns a ``record key -> payload`` map for per-entry attribution.
    Operations are charged per *logical* lookup (one per entry), duplicates
    are fetched once.
    """
    keys = [cached_pk_key(value) for _, value in entries]
    unique = list(dict.fromkeys(keys))
    if not unique:
        return {}
    values = context.client.multi_get(
        table.namespace, unique, parallel=True, logical_operations=len(keys)
    )
    context.client.stats.metrics.add("client.dereference_rounds")
    return dict(zip(unique, values))


# ----------------------------------------------------------------------
# Predicate pushdown (evaluate residuals on index entries, server-side)
# ----------------------------------------------------------------------
def _build_entry_filter(
    op: P.PhysicalIndexScan,
    table: Table,
    checks: List[L.ValuePredicate],
    context: ExecutionContext,
) -> Optional[Callable[[bytes, bytes], bool]]:
    """Server-side filter evaluating ``checks`` on raw index entries.

    Pushability is decided by the shared
    :func:`repro.plans.physical.pushable_predicate_columns` rules — the
    same ones Phase II used to annotate the scan — re-checked here because
    runtime-built local checks (the ``<>`` rewrite) also land in
    ``checks``; an unpushable predicate simply disables the server-side
    filter and falls back to post-materialization evaluation.
    """
    alias = op.relation_alias
    if op.index.primary:
        for predicate in checks:
            if P.pushable_predicate_columns(predicate, alias, True) is None:
                return None

        def record_filter(key: bytes, value: bytes) -> bool:
            return evaluate_all(checks, {alias: deserialize_row(value)}, context)

        return record_filter

    positions = P.entry_decodable_columns(op.index, table)
    if positions is None:
        return None
    needed: List[str] = []
    for predicate in checks:
        columns = P.pushable_predicate_columns(predicate, alias, False)
        if columns is None:
            return None
        needed.extend(columns)
    if any(column not in positions for column in needed):
        return None
    wanted = {column: positions[column] for column in set(needed)}
    components = max(wanted.values()) + 1

    def entry_filter(key: bytes, value: bytes) -> bool:
        decoded = decode_key(key, count=components)
        row = {column: decoded[offset] for column, offset in wanted.items()}
        return evaluate_all(checks, {alias: row}, context)

    return entry_filter


# ----------------------------------------------------------------------
# Index scan
# ----------------------------------------------------------------------
def _execute_index_scan(
    op: P.PhysicalIndexScan, context: ExecutionContext
) -> List[InternalRow]:
    table = context.catalog.table(op.table)
    namespace = (
        table.namespace if op.index.primary else op.index.definition.namespace
    )
    start, end, local_checks = _range_for_scan(op, context)
    limit = _scan_limit(op, context)

    resume = context.resume_positions.get(op.scan_id)
    if resume is not None:
        if op.ascending:
            start = max(start, successor(resume)) if start else successor(resume)
        else:
            end = min(end, resume) if end else resume

    checks = list(local_checks) + list(op.pushed_predicates)
    entry_filter = None
    if checks and context.batched:
        entry_filter = _build_entry_filter(op, table, checks, context)

    if entry_filter is not None:
        pairs, examined, last_examined = context.client.filtered_range(
            namespace, start, end, limit, op.ascending, entry_filter
        )
        if last_examined is not None:
            # Resume after the last *examined* entry: a page whose entries
            # all fail the pushed predicate must still make progress.
            context.new_positions[op.scan_id] = last_examined
        context.scan_exhausted[op.scan_id] = limit is None or examined < limit
        if op.index.primary:
            records = [deserialize_row(value) for _, value in pairs]
        else:
            by_key = _fused_dereference_map(table, pairs, context)
            records = _records_for_entries(pairs, by_key)
            # Entries the filter pruned would each have cost one dereference
            # without the pushdown; charge them as requested-but-saved work
            # so operation counts measure requested work.
            context.client.charge_saved_reads(examined - len(pairs))
        return [{op.relation_alias: record} for record in records]

    pairs = _fetch_range(namespace, start, end, limit, op.ascending, context)
    if pairs:
        # pairs are returned in scan order, so the last one is the position
        # to resume after (largest key for ascending scans, smallest for
        # descending ones).
        context.new_positions[op.scan_id] = pairs[-1][0]
    context.scan_exhausted[op.scan_id] = limit is None or len(pairs) < limit

    if op.index.primary:
        records = [deserialize_row(value) for _, value in pairs]
    elif context.batched:
        by_key = _fused_dereference_map(table, pairs, context)
        records = _records_for_entries(pairs, by_key)
    else:
        records = _lazy_dereference(table, pairs, context)
    rows: List[InternalRow] = [{op.relation_alias: record} for record in records]
    if checks:
        rows = [r for r in rows if evaluate_all(checks, r, context)]
    return rows


def _records_for_entries(
    entries: KeyValuePairs, by_key: Dict[bytes, Optional[bytes]]
) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for _, value in entries:
        payload = by_key.get(cached_pk_key(value))
        if payload is not None:
            records.append(deserialize_row(payload))
    return records


# ----------------------------------------------------------------------
# Bounded point lookups
# ----------------------------------------------------------------------
def _execute_index_lookup(
    op: P.PhysicalIndexLookup, context: ExecutionContext
) -> List[InternalRow]:
    table = context.catalog.table(op.table)
    # Expand the cartesian product of fixed values and the (single) IN list.
    key_value_lists: List[List[Any]] = []
    for part in op.key_parts:
        if isinstance(part, P.InListPart):
            key_value_lists.append(resolve_in_list(part, context))
        else:
            key_value_lists.append([resolve_key_part(part, context)])
    keys: List[bytes] = []
    _expand_keys(key_value_lists, 0, [], keys)
    values = _point_fetch(table.namespace, keys, context)
    return [
        {op.relation_alias: deserialize_row(value)}
        for value in values
        if value is not None
    ]


def _point_fetch(
    namespace: str, keys: List[bytes], context: ExecutionContext
) -> List[Optional[bytes]]:
    """Fetch point keys per the strategy; batched strategies deduplicate.

    Returns one value slot per *requested* key (duplicates share the fetched
    payload), and always charges one logical operation per requested key.
    """
    client = context.client
    if not context.batched:
        return [client.get(namespace, key) for key in keys]
    unique = list(dict.fromkeys(keys))
    if context.strategy is ExecutionStrategy.PARALLEL:
        fetched = client.multi_get(
            namespace, unique, parallel=True, logical_operations=len(keys)
        )
    else:
        fetched = [client.get(namespace, key) for key in unique]
        client.charge_saved_reads(len(keys) - len(unique))
    by_key = dict(zip(unique, fetched))
    return [by_key[key] for key in keys]


def _expand_keys(
    value_lists: List[List[Any]], position: int, prefix: List[Any], out: List[bytes]
) -> None:
    if position == len(value_lists):
        out.append(encode_key(prefix))
        return
    for value in value_lists[position]:
        _expand_keys(value_lists, position + 1, prefix + [value], out)


def _execute_fk_join(
    op: P.PhysicalIndexFKJoin, context: ExecutionContext
) -> List[InternalRow]:
    table = context.catalog.table(op.table)
    child_rows = execute_plan(op.child, context)
    if not child_rows:
        return []
    keys: List[Optional[bytes]] = []
    for row in child_rows:
        values = [resolve_key_part(part, context, row) for part in op.key_parts]
        keys.append(None if any(v is None for v in values) else encode_key(values))

    lookup_keys = [key for key in keys if key is not None]
    fetched = _point_fetch(table.namespace, lookup_keys, context)
    by_key: Dict[bytes, Optional[bytes]] = dict(zip(lookup_keys, fetched))

    joined: List[InternalRow] = []
    for row, key in zip(child_rows, keys):
        if key is None:
            continue
        payload = by_key.get(key)
        if payload is None:
            continue
        merged = dict(row)
        merged[op.relation_alias] = deserialize_row(payload)
        joined.append(merged)
    return joined


# ----------------------------------------------------------------------
# Sorted index join
# ----------------------------------------------------------------------
def _bound_sort_keys(
    op: P.PhysicalSortedIndexJoin,
) -> List[Tuple[L.BoundColumn, bool]]:
    return [
        (
            L.BoundColumn(relation=op.relation_alias, table=op.table, column=name),
            ascending,
        )
        for name, ascending in op.sort_keys
    ]


def _execute_sorted_index_join(
    op: P.PhysicalSortedIndexJoin, context: ExecutionContext
) -> List[InternalRow]:
    table = context.catalog.table(op.table)
    namespace = (
        table.namespace if op.index.primary else op.index.definition.namespace
    )
    child_rows = execute_plan(op.child, context)
    if not child_rows:
        return []

    ranges = []
    for row in child_rows:
        prefix_values = [resolve_key_part(part, context, row) for part in op.prefix]
        prefix_bytes = encode_key(prefix_values)
        ranges.append(
            (prefix_bytes, prefix_upper_bound(prefix_bytes), op.limit_hint, op.ascending)
        )

    strategy = context.strategy
    per_child_entries: List[KeyValuePairs] = []
    if strategy is ExecutionStrategy.LAZY:
        for start, end, limit, ascending in ranges:
            per_child_entries.append(
                _fetch_range(namespace, start, end, limit, ascending, context)
            )
    elif strategy is ExecutionStrategy.SIMPLE:
        per_child_entries = context.client.multi_get_range(
            namespace, ranges, parallel=False
        )
    else:
        per_child_entries = context.client.multi_get_range(
            namespace, ranges, parallel=True
        )

    stop = _resolve_count(op.stop_count, context) if op.stop_count is not None else None

    if context.batched:
        prefix_lengths = [len(prefix_bytes) for prefix_bytes, _, _, _ in ranges]
        return _fused_sorted_join(
            op, table, child_rows, per_child_entries, prefix_lengths, stop, context
        )

    # The Lazy executor: materialize every joined row (one dereference per
    # entry), then order and truncate locally.
    joined: List[InternalRow] = []
    for row, entries in zip(child_rows, per_child_entries):
        if op.index.primary:
            records = [deserialize_row(value) for _, value in entries]
        else:
            records = _lazy_dereference(table, entries, context)
        for record in records:
            merged = dict(row)
            merged[op.relation_alias] = record
            joined.append(merged)

    if op.sort_keys:
        keys = _bound_sort_keys(op)
        if stop is not None:
            # Top-K selection instead of a full sort of every joined row.
            return top_k_rows(joined, keys, stop)
        joined = sort_rows(joined, keys)
    if stop is not None:
        joined = joined[:stop]
    return joined


def _fused_sorted_join(
    op: P.PhysicalSortedIndexJoin,
    table: Table,
    child_rows: List[InternalRow],
    per_child_entries: List[KeyValuePairs],
    prefix_lengths: List[int],
    stop: Optional[int],
    context: ExecutionContext,
) -> List[InternalRow]:
    """Batch-at-a-time sorted index join.

    Orders the fetched index entries into the final output order *first*
    (on the sort columns' bytes in the entry keys, with the (child, entry)
    position as the stable tiebreaker — the exact order the Lazy executor's
    sort-then-truncate produces), then materializes base records lazily:
    primary-index payloads are deserialised only as needed, and secondary
    entries are dereferenced in one deduplicated bulk round per stop-sized
    chunk, stopping as soon as the stop is satisfied.

    Ordering by entry-key bytes needs the sort columns right after the join
    prefix, untokenized, in the index the join reads.  The planner only
    builds such joins (``phase2._build_join``: the primary key when the
    sort columns follow the prefix there, else an index on the prefix then
    the sort columns); ``tests/optimizer/test_sorted_join_layout.py`` checks
    every compiled workload plan.
    """
    client = context.client
    total_entries = sum(len(entries) for entries in per_child_entries)
    if total_entries == 0:
        return []

    ordered = _entries_in_output_order(op, per_child_entries, prefix_lengths)
    needed = stop if stop is not None else total_entries

    joined: List[InternalRow] = []
    if op.index.primary:
        # The payloads already travelled with the range replies; ordering
        # first just avoids deserialising rows the stop would discard.
        for child_index, _, value in islice(ordered, needed):
            merged = dict(child_rows[child_index])
            merged[op.relation_alias] = deserialize_row(value)
            joined.append(merged)
        return joined

    # Secondary index: stop-aware chunked dereference.  Each chunk is one
    # deduplicated bulk round; entries never reached are charged as
    # requested-but-saved lookups so operation counts measure requested work.
    chunk_size = max(1, needed)
    by_key: Dict[bytes, Optional[bytes]] = {}
    examined = 0
    while len(joined) < needed:
        chunk = list(islice(ordered, chunk_size))
        if not chunk:
            break
        examined += len(chunk)
        chunk_keys = [cached_pk_key(value) for _, _, value in chunk]
        missing = [key for key in dict.fromkeys(chunk_keys) if key not in by_key]
        if missing:
            fetched = client.multi_get(
                table.namespace, missing, parallel=True,
                logical_operations=len(chunk),
            )
            client.stats.metrics.add("client.dereference_rounds")
            by_key.update(zip(missing, fetched))
        else:
            client.charge_saved_reads(len(chunk))
        for (child_index, _, _), key in zip(chunk, chunk_keys):
            payload = by_key.get(key)
            if payload is None:
                continue
            merged = dict(child_rows[child_index])
            merged[op.relation_alias] = deserialize_row(payload)
            joined.append(merged)
            if len(joined) >= needed:
                break
    client.charge_saved_reads(total_entries - examined)
    return joined


def _entries_in_output_order(
    op: P.PhysicalSortedIndexJoin,
    per_child_entries: List[KeyValuePairs],
    prefix_lengths: List[int],
) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(child index, entry index, entry value)`` in final output order.

    With no sort keys the output order is simply child order then index
    order.  With sort keys, the order is the one the Lazy executor's
    stable sort produces — sort values under their directions, position as
    the tiebreaker — reached by a k-way merge of the per-child streams.
    Nothing is decoded: the key encoding is order-preserving, so the merge
    compares each entry key's sort columns as bytes (``ordering_bytes``),
    starting at the byte where that child's join prefix ends.  When every
    sort direction is the scan direction the entries already arrive in
    output order, so the merge is lazy: it looks at about stop + children
    entries, not all of them.
    """
    if not op.sort_keys:
        for child_index, entries in enumerate(per_child_entries):
            for entry_index, (_, value) in enumerate(entries):
                yield (child_index, entry_index, value)
        return
    directions = [ascending for _, ascending in op.sort_keys]

    def keyed(child_index: int) -> Iterator[Tuple[bytes, int, int, bytes]]:
        prefix_length = prefix_lengths[child_index]
        for entry_index, (key, value) in enumerate(per_child_entries[child_index]):
            yield (
                ordering_bytes(key, prefix_length, directions),
                child_index,
                entry_index,
                value,
            )

    # Scanned in every sort direction, a child is already in output order;
    # otherwise it is ordered here, before the merge.
    presorted = all(ascending == op.ascending for ascending in directions)
    streams = [
        keyed(child_index) if presorted else sorted(keyed(child_index))
        for child_index in range(len(per_child_entries))
    ]
    for _, child_index, entry_index, value in heapq.merge(*streams):
        yield (child_index, entry_index, value)


# ----------------------------------------------------------------------
# Local aggregation and projection
# ----------------------------------------------------------------------
def _try_count_fast_path(
    op: P.PhysicalLocalAggregate, context: ExecutionContext
) -> Optional[List[InternalRow]]:
    """Serve ``COUNT(*)`` over a clean index scan with one ``count_range``.

    Applies when the aggregate is COUNT(*)-only with no grouping and the
    scan carries no residual predicate: the count of index entries in the
    scan's byte range *is* the answer, so fetching (and for a secondary
    index, dereferencing and deserialising) every entry client-side is pure
    waste.  The count is capped at the scan's limit, matching what the
    fetch-and-count plan would have seen.
    """
    if context.strategy is ExecutionStrategy.LAZY:
        return None
    if context.paginated:
        # A paginated COUNT counts one page per execution through the
        # scan's cursor machinery; the fast path would answer the whole
        # range at once and break page-by-page equivalence.
        return None
    if op.group_by or not op.aggregates:
        return None
    if any(
        spec.function != "COUNT" or spec.argument is not None
        for spec in op.aggregates
    ):
        return None
    child = op.child
    if not isinstance(child, P.PhysicalIndexScan):
        return None
    if child.pushed_predicates:
        return None
    if context.resume_positions.get(child.scan_id) is not None:
        return None
    table = context.catalog.table(child.table)
    namespace = (
        table.namespace
        if child.index.primary
        else child.index.definition.namespace
    )
    start, end, local_checks = _range_for_scan(child, context)
    if local_checks:
        return None
    limit = _scan_limit(child, context)
    count = context.client.count_range(namespace, start, end)
    if limit is not None:
        count = min(count, limit)
    context.scan_exhausted[child.scan_id] = True
    return [{"__agg__": {spec.output_name: count for spec in op.aggregates}}]


def _execute_aggregate(
    op: P.PhysicalLocalAggregate, context: ExecutionContext
) -> List[InternalRow]:
    fast = _try_count_fast_path(op, context)
    if fast is not None:
        return fast
    rows = execute_plan(op.child, context)
    groups: Dict[Tuple, List[InternalRow]] = {}
    for row in rows:
        key = tuple(column_value(row, column) for column in op.group_by)
        groups.setdefault(key, []).append(row)
    if not op.group_by and not groups:
        groups[()] = []

    output: List[InternalRow] = []
    for key, members in groups.items():
        result: InternalRow = {}
        for column, value in zip(op.group_by, key):
            result.setdefault(column.relation, {})[column.column] = value
        aggregate_values: Dict[str, Any] = {}
        for spec in op.aggregates:
            aggregate_values[spec.output_name] = _aggregate_value(spec, members)
        result["__agg__"] = aggregate_values
        output.append(result)
    return output


def _aggregate_value(spec: L.AggregateSpec, rows: List[InternalRow]) -> Any:
    if spec.function == "COUNT":
        if spec.argument is None:
            return len(rows)
        return sum(1 for row in rows if column_value(row, spec.argument) is not None)
    values = [
        column_value(row, spec.argument)
        for row in rows
        if spec.argument is not None and column_value(row, spec.argument) is not None
    ]
    if not values:
        return None
    if spec.function == "SUM":
        return sum(values)
    if spec.function == "AVG":
        return sum(values) / len(values)
    if spec.function == "MIN":
        return min(values)
    if spec.function == "MAX":
        return max(values)
    raise ExecutionError(f"unknown aggregate {spec.function!r}")


def _project_row(
    items: Tuple[L.ProjectionItem, ...], row: InternalRow
) -> Dict[str, Any]:
    """Flatten an internal row into the user-visible one.

    Collision rule: a column name seen again with an equal value stays one
    column; with a different value the later one is emitted as
    ``alias.column``.
    """
    output: Dict[str, Any] = {}
    for item in items:
        kind = type(item)
        if kind is L.BoundColumn:
            name = item.column
            value = column_value(row, item)
            if name in output and output[name] != value:
                output[f"{item.relation}.{name}"] = value
            else:
                output[name] = value
        elif kind is L.StarItem:
            relations = (
                (item.relation,) if item.relation is not None else
                [alias for alias in row if alias != "__agg__"]
            )
            for alias in relations:
                for name, value in row.get(alias, {}).items():
                    if name in output and output[name] != value:
                        output[f"{alias}.{name}"] = value
                    else:
                        output[name] = value
        elif kind is L.AggregateSpec:
            output[item.output_name] = row.get("__agg__", {}).get(item.output_name)
        else:  # pragma: no cover
            raise ExecutionError(f"unsupported projection item {item!r}")
    return output
