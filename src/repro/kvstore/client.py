"""Client-side view of the key/value store.

Each application server in PIQL's architecture embeds the database library
and talks to the key/value store directly (Figure 2).  The
:class:`StorageClient` is that embedded view: it owns a simulated clock
(this client's notion of time), forwards operations to the cluster, advances
the clock by the charged latencies, and keeps counters that let tests verify
the static operation bounds computed by the optimizer.

Latency composition rules
-------------------------
* Sequential requests add their latencies (the clock advances after each).
* A *parallel* batch of requests costs the maximum of its members — this is
  what the Parallel executor of Section 7.1 exploits.

Request path
------------
Every operation is one :meth:`StorageClient._call`.  It issues the cluster
call, turns a dropped message or a reply slower than the per-RPC deadline
into one accounted :class:`~repro.errors.RpcTimeoutError` — the only
``except`` of that error and the only place ``client.rpc_timeouts`` is
counted — and accounts a completed RPC: clock, counters, breakers, span.
A gather window's batched read goes through it like any other, differing
only in when the clock moves.

Measurement
-----------
All counters live in a :class:`~repro.obs.metrics.MetricsRegistry` under
``client.*`` names; :class:`ClientStats` exposes them as read-only
attributes.
When a :class:`~repro.obs.trace.Tracer` is attached, every RPC additionally
records a completed span — one ``tracer is not None`` check per operation
when tracing is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RpcTimeoutError
from ..obs.metrics import MetricsRegistry, counter_properties
from ..obs.trace import Span, Tracer
from .cluster import KeyValueCluster, OpResult
from .simtime import SimClock

KeyValue = Tuple[bytes, bytes]
RangeSpec = Tuple[Optional[bytes], Optional[bytes], Optional[int], bool]

#: The additive counters ``ClientStats`` exposes as attributes, with the
#: cast applied on read.  Registry names are ``client.<field>``; counters
#: recorded under other ``client.*`` names (e.g. failure-path attribution)
#: flow through snapshot/delta automatically without appearing here.
_CLIENT_COUNTERS: Tuple[Tuple[str, type], ...] = (
    ("operations", int),
    ("keys_touched", int),
    ("rpcs", int),
    ("coalesced_reads", int),
    ("saved_reads", int),
    ("dereference_rounds", int),
    ("total_latency_seconds", float),
)


class ClientStats:
    """Counters of the key/value traffic issued by one client.

    The counters are registry-backed (names ``client.*``) and read-only
    here: they grow through ``metrics.add`` / ``add_many``, and
    snapshot/delta are the registry's, generic over every name in it, so
    new counters need no accounting code.  Field meanings:

    * ``operations`` / ``keys_touched`` / ``rpcs`` — logical operations,
      keys, and physical round trips.
    * ``coalesced_reads`` — point reads served from a gather window's
      coalescing buffer instead of a fresh RPC.  They still count as logical
      ``operations`` (static bounds are about requested work) but issue no
      RPC and charge no fresh latency.
    * ``saved_reads`` — logical point reads that never became physical
      fetches: duplicate lookup keys deduplicated before a ``multi_get``,
      and index-entry dereferences pruned by a data stop or a pushed-down
      predicate.
    * ``dereference_rounds`` — batched dereference rounds issued by the
      execution engine (one fused ``multi_get`` per round); the
      operator-fusion benchmark compares this across executor arms.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = MetricsRegistry() if metrics is None else metrics

    def snapshot(self) -> "ClientStats":
        return ClientStats(self.metrics.snapshot())

    def delta(self, earlier: "ClientStats") -> "ClientStats":
        """The counters accrued since the ``earlier`` snapshot."""
        return ClientStats(self.metrics.delta(earlier.metrics))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name, _ in _CLIENT_COUNTERS
        )
        return f"ClientStats({fields})"


counter_properties(ClientStats, "client", _CLIENT_COUNTERS)


@dataclass
class StorageClient:
    """A stateless application-server's connection to the simulated store."""

    cluster: KeyValueCluster
    clock: SimClock = field(default_factory=SimClock)
    stats: ClientStats = field(default_factory=ClientStats)
    #: Span-tree recorder; ``None`` (the default) disables tracing and costs
    #: one identity check per operation.
    tracer: Optional[Tracer] = field(default=None, repr=False, compare=False)
    #: Per-RPC deadline, installed per query by the resilience policy
    #: (``None`` — the default — disables the check entirely).  A reply
    #: slower than this is charged only the deadline and surfaces as
    #: :class:`~repro.errors.RpcTimeoutError`.
    rpc_timeout_seconds: Optional[float] = field(
        default=None, repr=False, compare=False
    )
    #: This client's circuit-breaker board
    #: (:class:`~repro.resilience.breaker.BreakerBoard`), attached by the
    #: resilience policy when breakers are enabled; ``None`` otherwise.
    breakers: Optional[object] = field(default=None, repr=False, compare=False)
    #: Coalescing buffer of point reads completed during an open gather
    #: window: ``(namespace, key) -> (value, ready_at_seconds, rpc span)``.
    #: The span (``None`` untraced) is the physical request that fetched
    #: the key, so later logical reads join its ``logical_reads``.  The
    #: buffer is ``None`` outside a window.
    _gather_cache: Optional[
        Dict[Tuple[str, bytes], Tuple[Optional[bytes], float, Optional[Span]]]
    ] = field(default=None, repr=False, compare=False)
    _gather_depth: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    # One RPC, start to finish
    # ------------------------------------------------------------------
    def _call(
        self,
        op: str,
        namespace: str,
        operations: int,
        method,
        *args,
        rpcs: int = 1,
        saved_reads: Optional[int] = None,
        coalesced: Optional[int] = None,
    ) -> Tuple[OpResult, Optional[Span]]:
        """Issue ``method(namespace, *args)`` and account what came of it.

        ``args`` are positional, in the cluster method's own order.  One
        frame per RPC: issuing, the deadline and the accounting used to be
        three, and a key/value operation is ~25 us of host time.

        **Timed out.**  A reply slower than the per-RPC deadline is
        indistinguishable (to the waiting client) from a lost one, so a
        dropped message and a slow reply surface as the same accounted
        :class:`~repro.errors.RpcTimeoutError`: the client gives up at the
        deadline — charging exactly the deadline, not the full reply
        latency — counts the timeout and penalises the node's breaker.  A
        drop is discovered only when the deadline fires, so with none
        configured (legacy callers) the error still counts but costs no
        time.  The store-side work of a slow reply still happened; only the
        acknowledgement is lost, which is why writes stay convergent
        (hinted handoff / newest-wins covers the unacked copy).

        **Completed.**  Clock, counters (one registry call), breakers, span;
        returns ``(result, span)``.
        ``saved_reads`` (batched reads only) counts logical reads the batch
        served without a physical fetch; they still count as keys touched.
        ``coalesced`` is given by a gather window's batched read — how many
        of the batch's logical reads the window already held — and marks a
        shared fetch: its reply arrives at ``now + latency`` like any other,
        but every branch of the window may be waiting on it, so the caller
        moves the clock (:meth:`_coalesced_wait`) and records the span the
        branches join.
        """
        started = self.clock.now
        timeout = self.rpc_timeout_seconds
        try:
            result = method(namespace, *args)
            latency = result.latency_seconds
            if timeout is not None and latency > timeout:
                raise RpcTimeoutError(op, namespace, result.node_id, timeout)
        except RpcTimeoutError as exc:
            counts: List[Tuple[str, float]] = [
                ("client.rpcs", 1),
                ("client.rpc_timeouts", 1),
                ("resilience.timeouts", 1),
            ]
            if timeout is not None:
                self.clock.advance(timeout)
                counts.append(("client.total_latency_seconds", timeout))
            self.stats.metrics.add_many(counts)
            if self.breakers is not None and exc.node_id >= 0:
                self.breakers.record_failure(  # type: ignore[attr-defined]
                    exc.node_id, self.clock.now
                )
            if self.tracer is not None:
                span = self.tracer.record(
                    op, "rpc-timeout", started, self.clock.now,
                    namespace=namespace, node_id=exc.node_id,
                )
                if exc.timeout_seconds is not None:
                    span.attributes["timeout_seconds"] = exc.timeout_seconds
            raise
        ended = started + latency
        if coalesced is None:
            self.clock.advance(latency)
        counts = [
            ("client.operations", operations),
            (
                "client.keys_touched",
                result.keys_touched + (saved_reads or 0) + (coalesced or 0),
            ),
            ("client.rpcs", rpcs),
        ]
        if result.hinted:
            counts.append(("client.hinted_writes", result.hinted))
        if result.repaired:
            counts.append(("client.read_repairs", result.repaired))
        counts.append(("client.total_latency_seconds", latency))
        if saved_reads is not None:
            counts.append(("client.saved_reads", saved_reads))
        if coalesced is not None:
            counts.append(("client.coalesced_reads", coalesced))
        self.stats.metrics.add_many(counts)
        if self.breakers is not None:
            if result.node_id >= 0:
                self.breakers.record_success(  # type: ignore[attr-defined]
                    result.node_id, ended
                )
            # Replicas the coordinator skipped as down/unreachable: each
            # sighting is a per-node failure observed by this client's own
            # traffic, which is what opens the breaker during a crash or
            # partition window even though the quorum was still met.
            for node_id in result.unavailable_nodes:
                self.breakers.record_failure(  # type: ignore[attr-defined]
                    node_id, ended
                )
        if self.tracer is None or coalesced is not None:
            return result, None
        span = self.tracer.record(
            op, "rpc", started, ended,
            namespace=namespace,
            operations=operations,
            rpcs=rpcs,
            keys=result.keys_touched,
            node_id=result.node_id,
        )
        # Rarely-set attributes are added only when non-zero; readers use
        # ``attributes.get`` throughout.
        attributes = span.attributes
        if result.payload_bytes:
            attributes["bytes"] = result.payload_bytes
        if result.hinted:
            attributes["hinted"] = result.hinted
        if result.repaired:
            attributes["repaired"] = result.repaired
        if result.queue_wait_seconds:
            attributes["queue_wait_seconds"] = result.queue_wait_seconds
        return result, span

    def _suspects(self) -> Optional[Set[int]]:
        """Breaker-open nodes right now (``None`` without a board)."""
        if self.breakers is None:
            return None
        return self.breakers.suspects(self.clock.now)  # type: ignore[attr-defined]

    @property
    def now(self) -> float:
        """Current simulated time at this client."""
        return self.clock.now

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def enable_tracing(self, keep: int = 64) -> Tracer:
        """Attach (or return) this client's tracer.

        The tracer reads time through the client — ``lambda: client.clock.now``
        — because sessions temporarily swap the clock during gathers and the
        trace must follow the active clock.
        """
        if self.tracer is None:
            self.tracer = Tracer(lambda: self.clock.now, keep=keep)
        return self.tracer

    def disable_tracing(self) -> None:
        self.tracer = None

    def _trace_coalesced(
        self, namespace: str, keys: Sequence[bytes], started: float
    ) -> None:
        """Attribute coalesced logical reads to the RPCs that fetched them
        (called inside the gather window that served them)."""
        cache = self._gather_cache
        assert cache is not None and self.tracer is not None
        ended = self.clock.now
        for key in keys:
            rpc_span = cache[(namespace, key)][2]
            if rpc_span is not None:
                rpc_span.logical_reads.append(  # type: ignore[union-attr]
                    (key, started, ended)
                )
            else:
                # Fetched before tracing was switched on: no span to join.
                self.tracer.record(
                    "get", "coalesced", started, ended,
                    namespace=namespace, key=key, coalesced=True,
                )

    # ------------------------------------------------------------------
    # Gather windows (cross-query read coalescing)
    # ------------------------------------------------------------------
    @property
    def gather_window_active(self) -> bool:
        return self._gather_cache is not None

    def begin_gather_window(self) -> None:
        """Open a coalescing window over the queries of one gather.

        While the window is open, every completed point read is remembered
        as ``(value, completion time)``; a later branch requesting the same
        key joins the outstanding batch instead of issuing a fresh RPC — it
        waits until the original fetch's completion time (if its own clock
        is not already past it) and reuses the reply.  Writes inside the
        window evict the written key so no branch reads a stale value.
        """
        self._gather_depth += 1
        if self._gather_cache is None:
            self._gather_cache = {}

    def end_gather_window(self) -> None:
        """Close the window opened by :meth:`begin_gather_window`."""
        if self._gather_depth == 0:
            raise RuntimeError("end_gather_window without begin_gather_window")
        self._gather_depth -= 1
        if self._gather_depth == 0:
            self._gather_cache = None

    def _invalidate(self, namespace: str, key: bytes) -> None:
        if self._gather_cache is not None:
            self._gather_cache.pop((namespace, key), None)

    def _coalesced_wait(self, ready_at: float) -> None:
        """Wait (in simulated time) for the shared fetch's reply to arrive."""
        if ready_at > self.clock.now:
            self.clock.advance(ready_at - self.clock.now)

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(self, namespace: str, key: bytes) -> Optional[bytes]:
        """Fetch a single value (one key/value store operation)."""
        cache = self._gather_cache
        if cache is not None:
            hit = cache.get((namespace, key))
            if hit is not None:
                value, ready_at, _ = hit
                self.stats.metrics.add_many((
                    ("client.operations", 1),
                    ("client.keys_touched", 1),
                    ("client.coalesced_reads", 1),
                ))
                started = self.clock.now
                self._coalesced_wait(ready_at)
                if self.tracer is not None:
                    self._trace_coalesced(namespace, (key,), started)
                return value
        result, span = self._call(
            "get", namespace, 1, self.cluster.get, key, self.clock.now,
            self._suspects(),
        )
        if cache is not None:
            cache[(namespace, key)] = (result.value, self.clock.now, span)  # type: ignore[arg-type]
            if span is not None:
                span.logical_reads = [key]
        return result.value  # type: ignore[return-value]

    def put(self, namespace: str, key: bytes, value: bytes) -> None:
        """Write a single value (one key/value store operation)."""
        self._call(
            "put", namespace, 1, self.cluster.put, key, value,
            self.clock.now, self._suspects(),
        )
        self._invalidate(namespace, key)

    def delete(self, namespace: str, key: bytes) -> bool:
        """Delete a key; returns whether it existed."""
        result, _ = self._call(
            "delete", namespace, 1, self.cluster.delete, key, self.clock.now,
            self._suspects(),
        )
        self._invalidate(namespace, key)
        return bool(result.value)

    def test_and_set(
        self, namespace: str, key: bytes, expected: Optional[bytes], new_value: bytes
    ) -> bool:
        """Conditionally write a key; returns whether the swap succeeded."""
        result, _ = self._call(
            "test_and_set", namespace, 1, self.cluster.test_and_set,
            key, expected, new_value, self.clock.now, self._suspects(),
        )
        self._invalidate(namespace, key)
        return bool(result.value)

    # ------------------------------------------------------------------
    # Batched reads
    # ------------------------------------------------------------------
    def charge_saved_reads(self, count: int) -> None:
        """Account for logical point reads that needed no physical fetch.

        Used by the execution engine when a dereference is skipped — the key
        was a duplicate of one already in the batch, or a data stop /
        pushed-down predicate made the base record unnecessary.  The logical
        operation still counts (static bounds measure requested work), but
        no RPC is issued and no latency is charged.
        """
        if count <= 0:
            return
        self.stats.metrics.add_many((
            ("client.operations", count),
            ("client.keys_touched", count),
            ("client.saved_reads", count),
        ))

    def multi_get(
        self,
        namespace: str,
        keys: Sequence[bytes],
        parallel: bool = True,
        logical_operations: Optional[int] = None,
    ) -> List[Optional[bytes]]:
        """Fetch many keys; counts ``logical_operations`` (default
        ``len(keys)``) operations.

        Callers that deduplicate their key list before batching pass the
        pre-dedupe count as ``logical_operations`` so operation counts keep
        describing the requested work; the difference is recorded under
        ``stats.saved_reads``.

        Inside a gather window (parallel batches only) the request is
        coalesced with the window's outstanding reads: keys another branch
        already fetched are served from the shared reply — the caller waits
        until that reply's completion time rather than re-issuing the RPC —
        and only the remaining keys go to the cluster as one batch.
        """
        logical = len(keys) if logical_operations is None else logical_operations
        cache = self._gather_cache
        if cache is None or not parallel:
            result, _ = self._call(
                "multi_get", namespace, logical, self.cluster.multi_get,
                keys, parallel, self.clock.now, self._suspects(),
                rpcs=1 if parallel else len(keys),
                saved_reads=logical - len(keys),
            )
            return result.value  # type: ignore[return-value]
        values: List[Optional[bytes]] = [None] * len(keys)
        miss_keys: List[bytes] = []
        miss_slots: List[int] = []
        started = self.clock.now
        ready_at = started
        hits: List[bytes] = []
        for slot, key in enumerate(keys):
            hit = cache.get((namespace, key))
            if hit is None:
                miss_keys.append(key)
                miss_slots.append(slot)
            else:
                values[slot] = hit[0]
                ready_at = max(ready_at, hit[1])
                hits.append(key)
        if miss_keys:
            result, _ = self._call(
                "multi_get", namespace, logical, self.cluster.multi_get,
                miss_keys, True, self.clock.now, self._suspects(),
                saved_reads=logical - len(keys), coalesced=len(hits),
            )
            done_at = self.clock.now + result.latency_seconds
            rpc_span: Optional[Span] = None
            if self.tracer is not None:
                rpc_span = self.tracer.record(
                    "multi_get", "rpc", self.clock.now, done_at,
                    namespace=namespace,
                    operations=len(miss_keys),
                    rpcs=1,
                    keys=result.keys_touched,
                    bytes=result.payload_bytes,
                    node_id=result.node_id,
                    repaired=result.repaired,
                )
                rpc_span.logical_reads = list(miss_keys)
            fetched: List[Optional[bytes]] = result.value  # type: ignore[assignment]
            for slot, key, value in zip(miss_slots, miss_keys, fetched):
                values[slot] = value
                cache[(namespace, key)] = (value, done_at, rpc_span)
            ready_at = max(ready_at, done_at)
        else:
            # Every key came from the window: no RPC to account.
            self.stats.metrics.add_many((
                ("client.operations", logical),
                ("client.keys_touched", logical),
                ("client.saved_reads", logical - len(keys)),
                ("client.coalesced_reads", len(hits)),
            ))
        self._coalesced_wait(ready_at)
        if hits and self.tracer is not None:
            self._trace_coalesced(namespace, hits, started)
        return values

    def get_range(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[KeyValue]:
        """Issue one range request (one operation).

        With as many nodes down as the replication factor the result could
        miss keys, so the request raises
        :class:`~repro.errors.UnavailableError` instead.
        """
        result, _ = self._call(
            "get_range", namespace, 1, self.cluster.get_range,
            start, end, limit, ascending, self.clock.now,
        )
        return result.value  # type: ignore[return-value]

    def filtered_range(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int],
        ascending: bool,
        record_filter,
    ) -> Tuple[List[KeyValue], int, Optional[bytes]]:
        """One range request with a server-side filter (one operation).

        Returns ``(matching pairs, keys examined, last examined key)``.
        ``limit`` caps *examined* keys — the same entries an unfiltered scan
        of the range would have fetched — so pushdown never changes which
        section of the index a bounded scan covers, only how much of it is
        shipped back and deserialised.
        """
        result, _ = self._call(
            "filtered_range", namespace, 1, self.cluster.get_range,
            start, end, limit, ascending, self.clock.now, record_filter,
        )
        return (
            result.value,  # type: ignore[return-value]
            result.keys_touched,
            result.last_examined_key,
        )

    def multi_get_range(
        self, namespace: str, ranges: Sequence[RangeSpec], parallel: bool = True
    ) -> List[List[KeyValue]]:
        """Issue several range requests; counts ``len(ranges)`` operations."""
        result, _ = self._call(
            "multi_get_range", namespace, len(ranges),
            self.cluster.multi_get_range, ranges, parallel, self.clock.now,
            rpcs=1 if parallel else len(ranges),
        )
        return result.value  # type: ignore[return-value]

    def count_range(
        self, namespace: str, start: Optional[bytes], end: Optional[bytes]
    ) -> int:
        """Count keys in a range (one operation)."""
        result, _ = self._call(
            "count_range", namespace, 1, self.cluster.count_range,
            start, end, self.clock.now,
        )
        return int(result.value)  # type: ignore[arg-type]
