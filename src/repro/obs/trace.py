"""Span trees over simulated time.

A :class:`Tracer` is attached to one :class:`~repro.kvstore.client.StorageClient`
(one application-server view) and builds a tree of :class:`Span` objects per
query or interaction: a root ``query``/``write`` span, ``operator`` spans for
each plan node, and leaf ``rpc``/``coalesced`` spans for the key/value
traffic those operators issued.  Spans record *simulated* start/end times —
the same clock the latency model charges — so a trace is an exact account of
where a query's simulated latency went.

Two design points keep tracing cheap enough to leave on:

* The tracer reads time through a callable rather than holding a clock:
  :meth:`~repro.engine.session.Session.gather` temporarily swaps the
  client's clock for a per-branch scratch clock, and ``lambda: client.clock.now``
  follows the swap while a captured clock object would not.
* Storage-layer spans are recorded *after the fact* in one call
  (:meth:`Tracer.record`) instead of a start/stop pair, so the hot path pays
  a single ``tracer is not None`` check plus one method call per RPC.

Root retention is bounded (a deque of ``keep`` roots) and may be nothing at
all: a serving run with forensics traces at ``keep=0``, so every finished
root is offered to the :class:`~repro.obs.flightrec.FlightRecorder` and
lives on only if the recorder retains it.  Memory then stays flat in run
length instead of holding ``keep`` trees per application server.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

#: Default number of finished root spans retained per tracer.
DEFAULT_KEEP_ROOTS = 64

#: One logical point read served by an ``rpc`` span inside a gather window.
#: A read the RPC was issued for is just its key: it spans the RPC itself
#: and is not coalesced.  A later read that joined the reply in flight is
#: ``(key, start, end)``: when it asked, and when it had the value.
LogicalRead = Union[bytes, Tuple[bytes, float, float]]

#: ``children`` of every span :meth:`Tracer.record` makes: such a span is
#: complete when made and never on the stack, so nothing is ever put under
#: it, and a shared empty tuple saves one list per RPC.
_LEAF: Tuple["Span", ...] = ()


class Span:
    """One node of a trace tree over simulated time."""

    __slots__ = (
        "name", "kind", "start", "end", "attributes", "children", "logical_reads",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        start: float,
        attributes: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = (
            attributes if attributes is not None else {}
        )
        self.children: Sequence["Span"] = []
        #: Per-key accounting of a gather-window ``rpc`` span, kept as keys
        #: and plain tuples on the hot path; :meth:`expanded_children` turns
        #: them into the ``logical-op`` spans every reader and export sees.
        self.logical_reads: Optional[List[LogicalRead]] = None

    @property
    def duration(self) -> float:
        """Simulated seconds spanned (zero while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def expanded_children(self) -> Sequence["Span"]:
        """Child spans, the logical reads after them as ``logical-op`` spans.

        Logical reads describe work, not wall time (forty of them on one
        RPC are still one RPC's worth of service time), which is why they
        are not children and the critical-path walk never meets them.
        """
        reads = self.logical_reads
        if not reads:
            return self.children
        expanded = list(self.children)
        for read in reads:
            # Raw key bytes; the exporter makes them JSON-safe.
            if type(read) is tuple:
                key, start, end = read
                attributes = {"key": key, "coalesced": True}
            else:
                start, end = self.start, self.end
                attributes = {"key": read, "coalesced": False}
            child = Span("get", "logical-op", start, attributes)
            child.end = end
            expanded.append(child)
        return expanded

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.expanded_children():
            yield from child.walk()

    def find(self, kind: str) -> List["Span"]:
        """Every span of one kind in this subtree, depth-first order."""
        return [span for span in self.walk() if span.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = f"{self.start:.6f}..{self.end:.6f}" if self.end is not None else "open"
        return f"Span({self.name!r}, kind={self.kind!r}, {window})"


class Tracer:
    """Builds span trees for one client; reads time through ``now_fn``.

    The last ``keep`` roots stay on :attr:`roots`.  With ``keep=0`` the
    tracer holds no finished root at all — a root is reachable only from
    whoever the executor offered it to — and :attr:`dropped_roots` stays
    0: it counts evictions from a tracer that retains.
    """

    __slots__ = ("_now", "_stack", "roots", "verbose", "dropped_roots")

    def __init__(
        self,
        now_fn: Callable[[], float],
        keep: int = DEFAULT_KEEP_ROOTS,
    ):
        self._now = now_fn
        self._stack: List[Span] = []
        #: Finished (and in-progress) root spans, oldest evicted first.
        self.roots: Deque[Span] = deque(maxlen=keep)
        #: Root spans evicted from the bounded deque — no silent caps; the
        #: dashboard surfaces the fleet's sum so "the trace is gone" is
        #: observable.
        self.dropped_roots = 0
        #: When set, purely local operators (projection, sort, stop, ...)
        #: also get spans.  ``EXPLAIN ANALYZE`` turns this on for the
        #: duration of its execution; steady-state tracing leaves it off —
        #: local transforms issue no storage work and take no simulated
        #: time, so their spans are dead weight on the hot path.
        self.verbose = False

    # ------------------------------------------------------------------
    # Structured spans (query, operator, gather, write, ...)
    # ------------------------------------------------------------------
    @property
    def active(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, kind: str = "span", **attributes) -> Span:
        """Open a span as a child of the currently-active span."""
        stack = self._stack
        # Spans are built inline (no __init__ call) on the hot path.
        span = Span.__new__(Span)
        span.name = name
        span.kind = kind
        span.start = self._now()
        span.end = None
        span.attributes = attributes
        span.children = []
        span.logical_reads = None
        if stack:
            stack[-1].children.append(span)
        else:
            roots = self.roots
            if roots.maxlen:  # keep=0 holds no root, so evicts none
                self.dropped_roots += len(roots) == roots.maxlen
                roots.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and, defensively, anything left open inside it).

        Closing an already-closed span is a no-op: it left the stack when
        it was closed, and whatever is open now is not inside it.
        """
        if span.end is not None:
            return
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            span.end = self._now()
            return
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = self._now()
            if top is span:
                return

    # ------------------------------------------------------------------
    # Completed spans (the storage hot path)
    # ------------------------------------------------------------------
    def record(
        self, name: str, kind: str, start: float, end: float, **attributes
    ) -> Span:
        """Attach an already-finished span under the active span."""
        stack = self._stack
        span = Span.__new__(Span)
        span.name = name
        span.kind = kind
        span.start = start
        span.end = end
        span.attributes = attributes
        span.children = _LEAF
        span.logical_reads = None
        if stack:
            stack[-1].children.append(span)
        else:
            roots = self.roots
            if roots.maxlen:  # keep=0 holds no root, so evicts none
                self.dropped_roots += len(roots) == roots.maxlen
                roots.append(span)
        return span

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def last_root(self) -> Optional[Span]:
        """The most recently started root span."""
        return self.roots[-1] if self.roots else None

    def clear(self) -> None:
        self._stack.clear()
        self.roots.clear()
        self.dropped_roots = 0
