"""No write-only state on the measurement path (structural, AST-level).

State written on every RPC, clock step or served request and never read
costs work on the hot path and explains nothing; a second copy of a record
another object already keeps has to be kept in step by hand.  For each
class below, every attribute it assigns through ``self`` (``self.x = ...``,
``self.x += ...``, and ``self.h.x = ...`` for state kept in a helper
object) must be **read** somewhere in ``src/``, ``benchmarks/`` or
``examples/``.  A read is an attribute load, or the string given to
``getattr``/``hasattr``, that is

* outside the statements that only maintain the attribute: its own
  assignment (``self.x = max(self.x, w)``), a mutation
  (``self.x.append(v)``, ``self.x[k] = v``), an ``if`` whose body does
  nothing else (a size cap), and a same-named keyword copy into the class's
  own constructor (a snapshot);
* in a function that can run: a method of a listed class counts only once
  its own name is read (so a property nothing reads reads nothing);
* through a receiver that can be the object: ``self`` inside the class,
  one of the names the code gives its instances (``monitor``, ``auditor``,
  ...), the helper's name for helper state, or any receiver when no other
  class defines that attribute name.

The rule is syntactic, so it errs towards "read": a load through one of the
listed names on an object of another class counts.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import repro
from repro.kvstore.client import ClientStats
from repro.kvstore.node import NodeStats
from repro.kvstore.simtime import SimClock
from repro.obs.audit import BoundAuditor
from repro.obs.flightrec import FlightRecorder
from repro.obs.slo import BurnRateAlerter
from repro.serving.drivers import AppServer, TrafficLog
from repro.serving.monitor import SLOMonitor
from repro.serving.queueing import NodeRequestQueue
from repro.serving.simulator import ServingSimulation

REPO = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))

#: Each guarded class, with the names its instances go by outside it.
GUARDED: Dict[type, Tuple[str, ...]] = {
    ClientStats: ("stats",),
    NodeStats: ("stats",),
    TrafficLog: ("log",),
    SimClock: ("clock",),
    NodeRequestQueue: ("queue", "request_queue"),
    SLOMonitor: ("monitor",),
    BoundAuditor: ("auditor",),
    BurnRateAlerter: ("alerter",),
    AppServer: ("server",),
    ServingSimulation: ("simulation",),
    FlightRecorder: ("recorder",),
}

#: Methods that change a container in place.
MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def syntax_trees() -> Tuple[Tuple[str, ast.AST], ...]:
    trees = []
    for root in ("src", "benchmarks", "examples"):
        for directory, _, names in os.walk(os.path.join(REPO, root)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        trees.append((path, ast.parse(handle.read())))
    return tuple(trees)


def written_through_self(node: ast.AST) -> Optional[str]:
    """``"self"`` for a store into ``self.x``, ``h`` for ``self.h.x``, else
    ``None``."""
    if not (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "self":
        return "self"
    if (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
    ):
        return base.attr
    return None


def names_attribute(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node)
    )


def maintains(statement: ast.stmt, name: str) -> bool:
    """Whether ``statement`` only writes attribute ``name`` (see module doc)."""
    if isinstance(statement, (ast.Assign, ast.Delete)):
        return any(names_attribute(t, name) for t in statement.targets)
    if isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
        return names_attribute(statement.target, name)
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
        func = statement.value.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and names_attribute(func.value, name)
        )
    if isinstance(statement, ast.If):
        return all(
            maintains(s, name)
            or isinstance(s, ast.Pass)
            or isinstance(s, ast.Return) and s.value is None
            for s in statement.body + statement.orelse
        )
    return False


class Load(NamedTuple):
    """One attribute load (or ``getattr`` string) and where it sits."""

    name: str
    #: Last identifier of the receiver (``self``, ``monitor``, the ``h`` of
    #: ``x.h.name``; ``getattr``'s first argument), ``None`` if it has none.
    receiver: Optional[str]
    #: ``(class, method)`` holding the load (``None`` parts outside them).
    site: Tuple[Optional[str], Optional[str]]
    #: The statements around it, outermost first, within its method.
    statements: Tuple[ast.stmt, ...]
    #: Callees that receive the load as their keyword argument ``name``.
    copied_into: FrozenSet[str]

    def maintains_itself(self) -> bool:
        return self.site[0] in self.copied_into or any(
            maintains(s, self.name) for s in self.statements
        )


def last_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@functools.lru_cache(maxsize=None)
def loads() -> Dict[str, List[Load]]:
    """Every load under the scanned roots, by attribute name."""
    found: Dict[str, List[Load]] = {}

    def visit(node, site, statements, copied_into):
        if isinstance(node, ast.ClassDef):
            site = (node.name, None)
        elif isinstance(node, FUNCTIONS) and site[1] is None:
            site, statements = (site[0], node.name), ()
        if isinstance(node, ast.stmt) and site[1] is not None:
            statements += (node,)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.setdefault(node.attr, []).append(Load(
                node.attr, last_identifier(node.value), site, statements,
                copied_into.get(node.attr, frozenset()),
            ))
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            name = node.args[1].value
            found.setdefault(name, []).append(Load(
                name, last_identifier(node.args[0]), site, (), frozenset(),
            ))
        for child in ast.iter_child_nodes(node):
            inner = copied_into
            if (
                isinstance(node, ast.Call)
                and isinstance(child, ast.keyword)
                and child.arg
            ):
                inner = dict(copied_into)
                inner[child.arg] = copied_into.get(child.arg, frozenset()) | {
                    last_identifier(node.func)
                }
            visit(child, site, statements, inner)

    for _, tree in syntax_trees():
        visit(tree, (None, None), (), {})
    return found


@functools.lru_cache(maxsize=None)
def definers() -> Dict[str, Set[str]]:
    """Attribute name -> every class that defines it (any class, any file)."""
    result: Dict[str, Set[str]] = {}
    for _, tree in syntax_trees():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                names = set()
                if isinstance(item, FUNCTIONS):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign):
                    names.add(getattr(item.target, "id", None))
                names.update(
                    node.attr for node in ast.walk(item)
                    if written_through_self(node)
                )
                for name in names:
                    result.setdefault(name, set()).add(cls.name)
    return result


def class_node(cls: type) -> ast.ClassDef:
    path = sys.modules[cls.__module__].__file__
    for filename, tree in syntax_trees():
        if os.path.samefile(filename, path):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                    return node
    raise AssertionError(f"{cls.__name__} not found under {REPO}")


def state_of(cls: type) -> Dict[str, str]:
    """Attribute -> ``"self"`` or the helper it is kept in, for every
    attribute ``cls`` assigns through ``self``."""
    state: Dict[str, str] = {}
    for node in ast.walk(class_node(cls)):
        holder = written_through_self(node)
        if holder is not None:
            state.setdefault(node.attr, holder)
    return state


def through(cls: type, holder: str, load: Load) -> bool:
    """Whether ``load`` can be reading attribute ``load.name`` of ``cls``."""
    if definers().get(load.name, set()) <= {cls.__name__}:
        return True
    if holder != "self":
        return load.receiver == holder
    if load.receiver == "self":
        return load.site[0] == cls.__name__
    return load.receiver in GUARDED[cls]


@functools.lru_cache(maxsize=None)
def guarded_methods() -> Dict[Tuple[str, str], type]:
    return {
        (cls.__name__, item.name): cls
        for cls in GUARDED
        for item in class_node(cls).body
        if isinstance(item, FUNCTIONS)
    }


@functools.lru_cache(maxsize=None)
def live_methods() -> Set[Tuple[str, str]]:
    """Every guarded method whose name is read by code that can run."""
    live = {key for key in guarded_methods() if key[1].startswith("__")}
    grown = True
    while grown:
        grown = False
        for key, cls in guarded_methods().items():
            if key not in live and any(
                load.site != key
                and runs(load, live)
                and through(cls, "self", load)
                for load in loads().get(key[1], ())
            ):
                live.add(key)
                grown = True
    return live


def runs(load: Load, live: Set[Tuple[str, str]]) -> bool:
    return load.site not in guarded_methods() or load.site in live


def unread(cls: type) -> List[str]:
    return sorted(
        name
        for name, holder in state_of(cls).items()
        if not any(
            runs(load, live_methods())
            and through(cls, holder, load)
            and not load.maintains_itself()
            for load in loads().get(name, ())
        )
    )


def test_every_guarded_attribute_is_read():
    found = {cls.__name__: unread(cls) for cls in GUARDED}
    assert {name: attrs for name, attrs in found.items() if attrs} == {}


def test_upkeep_is_not_a_read():
    """The statements that only maintain an attribute, against the ones
    that read it to decide something else."""
    (method,) = ast.parse(
        "def observe(self, value):\n"
        "    if len(self.samples) < 8:\n"
        "        self.samples.append(value)\n"
        "    self.peak = max(self.peak, value)\n"
        "    self.copies[value] = value\n"
        "    if value not in self.seen:\n"
        "        self.seen.add(value)\n"
        "        self.fresh += 1\n"
        "    return self.peak\n"
    ).body
    cap, peak, copy, seen, returned = method.body
    assert maintains(cap, "samples")
    assert maintains(peak, "peak")
    assert maintains(copy, "copies")
    assert not maintains(seen, "seen")
    assert not maintains(returned, "peak")
