"""Every surface has a reader (structural, AST-level).

An attribute nobody reads is work that explains nothing, a method only
tests call is code the program never runs, and a config field nobody sets
is a constant with an ``if`` around it.  This test walks the syntax trees
of ``src/``, ``benchmarks/`` and ``examples/`` (tests never count as
readers) and holds four rules over ``src/repro``:

(a) every attribute a class assigns through ``self`` (``self.x = ...``,
    ``self.x += ...``, and ``self.h.x = ...`` for state kept in a helper
    object) is read;
(b) every function, class and method is loaded by code that can run;
(c) every field of every ``*Config`` dataclass is set by code that can
    run: by position, or by a keyword (or a key of a literal
    ``**mapping``) that reaches its class — given to the class itself, to
    ``replace(x, ...)`` where ``x`` is ``self`` in the config's method or
    annotated with the config, or to a function whose ``**kwargs`` go on
    as ``g(**kwargs)`` or into a class it is handed by position
    (``build(ServingConfig, **wanted)``).  A keyword that a callee takes
    as its own parameter (``loaded_database(storage_nodes=...)``) or that
    goes to a callee defined nowhere in the tree (a library call) sets no
    field; one whose way on the rules cannot follow sets every config's
    field of that name;
(d) every defaulted parameter of a function or method that code which can
    run loads is passed by a call that can run — a default no caller ever
    changes is a constant.  Calls are matched by name (a constructor by
    its class's, ``cls(...)`` and ``super().__init__(...)`` included).  A
    call passes a parameter by keyword (or a key of a literal
    ``**mapping``; the keys of a literal ``engine_options`` reach the
    engine), by position, or through a callee whose ``**kwargs`` go on to
    it; a call with ``*args`` or a ``**mapping`` the rules cannot read,
    and a function passed as a value (``partial(run, ...)``, a callback),
    pass every parameter.  A class handed by position
    (``build(WorkloadScale, seed=...)``) takes the call's keywords.

A *read* (a *load*) is an attribute or name load, the string given to
``getattr``/``hasattr`` (a ``getattr(x, f"prefix{...}")`` loads every name
with that prefix), or a wrap target of ``benchmarks/ledger/adapter.py``.
It counts only

* in code that can run: module and class bodies, ``benchmarks/`` and
  ``examples/``, and a function of ``src/repro`` once its own name is read
  by code that can run (so a property nothing reads reads nothing);
* through a receiver that can be the object: ``self`` inside the class or
  a class related to it by inheritance, the helper's name for helper
  state, for a hot-path class (:data:`HOT_PATH`) one of the names the code
  gives its instances, and otherwise any receiver;
* for rule (a), outside the statements that only maintain the attribute:
  its own assignment (``self.x = max(self.x, w)``), a mutation
  (``self.x.append(v)``, ``self.x[k] = v``), an ``if`` whose body does
  nothing else (a size cap), and a same-named keyword copy into the class's
  own constructor (a snapshot).

Type annotations are not loads.  The rules are syntactic, so they err
towards "read" and "set".  Two blind spots follow, and only a line trace
of the runnable set (``tools/census.py``) sees through them: a method whose
name is shared with a live method of another class counts as loaded (any
receiver matches), and a function passed as a value passes every
parameter — ``StorageClient._call`` receives ``self.cluster.get_range``, so
a keyword of ``KeyValueCluster.get_range`` nothing sets would pass (d).
What is kept unread on purpose is in :data:`ALLOWED` with its reason; an
entry that has become read, or whose name is gone, fails too.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import os
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

import repro

REPO = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))

#: The measurement-path classes, with the names their instances go by
#: outside them: a load through any other receiver does not read them.
HOT_PATH: Dict[str, Tuple[str, ...]] = {
    "repro.kvstore.client.ClientStats": ("stats",),
    "repro.kvstore.node.NodeStats": ("stats",),
    "repro.serving.drivers.TrafficLog": ("log",),
    "repro.kvstore.simtime.SimClock": ("clock",),
    "repro.serving.queueing.NodeRequestQueue": ("queue", "request_queue"),
    "repro.serving.monitor.SLOMonitor": ("monitor",),
    "repro.obs.audit.BoundAuditor": ("auditor",),
    "repro.obs.slo.BurnRateAlerter": ("alerter",),
    "repro.serving.drivers.AppServer": ("server",),
    "repro.serving.simulator.ServingSimulation": ("simulation",),
    "repro.obs.flightrec.FlightRecorder": ("recorder",),
}

_ERROR_PAYLOAD = "typed-error payload: carried to whoever catches the error"
_REDUCED_GRID = "tests train a reduced grid to stay inside tier-1's time budget"
_REFERENCE = "a reference the tests compare the running code against"
_ENGINE_FIXTURE = (
    "the engine_v1 fixture's segment bytes were written at fanout 4 and an "
    "index entry every 4 keys, and the crash-point enumeration compacts "
    "within its budget only at fanout 2"
)
_RINGS = (
    "the hypothesis ring model needs rings that wrap within a few dozen "
    "samples; at 128 buckets x 3 levels x 8 one wrap of the coarsest level "
    "is ~10^5 samples per example"
)

#: Kept although nothing outside tests reads, sets or passes it: qualified
#: name (a parameter as ``function(parameter)``) -> reason.
ALLOWED: Dict[str, str] = {
    "repro.kvstore.engine.base.StorageEngine.drop_namespace": (
        "on-disk format: WAL op 3, replayed by the engine_v1 fixture and the "
        "crash-point enumeration"
    ),
    "repro.kvstore.engine.dict_engine.DictEngine.drop_namespace": (
        "the in-memory side of StorageEngine.drop_namespace"
    ),
    "repro.kvstore.engine.lsm.LsmEngine.drop_namespace": (
        "writes WAL op 3 (see StorageEngine.drop_namespace)"
    ),
    "repro.kvstore.latency.LatencyModel.median_ms": _REFERENCE,
    "repro.kvstore.latency.LatencyModel.queueing_factor": _REFERENCE,
    "repro.kvstore.engine.segment.Segment.maybe_contains": _REFERENCE,
    "repro.replication.ring.HashRing.ownership_fractions": _REFERENCE,
    "repro.replication.ring.moved_keys": _REFERENCE,
    "repro.prediction.histogram.LatencyHistogram.from_samples": (
        "builds the reference distributions of the prediction tests"
    ),
    "repro.prediction.slo.SLOPrediction.percentile_across_intervals": (
        "the per-interval quantile reading of the paper's section 6.3"
    ),
    "repro.prediction.training.TrainingConfig.alphas": _REDUCED_GRID,
    "repro.prediction.training.TrainingConfig.join_cardinalities": _REDUCED_GRID,
    "repro.prediction.training.TrainingConfig.tuple_sizes": _REDUCED_GRID,
    "repro.prediction.training.TrainingConfig.oversample_factor": _REDUCED_GRID,
    "repro.prediction.training.TrainingConfig.max_samples_per_interval": (
        _REDUCED_GRID
    ),
    "repro.kvstore.cluster.ClusterConfig.vnodes_per_node": (
        "the request-path models build 8-vnode rings so each hypothesis "
        "example sets its cluster up fast"
    ),
    "repro.bench.experiment.ClaimViolated.claim": _ERROR_PAYLOAD,
    "repro.errors.BoundViolationError.bound_operations": _ERROR_PAYLOAD,
    "repro.errors.BoundViolationError.observed_operations": _ERROR_PAYLOAD,
    "repro.errors.ConstraintViolationError.constraint": _ERROR_PAYLOAD,
    "repro.errors.QuorumNotMetError.available": _ERROR_PAYLOAD,
    "repro.errors.QuorumNotMetError.needed": _ERROR_PAYLOAD,
    "repro.errors.QuorumNotMetError.operation": _ERROR_PAYLOAD,
    "repro.errors.RetryBudgetExhaustedError.attempts": _ERROR_PAYLOAD,
    "repro.errors.RetryBudgetExhaustedError.operation": _ERROR_PAYLOAD,
    "repro.errors.RpcTimeoutError.operation": _ERROR_PAYLOAD,
    "repro.obs.flightrec.ForensicsConfig.memory_budget_bytes": (
        "tests shrink the byte budget to drive eviction; flight-recorder/v1 "
        "prints it"
    ),
    "repro.serving.autoscale.AutoscaleConfig.warmup_seconds": (
        "tests set it to reach scale-down and failover inside short runs"
    ),
    "repro.errors.ConstraintViolationError(constraint)": _ERROR_PAYLOAD,
    "repro.obs.metrics.MetricsRegistry.observe(capacity)": (
        "the histogram half of the registry, retired as a whole by ROADMAP "
        "item 1b"
    ),
    "repro.kvstore.engine.lsm.LsmEngine(fanout)": _ENGINE_FIXTURE,
    "repro.kvstore.engine.lsm.LsmEngine(sparse_index_every)": _ENGINE_FIXTURE,
    "repro.kvstore.latency.LatencyModel(params)": (
        "tests switch the weather off or pin a service-time distribution; "
        "no run at the default parameters shows either"
    ),
    "repro.obs.timeseries.TimeSeriesStore(capacity)": _RINGS,
    "repro.obs.timeseries.TimeSeriesStore(levels)": _RINGS,
    "repro.obs.timeseries.TimeSeriesStore(downsample_factor)": _RINGS,
    "repro.obs.timeseries.TimeSeriesStore(max_series)": _RINGS,
}

#: Methods that change a container in place.
MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: What holds statements.
BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)
DEFINES = (ast.ClassDef, *FUNCTIONS)
ANNOTATED = (ast.AnnAssign, *DEFINES)
NOTHING: FrozenSet[int] = frozenset()


class Definition(NamedTuple):
    """A function, class or method of ``src/repro``."""

    qualname: str
    name: str
    #: Qualified name of the class holding a method, else ``None``.
    owner: Optional[str]
    node: ast.AST


class Load(NamedTuple):
    """One load and where it sits."""

    name: str
    #: ``"name"`` for a bare name, ``"attr"`` for ``x.name`` and ``getattr``.
    kind: str
    #: Last identifier of the receiver (``self``, ``monitor``, the ``h`` of
    #: ``x.h.name``; ``getattr``'s first argument), ``None`` if it has none.
    receiver: Optional[str]
    #: Qualified name of the class whose body holds the load, if any.
    cls: Optional[str]
    #: The definition of ``src/repro`` that must run for the load to run;
    #: ``None`` for code that always can.
    site: Optional[str]
    #: The statements around it, outermost first, within its function.
    statements: Tuple[ast.stmt, ...]
    #: Callees that receive the load as their keyword argument ``name``.
    copied_into: FrozenSet[str]
    #: ``getattr(x, f"{name}...")``: every name with this prefix.
    prefix: bool = False

    def maintains_itself(self) -> bool:
        snapshot = self.cls is not None and short(self.cls) in self.copied_into
        return snapshot or any(maintains(s, self.name) for s in self.statements)


class Call(NamedTuple):
    """What a call passes: its callee, how many arguments by position, and
    its keywords (a ``**mapping``'s keys where the mapping is a literal)."""

    callee: Optional[str]
    positional: int
    keywords: FrozenSet[str]
    #: As :attr:`Load.site`.
    site: Optional[str]
    #: Last identifiers of what it passes by position
    #: (``build(ServingConfig, **wanted)``).
    arguments: FrozenSet[str]
    #: As :attr:`Load.cls`.
    cls: Optional[str]
    #: What a ``replace(...)`` call copies.
    subject: Optional[ast.expr]
    #: It passes ``*args`` or a ``**mapping`` whose keys the rules cannot
    #: read (not a literal, not the caller's own ``**kwargs`` passed on).
    spread: bool = False


class Signature(NamedTuple):
    """What a function (a class: its ``__init__``, else its annotated
    fields) takes by name, and where its ``**kwargs`` go."""

    names: FrozenSet[str]
    #: ``None`` when it takes no ``**kwargs``.
    kwargs: Optional[str]
    #: Callees its body passes ``**kwargs`` on to.
    forwards: Tuple[Optional[str], ...]


class Tree(NamedTuple):
    definitions: Dict[str, Definition]
    #: Class qualified name -> the last identifiers of its bases.
    bases: Dict[str, Tuple[str, ...]]
    loads: List[Load]
    calls: List[Call]
    #: Short name -> the signature of every definition of that name in
    #: ``src/``, ``benchmarks/`` and ``examples/``.
    signatures: Dict[str, List[Signature]]
    #: ``(name, site)`` of every load that is not called where it stands:
    #: a function passed as a value (``partial(run, ...)``, a callback).
    values: List[Tuple[str, Optional[str]]]


def module_name(path: str) -> Optional[str]:
    """Dotted module of a file under ``src/``, ``None`` elsewhere."""
    relative = os.path.relpath(path, os.path.join(REPO, "src"))
    if relative.startswith(".."):
        return None
    parts = relative[:-3].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def last_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


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


def signature(node: ast.AST) -> Signature:
    if isinstance(node, ast.ClassDef):
        init = [i for i in node.body
                if isinstance(i, FUNCTIONS) and i.name == "__init__"]
        if not init:
            return Signature(frozenset(
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ), None, ())
        node = init[0]
    args = node.args
    kwargs = args.kwarg.arg if args.kwarg else None
    forwards = tuple(
        last_identifier(call.func)
        for call in (ast.walk(node) if kwargs else ())
        if isinstance(call, ast.Call)
        and any(k.arg is None and last_identifier(k.value) == kwargs
                for k in call.keywords)
    )
    return Signature(
        frozenset(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs),
        kwargs,
        forwards,
    )


def strings(nodes) -> Set[str]:
    return {
        n.value for n in nodes
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def annotations(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, FUNCTIONS):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        every += [a for a in (args.vararg, args.kwarg) if a is not None]
        return [a.annotation for a in every if a.annotation] + (
            [node.returns] if node.returns else []
        )
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def statements(tree: ast.AST) -> Iterator[ast.AST]:
    """Every statement of ``tree`` (expressions hold none, so they are not
    entered)."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, BLOCKS)
        )


def scan(path: str, tree: ast.AST, found: Tree) -> None:
    module = module_name(path)
    aliases: Dict[str, str] = {}
    # name -> keys of the dicts assigned to it, for ``f(**name)``.
    mappings: Dict[Optional[str], Set[str]] = {}
    for node in statements(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not node.value:
            continue
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        if isinstance(target, ast.Subscript):  # ``name["key"] = ...``
            keys = mappings.setdefault(last_identifier(target.value), set())
            keys.update(strings([target.slice]))
            continue
        keys = mappings.setdefault(last_identifier(target), set())
        for part in ast.walk(node.value):
            if isinstance(part, ast.Dict):
                keys.update(strings(part.keys))
            elif isinstance(part, ast.Call) and last_identifier(part.func) == "dict":
                keys.update(k.arg for k in part.keywords if k.arg)

    # Functions whose ``**kwargs`` the visit is inside, innermost last.
    own_kwargs: List[Optional[str]] = []
    # The ``func`` of every call: a load there is called, not passed on.
    called: Set[int] = set()

    def load(name, kind, receiver, state, prefix=False, node=None):
        cls, site, statements, copied_into = state
        found.loads.append(Load(
            aliases.get(name, name) if kind == "name" else name, kind, receiver,
            cls, site, statements, copied_into.get(name, frozenset()), prefix,
        ))
        if id(node) not in called:
            found.values.append((name, site))

    def visit(node, state, depth):
        cls, site, statements, copied_into = state
        skip = (
            set(map(id, annotations(node)))
            if isinstance(node, ANNOTATED) else NOTHING
        )
        if isinstance(node, DEFINES):
            # Decorators, bases and defaults run where the definition sits.
            outer = node.decorator_list + (
                node.bases + [k.value for k in node.keywords]
                if isinstance(node, ast.ClassDef)
                else node.args.defaults + [d for d in node.args.kw_defaults if d]
            )
            for child in outer:
                visit(child, state, depth)
            skip.update(map(id, outer))
            found.signatures.setdefault(node.name, []).append(signature(node))
            qualname = None
            if module is not None and depth < 2 and (depth == 0 or cls):
                qualname = f"{cls or module}.{node.name}"
                found.definitions[qualname] = Definition(
                    qualname, node.name, cls if depth else None, node
                )
            if isinstance(node, ast.ClassDef):
                cls = qualname or f"{module or path}.{node.name}"
                found.bases[cls] = tuple(
                    filter(None, map(last_identifier, node.bases))
                )
                depth += 1
            elif statements is None:
                site, statements, depth = qualname, (), 2
            state = (cls, site, statements, copied_into)
        elif isinstance(node, ast.stmt) and statements is not None:
            state = (cls, site, statements + (node,), copied_into)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            load(node.id, "name", None, state, node=node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            load(node.attr, "attr", last_identifier(node.value), state, node=node)
        elif isinstance(node, ast.Call):
            called.add(id(node.func))
            callee = last_identifier(node.func)
            if callee in ("getattr", "hasattr") and len(node.args) > 1:
                receiver, what = last_identifier(node.args[0]), node.args[1]
                if isinstance(what, ast.Constant) and isinstance(what.value, str):
                    load(what.value, "attr", receiver, state[:2] + ((), {}))
                elif (
                    isinstance(what, ast.JoinedStr)
                    and what.values
                    and isinstance(what.values[0], ast.Constant)
                ):
                    load(what.values[0].value, "attr", receiver,
                         state[:2] + ((), {}), prefix=True)
            callees = [callee]
            if callee == "cls" and cls is not None:
                callees = [short(cls)]
            elif (
                callee == "__init__"
                and isinstance(node.func.value, ast.Call)
                and last_identifier(node.func.value.func) == "super"
            ):
                callees = list(found.bases.get(cls, ()))
            keywords = {k.arg for k in node.keywords if k.arg}
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            for k in node.keywords:
                spread_name = last_identifier(k.value)
                if k.arg is None and spread_name in mappings:
                    keywords |= mappings[spread_name]
                elif k.arg is None:
                    spread |= not own_kwargs or spread_name != own_kwargs[-1]
                elif k.arg == "engine_options":
                    # The cluster hands these to ``create_engine(**options)``.
                    options = {
                        key.arg for part in ast.walk(k.value)
                        if isinstance(part, ast.Call) for key in part.keywords
                    } | strings(
                        key for part in ast.walk(k.value)
                        if isinstance(part, ast.Dict) for key in part.keys
                    ) | mappings.get(spread_name, set())
                    found.calls.append(Call(
                        "create_engine", 0, frozenset(options - {None}), site,
                        frozenset(), cls, None,
                    ))
            for name in callees:
                found.calls.append(Call(
                    name,
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    frozenset(keywords),
                    site,
                    frozenset(filter(None, map(last_identifier, node.args))),
                    cls,
                    node.args[0] if name == "replace" and node.args else None,
                    spread,
                ))
        if isinstance(node, FUNCTIONS):
            own_kwargs.append(node.args.kwarg.arg if node.args.kwarg else None)
        for child in ast.iter_child_nodes(node):
            if id(child) in skip:
                continue
            inner = state
            if isinstance(node, ast.Call) and isinstance(child, ast.keyword):
                copies = dict(state[3])
                copies[child.arg] = copies.get(child.arg, frozenset()) | {
                    last_identifier(node.func)
                }
                inner = state[:3] + (copies,)
            visit(child, inner, depth)
        if isinstance(node, FUNCTIONS):
            own_kwargs.pop()

    visit(tree, (None, None, None, {}), 0)


@functools.lru_cache(maxsize=None)
def tree() -> Tree:
    found = Tree({}, {}, [], [], {}, [])
    for root in ("src", "benchmarks", "examples"):
        for directory, _, names in sorted(os.walk(os.path.join(REPO, root))):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        scan(path, ast.parse(handle.read()), found)
    return found


def wrap_targets() -> Set[str]:
    """Qualified names the ledger wraps by name (``adapter.WRAP_TARGETS``)."""
    path = os.path.join(REPO, "benchmarks", "ledger", "adapter.py")
    spec = importlib.util.spec_from_file_location("ledger_adapter", path)
    adapter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(adapter)
    return {f"{module}.{target}" for _, module, target in adapter.WRAP_TARGETS}


@functools.lru_cache(maxsize=None)
def definers() -> Dict[str, Set[str]]:
    """Attribute name -> every class that defines it (any class, any file)."""
    result: Dict[str, Set[str]] = {}
    found = tree()
    for definition in found.definitions.values():
        if definition.owner is not None:
            result.setdefault(definition.name, set()).add(definition.owner)
        if isinstance(definition.node, ast.ClassDef):
            for item in definition.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    result.setdefault(item.target.id, set()).add(definition.qualname)
    for cls, attributes in state().items():
        for name in attributes:
            result.setdefault(name, set()).add(cls)
    return result


@functools.lru_cache(maxsize=None)
def ancestors(cls: str) -> FrozenSet[str]:
    """Short names of ``cls`` and every class it inherits from."""
    bases = tree().bases
    by_name = {short(c): c for c in bases}
    seen, todo = set(), [cls]
    while todo:
        current = todo.pop()
        if short(current) not in seen:
            seen.add(short(current))
            todo.extend(by_name[b] for b in bases.get(current, ()) if b in by_name)
    return frozenset(seen)


def related(one: str, other: str) -> bool:
    return short(one) in ancestors(other) or short(other) in ancestors(one)


def through(owner: str, holder: str, load: Load) -> bool:
    """Whether ``load`` can be reading member ``load.name`` of class
    ``owner`` (kept in helper ``holder`` unless that is ``"self"``)."""
    if load.kind != "attr":
        return load.cls == owner
    if holder != "self":
        return load.receiver == holder
    if load.receiver in ("self", "cls") and load.cls is not None:
        return related(owner, load.cls)
    if (
        owner not in HOT_PATH
        or load.receiver is None
        or definers().get(load.name, set()) <= {owner}
    ):
        return True
    return load.receiver in HOT_PATH[owner] + (short(owner),)


def reaches(load: Load, definition: Definition) -> bool:
    if definition.owner is None:
        return load.receiver not in ("self", "cls")
    return through(definition.owner, "self", load)


@functools.lru_cache(maxsize=None)
def live() -> FrozenSet[str]:
    """Every definition loaded by code that can run."""
    found = tree()
    by_name: Dict[str, List[Definition]] = {}
    for definition in found.definitions.values():
        by_name.setdefault(definition.name, []).append(definition)
    by_site: Dict[Optional[str], List[Load]] = {}
    for load in found.loads:
        by_site.setdefault(load.site, []).append(load)
    dunders: Dict[str, List[str]] = {}
    for q, d in found.definitions.items():
        if d.owner and d.name.startswith("__") and d.name.endswith("__"):
            dunders.setdefault(d.owner, []).append(q)
    result = set(wrap_targets())
    todo: List[Optional[str]] = [None, *result]
    while todo:
        site = todo.pop()
        for dunder in dunders.get(site, ()):
            if dunder not in result:
                result.add(dunder)
                todo.append(dunder)
        for load in by_site.get(site, ()):
            if load.prefix:
                targets = [
                    d for name, ds in by_name.items()
                    if name.startswith(load.name) for d in ds
                ]
            else:
                targets = by_name.get(load.name, ())
            for definition in targets:
                if (
                    definition.qualname not in result
                    and definition.qualname != load.site
                    and reaches(load, definition)
                ):
                    result.add(definition.qualname)
                    todo.append(definition.qualname)
    return frozenset(result)


def runs(load: Load) -> bool:
    return load.site is None or load.site in live()


@functools.lru_cache(maxsize=None)
def state() -> Dict[str, Dict[str, str]]:
    """Class -> attribute -> ``"self"`` or the helper it is kept in, for
    every attribute a class of ``src/repro`` assigns through ``self``."""
    result: Dict[str, Dict[str, str]] = {}
    for definition in tree().definitions.values():
        if isinstance(definition.node, ast.ClassDef):
            attributes = result.setdefault(definition.qualname, {})
            for node in ast.walk(definition.node):
                holder = written_through_self(node)
                if holder is not None:
                    attributes.setdefault(node.attr, holder)
    # Helper state that the helper's own class also assigns is its state.
    own = {name for a in result.values() for name, h in a.items() if h == "self"}
    for attributes in result.values():
        for name in [n for n, h in attributes.items() if h != "self" and n in own]:
            del attributes[name]
    return result


def unread_attributes() -> Set[str]:
    by_name: Dict[str, List[Load]] = {}
    for load in tree().loads:
        if load.kind == "attr":
            by_name.setdefault(load.name, []).append(load)
    return {
        f"{cls}.{name}"
        for cls, attributes in state().items()
        for name, holder in attributes.items()
        if not any(
            runs(load)
            and through(cls, holder, load)
            and not load.maintains_itself()
            for load in by_name.get(name, ())
        )
    }


def unloaded_definitions() -> Set[str]:
    """Dead definitions, a dead class standing for its methods."""
    found = tree()
    dead = set(found.definitions) - live()
    return {
        q for q in dead if found.definitions[q].owner not in dead
    }


@functools.lru_cache(maxsize=None)
def config_fields() -> Dict[str, List[str]]:
    fields: Dict[str, List[str]] = {}
    for definition in tree().definitions.values():
        node = definition.node
        if (
            isinstance(node, ast.ClassDef)
            and node.name.endswith("Config")
            and any("dataclass" in ast.dump(d) for d in node.decorator_list)
        ):
            fields[definition.qualname] = [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.dump(item.annotation)
            ]
    return fields


#: A keyword the rules cannot follow: it may set a field of any config.
ANY_CONFIG = "*"


@functools.lru_cache(maxsize=None)
def destinations(callee: Optional[str], keyword: str,
                 seen: Tuple[str, ...] = ()) -> FrozenSet[str]:
    """The configs whose field ``keyword`` a call of ``callee`` may set."""
    by_short = {short(config): config for config in config_fields()}
    if callee in by_short:
        return frozenset({by_short[callee]})
    if callee == "replace":
        return frozenset({ANY_CONFIG})
    result: Set[str] = set()
    for signature in tree().signatures.get(callee, ()):
        if keyword in signature.names or signature.kwargs is None:
            continue
        if not signature.forwards or callee in seen:
            return frozenset({ANY_CONFIG})
        for target in signature.forwards:
            result |= destinations(target, keyword, seen + (callee,))
    return frozenset(result)


def holds(node: ast.expr, call: Call) -> Optional[str]:
    """The config ``node`` holds where ``call`` sits: ``self`` in a
    config's method, a parameter annotated with a config, or a config's
    field annotated with one; ``None`` when the annotations do not say."""
    configs = config_fields()
    by_short = {short(config): config for config in configs}
    if isinstance(node, ast.Name) and node.id == "self":
        return call.cls if call.cls in configs else None
    if isinstance(node, ast.Name):
        function = tree().definitions.get(call.site)
        if function is None or not isinstance(function.node, FUNCTIONS):
            return None
        args = function.node.args
        return next((
            by_short.get(last_identifier(a.annotation))
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.arg == node.id and a.annotation is not None
        ), None)
    owner = holds(node.value, call) if isinstance(node, ast.Attribute) else None
    if owner is None:
        return None
    return next((
        by_short.get(last_identifier(item.annotation))
        for item in tree().definitions[owner].node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id == node.attr
    ), None)


def unset_config_fields() -> Set[str]:
    configs = config_fields()
    by_short = {short(config): config for config in configs}
    assigned: Set[str] = set()
    positional: Dict[Optional[str], int] = {}
    for call in tree().calls:
        if call.site is not None and call.site not in live():
            continue
        copied = holds(call.subject, call) if call.subject is not None else None
        if copied is not None:
            assigned |= {f"{copied}.{keyword}" for keyword in call.keywords}
            continue
        positional[call.callee] = max(
            positional.get(call.callee, 0), call.positional
        )
        # A callee whose **kwargs the rules cannot follow, given a class or
        # function by position, is taken to call it with them.
        passed = [a for a in call.arguments
                  if a in by_short or a in tree().signatures]
        for keyword in call.keywords:
            targets = destinations(call.callee, keyword)
            if ANY_CONFIG in targets and passed:
                targets = frozenset().union(
                    *(destinations(a, keyword) for a in passed)
                )
            if ANY_CONFIG in targets:
                targets = configs
            assigned |= {f"{config}.{keyword}" for config in targets}
    return {
        f"{config}.{name}"
        for config, names in configs.items()
        for index, name in enumerate(names)
        if f"{config}.{name}" not in assigned
        and index >= positional.get(short(config), 0)
    }


def parameter_name(definition: Definition, parameter: str) -> str:
    """``module.Class.method(parameter)``; a constructor's is the class's."""
    if definition.name == "__init__" and definition.owner is not None:
        return f"{definition.owner}({parameter})"
    return f"{definition.qualname}({parameter})"


def defaulted(node: ast.AST) -> Tuple[List[str], List[str]]:
    """A function's positional parameters after ``self``/``cls``, and the
    names of those of its parameters that have a default."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    names = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    if positional and positional[0] in ("self", "cls") and not any(
        last_identifier(d) == "staticmethod" for d in node.decorator_list
    ):
        positional = positional[1:]
    return positional, names


def unpassed_parameters() -> Set[str]:
    """Rule (d): every defaulted parameter of a function of ``src/repro``
    that code which can run loads is passed by a call that can run."""
    found = tree()
    classes = {
        d.name for d in found.definitions.values()
        if isinstance(d.node, ast.ClassDef)
    }
    everything = {
        name for name, site in found.values
        if (site is None or site in live()) and name not in classes
    }
    keywords: Dict[Optional[str], Set[str]] = {}
    positional: Dict[Optional[str], int] = {}

    def receive(callee, keyword, seen=()):
        """Record ``keyword`` for ``callee`` and, through ``**kwargs``
        passed on, for every callee it reaches."""
        keywords.setdefault(callee, set()).add(keyword)
        for signature in found.signatures.get(callee, ()):
            if keyword not in signature.names and callee not in seen:
                for target in signature.forwards:
                    receive(target, keyword, seen + (callee,))

    for call in found.calls:
        if call.site is not None and call.site not in live():
            continue
        if call.spread:
            everything.add(call.callee)
        positional[call.callee] = max(
            positional.get(call.callee, 0), call.positional
        )
        # A class handed by position (``build(WorkloadScale, seed=...)``)
        # takes the keywords the callee does not.
        handed = [a for a in call.arguments if a in classes]
        for keyword in call.keywords:
            for callee in [call.callee, *handed]:
                receive(callee, keyword)
    result = set()
    for definition in found.definitions.values():
        node = definition.node
        if not isinstance(node, FUNCTIONS) or definition.qualname not in live():
            continue
        name = definition.name
        if name == "__init__" and definition.owner is not None:
            name = short(definition.owner)
        elif name.startswith("__") and name.endswith("__"):
            continue  # called by the language, not by name
        if name in everything:
            continue
        order, names = defaulted(node)
        for parameter in names:
            index = order.index(parameter) if parameter in order else len(order)
            if parameter not in keywords.get(name, ()) and index >= positional.get(
                name, 0
            ):
                result.add(parameter_name(definition, parameter))
    return result


def findings() -> Set[str]:
    return (
        unread_attributes() | unloaded_definitions() | unset_config_fields()
        | unpassed_parameters()
    )


def test_every_attribute_is_read():
    assert sorted(unread_attributes() - set(ALLOWED)) == []


def test_every_definition_is_loaded_by_code_that_runs():
    assert sorted(unloaded_definitions() - set(ALLOWED)) == []


def test_every_config_field_is_set_by_a_caller():
    assert sorted(unset_config_fields() - set(ALLOWED)) == []


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert sorted(unpassed_parameters() - set(ALLOWED)) == []


def test_every_allowed_name_is_still_unread_and_has_a_reason():
    assert sorted(set(ALLOWED) - findings()) == []
    assert [name for name, reason in ALLOWED.items() if not reason.strip()] == []


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
