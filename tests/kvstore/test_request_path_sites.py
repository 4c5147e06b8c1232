"""The request path states each decision once (structural, AST-level).

Between ``StorageClient`` and a storage node five decisions used to be
written in several places that had drifted apart (a batched read inside a
gather window never fed the breaker board).  Each now has one site; this
test walks the syntax trees so a second site cannot appear silently:

* ``cluster.py`` — the fault plane (``network.delivers``,
  ``network.delay_seconds``, the ``"network.dropped"`` counter) and the
  hint buffer (``add_hint``) are each named in exactly one function;
* ``client.py`` — one ``except RpcTimeoutError`` and one place that counts
  ``"client.rpc_timeouts"``;
* the suspects-demotion rule lives in ``replication``'s chooser, so neither
  file compares replicas against ``suspects`` itself.
"""

from __future__ import annotations

import ast
import os
from typing import Callable, Dict, List

import repro.kvstore.client
import repro.kvstore.cluster


def functions_where(module, matches: Callable[[ast.AST], bool]) -> List[str]:
    """Names of the functions of ``module`` whose own body (nested
    functions count for themselves) holds a node that ``matches``."""
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found: Dict[str, None] = {}

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found[owner] = None
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return list(found)


def attribute(name: str) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


def constant(value: str) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Constant) and node.value == value


def catches(exception: str) -> Callable[[ast.AST], bool]:
    return lambda node: (
        isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and exception in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    )


def membership_in(name: str) -> Callable[[ast.AST], bool]:
    """``x in <name>`` / ``x not in <name>``."""
    return lambda node: (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(
            isinstance(right, ast.Name) and right.id == name
            for right in node.comparators
        )
    )


def test_the_cluster_asks_the_fault_plane_in_one_function():
    cluster = repro.kvstore.cluster
    assert functions_where(cluster, attribute("delivers")) == ["_deliver"]
    assert functions_where(cluster, attribute("delay_seconds")) == ["_deliver"]
    assert functions_where(cluster, constant("network.dropped")) == ["_deliver"]


def test_the_cluster_buffers_hints_in_one_function():
    cluster = repro.kvstore.cluster
    assert functions_where(cluster, attribute("add_hint")) == ["_hint"]
    assert functions_where(
        cluster, constant("replication.hints_added")
    ) == ["_hint"]


def test_the_client_accounts_a_timeout_in_one_function():
    client = repro.kvstore.client
    assert functions_where(client, catches("RpcTimeoutError")) == ["_call"]
    assert functions_where(client, constant("client.rpc_timeouts")) == ["_call"]


def test_suspects_are_demoted_only_by_the_chooser():
    for module in (repro.kvstore.cluster, repro.kvstore.client):
        assert functions_where(module, membership_in("suspects")) == []
    import repro.replication.manager as manager

    assert functions_where(
        manager, membership_in("suspects")
    ) == ["choose_replicas"]


def test_no_module_joined_kvstore():
    """``benchmarks/ledger`` bills a ``kvstore/<new>.py`` to no layer."""
    package = os.path.dirname(repro.kvstore.cluster.__file__)
    assert sorted(
        name for name in os.listdir(package) if name.endswith(".py")
    ) == [
        "__init__.py", "client.py", "cluster.py", "latency.py", "memory.py",
        "network.py", "node.py", "simtime.py",
    ]
