"""Every query page goes through one function (structural, AST-level).

Between ``db.execute(...)`` and ``QueryExecutor.execute`` the policy, the
parameter check, the auditor and the recorder are all attached "at the
funnel" — ``Session._execute_page`` → ``ResiliencePolicy.execute_page`` →
``run`` → the executor.  A second way in protects nothing
(``PreparedQuery.pages`` used to be one), so this test walks the syntax trees
of ``src/repro`` in the manner of ``tests/kvstore/test_request_path_sites.py``
and counts the frames of the blocking path.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
from typing import Callable, Dict, List, Tuple

import repro
from repro import ClusterConfig, PiqlDatabase
from repro.engine.query import PreparedQuery

PACKAGE = os.path.dirname(repro.__file__)


@functools.lru_cache(maxsize=None)
def syntax_trees() -> List[Tuple[str, ast.AST]]:
    trees = []
    for directory, _, names in os.walk(PACKAGE):
        for name in names:
            if name.endswith(".py"):
                filename = os.path.join(directory, name)
                with open(filename, encoding="utf-8") as handle:
                    trees.append(
                        (os.path.relpath(filename, PACKAGE), ast.parse(handle.read()))
                    )
    return trees


def functions_where(matches: Callable[[ast.AST], bool]) -> List[Tuple[str, str]]:
    """``(file, function)`` of every function under ``src/repro`` whose own
    body (nested functions count for themselves) holds a matching node."""
    found: Dict[Tuple[str, str], None] = {}

    def visit(node: ast.AST, path: str, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found[(path, owner)] = None
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path, tree in syntax_trees():
        visit(tree, path, "<module>")
    return list(found)


def names(attr: str, of: str) -> Callable[[ast.AST], bool]:
    """``<anything>.<of>.<attr>`` or ``<of>.<attr>``."""
    return lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and getattr(node.value, "attr", getattr(node.value, "id", None))
        in (of, "_" + of)
    )


def calls(attr: str) -> Callable[[ast.AST], bool]:
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    )


def mentions(word: str) -> Callable[[ast.AST], bool]:
    return lambda node: word in (
        getattr(node, "attr", None), getattr(node, "id", None),
        getattr(node, "name", None),
    )


def test_the_executor_is_reached_from_one_function():
    assert functions_where(names("execute", of="executor")) == [
        ("resilience/policy.py", "execute_page")
    ]
    assert functions_where(calls("execute_page")) == [
        ("engine/session.py", "_execute_page")
    ]


def test_the_side_doors_are_gone():
    assert functions_where(mentions("execute_all_pages")) == []
    assert functions_where(mentions("ExecutorConfig")) == []


def test_the_strategy_is_a_property_of_the_view():
    """Nothing on the way down chooses how a plan runs.  No function of the
    funnel's three modules names ``strategy`` as a parameter, keyword,
    name or attribute (a leftover ``strategy=`` would land in ``**kwargs``
    as an unused query parameter and be ignored); the executor reads its
    own, set when ``PiqlDatabase.new_client`` builds the view."""
    funnel = ("engine/query.py", "engine/session.py", "resilience/policy.py")

    def names_strategy(node: ast.AST) -> bool:
        return "strategy" in (
            getattr(node, "attr", None), getattr(node, "id", None),
            getattr(node, "arg", None),
        )

    assert [
        site for site in functions_where(names_strategy) if site[0] in funnel
    ] == []
    assert ("execution/executor.py", "execute") in functions_where(
        names("strategy", of="self")
    )


def test_four_frames_from_the_blocking_call_to_the_executor():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=5))
    db.execute_ddl("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
    db.insert("t", {"id": 1, "v": 10})
    execute = db.executor.execute
    stacks: List[List[str]] = []

    def spy(*args):
        frame, stack = sys._getframe(1), []
        while frame is not None:
            stack.append(frame.f_code.co_name)
            if isinstance(frame.f_locals.get("self"), PreparedQuery):
                break
            frame = frame.f_back
        stacks.append(stack)
        return execute(*args)

    db.executor.execute = spy
    assert db.prepare("SELECT * FROM t WHERE id = <id>").execute(id=1).rows
    assert stacks == [["run", "execute_page", "_execute_page", "execute"]]
