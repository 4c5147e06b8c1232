"""Line census: which code of ``src/repro`` the runnable set never runs.

The surface guard (``tests/test_every_surface_has_a_reader.py``) reads the
syntax tree, so it errs towards "used": a method name shared with a live
method of another class, or a keyword of a function passed as a value,
counts as read.  This tool asks the interpreter instead.  It runs every
entry point of the runnable set -- each example, each experiment with
``--quick``, ``python -m repro.bench.regression --quick`` (against the
committed baseline, as CI runs it) and each ledger workload of
``BENCHMARK.json`` for 2 host seconds -- in its own subprocess under the
stdlib's ``python -m trace --count``, keeps the ``src/repro`` lines that
ran, and prints per package:

* functions never entered, with their statement counts;
* blocks never hit inside functions that are entered, with ``raise``
  statements and ``except`` bodies listed apart from the rest.

Tests are not in the runnable set: code only a test reaches is what the
census is for.  Three properties of line events shape the analysis:

* a ``def`` line runs at import time, so a function counts as entered only
  when its first executable body statement ran;
* a statement spanning several lines reports the line of its first
  sub-expression (``if (\\n    a and b\\n):`` reports ``a``'s line), so a
  statement ran when any line of its header ran;
* a bare annotation (``x: int``) -- like ``global``, ``nonlocal`` and a
  docstring -- emits no line event, so it is never a statement to hit.

Every file is traced, the stdlib's too.  ``trace --ignore-dir`` would be
faster, but ``trace`` caches that verdict by base file name, so
``repro/sql/ast.py`` or any ``__init__.py`` would be judged by whichever
stdlib file of that name was called first.

Run from the repository root (stdlib only; two entry points at a time,
about 13 minutes on a 2-core box, so not a CI step)::

    python tools/census.py
"""

from __future__ import annotations

import ast
import glob
import json
import os
import pickle
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

Hits = Dict[str, Set[int]]
#: Entry points run at once: each is one single-threaded process.
JOBS = 2
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def hits_of(counts: Iterable[Tuple[str, int]]) -> Hits:
    """``trace``'s ``(filename, line)`` count keys, grouped by file."""
    hits: Hits = {}
    for name, line in counts:
        hits.setdefault(name, set()).add(line)
    return hits


# ----------------------------------------------------------------------
# Running the runnable set
# ----------------------------------------------------------------------
def runnable_set() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` for every entry point, ``argv`` as ``trace`` takes
    it after its own options: ``--module name ...`` or ``script.py ...``."""
    sys.path.insert(0, SRC)
    from repro.bench.experiment import experiments

    entries = [
        (f"example {os.path.basename(path)}", [path])
        for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    ]
    entries += [
        (f"bench {name} --quick", ["--module", "repro.bench", name, "--quick"])
        for name in sorted(experiments())
    ]
    # As CI runs it: the summary is diffed against the committed baseline.
    baseline = os.path.join(REPO, "benchmarks", "baselines", "BENCH_summary.json")
    entries.append(("regression --quick", [
        "--module", "repro.bench.regression", "--quick", "--summary",
        "summary.json", "--telemetry-out", "telemetry.json",
        "--baseline", baseline,
    ]))
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    ledger = os.path.join(REPO, "benchmarks", "ledger", "run.py")
    entries += [
        (f"ledger {name}", [ledger, "--workload", name, "--seconds", "2"])
        for name in workloads
    ]
    return entries


def _run_one(label: str, argv: List[str], scratch: str) -> Tuple[str, Hits]:
    # Each entry point writes its results/ files (and ``trace`` its
    # ``.cover`` listings) into a directory of its own.
    workdir = tempfile.mkdtemp(dir=scratch)
    counts = os.path.join(workdir, "counts.pickle")
    subprocess.run(
        [sys.executable, "-m", "trace", "--count", "--file", counts,
         "--coverdir", workdir, *argv],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if not os.path.exists(counts):
        return label, {}  # an exception escaped: ``trace`` wrote nothing
    with open(counts, "rb") as handle:
        return label, hits_of(pickle.load(handle)[0])


def run_census() -> Hits:
    """Run the runnable set and merge the lines every entry point ran."""
    merged: Hits = {}
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = [
                pool.submit(_run_one, label, argv, scratch)
                for label, argv in runnable_set()
            ]
            for future in futures:
                label, hits = future.result()
                state = "ran" if hits else "FAILED, no lines kept:"
                print(f"  {state} {label}", file=sys.stderr)
                for name, lines in hits.items():
                    merged.setdefault(name, set()).update(lines)
    return merged


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class Finding:
    where: str       # "relative/path.py:line"
    function: str    # qualified name of the function it is in
    statements: int  # statements it holds


@dataclass
class Census:
    """What one module (or the whole tree, merged) never runs."""

    never_entered: List[Finding] = field(default_factory=list)
    blocks: List[Finding] = field(default_factory=list)
    raises: List[Finding] = field(default_factory=list)
    excepts: List[Finding] = field(default_factory=list)

    def extend(self, other: "Census") -> None:
        self.never_entered += other.never_entered
        self.blocks += other.blocks
        self.raises += other.raises
        self.excepts += other.excepts


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _emits_no_line(stmt: ast.stmt) -> bool:
    """Statements the interpreter reports no line event for."""
    return (
        (isinstance(stmt, ast.AnnAssign) and stmt.value is None)
        or isinstance(stmt, (ast.Global, ast.Nonlocal))
    )


def _executable(body: Sequence[ast.stmt], owner: bool = False) -> List[ast.stmt]:
    """``body`` without what emits no line event (and, for a function or
    class body, without its docstring)."""
    if owner and body and _is_docstring(body[0]):
        body = body[1:]
    return [stmt for stmt in body if not _emits_no_line(stmt)]


def _children(stmt: ast.stmt) -> Iterator[Tuple[str, List[ast.stmt]]]:
    """The statement lists nested in a compound statement, by role."""
    if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
        return
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if block:
            yield name, block
    for handler in getattr(stmt, "handlers", ()):
        yield "except", handler.body
    for case in getattr(stmt, "cases", ()):
        yield "case", case.body


def _header(stmt: ast.stmt) -> range:
    """Lines whose event means ``stmt`` ran: a simple statement's whole
    span, a compound statement's lines before its first nested one."""
    first = min(
        [stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())]
    )
    if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
        nested = [stmt.body[0].lineno]
    else:
        nested = [block[0].lineno for _, block in _children(stmt)]
    if nested:
        return range(first, max(first, min(nested) - 1) + 1)
    return range(first, (stmt.end_lineno or stmt.lineno) + 1)


def _ran(stmt: ast.stmt, lines: Set[int]) -> bool:
    if any(line in lines for line in _header(stmt)):
        return True
    # ``try:`` and ``while True:`` may emit nothing of their own; their
    # body running means they ran.
    for role, block in _children(stmt):
        if role == "body":
            body = _executable(block)
            return bool(body) and _ran(body[0], lines)
    return False


def _count(stmts: Sequence[ast.stmt]) -> int:
    """Executable statements in ``stmts``, nested ones included."""
    total = 0
    for stmt in stmts:
        total += 1
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            total += _count(_executable(stmt.body, owner=True))
        else:
            for _, block in _children(stmt):
                total += _count(_executable(block))
    return total


class _Analyser:
    def __init__(self, path: str, lines: Set[int]):
        self.path = path
        self.lines = lines
        self.census = Census()

    def where(self, stmt: ast.stmt) -> str:
        return f"{self.path}:{stmt.lineno}"

    def scope(self, body: Sequence[ast.stmt], prefix: str) -> None:
        """Module or class body: runs at import; find the functions in it."""
        for stmt in body:
            if isinstance(stmt, _FUNCTIONS):
                self.function(stmt, prefix + stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.scope(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for _, block in _children(stmt):
                    self.scope(block, prefix)

    def function(self, node: ast.AST, name: str) -> None:
        body = _executable(node.body, owner=True)  # type: ignore[attr-defined]
        if not body:
            return  # a docstring alone: nothing to tell entry by
        if not _ran(body[0], self.lines):
            self.census.never_entered.append(
                Finding(self.where(node), name, _count(body))  # type: ignore[arg-type]
            )
            return
        self.block(body, name, "body")

    def block(self, stmts: Sequence[ast.stmt], name: str, role: str) -> None:
        """One statement list of an entered function: each run of
        consecutive statements never hit is one finding."""
        run: List[ast.stmt] = []
        for stmt in stmts:
            if not _ran(stmt, self.lines):
                run.append(stmt)
                continue
            if run:
                self.report(run, name, role, whole=run[0] is stmts[0])
                run = []
            if isinstance(stmt, _FUNCTIONS):
                self.function(stmt, f"{name}.<locals>.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                self.scope(stmt.body, f"{name}.<locals>.{stmt.name}.")
            else:
                for child_role, child in _children(stmt):
                    executable = _executable(child)
                    if executable:
                        self.block(executable, name, child_role)
        if run:
            self.report(run, name, role, whole=run[0] is stmts[0])

    def report(
        self, run: List[ast.stmt], name: str, role: str, whole: bool
    ) -> None:
        finding = Finding(self.where(run[0]), name, _count(run))
        if role == "except" and whole:
            self.census.excepts.append(finding)
        elif len(run) == 1 and isinstance(run[0], ast.Raise):
            self.census.raises.append(finding)
        else:
            self.census.blocks.append(finding)


def analyse(source: str, lines: Set[int], path: str = "<module>") -> Census:
    """What of one module's functions ``lines`` (the lines that ran) misses."""
    analyser = _Analyser(path, lines)
    analyser.scope(ast.parse(source).body, "")
    return analyser.census


def census_by_package(hits: Hits) -> Dict[str, Census]:
    """Analyse every module of ``src/repro``, grouped by package."""
    packages: Dict[str, Census] = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        relative = os.path.relpath(path, PACKAGE)
        package = relative.split(os.sep)[0] if os.sep in relative else "repro"
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        census = analyse(source, hits.get(path, set()), relative)
        packages.setdefault(package, Census()).extend(census)
    return packages


def report(packages: Dict[str, Census]) -> str:
    out: List[str] = []
    total = Census()
    for package, census in sorted(packages.items()):
        total.extend(census)
        out.append(
            f"== {package}: {len(census.never_entered)} functions "
            f"({sum(f.statements for f in census.never_entered)} statements) "
            f"never entered; {len(census.blocks)} blocks, {len(census.raises)} "
            f"raises, {len(census.excepts)} except bodies never hit"
        )
        for title, findings in (
            ("never entered", census.never_entered),
            ("blocks never hit", census.blocks),
            ("raise never hit", census.raises),
            ("except bodies never hit", census.excepts),
        ):
            if findings:
                out.append(f"  {title}:")
                out += [
                    f"    {f.where} {f.function} ({f.statements})"
                    for f in findings
                ]
    out.append(
        f"total: {len(total.never_entered)} functions "
        f"({sum(f.statements for f in total.never_entered)} statements) never "
        f"entered; in entered functions {len(total.blocks)} blocks "
        f"({sum(f.statements for f in total.blocks)} statements), "
        f"{len(total.raises)} raises and {len(total.excepts)} except bodies "
        f"never hit"
    )
    return "\n".join(out)


if __name__ == "__main__":
    print(report(census_by_package(run_census())))
