"""Count code per Python file the way a simplicity review does.

``wc -l`` bills docstrings, comments and blank lines as code
(``kvstore/cluster.py`` carries 420 docstring lines).  Two columns:

* ``lines`` -- physical lines holding code: not blank, not a comment, not
  part of a docstring.  This is the figure ISSUE/ROADMAP texts quote as
  "statements" (``cluster.py`` 922, ``client.py`` 518 at PR 19).
* ``stmts`` -- ``ast.stmt`` nodes, docstrings excluded.  Reformatting cannot
  move it, so a fall in ``lines`` with flat ``stmts`` is only denser layout.
* ``knobs`` -- options: fields of ``*Config`` dataclasses plus defaulted
  parameters of functions and methods (a closure's ``spec=spec`` capture
  is not one).  Each is a value a caller may change, so each is something
  the tests and benchmarks must cover.

    python tools/code_lines.py             # the ten largest under src/repro
    python tools/code_lines.py src/repro   # every file under the given paths
    python tools/code_lines.py src/repro/kvstore/cluster.py src/repro/kvstore/client.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Iterator, List, Sequence, Tuple

_DOCSTRING_OWNERS = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
)
_NOT_CODE = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
))


def count_code(source: str) -> Tuple[int, int]:
    """``(code lines, statements)`` of ``source``, docstrings excluded."""
    tree = ast.parse(source)
    docstrings = [
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, _DOCSTRING_OWNERS)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    ]
    statements = sum(
        isinstance(node, ast.stmt) for node in ast.walk(tree)
    ) - len(docstrings)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for docstring in docstrings:
        lines.difference_update(
            range(docstring.lineno, docstring.end_lineno + 1)
        )
    return len(lines), statements


def count_knobs(source: str) -> int:
    """``*Config`` dataclass fields plus defaulted parameters of the
    functions and methods of ``source`` (nested functions excluded)."""
    knobs = 0
    todo = [ast.parse(source)]
    while todo:
        node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                knobs += len(args.defaults) + sum(
                    default is not None for default in args.kw_defaults
                )
                continue
            if (
                isinstance(child, ast.ClassDef)
                and child.name.endswith("Config")
                and any("dataclass" in ast.dump(d) for d in child.decorator_list)
            ):
                knobs += sum(
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.dump(item.annotation)
                    for item in child.body
                )
            todo.append(child)
    return knobs


def python_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def measure(paths: Sequence[str]) -> List[Tuple[int, int, int, str]]:
    """``(code lines, statements, knobs, path)`` per file, largest first."""
    rows = []
    for filename in python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        rows.append((*count_code(source), count_knobs(source), filename))
    rows.sort(key=lambda row: (-row[0], row[3]))
    return rows


def main(paths: Sequence[str]) -> int:
    rows = measure(paths or ["src/repro"])
    print(f"{'lines':>7} {'stmts':>7} {'knobs':>7}  file")
    for lines, statements, knobs, filename in rows if paths else rows[:10]:
        print(f"{lines:7d} {statements:7d} {knobs:7d}  {filename}")
    totals = [sum(row[column] for row in rows) for column in range(3)]
    print(
        f"{totals[0]:7d} {totals[1]:7d} {totals[2]:7d}"
        f"  total ({len(rows)} files)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
