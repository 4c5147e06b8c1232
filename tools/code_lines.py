"""Count code per Python file the way a simplicity review does.

``wc -l`` bills docstrings, comments and blank lines as code
(``kvstore/cluster.py`` carries 420 docstring lines).  Two columns:

* ``lines`` -- physical lines holding code: not blank, not a comment, not
  part of a docstring.  This is the figure ISSUE/ROADMAP texts quote as
  "statements" (``cluster.py`` 922, ``client.py`` 518 at PR 19).
* ``stmts`` -- ``ast.stmt`` nodes, docstrings excluded.  Reformatting cannot
  move it, so a fall in ``lines`` with flat ``stmts`` is only denser layout.

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


def measure(paths: Sequence[str]) -> List[Tuple[int, int, str]]:
    """``(code lines, statements, path)`` per file, largest first."""
    rows = []
    for filename in python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            rows.append((*count_code(handle.read()), filename))
    rows.sort(key=lambda row: (-row[0], row[2]))
    return rows


def main(paths: Sequence[str]) -> int:
    rows = measure(paths or ["src/repro"])
    print(f"{'lines':>7} {'stmts':>7}  file")
    for lines, statements, filename in rows if paths else rows[:10]:
        print(f"{lines:7d} {statements:7d}  {filename}")
    print(
        f"{sum(row[0] for row in rows):7d} {sum(row[1] for row in rows):7d}"
        f"  total ({len(rows)} files)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
