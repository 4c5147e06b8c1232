"""``tools/code_lines.py`` counts code, not documentation or layout."""

from __future__ import annotations

import importlib.util
import os

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "tools", "code_lines.py"
)
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

BARE = "def f(a, b):\n    total = a + b\n    return total\n"
DOCUMENTED = '''"""Module docstring,
two lines."""

# a comment


def f(a, b):
    """What f does.

    At length.
    """
    # why
    total = a + b  # trailing comment

    return total
'''
REFLOWED = "def f(\n    a,\n    b,\n):\n    total = (\n        a + b\n    )\n    return total\n"


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert code_lines.count_code(BARE) == (3, 3)
    assert code_lines.count_code(DOCUMENTED) == (3, 3)


def test_layout_moves_lines_but_not_statements():
    assert code_lines.count_code(REFLOWED) == (8, 3)


def test_a_string_statement_that_is_not_a_docstring_counts():
    assert code_lines.count_code("x = 1\n'not a docstring'\n") == (2, 2)
