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


KNOBS = """
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass
class RunConfig:
    seed: int = 1
    nodes: int
    names: list = field(default_factory=list)
    VERSION: ClassVar[int] = 2


@dataclass
class Point:
    x: int = 0


def run(config, quick=False, *, seeds=None, label):
    def fire(sim, spec=config):
        return spec
    return lambda value=1: value


class Runner:
    def go(self, a, b=2):
        pass
"""


def test_knobs_are_config_fields_and_defaulted_parameters():
    # RunConfig's three fields (not the ClassVar, not Point's), run's
    # quick and seeds, Runner.go's b -- not the closure's capture or the
    # lambda's default.
    assert code_lines.count_knobs(KNOBS) == 6
    assert code_lines.count_knobs(BARE) == 0
