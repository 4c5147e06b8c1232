"""``tools/census.py``'s analysis half, on a toy module traced in-process.

Each test pins one property of line events the census must not misread:
a ``def`` line runs at import, a multi-line header reports the line of its
first sub-expression, and a bare annotation reports no line at all.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import trace

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "census.py")
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("census", census)
_spec.loader.exec_module(census)

TOY = '''
def entered(x):
    return x + 1


def never_called(x):
    doubled = x * 2
    return doubled


def multi_line_header(x):
    if (
        x > 1
        and x < 5
    ):
        return "in"
    return "out"


def bare_annotation_first():
    total: int
    total = 3
    return total


def branches(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 0:
        raise ValueError("negative")
    if value > 100:
        value = 100
        value -= 1
    return value
'''


def _line(marker: str) -> int:
    """1-based line of the first line of TOY containing ``marker``."""
    for number, text in enumerate(TOY.splitlines(), start=1):
        if marker in text:
            return number
    raise AssertionError(marker)


def _trace_toy(tmp_path):
    """Import the toy module and call it under ``trace``, as the census
    runs each entry point."""
    path = str(tmp_path / "toy.py")
    namespace = {"__name__": "toy", "__file__": path}

    def drive():
        exec(compile(TOY, path, "exec"), namespace)
        namespace["entered"](1)
        namespace["multi_line_header"](3)
        namespace["multi_line_header"](9)
        namespace["bare_annotation_first"]()
        namespace["branches"]("5")

    tracer = trace.Trace(count=1, trace=0)
    previous = sys.gettrace()
    try:
        tracer.runfunc(drive)
    finally:
        sys.settrace(previous)
    return census.hits_of(tracer.results().counts)[path]


def test_def_line_runs_at_import_but_is_not_entry(tmp_path):
    lines = _trace_toy(tmp_path)
    assert _line("def never_called") in lines
    found = census.analyse(TOY, lines)
    assert [(f.function, f.statements) for f in found.never_entered] == [
        ("never_called", 2)
    ]


def test_multi_line_header_counts_by_any_header_line(tmp_path):
    found = census.analyse(TOY, _trace_toy(tmp_path))
    assert all(f.function != "multi_line_header" for f in found.blocks)
    # Only the sub-expression's line ran: the ``if (`` line still counts.
    body = {_line('return "in"'), _line('return "out"')}
    only_operand = census.analyse(TOY, body | {_line("x > 1")})
    assert all(
        f.function != "multi_line_header"
        for f in only_operand.never_entered + only_operand.blocks
    )


def test_bare_annotation_is_no_statement(tmp_path):
    lines = _trace_toy(tmp_path)
    assert _line("total: int") not in lines
    found = census.analyse(TOY, lines)
    assert all(
        f.function != "bare_annotation_first"
        for f in found.never_entered + found.blocks
    )


def test_blocks_raises_and_except_bodies_are_told_apart(tmp_path):
    found = census.analyse(TOY, _trace_toy(tmp_path), "toy.py")
    assert [(f.where, f.statements) for f in found.excepts] == [
        (f"toy.py:{_line('value = 0')}", 1)
    ]
    assert [f.where for f in found.raises] == [
        f"toy.py:{_line('raise ValueError')}"
    ]
    assert [(f.where, f.statements) for f in found.blocks] == [
        (f"toy.py:{_line('value = 100')}", 2)
    ]
