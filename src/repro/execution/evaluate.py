"""Evaluation of analyzed predicates and key parts against in-flight tuples."""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Sequence, Union

from ..errors import ExecutionError
from ..plans import logical as L
from ..plans import physical as P
from ..sql.ast import Literal, Parameter
from ..storage.fulltext import query_token, tokenize
from .context import ExecutionContext, InternalRow


def resolve_value(
    value: Union[Literal, Parameter], context: ExecutionContext
) -> Any:
    """Resolve a literal or parameter to a concrete Python value."""
    if isinstance(value, Literal):
        return value.value
    if isinstance(value, Parameter):
        return context.parameter(value.name)
    raise ExecutionError(f"cannot resolve value {value!r}")


def resolve_key_part(
    part: P.KeyPart, context: ExecutionContext, row: Optional[InternalRow] = None
) -> Any:
    """Resolve a key component: literal, parameter, or child-tuple column."""
    if isinstance(part, (Literal, Parameter)):
        return resolve_value(part, context)
    if isinstance(part, L.BoundColumn):
        if row is None:
            raise ExecutionError(
                f"key part {part.render()} needs a child tuple but none was given"
            )
        return column_value(row, part)
    raise ExecutionError(f"cannot resolve key part {part!r}")


def resolve_in_list(
    part: P.InListPart, context: ExecutionContext
) -> List[Any]:
    """Resolve the value list of an IN predicate."""
    if isinstance(part.values, Parameter):
        values = context.parameter(part.values.name)
        if not isinstance(values, (list, tuple)):
            raise ExecutionError(
                f"parameter {part.values.name!r} must be bound to a list for IN"
            )
        return list(values)
    return [literal.value for literal in part.values]


def column_value(row: InternalRow, column: L.BoundColumn) -> Any:
    """Read a column of the internal tuple representation."""
    relation = row.get(column.relation)
    if relation is None:
        raise ExecutionError(
            f"tuple has no relation {column.relation!r}; present: {sorted(row)}"
        )
    return relation.get(column.column)


def evaluate_predicate(
    predicate: L.ValuePredicate, row: InternalRow, context: ExecutionContext
) -> bool:
    """Evaluate one analyzed value predicate against an internal tuple."""
    if isinstance(predicate, L.AttributeEquality):
        return column_value(row, predicate.column) == resolve_value(
            predicate.value, context
        )
    if isinstance(predicate, L.AttributeInequality):
        actual = column_value(row, predicate.column)
        expected = resolve_value(predicate.value, context)
        if actual is None:
            return False
        if predicate.op == "<":
            return actual < expected
        if predicate.op == "<=":
            return actual <= expected
        if predicate.op == ">":
            return actual > expected
        if predicate.op == ">=":
            return actual >= expected
        if predicate.op == "<>":
            return actual != expected
        raise ExecutionError(f"unknown operator {predicate.op!r}")
    if isinstance(predicate, L.TokenMatch):
        actual = column_value(row, predicate.column)
        needle = query_token(str(resolve_value(predicate.value, context)))
        if actual is None or not needle:
            return False
        return needle in tokenize(str(actual))
    if isinstance(predicate, L.AttributeIn):
        actual = column_value(row, predicate.column)
        if isinstance(predicate.values, Parameter):
            values = context.parameter(predicate.values.name)
        else:
            values = [literal.value for literal in predicate.values]
        return actual in list(values)
    raise ExecutionError(f"cannot evaluate predicate {predicate!r}")


def evaluate_all(
    predicates: Sequence[L.ValuePredicate], row: InternalRow, context: ExecutionContext
) -> bool:
    """Conjunction of predicates."""
    return all(evaluate_predicate(p, row, context) for p in predicates)


def sort_rows(
    rows: List[InternalRow],
    keys: Sequence[tuple],
) -> List[InternalRow]:
    """Stable multi-key sort of internal tuples.

    ``keys`` is a sequence of ``(BoundColumn, ascending)`` pairs.  The sort
    is applied from the least-significant key to the most significant one,
    relying on Python's stable sort; ``None`` values order before everything
    else on ascending keys (and after on descending ones).
    """
    ordered = list(rows)
    for column, ascending in reversed(list(keys)):
        ordered.sort(
            key=lambda row: _null_safe_key(column_value(row, column)),
            reverse=not ascending,
        )
    return ordered


def _null_safe_key(value: Any):
    # (0, None) sorts before (1, value) so NULLs group first on ascending sorts.
    return (0, "") if value is None else (1, value)


class Descending:
    """Order-reversing comparison wrapper for heap-based top-K selection.

    Wrapping a sort component in ``Descending`` makes "smaller" mean
    "larger underlying value", so a single ``heapq.nsmallest`` call can
    select the top K under per-column sort directions while leaving the
    positional tiebreaker ascending (which is what reproduces the stable
    ordering of :func:`sort_rows` exactly).
    """

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Descending) and other.key == self.key


def top_k_rows(
    rows: List[InternalRow],
    keys: Sequence[tuple],
    count: int,
) -> List[InternalRow]:
    """Exactly ``sort_rows(rows, keys)[:count]`` via heap selection.

    A chain of stable sorts (what :func:`sort_rows` does) orders rows
    lexicographically by the sort columns with ties broken by original
    position; encoding that as one comparison key — per-column null-safe
    values, direction applied per column, position appended — lets
    ``heapq.nsmallest`` pick the K winners in O(n log k) instead of fully
    sorting every joined row first.
    """
    if count >= len(rows):
        return sort_rows(rows, keys)

    def selection_key(indexed):
        position, row = indexed
        parts = []
        for column, ascending in keys:
            value = _null_safe_key(column_value(row, column))
            parts.append(value if ascending else Descending(value))
        return (*parts, position)

    selected = heapq.nsmallest(count, enumerate(rows), key=selection_key)
    return [row for _, row in selected]
