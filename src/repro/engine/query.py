"""Prepared queries: the user-facing handle on a compiled PIQL query."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..errors import ExecutionError
from ..execution.context import QueryResult
from ..optimizer.optimizer import OptimizedQuery
from ..plans.bounds import PlanBound


def bind_parameters(
    optimized: OptimizedQuery,
    parameters: Optional[Dict[str, Any]],
    kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build and check the parameter dict one execution of ``optimized`` reads.

    The one binding rule of the client API: parameters may be passed as a
    dictionary, as keyword arguments, or both — keyword arguments win on
    conflict, and names the query does not use are ignored.

    The static bound of a query rests on what its text declares
    (``LIMIT [1: n(5)]``, ``IN [2: ids(3)]``), so a binding that breaks the
    declaration is refused here, before any key/value operation: a name the
    query needs and the caller left out, a stop count that is not a
    non-negative integer, an IN list that is not a list, and either of the
    two past its declared maximum (a list's length counts, duplicates
    included).  A stop count with a declared maximum may be left unbound and
    then means that maximum.
    """
    bound = dict(parameters) if parameters else {}
    if kwargs:
        bound.update(kwargs)
    for name, kind, maximum in optimized.bindings:
        if name not in bound:
            if kind == "count" and maximum is not None:
                continue
            raise ExecutionError(
                f"query parameter {name!r} was not bound; "
                f"bound parameters: {sorted(bound)}"
            )
        if kind is None:
            continue
        value = bound[name]
        if kind == "count":
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ExecutionError(
                    f"parameter {name!r} must be bound to a non-negative "
                    f"integer row count, got {value!r}"
                )
            size = value
        else:
            if not isinstance(value, (list, tuple)):
                raise ExecutionError(
                    f"parameter {name!r} must be bound to a list for IN, "
                    f"got {value!r}"
                )
            size = len(value)
        if maximum is not None and size > maximum:
            raise ExecutionError(
                f"parameter {name!r} asks for {size}, more than the {maximum} "
                f"the query declares; its static bound rests on that maximum"
            )
    return bound


class PreparedQuery:
    """A compiled, scale-independent query bound to a database view's session.

    Instances are created by :meth:`repro.engine.database.PiqlDatabase.prepare`
    and can be executed many times with different parameter bindings; for
    ``PAGINATE`` queries each execution returns one page plus a serialisable
    cursor for the next.

    The blocking entry points below enter the session's page funnel
    (:meth:`repro.engine.session.Session._execute_page`) directly; use
    :meth:`repro.engine.database.PiqlDatabase.session` to overlap several
    queries' latencies instead of paying them in sequence.
    """

    def __init__(self, optimized: OptimizedQuery, session: Any):
        self._optimized = optimized
        self._session = session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sql(self) -> str:
        return self._optimized.sql

    @property
    def optimized(self) -> OptimizedQuery:
        return self._optimized

    @property
    def physical_plan(self):
        return self._optimized.physical_plan

    @property
    def logical_plan(self):
        return self._optimized.logical_plan

    @property
    def bound(self) -> PlanBound:
        return self._optimized.bound

    @property
    def operation_bound(self) -> int:
        """Maximum number of key/value store operations per execution."""
        return self._optimized.operation_bound

    @property
    def is_paginated(self) -> bool:
        return self._optimized.is_paginated

    def describe(self) -> str:
        """Logical plan, physical plan, bounds, and required indexes."""
        return self._optimized.describe()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        parameters: Optional[Dict[str, Any]] = None,
        cursor: Optional[object] = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Execute the query, blocking until its (simulated) completion.

        Parameters may be passed as a dictionary or as keyword arguments
        (``q.execute(uname="bob")``); keyword arguments win on conflict.
        They are checked against what the query declares before anything
        runs (:func:`bind_parameters`).  How the plan is run is the view's
        choice (:meth:`~repro.engine.database.PiqlDatabase.new_client`).
        """
        return self._session._execute_page(
            self._optimized, parameters, kwargs, cursor
        )

    def pages(
        self, parameters: Optional[Dict[str, Any]] = None, **kwargs: Any
    ) -> Iterator[QueryResult]:
        """Iterate all pages of a PAGINATE query, fetching each as it is reached."""
        yield from self._session.execute(self, parameters, **kwargs).pages()
