"""Logical and physical query plans plus static bound computation."""

from . import logical, physical
from .bounds import PlanBound, compute_bound, operation_bound
from .builder import LogicalPlanBuilder
from .printer import plan_to_string

__all__ = [
    "LogicalPlanBuilder",
    "PlanBound",
    "compute_bound",
    "logical",
    "operation_bound",
    "physical",
    "plan_to_string",
]
