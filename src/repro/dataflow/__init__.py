"""Data-flow machinery: bitset sets, equation framework, fixpoint solvers."""

from .bitset import IntBitsetBackend, make_backend
from .budget import BudgetExceeded, NonConvergenceError, ResourceBudget, check_budget
from .cache import GLOBAL_CACHE, AnalysisCache, cached_build_pfg, program_digest
from .framework import EquationSystem, FixpointDiverged, SolveStats
from .sched import Region, Schedule, build_schedule, get_schedule, solve_scc
from .solver import (
    DEFAULT_MAX_PASSES,
    SOLVERS,
    make_order,
    solve_round_robin,
    solve_stabilized,
    solve_worklist,
)

__all__ = [
    "BudgetExceeded",
    "NonConvergenceError",
    "ResourceBudget",
    "check_budget",
    "solve_stabilized",
    "AnalysisCache",
    "GLOBAL_CACHE",
    "cached_build_pfg",
    "program_digest",
    "Region",
    "Schedule",
    "build_schedule",
    "get_schedule",
    "solve_scc",
    "IntBitsetBackend",
    "make_backend",
    "EquationSystem",
    "FixpointDiverged",
    "SolveStats",
    "DEFAULT_MAX_PASSES",
    "SOLVERS",
    "make_order",
    "solve_round_robin",
    "solve_worklist",
]
