"""Reaching definitions for explicitly parallel programs — the paper's
three equation systems plus the Preserved-set approximation.

:func:`solve` is where a graph meets its system: the one place that
decides which of the paper's equation systems a program needs.
"""

from .conservative import ConservativeRDSystem, solve_conservative
from .genkill import DefSet, GenKillInfo, compute_genkill
from .parallel import ParallelRDSystem, solve_parallel
from .preserved import (
    PreservedResult,
    compute_preserved,
    empty_preserved,
    resolve_preserved,
)
from .result import ReachingDefsResult
from .sequential import SequentialRDSystem, solve_sequential
from .synch import SynchRDSystem, solve_synch


def family(graph) -> str:
    """The equation system ``graph`` needs, by its ``system_name``:
    ``"synch"`` (§6) once post/wait appear, ``"parallel"`` (§5) for
    parallel sections / parallel do, ``"sequential"`` (§2) otherwise."""
    if graph.posts_of_event or graph.waits_of_event:
        return "synch"
    if graph.forks or graph.pardos:
        return "parallel"
    return "sequential"


def solve(
    graph,
    *,
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Solve ``graph`` with the most precise applicable system (see
    :func:`family`).  ``solver`` as in
    :func:`~repro.reachdefs.parallel.run_solver`; ``preserved`` is read by
    the §6 system only.  Nothing is cached here (:func:`repro.analyze`
    adds the cache)."""
    kind = family(graph)
    if kind == "synch":
        return solve_synch(
            graph, order=order, solver=solver, preserved=preserved,
            budget=budget, record_provenance=record_provenance,
        )
    solve_fn = solve_parallel if kind == "parallel" else solve_sequential
    return solve_fn(
        graph, order=order, solver=solver, budget=budget,
        record_provenance=record_provenance,
    )


__all__ = [
    "ConservativeRDSystem",
    "solve_conservative",
    "DefSet",
    "GenKillInfo",
    "compute_genkill",
    "ParallelRDSystem",
    "solve_parallel",
    "PreservedResult",
    "compute_preserved",
    "empty_preserved",
    "resolve_preserved",
    "ReachingDefsResult",
    "SequentialRDSystem",
    "solve_sequential",
    "SynchRDSystem",
    "solve_synch",
    "family",
    "solve",
]
