"""repro — reaching definitions for explicitly parallel programs.

A reproduction of Grunwald & Srinivasan, *Data Flow Equations for
Explicitly Parallel Programs* (CU-CS-605-92, PPoPP 1993): a mini-PCF
front end, the Parallel Flow Graph, the paper's sequential / parallel /
synchronized reaching-definitions equation systems, the Preserved-set
approximation, optimization clients, and a concurrent interpreter used as
a dynamic soundness oracle.

Quickstart::

    from repro import analyze, parse_program

    prog = parse_program(source_text)
    result = analyze(prog)             # picks the right equation system
    result.reaching("6", "k")          # defs of k reaching block (6)
"""

from __future__ import annotations

from . import obs, robust
from .cfg import build_cfg, is_sequential
from .cssa import build_cssa, render_cssa
from .driver import OptimizationReport, optimize
from .lang import ast, parse_program, pretty
from .pfg import ParallelFlowGraph, build_pfg, to_dot, validate_pfg
from .reachdefs import (
    ReachingDefsResult,
    compute_genkill,
    compute_preserved,
    solve,
    solve_parallel,
    solve_sequential,
    solve_synch,
)

__version__ = "1.0.0"


def analyze(
    program: "ast.Program",
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    cache: bool = True,
    record_provenance: bool = False,
    graph=None,
) -> ReachingDefsResult:
    """Analyze ``program`` with the most precise applicable equation system:
    the cache, the PFG build, then :func:`repro.reachdefs.solve`, which
    picks it.

    * sequential program → §2 classical reaching definitions;
    * parallel sections / parallel do, no synchronization → §5 parallel
      system;
    * synchronization present → §6 synchronized system (with the
      Preserved-set mode given by ``preserved``).

    ``solver="stabilized"`` (default) gives the deterministic,
    visit-order-independent solution; ``"round-robin"`` is the paper's
    chaotic iteration (see DESIGN.md §5 "solver modes"); ``"scc"`` is the
    sparse SCC-scheduled engine (:mod:`repro.dataflow.sched`) — same
    fixpoints, far fewer node updates on mostly-acyclic graphs.

    ``budget`` is an optional :class:`repro.dataflow.ResourceBudget`
    bounding the whole analysis; exhaustion raises
    :class:`repro.dataflow.NonConvergenceError` (see
    :func:`repro.robust.analyze_with_degradation` for the fall-back
    ladder that degrades instead of failing).

    ``record_provenance=True`` makes the solver derive a justification
    graph once converged and attach it as ``result.provenance``
    (:mod:`repro.provenance` — the substrate of ``repro explain`` and
    ``repro races --explain``).  Off by default and off-path when off.

    ``graph`` hands in an already-built PFG for ``program`` (it must be
    *the* PFG of that exact AST) — used by callers that needed the graph
    before deciding to run the full analysis (the incremental engine's
    fallback path), so the build isn't paid twice when caching is off.

    ``cache=True`` (default) memoizes by program digest in
    :data:`repro.dataflow.cache.GLOBAL_CACHE`: a warm call on an
    unchanged program returns the cached result with **zero** solver
    passes (the hit lands in the ``cache.*`` counters of
    :mod:`repro.obs`).  Budget-guarded runs bypass the full-result cache
    — a budget asks for the work to actually run under a guard.
    """
    from .dataflow.cache import GLOBAL_CACHE, MISSING, cached_build_pfg, program_digest

    use_cache = cache and budget is None and GLOBAL_CACHE.enabled
    key = None
    if use_cache:
        key = (
            "analyze",
            program_digest(program),
            order,
            solver,
            preserved,
            record_provenance,
        )
        # Results are only valid for the exact AST analyzed (PFG nodes
        # hold statement objects; the interpreter matches by identity —
        # see cached_build_pfg), so a hit from a different parse of the
        # same text is rejected and recomputed.
        hit = GLOBAL_CACHE.get(
            key,
            MISSING,
            valid=lambda r: getattr(r.graph, "source_program", None) is program,
        )
        if hit is not MISSING:
            return hit
    if graph is None:
        graph = cached_build_pfg(program) if cache else build_pfg(program)
    result = solve(
        graph, order=order, solver=solver, preserved=preserved,
        budget=budget, record_provenance=record_provenance,
    )
    if key is not None:
        GLOBAL_CACHE.put(key, result)
    return result


__all__ = [
    "__version__",
    "analyze",
    "obs",
    "robust",
    "optimize",
    "OptimizationReport",
    "ast",
    "build_cfg",
    "build_cssa",
    "render_cssa",
    "build_pfg",
    "compute_genkill",
    "compute_preserved",
    "is_sequential",
    "parse_program",
    "pretty",
    "ParallelFlowGraph",
    "ReachingDefsResult",
    "solve_parallel",
    "solve_sequential",
    "solve_synch",
    "to_dot",
    "validate_pfg",
]
