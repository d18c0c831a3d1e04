"""Sparse SCC-scheduled fixpoint evaluation.

The sweep solvers in :mod:`repro.dataflow.solver` re-evaluate **every**
node on every pass, so cost grows as O(passes × nodes) regardless of
graph shape.  This module implements the classic sparse strategy
instead:

1. Build the **equation-dependence graph** once per system
   (:func:`build_schedule`): an edge ``n → m`` whenever ``m``'s equations
   read one of ``n``'s variables.  The edges come from
   ``system.dependents`` — which already covers sequential, parallel and
   synchronization predecessors plus the technical fork→join edge that
   the kill layer (``ForkKill``/``ACCKillout``/``SynchPass``) reads.
2. Condense it into strongly connected components (iterative Tarjan)
   and order the regions topologically.
3. :func:`solve_scc` then evaluates each region to *local* fixpoint in
   topological order, never touching a region before its inputs are
   final:

   * an **acyclic** (singleton, no self-edge) region is evaluated
     exactly once — all of its inputs are already final, and one
     Gauss–Seidel evaluation of the node's equations yields its final
     values (for the phase-split systems, a fixed ``kill → flow → kill``
     micro-sequence resolves the intra-node variable ordering; the
     trailing kill step is needed only at join nodes, whose
     ``ACCKillout`` reads the node's own ``Out``);
   * a **cyclic** region runs to local fixpoint: a priority worklist
     (priority = position in the caller's sweep order, reverse postorder
     by default) for plain monotone systems, or region-scoped
     flow/kill phase alternation — the :func:`~repro.dataflow.solver.
     solve_stabilized` algorithm restricted to the region, including its
     cycle detection and conservative kill-meet resolution — for the
     paper's parallel/synchronized systems.

The *fixpoints* are untouched: only the evaluation schedule changes.
Singleton regions cost one update (plain) or 2–3 micro-updates (phase
mode) instead of one update per sweep, so acyclic graphs drop from
O(passes × N) to O(N) node updates.

Observability: schedule construction runs under a ``schedule-build``
tracer span (annotated with region counts) and feeds
``solve.scc.schedule_builds`` / ``solve.scc.schedule_cache_hits``
counters; the solve itself reports the usual ``solve`` span and
``solve.*`` counters with solver name ``scc``.

Guarded execution: a :class:`~repro.dataflow.budget.ResourceBudget` is
charged one pass per cyclic-region sweep and one update per node
evaluation, and checked at region granularity (plus per phase pass),
so runaway cyclic regions trip the budget before burning the allowance
of the whole graph.

Chaos caveat: :class:`repro.robust.chaos.ChaosSystem` *drop* faults lie
about convergence ("changed" without updating), which a sweep solver
absorbs by re-sweeping but an exactly-once acyclic region cannot.
Duplicate faults, suppression faults and shuffled sweep orders compose
fine with this solver (pinned by the chaos tests).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, TypeVar

from ..obs import get_metrics, get_tracer
from .budget import NonConvergenceError, ResourceBudget, check_budget
from .framework import EquationSystem, SolveStats

N = TypeVar("N")

#: Terminal safety cap on iterations *within one region* — same rationale
#: (and value) as ``solver.DEFAULT_MAX_PASSES``: monotone systems over
#: finite lattices converge long before this; hitting it is a bug.
DEFAULT_MAX_REGION_PASSES = 10_000

#: Cap on stabilization rounds within one cyclic region (mirrors
#: ``solve_stabilized``'s ``max_rounds``).
DEFAULT_MAX_REGION_ROUNDS = 100


@dataclass
class Region:
    """One strongly connected component of the dependence graph."""

    index: int
    nodes: List[object]
    #: True when the region needs iteration: more than one node, or a
    #: single node whose equations read their own previous value.
    cyclic: bool


@dataclass
class Schedule:
    """Precomputed evaluation schedule for one equation system.

    ``regions`` is in topological order of the SCC condensation: every
    dependence edge crossing regions goes from an earlier region to a
    later one, so evaluating regions in order guarantees each region
    sees only final upstream values.
    """

    nodes: List[object]
    dependents: Dict[object, List[object]]
    regions: List[Region] = field(default_factory=list)
    region_of: Dict[object, int] = field(default_factory=dict)

    @property
    def n_cyclic(self) -> int:
        return sum(1 for r in self.regions if r.cyclic)

    def describe(self) -> str:
        return (
            f"schedule: {len(self.nodes)} nodes, {len(self.regions)} regions "
            f"({self.n_cyclic} cyclic)"
        )


def build_schedule(system: EquationSystem[N]) -> Schedule:
    """Derive the dependence graph and its SCC condensation for ``system``.

    Canonical and deterministic: nodes are taken in ``system.nodes()``
    order and successors in ``system.dependents`` order, so the schedule
    never depends on the sweep order a later solve happens to use.
    """
    nodes = list(system.nodes())
    known = set(nodes)
    dependents: Dict[object, List[object]] = {}
    for n in nodes:
        seen = set()
        succs = []
        for m in system.dependents(n):
            if m in known and m not in seen:
                seen.add(m)
                succs.append(m)
        dependents[n] = succs

    # Iterative Tarjan.  SCCs pop in reverse topological order of the
    # condensation (an SCC completes only after every SCC it points into),
    # so reversing the emission order gives the evaluation order.
    index: Dict[object, int] = {}
    lowlink: Dict[object, int] = {}
    on_stack: Dict[object, bool] = {}
    stack: List[object] = []
    emitted: List[List[object]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(dependents[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, succs = work[-1]
            advanced = False
            for w in succs:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(dependents[w])))
                    advanced = True
                    break
                if on_stack.get(w):
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w is v or w == v:
                        break
                component.reverse()
                emitted.append(component)

    schedule = Schedule(nodes=nodes, dependents=dependents)
    position = {n: i for i, n in enumerate(nodes)}
    for component in reversed(emitted):
        component.sort(key=position.__getitem__)
        cyclic = len(component) > 1 or component[0] in dependents[component[0]]
        region = Region(index=len(schedule.regions), nodes=component, cyclic=cyclic)
        schedule.regions.append(region)
        for n in component:
            schedule.region_of[n] = region.index
    return schedule


def get_schedule(system: EquationSystem[N]) -> Schedule:
    """The cached :class:`Schedule` for ``system`` (built on first use).

    The schedule depends only on the system's dependence structure, which
    is fixed at construction, so it is computed once and memoized on the
    system instance — repeated ``solve_scc`` calls (ablation sweeps over
    orders, chaos seeds, warm re-solves) pay for Tarjan exactly once.
    """
    cached = getattr(system, "_scc_schedule", None)
    metrics = get_metrics()
    if cached is not None:
        if metrics.enabled:
            metrics.inc("solve.scc.schedule_cache_hits")
        return cached
    tracer = get_tracer()
    with tracer.span("schedule-build") as span:
        schedule = build_schedule(system)
        span.annotate(
            nodes=len(schedule.nodes),
            regions=len(schedule.regions),
            cyclic_regions=schedule.n_cyclic,
        )
    if metrics.enabled:
        metrics.inc("solve.scc.schedule_builds")
    try:
        system._scc_schedule = schedule
    except AttributeError:  # pragma: no cover - systems with __slots__
        pass
    return schedule


def _phase_split(system) -> bool:
    """Systems exposing the stabilized flow/kill protocol get region-scoped
    phase alternation; plain monotone systems get direct evaluation."""
    return all(
        hasattr(system, attr)
        for attr in ("update_flow", "update_kill", "reset_flow_nodes", "reset_kill_nodes")
    )


def solve_scc(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "scc",
    max_passes: int = DEFAULT_MAX_REGION_PASSES,
    max_rounds: int = DEFAULT_MAX_REGION_ROUNDS,
    budget: Optional[ResourceBudget] = None,
    verify: bool = False,
    skip_regions: Optional[AbstractSet[int]] = None,
    seed: Optional[Callable[[], None]] = None,
) -> SolveStats:
    """Sparse fixpoint: evaluate dependence-graph regions in topological
    order, each to local convergence (see module docstring).

    ``order`` only sets the *within-region* sweep priority (ties broken
    by schedule position); the fixpoint is order-invariant, pinned by the
    chaos tests.  ``verify=True`` runs one extra full sweep at the end
    and raises if anything still changes — a debugging/CI guard against a
    system whose ``dependents`` under-approximates its true reads (the
    extra sweep's updates are counted in ``stats.node_updates``).

    ``skip_regions`` / ``seed`` are the incremental re-analysis hooks
    (:mod:`repro.incremental`): after ``initialize()`` the ``seed``
    callback installs retained rows for the skipped (clean) regions, and
    every region whose index is in ``skip_regions`` is then excluded
    from evaluation.  Soundness is the caller's obligation: a skipped
    region's seeded values must already be its region-local least
    fixpoint and every dependence *into* a solved region must come from
    a seeded or earlier-solved region.  Skipped/solved counts land in
    ``stats.regions_reused`` / ``stats.regions_solved``.

    Like the worklist solver, the run has no notion of global sweeps:
    ``stats`` is marked ``sweepless`` and reports update counts only.
    """
    schedule = get_schedule(system)
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    if seed is not None:
        seed()
    stats = SolveStats(order=order_name, sweepless=True)
    priority: Dict[object, int]
    if order is not None:
        priority = {n: i for i, n in enumerate(order)}
    else:
        priority = {n: i for i, n in enumerate(schedule.nodes)}
    phase_split = _phase_split(system)

    with tracer.span(
        "solve",
        solver="scc",
        order=order_name,
        regions=len(schedule.regions),
        cyclic_regions=schedule.n_cyclic,
    ) as span:
        if tracer.enabled:
            stats.span = span
        for region in schedule.regions:
            if skip_regions is not None and region.index in skip_regions:
                continue
            if budget is not None:
                check_budget(budget, stats, system)
            if region.cyclic and phase_split:
                _solve_region_stabilized(
                    system, region, priority, stats, tracer, budget, max_passes, max_rounds
                )
            elif region.cyclic:
                _solve_region_worklist(
                    system, region, schedule, priority, stats, budget, max_passes
                )
            else:
                _evaluate_acyclic(system, region.nodes[0], phase_split, stats, budget)
        if skip_regions is not None:
            stats.regions_reused = sum(
                1 for r in schedule.regions if r.index in skip_regions
            )
            stats.regions_solved = len(schedule.regions) - stats.regions_reused
        if verify:
            for node in schedule.nodes:
                stats.node_updates += 1
                if system.update(node):
                    raise RuntimeError(
                        f"solve_scc verify sweep found {node!r} unconverged: "
                        "the system's dependents() under-approximates its reads"
                    )
        stats.converged = True
        _finalize_provenance(system, stats)
        span.annotate(**stats.as_dict())
    _record_solver_metrics("scc", order_name, stats)
    return stats


def _evaluate_acyclic(system, node, phase_split: bool, stats, budget) -> None:
    """The one evaluation an acyclic singleton region needs: its inputs
    are final.  For phase-split systems, kill → flow (→ kill at joins)
    resolves the intra-node variable ordering in one deterministic
    micro-sequence (see module docstring); it is one evaluation of the
    node's equations — the unit ``update()`` (flow + kill) performs — so
    it counts as one node update."""
    stats.node_updates += 1
    if phase_split:
        changed = system.update_kill(node)
        changed |= system.update_flow(node)
        if getattr(node, "is_join", True):
            changed |= system.update_kill(node)
    else:
        changed = system.update(node)
    if changed:
        stats.changed_updates += 1
    if budget is not None:
        budget.charge_updates()


def _solve_region_worklist(
    system, region, schedule, priority, stats, budget, max_passes
) -> None:
    """Priority worklist to local fixpoint over one cyclic region (plain
    monotone systems — unique fixpoint, so priority affects cost only)."""
    region_set = set(region.nodes)
    update_cap = max_passes * len(region.nodes)
    if budget is not None:
        budget.charge_pass()
    tie = 0
    heap = []
    for n in sorted(region.nodes, key=lambda n: priority.get(n, 0)):
        heapq.heappush(heap, (priority.get(n, 0), tie, n))
        tie += 1
    queued = set(region.nodes)
    region_updates = 0
    while heap:
        _, _, node = heapq.heappop(heap)
        queued.discard(node)
        stats.node_updates += 1
        region_updates += 1
        if budget is not None:
            budget.charge_updates()
            check_budget(budget, stats, system)
        if region_updates > update_cap:
            raise NonConvergenceError(
                stats,
                reason=(
                    f"terminal region update cap {update_cap} hit in region "
                    f"{region.index} (equation bug?)"
                ),
                snapshot=system.snapshot(),
            )
        if system.update(node):
            stats.changed_updates += 1
            for dep in schedule.dependents[node]:
                if dep in region_set and dep not in queued:
                    queued.add(dep)
                    heapq.heappush(heap, (priority.get(dep, 0), tie, dep))
                    tie += 1


def _solve_region_stabilized(
    system, region, priority, stats, tracer, budget, max_passes, max_rounds
) -> None:
    """Flow/kill phase alternation restricted to one cyclic region — the
    :func:`~repro.dataflow.solver.stabilize` round driver at region
    scope, including round-cycle detection with the conservative kill
    meet.  Upstream regions are final, downstream still ⊥, so the
    region-local least fixpoints compose into the global ones."""
    rnodes = sorted(region.nodes, key=lambda n: priority.get(n, 0))

    def sweep(update, kind: str) -> None:
        passes = 0
        while True:
            if budget is not None:
                budget.charge_pass()
                budget.charge_updates(len(rnodes))
                check_budget(budget, stats, system)
            passes += 1
            if passes > max_passes:
                raise NonConvergenceError(
                    stats,
                    reason=(
                        f"terminal pass cap max_passes={max_passes} hit in "
                        f"region {region.index} {kind} phase (equation bug?)"
                    ),
                    snapshot=system.snapshot(),
                )
            changed = False
            for n in rnodes:
                stats.node_updates += 1
                if update(n):
                    stats.changed_updates += 1
                    changed = True
            if not changed:
                return

    with tracer.span("region", index=region.index, nodes=len(rnodes)):
        if stabilize(system, rnodes, sweep, stats, max_rounds) is None:
            raise NonConvergenceError(
                stats,
                reason=(
                    f"terminal round cap max_rounds={max_rounds} hit in region "
                    f"{region.index} (equation bug?)"
                ),
                snapshot=system.snapshot(),
            )


# Bottom import: solver.py imports this module at its own bottom for the
# SOLVERS registry, so each side binds the other's names once both exist.
from .solver import _finalize_provenance, _record_solver_metrics, stabilize  # noqa: E402
