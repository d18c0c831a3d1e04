"""Fixpoint solvers and node orderings.

Two solvers:

``solve_round_robin``
    Sweep all nodes in a fixed order until a full sweep changes nothing.
    With ``order="document"`` this reproduces the paper's iteration tables
    exactly (the paper processes blocks in listing order); the per-pass
    ``snapshot_passes`` option records state after each sweep so golden
    tests can compare against the paper's Figure 11 (after pass 1) and
    Figure 12 (after pass 2).

``solve_worklist``
    Classic worklist: re-evaluate a node when one of the nodes it depends
    on changed.  Fewer updates on sparse graphs; same fixpoint.

Two more live elsewhere but register in ``SOLVERS`` here:
``solve_stabilized`` (below) — the deterministic phase-alternating
driver for the non-monotone parallel/synchronized systems — and
``solve_scc`` (:mod:`repro.dataflow.sched`), the sparse SCC-scheduled
engine that evaluates dependence regions in topological order.

Orderings (``make_order``): ``document`` (creation order), ``rpo``
(reverse postorder over control edges — the "depth first traversal" the
paper cites as converging in ~5 passes), ``reverse-document`` (pessimal for
forward problems, for the ordering benchmark) and ``random:<seed>``.

Observability: every solver reports to the process-current tracer and
metrics registry (:mod:`repro.obs`) — a ``solve`` span wrapping the run,
one ``pass`` span per sweep, ``solve.*`` counters including per-order
totals (``solve.<order>.passes``), and a worklist-length histogram for
``solve_worklist``.  Disabled by default: with no session installed the
instruments are no-op singletons and per-node work carries no
instrumentation at all (only per-pass no-op calls remain).

Guarded execution: every solver accepts an optional
:class:`~repro.dataflow.budget.ResourceBudget` (wall-clock deadline +
pass/update caps) and raises a typed
:class:`~repro.dataflow.budget.NonConvergenceError` — carrying the
:class:`SolveStats` and the partial state snapshot — when a budget trips
or the terminal ``max_passes`` safety net is hit.  No solver ever
*returns* with ``converged=False``.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, List, Optional, Sequence, TypeVar

from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .budget import NonConvergenceError, ResourceBudget, check_budget
from .framework import EquationSystem, SolveStats

N = TypeVar("N")

#: Safety budget: monotone systems over finite lattices converge in
#: O(nodes × lattice height) passes; anything past this is a bug.
DEFAULT_MAX_PASSES = 10_000

#: Default cap on per-pass snapshots (see ``solve_round_robin``).
DEFAULT_MAX_SNAPSHOTS = 1_000


def make_order(graph: ParallelFlowGraph, order: str) -> List[PFGNode]:
    """Resolve an ordering name to a concrete node list.

    Always returns a fresh list the caller may mutate; in particular
    ``random:<seed>`` shuffles a private copy, never the list
    ``graph.document_order()`` handed out (two orderings drawn with
    different seeds must not contaminate each other or the graph).
    """
    if order == "document":
        return list(graph.document_order())
    if order == "rpo":
        return list(graph.reverse_postorder())
    if order == "reverse-document":
        return list(reversed(graph.document_order()))
    if order.startswith("random"):
        seed = int(order.split(":", 1)[1]) if ":" in order else 0
        nodes = list(graph.document_order())
        random.Random(seed).shuffle(nodes)
        return nodes
    raise ValueError(
        f"unknown order {order!r}; choose document, rpo, reverse-document or random[:seed]"
    )


def _record_solver_metrics(solver: str, order_name: str, stats: SolveStats) -> None:
    """Post-hoc metric totals (one call per solve, nothing per node)."""
    m = get_metrics()
    if not m.enabled:
        return
    m.inc("solve.runs")
    if not stats.sweepless:
        m.inc("solve.passes", stats.passes)
    m.inc("solve.node_updates", stats.node_updates)
    m.inc("solve.changed_updates", stats.changed_updates)
    # Per-order totals let the ordering ablations read straight off the
    # registry (the base order name, without solver-mode prefixes).
    base = order_name.split("/")[-1]
    m.inc(f"solve.{base}.runs")
    if not stats.sweepless:
        m.inc(f"solve.{base}.passes", stats.passes)
    m.inc(f"solve.{base}.node_updates", stats.node_updates)
    m.inc(f"solve.{solver}.runs")


def _finalize_provenance(system, stats: SolveStats) -> None:
    """Post-convergence provenance hook, shared by every solver.

    When the system opted in (``wants_provenance`` — see
    :class:`~repro.dataflow.framework.EquationSystem`), derive its
    justification graph from the converged state under a
    ``provenance-record`` tracer span.  Deriving *after* convergence
    (never during iteration) keeps the recording a pure function of the
    fixpoint, so the stabilized and SCC engines — which compute the same
    fixpoint — record identical justifications; the disabled path is a
    single ``getattr`` per solve.
    """
    if not getattr(system, "wants_provenance", False):
        return
    tracer = get_tracer()
    with tracer.span("provenance-record") as span:
        prov = system.record_justifications()
        if tracer.enabled:
            span.annotate(facts=len(prov))
    m = get_metrics()
    if m.enabled:
        m.inc("provenance.records")
        m.inc("provenance.facts", len(prov))


def solve_round_robin(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "document",
    max_passes: int = DEFAULT_MAX_PASSES,
    snapshot_passes: bool = False,
    max_snapshots: int = DEFAULT_MAX_SNAPSHOTS,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Iterate full sweeps until fixpoint; returns iteration statistics.

    ``snapshot_passes`` stores ``system.snapshot()`` after **every** sweep
    in ``stats.snapshots`` — each snapshot is a full copy of all node
    variables, so memory grows as O(passes × nodes × set size).  The
    ``max_snapshots`` cap (default ``DEFAULT_MAX_SNAPSHOTS``) turns a
    runaway recording into a clear error instead of memory exhaustion;
    raise it explicitly for long golden traces.

    ``budget`` bounds the run operationally (deadline / passes / updates)
    and is checked once per sweep; a tripped budget raises
    :class:`~repro.dataflow.budget.BudgetExceeded` with the partial state.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    stats = SolveStats(order=order_name)
    with tracer.span("solve", solver="round-robin", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        while stats.passes < max_passes:
            if budget is not None:
                budget.charge_pass()
                check_budget(budget, stats, system)
            stats.passes += 1
            changed = False
            before = stats.changed_updates
            with tracer.span("pass", index=stats.passes) as pass_span:
                for node in nodes:
                    stats.node_updates += 1
                    if system.update(node):
                        stats.changed_updates += 1
                        changed = True
                pass_span.annotate(changed_updates=stats.changed_updates - before)
            if budget is not None:
                budget.charge_updates(len(nodes))
            if snapshot_passes:
                if len(stats.snapshots) >= max_snapshots:
                    raise RuntimeError(
                        f"snapshot_passes exceeded max_snapshots={max_snapshots}: "
                        f"each snapshot copies every node variable; raise "
                        f"max_snapshots only if you can afford the memory"
                    )
                stats.snapshots.append(system.snapshot())
            if changed:
                stats.changing_passes += 1
            else:
                stats.converged = True
                _finalize_provenance(system, stats)
                span.annotate(**stats.as_dict())
                _record_solver_metrics("round-robin", order_name, stats)
                return stats
        span.annotate(**stats.as_dict())
    raise NonConvergenceError(
        stats,
        reason=f"terminal pass cap max_passes={max_passes} hit (equation bug?)",
        snapshot=system.snapshot(),
    )


def solve_worklist(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "worklist",
    max_updates: Optional[int] = None,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Worklist iteration seeded with all nodes (in ``order``).

    ``max_updates`` is the terminal safety net (defaults to passes×nodes
    equivalent of the round-robin cap); ``budget`` is the operational
    :class:`~repro.dataflow.budget.ResourceBudget`, checked per update.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    metrics = get_metrics()
    observing = metrics.enabled
    if observing:
        queue_hist = metrics.histogram("solve.worklist.len")
    if budget is not None:
        budget.start()
    system.initialize()
    # A worklist run has no notion of sweeps; mark the stats sweepless so
    # pass counts are omitted from reports instead of rendering as 0.
    stats = SolveStats(order=order_name, sweepless=True)
    update_cap = max_updates if max_updates is not None else DEFAULT_MAX_PASSES * max(1, len(nodes))
    queue = deque(nodes)
    queued = set(nodes)
    with tracer.span("solve", solver="worklist", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        while queue:
            if observing:
                queue_hist.observe(len(queue))
            node = queue.popleft()
            queued.discard(node)
            stats.node_updates += 1
            if budget is not None:
                budget.charge_updates()
                check_budget(budget, stats, system)
            if stats.node_updates > update_cap:
                span.annotate(**stats.as_dict())
                raise NonConvergenceError(
                    stats,
                    reason=f"terminal update cap max_updates={update_cap} hit (equation bug?)",
                    snapshot=system.snapshot(),
                )
            if system.update(node):
                stats.changed_updates += 1
                for dep in system.dependents(node):
                    if dep not in queued:
                        queued.add(dep)
                        queue.append(dep)
        stats.converged = True
        _finalize_provenance(system, stats)
        span.annotate(**stats.as_dict())
    _record_solver_metrics("worklist", order_name, stats)
    return stats


def solve_stabilized(
    system,
    order: Optional[Sequence[N]] = None,
    order_name: str = "document",
    max_passes: int = DEFAULT_MAX_PASSES,
    max_rounds: int = 100,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Phase-alternating least-fixpoint solver for the parallel/
    synchronized systems (DESIGN.md §5, "solver modes").

    The paper's equations mix ascending flow (``In``/``Out``) with
    subtractive kill sets (``ACCKill``/``ForkKill``/``SynchPass``); the
    combined system is **not monotone**, and plain chaotic iteration can
    both fail to terminate and converge to *different* fixpoints depending
    on visit order (transient facts get trapped in loops — see
    ``tests/regression/test_fixpoint_multiplicity.py``).

    This driver restores determinism by alternating two phases that are
    each monotone with the other half frozen, always restarting from ⊥:

    1. **flow phase** — reset ``In``/``Out`` to ∅ and run ``update_flow``
       sweeps to the least fixpoint given the current kill layer;
    2. **kill phase** — reset the kill layer to ∅ and run ``update_kill``
       sweeps to its least fixpoint given the current flow.

    Rounds repeat until a full round leaves the state unchanged.  Each
    phase result is a least fixpoint of a monotone system, hence
    independent of sweep order — so the overall result is deterministic
    and visit-order independent; it is also never less precise than any
    fixpoint chaotic iteration can reach on the paper's examples
    (property-tested).

    **Cycle resolution.**  The outer round functional is itself not
    monotone, so the round sequence can enter a cycle (period-2 cases
    arise from loop-carried synchronization kills; see
    ``tests/regression/test_fixpoint_multiplicity.py``).  When a round
    state repeats, the solver resolves deterministically and soundly: the
    kill layer is forced to the pointwise **intersection** over the
    cycle's states — keeping only kill facts justified in *every* state,
    i.e. erring toward fewer kills / more reaching definitions — and one
    final flow phase is run.  ``stats.order`` gains a ``+cycle`` suffix
    when this path triggers.

    The required ``EquationSystem`` surface is ``update_flow``/
    ``update_kill``/``reset_flow_nodes``/``reset_kill_nodes``/
    ``state_key``/``kill_state``/``set_kill_state``/``meet_values`` (the
    round protocol of :func:`stabilize`) plus ``snapshot`` for failure
    payloads.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    stats = SolveStats(order=f"stabilized/{order_name}")

    def sweep_to_fixpoint(update, kind: str) -> None:
        with tracer.span("phase", kind=kind) as phase_span:
            phase_passes = 0
            while True:
                if budget is not None:
                    budget.charge_pass()
                    budget.charge_updates(len(nodes))
                    check_budget(budget, stats, system)
                stats.passes += 1
                phase_passes += 1
                if stats.passes > max_passes:
                    raise NonConvergenceError(
                        stats,
                        reason=f"terminal pass cap max_passes={max_passes} hit (equation bug?)",
                        snapshot=system.snapshot(),
                    )
                changed = False
                before = stats.changed_updates
                with tracer.span("pass", index=stats.passes, kind=kind) as pass_span:
                    for node in nodes:
                        stats.node_updates += 1
                        if update(node):
                            stats.changed_updates += 1
                            changed = True
                    pass_span.annotate(changed_updates=stats.changed_updates - before)
                if changed:
                    stats.changing_passes += 1
                else:
                    phase_span.annotate(passes=phase_passes)
                    return

    with tracer.span("solve", solver="stabilized", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        rounds = stabilize(system, nodes, sweep_to_fixpoint, stats, max_rounds)
        if rounds is not None:
            stats.converged = True
            _finalize_provenance(system, stats)
            cycle = {"cycle": True} if stats.order.endswith("+cycle") else {}
            span.annotate(rounds=rounds, **cycle, **stats.as_dict())
            _record_solver_metrics("stabilized", order_name, stats)
            return stats
        span.annotate(**stats.as_dict())
    raise NonConvergenceError(
        stats,
        reason=f"terminal round cap max_rounds={max_rounds} hit (equation bug?)",
        snapshot=system.snapshot(),
    )


def stabilize(system, nodes, sweep, stats: SolveStats, max_rounds: int) -> Optional[int]:
    """The stabilized round loop, shared by :func:`solve_stabilized` (over
    the whole graph) and :func:`~repro.dataflow.sched.solve_scc` (over one
    cyclic region whose upstream regions are final).

    One flow phase, then kill/flow rounds — each phase reset to ⊥ on
    ``nodes`` and run to its fixpoint by ``sweep(update, kind)``, which
    owns pass and budget accounting — until a round leaves the state
    unchanged.  A repeated state is an oscillation: the kill layer is met
    over the cycle, one final flow phase runs, and ``stats.order`` gains
    ``+cycle``.  States are compared as ``system.state_key(nodes)`` —
    raw backend values, never decoded sets, so a round costs one compare
    per row on top of its sweeps.

    Returns the number of rounds run, or None when ``max_rounds`` rounds
    did not settle (the caller raises with its own context).
    """
    tracer = get_tracer()
    sweep(system.update_flow, "flow")
    history = [system.state_key(nodes)]
    kill_history = [system.kill_state(nodes)]
    for round_index in range(max_rounds):
        with tracer.span("round", index=round_index):
            system.reset_kill_nodes(nodes)
            sweep(system.update_kill, "kill")
            system.reset_flow_nodes(nodes)
            sweep(system.update_flow, "flow")
        current = system.state_key(nodes)
        if current == history[-1]:
            return round_index + 1
        if current in history:
            # Oscillation: meet the kill layers over the cycle, then one
            # final flow phase under the (now conservative) frozen kills.
            cycle_kills = kill_history[history.index(current):]
            cycle_kills.append(system.kill_state(nodes))
            system.set_kill_state(_meet_kill_states(system, cycle_kills))
            system.reset_flow_nodes(nodes)
            sweep(system.update_flow, "flow")
            if not stats.order.endswith("+cycle"):
                stats.order += "+cycle"
            return round_index + 1
        history.append(current)
        kill_history.append(system.kill_state(nodes))
    return None


def _meet_kill_states(system, states):
    """Pointwise intersection of kill-layer states (slot -> node -> set)."""
    meet = system.meet_values
    out = {}
    first = states[0]
    for slot in first:
        out[slot] = {}
        for node in first[slot]:
            value = first[slot][node]
            for other in states[1:]:
                value = meet(value, other[slot][node])
            out[slot][node] = value
    return out


#: Signature shared by the solvers, for parameterized tests/benchmarks.
Solver = Callable[..., SolveStats]

from .sched import solve_scc  # noqa: E402  (after _record_solver_metrics exists)

SOLVERS = {
    "round-robin": solve_round_robin,
    "worklist": solve_worklist,
    "stabilized": solve_stabilized,
    "scc": solve_scc,
}
