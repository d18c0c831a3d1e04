"""Reaching definitions across ``Parallel Sections`` (paper §5, Figure 7).

The equation system::

    Out(n)        = (In(n) − Kill(n) − ParallelKill(n)) ∪ Gen(n)
    In(n)         = ⋃_{p∈pred(n)} Out(p) − ⋃_{p∈par_pred(n)} ACCKillout(p)
    ACCKillout(n) = ∅                                              (fork)
                  = ((ACCKillin(n) ∪ Kill(n)) − Gen(n))
                      ∪ (ForkKill(fork(n)) − Out(n))               (join)
                  = (ACCKillin(n) ∪ Kill(n)) − Gen(n)              (else)
    ACCKillin(n)  = ⋃_{par_pred} ACCKillout ∪ ⋂_{seq_pred} ACCKillout
    ForkKill(n)   = (ACCKillin(n) ∪ Kill(n)) − Gen(n)  (fork), ∅ otherwise

Key semantics encoded here (paper §5's three "fundamental concepts"):

* every branch of a fork executes, so a definition from before the
  construct dies at the join if **some** always-executing branch kills it
  (``ACCKillout`` accumulates those kills; the join subtracts them);
* a *conditionally* killed definition survives (the conditional's merge
  intersects the two arms' ``ACCKillout``, dropping the kill);
* definitions in concurrent threads never kill each other
  (``ParallelKill`` is excluded from ``Out`` but also from ``ACCKill``);
  several definitions of one variable reaching a join flags a potential
  anomaly.

``ForkKill`` snapshots the accumulated kills at the fork so the join of a
*nested* construct does not lose outer-construct kill information; it
reaches the join over the fork↔join link (the paper's technical edge) and
is masked by ``− Out(n)`` so definitions that do reach the join are not
reported as killed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..dataflow.framework import SolveStats
from ..dataflow.solver import make_order
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .result import RDSystem, ReachingDefsResult


class ParallelRDSystem(RDSystem):
    """Equation system for §5 (no event synchronization).

    Synchronization edges, if present in the graph, are ignored by this
    system (the §6 system handles them); control structure is fully
    honoured.
    """

    system_name = "parallel"

    def __init__(
        self,
        graph: ParallelFlowGraph,
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        super().__init__(
            graph, info if info is not None else compute_genkill(graph), record_provenance
        )
        ops = self.ops
        self._kill = {n: ops.from_defs(self.info.kill[n]) for n in graph.nodes}
        self._parkill = {n: ops.from_defs(self.info.parallel_kill[n]) for n in graph.nodes}
        self._otherdefs = {n: ops.from_defs(self.info.other_defs[n]) for n in graph.nodes}
        # Adjacency, precomputed as lists (hot loop).
        self._all_preds = {n: self._pred_family(n) for n in graph.nodes}
        self._par_preds = {n: graph.par_preds(n) for n in graph.nodes}
        self._seq_preds = {n: graph.seq_preds(n) for n in graph.nodes}
        self.ACCKillin: Dict[PFGNode, object] = {}
        self.ACCKillout: Dict[PFGNode, object] = {}
        self.ForkKill: Dict[PFGNode, object] = {}

    def _pred_family(self, n: PFGNode) -> List[PFGNode]:
        """``pred(n)`` for the In equation: control predecessors only (the
        synchronized subclass widens this to include sync predecessors)."""
        return self.graph.control_preds(n)

    # -- framework interface ----------------------------------------------

    def update(self, n: PFGNode) -> bool:
        return self.update_flow(n) | self.update_kill(n)

    def update_flow(self, n: PFGNode) -> bool:
        """Recompute the ascending half (``In``/``Out``) only.  Monotone
        when the kill layer is held fixed — the stabilized solver's flow
        phase (see :func:`repro.dataflow.solver.solve_stabilized`)."""
        ops = self.ops
        changed = False
        new_in = self._compute_in(n)
        changed |= not ops.equals(new_in, self.In[n])
        self.In[n] = new_in
        new_out = self._compute_out(n)
        changed |= not ops.equals(new_out, self.Out[n])
        self.Out[n] = new_out
        return changed

    def update_kill(self, n: PFGNode) -> bool:
        """Recompute the kill layer (``ACCKillin``/``ForkKill``/
        ``ACCKillout``) only.  Monotone when ``In``/``Out`` are held
        fixed — the stabilized solver's kill phase."""
        ops = self.ops
        changed = False

        new_killin = self._compute_acc_killin(n)
        changed |= not ops.equals(new_killin, self.ACCKillin[n])
        self.ACCKillin[n] = new_killin

        base_kill = ops.union_difference(new_killin, self._kill[n], self._gen[n])

        new_forkkill = base_kill if n.is_fork else ops.empty()
        changed |= not ops.equals(new_forkkill, self.ForkKill[n])
        self.ForkKill[n] = new_forkkill

        if n.is_fork:
            new_killout = ops.empty()
        elif n.is_join:
            assert n.fork is not None
            carried = ops.difference(self.ForkKill[n.fork], self.Out[n])
            new_killout = ops.union(base_kill, carried)
        else:
            new_killout = base_kill
        changed |= not ops.equals(new_killout, self.ACCKillout[n])
        self.ACCKillout[n] = new_killout

        return changed

    def reset_flow_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Reset ``In``/``Out`` on ``nodes`` only — the stabilized round
        driver's flow reset, scoped to a region by the SCC scheduler so
        upstream (final) regions stay intact."""
        empty = self.ops.empty()
        for n in nodes:
            self.In[n] = empty
            self.Out[n] = empty

    def reset_kill_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Reset the kill layer on ``nodes`` only (cf. :meth:`reset_flow_nodes`)."""
        empty = self.ops.empty()
        nodes = list(nodes)
        for _, slot in self._kill_slots():
            for n in nodes:
                slot[n] = empty

    # -- stabilized-solver protocol (convergence and cycle resolution) ---------

    def _kill_slots(self):
        """The kill-layer variables, by name (the §6 subclass adds SynchPass)."""
        return (
            ("ACCKillin", self.ACCKillin),
            ("ACCKillout", self.ACCKillout),
            ("ForkKill", self.ForkKill),
        )

    def _slots(self):
        """The flow pair, then the kill layer."""
        return super()._slots() + self._kill_slots()

    def kill_state(self, nodes=None):
        """Kill-layer values per slot, restricted to ``nodes`` if given."""
        if nodes is None:
            nodes = self.graph.nodes
        return {name: {n: slot[n] for n in nodes} for name, slot in self._kill_slots()}

    def set_kill_state(self, state) -> None:
        for name, slot in self._kill_slots():
            slot.update(state[name])

    def meet_values(self, a, b):
        return self.ops.intersection(a, b)

    # -- individual equations (overridden by the synchronized system) -------

    def _compute_in(self, n: PFGNode):
        ops = self.ops
        flow = ops.union_all(self.Out[p] for p in self._all_preds[n])
        par_kills = ops.union_all(self.ACCKillout[p] for p in self._par_preds[n])
        return ops.difference(flow, par_kills)

    def _compute_out(self, n: PFGNode):
        ops = self.ops
        live = ops.difference(ops.difference(self.In[n], self._kill[n]), self._parkill[n])
        return ops.union(live, self._gen[n])

    def _compute_acc_killin(self, n: PFGNode):
        """ACCKillin(n) = ⋃_par ACCKillout ∪ ⋂_seq ACCKillout — but the
        union-over-parallel-predecessors reading is only justified at
        **join** nodes, where every parallel predecessor has executed.
        Elsewhere the predecessors are alternative arrival paths, and a
        kill is unconditional only if it happened on *all* of them.

        The distinction matters for a loop header that is the first block
        of a section: its entry edge is parallel (from the fork) and its
        latch edge sequential; the paper's formula as written would take
        the latch's accumulated kills unguarded — claiming loop-body kills
        even on the zero-iteration path (found by the dynamic oracle; see
        EXPERIMENTS.md Findings).  On every paper example the two readings
        coincide (non-join nodes there have at most one parallel
        predecessor and no mixed families).
        """
        ops = self.ops
        if n.is_join:
            par = ops.union_all(self.ACCKillout[p] for p in self._par_preds[n])
            seq = ops.intersection_all(self.ACCKillout[p] for p in self._seq_preds[n])
            return ops.union(par, seq)
        preds = self._par_preds[n] + self._seq_preds[n]
        return ops.intersection_all(self.ACCKillout[p] for p in preds)

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        out = list(self.graph.control_succs(n))
        if n.is_fork and n.join is not None:
            out.append(n.join)
        return out

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        return self._result(stats, known)


def run_solver(system, graph, order: str, solver: str, snapshot_passes: bool, budget=None):
    """Run any reaching-definitions system to fixpoint — the one solver
    dispatch every ``solve_*`` function goes through.

    ``solver``:

    * ``"stabilized"`` (default) — deterministic, visit-order-independent
      least-fixpoint phases (:func:`~repro.dataflow.solver.solve_stabilized`);
      most precise.  A system without the flow/kill phase protocol (§2
      sequential, the conservative floor) is monotone, so chaotic
      iteration already reaches its unique least fixpoint: it runs
      round-robin.
    * ``"round-robin"`` — the paper's chaotic Gauss–Seidel sweeps (use
      ``order="document"`` + ``snapshot_passes=True`` to reproduce the
      paper's per-iteration tables).
    * ``"worklist"`` — classic worklist over the same equations.
    * ``"scc"`` — sparse SCC-scheduled evaluation
      (:func:`~repro.dataflow.sched.solve_scc`): acyclic regions once,
      cyclic regions stabilized locally; same fixpoints, far fewer
      updates on mostly-acyclic graphs.

    ``snapshot_passes=True`` records the iterate after every sweep in
    ``stats.snapshots``; only round-robin makes those sweeps, so any
    other solver raises :class:`ValueError`.  ``budget`` (a
    :class:`~repro.dataflow.budget.ResourceBudget`) guards the run; see
    :mod:`repro.dataflow.budget`.
    """
    from ..dataflow.sched import _phase_split
    from ..dataflow.solver import SOLVERS

    nodes = make_order(graph, order)
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if snapshot_passes and solver != "round-robin":
        raise ValueError(
            "snapshot_passes records the paper's per-sweep iterates, which only "
            f"solver='round-robin' produces: {solver!r} makes no global sweeps of that kind"
        )
    if solver == "stabilized" and not _phase_split(system):
        solver = "round-robin"
    if solver == "round-robin":
        return SOLVERS[solver](
            system, nodes, order_name=order, snapshot_passes=snapshot_passes, budget=budget
        )
    name = order if solver == "stabilized" else f"{solver}/{order}"
    return SOLVERS[solver](system, nodes, order_name=name, budget=budget)


def solve_parallel(
    graph: ParallelFlowGraph,
    order: str = "document",
    solver: str = "stabilized",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run the §5 parallel reaching-definitions system to fixpoint.

    ``record_provenance=True`` derives the justification graph after
    convergence and attaches it as ``result.provenance``
    (:mod:`repro.provenance`)."""
    system = ParallelRDSystem(graph, record_provenance=record_provenance)
    stats = run_solver(system, graph, order, solver, snapshot_passes, budget=budget)
    return system.to_result(stats)
