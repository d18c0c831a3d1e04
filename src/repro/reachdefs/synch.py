"""Reaching definitions with event synchronization (paper §6, Figure 10).

Extends the §5 system with synchronization edges and the ``SynchPass`` set::

    SynchPass(n) = ⋃_{p ∈ synch_pred(n) ∧ p ∈ Preserved(n)} Out(p)   (wait)
                 = ⋃_{par_pred} SynchPass ∪ ⋂_{seq_pred} SynchPass   (else)

    Out(n) = ((In(n) − Kill(n) − ParallelKill(n)) ∪ Gen(n))
               − (OtherDefs(n) ∩ SynchPass(n))

    In(n)  = ⋃_{p∈pred(n)} Out(p)                 (pred = seq ∪ par ∪ sync)
               − ⋃_{p∈par_pred(n)} ACCKillout(p)
               − ⋂_{p∈synch_pred(n)} ACCKillout(p)

    ACCKillin(n) = ⋃_{par_pred} ACCKillout ∪ ⋂_{seq_pred} ACCKillout
                     ∪ (OtherDefs(n) ∩ SynchPass(n))

    ACCKillout / ForkKill — unchanged from §5.

Reading of the equations (paper §6):

* A synchronization edge ``post → wait`` carries values: the wait's ``In``
  unions the posts' ``Out`` like any predecessor, so conservatively a
  waiting thread sees what posters produced.
* When the Preserved approximation proves a post *always* completes before
  the wait begins, ``SynchPass`` records the posted definitions as having
  definitely occurred.  Definitions of variables the waiting thread itself
  redefines (``OtherDefs ∩ SynchPass``) are therefore *ordered before* that
  redefinition: they are accumulated into ``ACCKillin`` so the eventual
  join removes them (this is how ``x4``/``x5`` die before node 11 in
  Figure 3), and excluded from ``Out``.
* With *no* Preserved information (``preserved="none"``), ``SynchPass`` is
  empty, the ordering effect vanishes, and merges conservatively report
  every incoming definition — the paper's worst case: still sound, just
  fewer optimization opportunities.

The SynchPass ordering filter (a reproduction refinement)
---------------------------------------------------------

Taken literally, ``SynchPass(w) = ⋃ Out(p)`` over preserved posts admits
*loop-carried* tokens: a definition ``d`` written in a section concurrent
with ``w`` circulates around an enclosing loop, enters ``In(p)`` and hence
``Out(p)``, and is then treated as "definitely executed before ``w``" —
which its *current-iteration* instance is not.  Two consequences, both
observed on generator-produced programs (see
``tests/regression/test_synch_oscillation.py``):

* the accumulated kill wrongly removes ``d`` at the join (unsound for the
  racy variable involved), and
* the subtraction feeds back on itself around the loop, so the equations
  have no fixpoint at all — ``In``/``ACCKill`` oscillate forever.

The paper's justification for SynchPass ("we know those definitions must
have occurred before the synchronization occurred") only holds for tokens
whose **defining node is itself ordered before the wait**.  We therefore
filter::

    SynchPass(w) = ⋃_{p ∈ synch_pred(w) ∧ p ∈ Preserved(w)} Out(p)
                     ∩ {d : node(d) ∈ Preserved(w)}

On every worked example in the paper the filter changes nothing (all the
definitions involved sit in Preserved(8)); on adversarial programs it
restores both soundness and convergence.  ``filter_synch_pass=False``
selects the literal equations for study.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..dataflow.framework import SolveStats
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .parallel import ParallelRDSystem, run_solver
from .preserved import PreservedResult, resolve_preserved
from .result import ReachingDefsResult


class SynchRDSystem(ParallelRDSystem):
    """Equation system for §6 (Figure 10)."""

    system_name = "synch"

    #: §6's In equation reads sync predecessors, so provenance flow edges
    #: include synchronization edges.
    provenance_sync_edges = True

    def __init__(
        self,
        graph: ParallelFlowGraph,
        preserved: PreservedResult,
        info: Optional[GenKillInfo] = None,
        filter_synch_pass: bool = True,
        record_provenance: bool = False,
    ):
        super().__init__(
            graph, info=info, record_provenance=record_provenance
        )
        self.preserved = preserved
        self.filter_synch_pass = filter_synch_pass
        self._sync_preds = {n: graph.sync_preds(n) for n in graph.nodes}
        #: sync predecessors that the Preserved approximation orders before
        #: the wait — the only ones SynchPass reads.
        self._preserved_sync_preds: Dict[PFGNode, List[PFGNode]] = {
            n: [p for p in self._sync_preds[n] if p in preserved[n]] for n in graph.nodes
        }
        #: per wait node: definitions whose defining node is ordered before
        #: it (the SynchPass ordering filter; see module docstring).
        self._ordered_defs: Dict[PFGNode, object] = {}
        for n in graph.nodes:
            if n.is_wait:
                allowed = [
                    d for d in graph.defs if self.info.def_node[d] in preserved[n]
                ]
                self._ordered_defs[n] = self.ops.from_defs(allowed)
        self.SynchPass: Dict[PFGNode, object] = {}

    def _pred_family(self, n: PFGNode) -> List[PFGNode]:
        # §6 In: pred(n) includes synchronization predecessors.
        return self.graph.all_preds(n)

    def update_kill(self, n: PFGNode) -> bool:
        # SynchPass belongs to the kill layer: it feeds ACCKillin (and the
        # provably-redundant Out subtraction) and is monotone given frozen
        # Out sets.
        ops = self.ops
        new_sp = self._compute_synch_pass(n)
        changed = not ops.equals(new_sp, self.SynchPass[n])
        self.SynchPass[n] = new_sp
        return super().update_kill(n) | changed

    def _kill_slots(self):
        return super()._kill_slots() + (("SynchPass", self.SynchPass),)

    # -- equation overrides -------------------------------------------------

    def _compute_synch_pass(self, n: PFGNode):
        ops = self.ops
        if n.is_wait:
            passed = ops.union_all(self.Out[p] for p in self._preserved_sync_preds[n])
            if self.filter_synch_pass:
                passed = ops.intersection(passed, self._ordered_defs[n])
            return passed
        # Union over parallel predecessors only at joins (all of them ran);
        # elsewhere the predecessors are alternative paths — a definition
        # has "definitely occurred" only if every arrival path says so.
        # Same mixed-predecessor refinement as ACCKillin (see parallel.py).
        if n.is_join:
            par = ops.union_all(self.SynchPass[p] for p in self._par_preds[n])
            seq = ops.intersection_all(self.SynchPass[p] for p in self._seq_preds[n])
            return ops.union(par, seq)
        preds = self._par_preds[n] + self._seq_preds[n]
        return ops.intersection_all(self.SynchPass[p] for p in preds)

    def _compute_in(self, n: PFGNode):
        ops = self.ops
        flow = ops.union_all(self.Out[p] for p in self._all_preds[n])
        par_kills = ops.union_all(self.ACCKillout[p] for p in self._par_preds[n])
        sync_kills = ops.intersection_all(self.ACCKillout[p] for p in self._sync_preds[n])
        return ops.difference(ops.difference(flow, par_kills), sync_kills)

    def _compute_out(self, n: PFGNode):
        base = super()._compute_out(n)
        ops = self.ops
        occurred = ops.intersection(self._otherdefs[n], self.SynchPass[n])
        return ops.difference(base, occurred)

    def _compute_acc_killin(self, n: PFGNode):
        base = super()._compute_acc_killin(n)
        ops = self.ops
        occurred = ops.intersection(self._otherdefs[n], self.SynchPass[n])
        return ops.union(base, occurred)

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        out = list(super().dependents(n))
        out.extend(self.graph.succs(n))  # includes sync successors
        return out

    # -- results --------------------------------------------------------------

    def to_result(self, stats: SolveStats) -> ReachingDefsResult:
        result = super().to_result(stats)
        result.preserved = self.preserved
        return result


def solve_synch(
    graph: ParallelFlowGraph,
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    preserved_oracle=None,
    snapshot_passes: bool = False,
    filter_synch_pass: bool = True,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run the §6 synchronized reaching-definitions system to fixpoint.

    ``preserved`` selects the execution-order information source:
    ``"approx"`` (default, DESIGN.md §2), ``"none"`` (worst case), or
    ``"oracle"`` with ``preserved_oracle`` a node→set mapping.
    ``filter_synch_pass=False`` selects the paper's literal SynchPass
    equation (which can oscillate on loop-carried tokens — see the module
    docstring).  ``solver`` as in :func:`~repro.reachdefs.parallel.run_solver`:
    ``"stabilized"`` (default, deterministic), ``"scc"`` (the same
    fixpoint, SCC-scheduled) or the paper's ``"round-robin"`` /
    ``"worklist"`` chaotic iteration.  ``budget`` (a
    :class:`~repro.dataflow.budget.ResourceBudget`) guards the *whole*
    computation — the Preserved approximation and the equation solve
    draw from the same allowance.
    """
    pres = resolve_preserved(graph, mode=preserved, oracle=preserved_oracle, budget=budget)
    system = SynchRDSystem(
        graph,
        preserved=pres,
        filter_synch_pass=filter_synch_pass,
        record_provenance=record_provenance,
    )
    stats = run_solver(system, graph, order, solver, snapshot_passes, budget=budget)
    return system.to_result(stats)
