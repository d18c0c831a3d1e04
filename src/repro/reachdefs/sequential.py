"""Sequential reaching definitions (paper §2).

The classical two-equation monotone system::

    Out(n) = (In(n) − Kill(n)) ∪ Gen(n)
    In(n)  = ⋃_{p ∈ pred(n)} Out(p)

with ``In`` initialized to the empty set everywhere (the least solution).
``Kill`` here is the classical, concurrency-blind kill set — all other
definitions of variables defined in ``n``.  On a sequential CFG this is the
textbook analysis (Table 1); applied to a *parallel* graph it is the naive
baseline the paper improves on: parallel edges are treated like sequential
ones, so the parallel-merge kill rule and cross-thread effects are missed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..dataflow.framework import SolveStats
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .parallel import run_solver
from .result import RDSystem, ReachingDefsResult


class SequentialRDSystem(RDSystem):
    """Equation system for §2."""

    system_name = "sequential"

    def __init__(
        self,
        graph: ParallelFlowGraph,
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        super().__init__(
            graph, info if info is not None else compute_genkill(graph), record_provenance
        )
        # Classical kill: every other definition of a variable defined here.
        self._kill = {n: self.ops.from_defs(self.info.other_defs[n]) for n in graph.nodes}
        self._preds = {n: self._pred_family(n) for n in graph.nodes}

    def _pred_family(self, n: PFGNode):
        """``pred(n)`` for the In equation: control predecessors."""
        return self.graph.control_preds(n)

    def _transfer(self, n: PFGNode, new_in):
        """``Out(n)`` from the new ``In(n)``."""
        return self.ops.difference_union(new_in, self._kill[n], self._gen[n])

    def update(self, n: PFGNode) -> bool:
        ops = self.ops
        new_in = ops.union_all(self.Out[p] for p in self._preds[n])
        new_out = self._transfer(n, new_in)
        changed = not ops.equals(new_in, self.In[n]) or not ops.equals(new_out, self.Out[n])
        self.In[n] = new_in
        self.Out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.control_succs(n)

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        return self._result(stats, known)


def solve_sequential(
    graph: ParallelFlowGraph,
    order: str = "document",
    solver: str = "round-robin",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run sequential reaching definitions to fixpoint on ``graph``;
    ``solver`` as in :func:`~repro.reachdefs.parallel.run_solver`."""
    system = SequentialRDSystem(graph, record_provenance=record_provenance)
    stats = run_solver(system, graph, order, solver, snapshot_passes, budget=budget)
    return system.to_result(stats)
