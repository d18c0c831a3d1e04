"""Maximally conservative reaching definitions — the degradation floor.

When the precise systems cannot be trusted (malformed graph) or cannot be
afforded (budget exhausted), the driver's degradation ladder
(:mod:`repro.robust.degrade`) falls back to this system::

    Out(n) = In(n) ∪ Gen(n)
    In(n)  = ⋃_{p ∈ pred(n)} Out(p)      (pred = seq ∪ par ∪ sync)

No kill sets of any kind: definitions only accumulate along edges, so the
system is plainly monotone over a join-semilattice and converges in
O(graph diameter) round-robin passes — there is no cheaper sound analysis
to fall back *to*.

Soundness argument (why this over-approximates every execution): every
dynamic value flow the interpreter can realize travels along graph edges —
sequential steps along SEQ edges, copy-in at a fork and copy-out at a
join along PAR edges, and a wait absorbing a poster's snapshot along the
SYNC edge.  An analysis that propagates *every* definition across *every*
edge kind and never removes one therefore covers every flow; what it
gives up is exactly what the paper's machinery buys — kills at joins
(``ACCKill``), cross-thread kill exclusion bookkeeping, and the
Preserved-gated synchronization kills — i.e. precision, never safety.
The property is exercised by the degradation tests
(``tests/unit/test_degradation.py``) against the dynamic oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .parallel import run_solver
from .result import ReachingDefsResult
from .sequential import SequentialRDSystem


class ConservativeRDSystem(SequentialRDSystem):
    """Accumulate-only reaching definitions over all edge kinds: the §2
    system with every edge kind as a predecessor and no kill."""

    system_name = "conservative"

    def __init__(self, graph: ParallelFlowGraph, info: Optional[GenKillInfo] = None):
        # The floor records no provenance: no ``record_provenance`` here.
        super().__init__(graph, info)

    def _pred_family(self, n: PFGNode):
        return self.graph.all_preds(n)

    def _transfer(self, n: PFGNode, new_in):
        return self.ops.union(new_in, self._gen[n])

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.succs(n)


def solve_conservative(
    graph: ParallelFlowGraph,
    order: str = "document",
    budget=None,
) -> ReachingDefsResult:
    """Run the accumulate-only system to fixpoint (round-robin).

    Deliberately *not* budgeted by default: this is the analysis the
    ladder runs when everything else has failed, and its convergence is
    bounded by the graph diameter.  A ``budget`` may still be passed for
    symmetry (e.g. to bound a direct caller).
    """
    system = ConservativeRDSystem(graph)
    stats = run_solver(system, graph, order, "round-robin", False, budget=budget)
    return system.to_result(stats)
