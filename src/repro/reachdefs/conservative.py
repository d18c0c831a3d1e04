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

from typing import Dict, Iterable, Optional

from ..dataflow.bitset import make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..dataflow.solver import make_order, solve_round_robin
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .result import ReachingDefsResult


class ConservativeRDSystem(EquationSystem[PFGNode]):
    """Accumulate-only reaching definitions over all edge kinds."""

    system_name = "conservative"

    def __init__(
        self,
        graph: ParallelFlowGraph,
        info: Optional[GenKillInfo] = None,
    ):
        self.graph = graph
        self.info = info if info is not None else compute_genkill(graph)
        self.ops = make_backend(list(graph.defs))
        self._gen = {n: self.ops.from_defs(self.info.gen[n]) for n in graph.nodes}
        self._preds = {n: graph.all_preds(n) for n in graph.nodes}
        self._in: Dict[PFGNode, object] = {}
        self._out: Dict[PFGNode, object] = {}

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        empty = self.ops.empty()
        for n in self.graph.nodes:
            self._in[n] = empty
            self._out[n] = empty

    def update(self, n: PFGNode) -> bool:
        ops = self.ops
        new_in = ops.union_all(self._out[p] for p in self._preds[n])
        new_out = ops.union(new_in, self._gen[n])
        changed = not ops.equals(new_in, self._in[n]) or not ops.equals(new_out, self._out[n])
        self._in[n] = new_in
        self._out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.succs(n)

    def snapshot(self):
        ops = self.ops
        return {
            "In": {n.name: ops.to_frozenset(self._in[n]) for n in self.graph.nodes},
            "Out": {n.name: ops.to_frozenset(self._out[n]) for n in self.graph.nodes},
        }

    def to_result(self, stats: SolveStats) -> ReachingDefsResult:
        ops = self.ops
        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            in_sets={n: ops.to_frozenset(self._in[n]) for n in self.graph.nodes},
            out_sets={n: ops.to_frozenset(self._out[n]) for n in self.graph.nodes},
            stats=stats,
            system=self.system_name,
        )


def solve_conservative(
    graph: ParallelFlowGraph,
    order: str = "document",
    budget=None,
) -> ReachingDefsResult:
    """Run the accumulate-only system to fixpoint.

    Deliberately *not* budgeted by default: this is the analysis the
    ladder runs when everything else has failed, and its convergence is
    bounded by the graph diameter.  A ``budget`` may still be passed for
    symmetry (e.g. to bound a direct caller).
    """
    system = ConservativeRDSystem(graph)
    nodes = make_order(graph, order)
    stats = solve_round_robin(system, nodes, order_name=order, budget=budget)
    return system.to_result(stats)
