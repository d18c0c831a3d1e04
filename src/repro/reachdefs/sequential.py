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

from typing import Dict, Iterable, Optional

from ..dataflow.bitset import make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..dataflow.solver import make_order, solve_round_robin, solve_worklist
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .result import ReachingDefsResult


class SequentialRDSystem(EquationSystem[PFGNode]):
    """Equation system for §2."""

    def __init__(
        self,
        graph: ParallelFlowGraph,
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        self.graph = graph
        self.wants_provenance = record_provenance
        self._provenance = None
        self.info = info if info is not None else compute_genkill(graph)
        self.ops = make_backend(list(graph.defs))
        ops = self.ops
        self._gen = {n: ops.from_defs(self.info.gen[n]) for n in graph.nodes}
        # Classical kill: every other definition of a variable defined here.
        self._kill = {n: ops.from_defs(self.info.other_defs[n]) for n in graph.nodes}
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
        new_in = ops.union_all(self._out[p] for p in self.graph.control_preds(n))
        new_out = ops.difference_union(new_in, self._kill[n], self._gen[n])
        changed = not ops.equals(new_in, self._in[n]) or not ops.equals(new_out, self._out[n])
        self._in[n] = new_in
        self._out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.control_succs(n)

    def record_justifications(self):
        """Solver post-convergence hook (see :mod:`repro.provenance`)."""
        from ..provenance.record import build_justifications

        ops = self.ops
        nodes = self.graph.nodes
        self._provenance = build_justifications(
            self.graph,
            {n: ops.to_frozenset(self._in[n]) for n in nodes},
            {n: ops.to_frozenset(self._out[n]) for n in nodes},
            self.info.gen,
            include_sync=False,
            system="sequential",
        )
        return self._provenance

    def snapshot(self):
        ops = self.ops
        return {
            "In": {n.name: ops.to_frozenset(self._in[n]) for n in self.graph.nodes},
            "Out": {n.name: ops.to_frozenset(self._out[n]) for n in self.graph.nodes},
        }

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        """``known`` maps slot name → {node: frozenset} for rows whose
        final values are already materialized (the incremental engine's
        seeded clean regions) — frozenset conversion is skipped there."""
        ops = self.ops
        known = known or {}

        def mat(slot_name, values):
            pre = known.get(slot_name)
            if not pre:
                return {n: ops.to_frozenset(values[n]) for n in self.graph.nodes}
            return {
                n: pre[n] if n in pre else ops.to_frozenset(values[n])
                for n in self.graph.nodes
            }

        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            in_sets=mat("_in", self._in),
            out_sets=mat("_out", self._out),
            stats=stats,
            system="sequential",
            provenance=self._provenance,
        )


def solve_sequential(
    graph: ParallelFlowGraph,
    order: str = "document",
    solver: str = "round-robin",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run sequential reaching definitions to fixpoint on ``graph``."""
    system = SequentialRDSystem(graph, record_provenance=record_provenance)
    nodes = make_order(graph, order)
    if solver == "round-robin":
        stats = solve_round_robin(
            system, nodes, order_name=order, snapshot_passes=snapshot_passes, budget=budget
        )
    elif solver == "worklist":
        stats = solve_worklist(system, nodes, order_name=f"worklist/{order}", budget=budget)
    elif solver == "scc":
        from ..dataflow.sched import solve_scc

        stats = solve_scc(system, nodes, order_name=f"scc/{order}", budget=budget)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return system.to_result(stats)
