"""Result container for reaching-definitions analyses, and the row
protocol every equation system shares to produce one.

:class:`ReachingDefsResult` wraps the per-node fixpoint sets (as plain
frozensets of :class:`~repro.ir.defs.Definition`) together with iteration
statistics, and provides the queries optimization clients need:
definitions reaching a use (ud-chains), definitions of a variable reaching
a block, and paper-style set printing keyed by block name.

:class:`RDSystem` is the base of the four equation systems: bitset rows
per node, each listed under its paper name by ``_slots()``, and everything
built on that list — initialization, snapshots, raw convergence keys,
provenance and materialization into a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..dataflow.bitset import make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..ir.defs import Definition, Use
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .preserved import PreservedResult

DefSet = FrozenSet[Definition]
NodeRef = Union[PFGNode, str]


@dataclass
class ReachingDefsResult:
    """Fixpoint of one of the paper's equation systems.

    ``acc_killin``/``acc_killout``/``fork_kill`` are ``None`` for the
    sequential system; ``synch_pass``/``preserved`` are ``None`` unless the
    synchronized system ran.
    """

    graph: ParallelFlowGraph
    info: GenKillInfo
    in_sets: Dict[PFGNode, DefSet]
    out_sets: Dict[PFGNode, DefSet]
    acc_killin: Optional[Dict[PFGNode, DefSet]] = None
    acc_killout: Optional[Dict[PFGNode, DefSet]] = None
    fork_kill: Optional[Dict[PFGNode, DefSet]] = None
    synch_pass: Optional[Dict[PFGNode, DefSet]] = None
    preserved: Optional[PreservedResult] = None
    stats: SolveStats = field(default_factory=SolveStats)
    system: str = ""
    #: Justification graph (:class:`repro.provenance.JustificationGraph`)
    #: when the solve ran with ``record_provenance=True``; ``None``
    #: otherwise (build lazily via :func:`repro.provenance.ensure_provenance`).
    #: Typed ``object`` to keep this module import-cycle-free.
    provenance: Optional[object] = None

    # -- node resolution -----------------------------------------------------

    def _node(self, ref: NodeRef) -> PFGNode:
        return self.graph.node(ref) if isinstance(ref, str) else ref

    # -- set accessors (paper names) ----------------------------------------

    def In(self, ref: NodeRef) -> DefSet:
        return self.in_sets[self._node(ref)]

    def Out(self, ref: NodeRef) -> DefSet:
        return self.out_sets[self._node(ref)]

    def Gen(self, ref: NodeRef) -> DefSet:
        return self.info.gen[self._node(ref)]

    def Kill(self, ref: NodeRef) -> DefSet:
        return self.info.kill[self._node(ref)]

    def ParallelKill(self, ref: NodeRef) -> DefSet:
        return self.info.parallel_kill[self._node(ref)]

    def OtherDefs(self, ref: NodeRef) -> DefSet:
        return self.info.other_defs[self._node(ref)]

    def ACCKillin(self, ref: NodeRef) -> DefSet:
        assert self.acc_killin is not None, f"{self.system} computes no ACCKill sets"
        return self.acc_killin[self._node(ref)]

    def ACCKillout(self, ref: NodeRef) -> DefSet:
        assert self.acc_killout is not None, f"{self.system} computes no ACCKill sets"
        return self.acc_killout[self._node(ref)]

    def ForkKill(self, ref: NodeRef) -> DefSet:
        assert self.fork_kill is not None, f"{self.system} computes no ForkKill sets"
        return self.fork_kill[self._node(ref)]

    def SynchPass(self, ref: NodeRef) -> DefSet:
        assert self.synch_pass is not None, f"{self.system} computes no SynchPass sets"
        return self.synch_pass[self._node(ref)]

    def Preserved(self, ref: NodeRef) -> FrozenSet[PFGNode]:
        assert self.preserved is not None, f"{self.system} computes no Preserved sets"
        return self.preserved[self._node(ref)]

    # -- name-based views (golden tests) ---------------------------------------

    def in_names(self, ref: NodeRef) -> FrozenSet[str]:
        return frozenset(d.name for d in self.In(ref))

    def out_names(self, ref: NodeRef) -> FrozenSet[str]:
        return frozenset(d.name for d in self.Out(ref))

    def set_names(self, which: str, ref: NodeRef) -> FrozenSet[str]:
        """Generic name view: ``which`` is one of In/Out/Gen/Kill/
        ParallelKill/ACCKillin/ACCKillout/ForkKill/SynchPass."""
        return frozenset(d.name for d in getattr(self, which)(ref))

    # -- client queries ------------------------------------------------------------

    def reaching(self, ref: NodeRef, var: str) -> DefSet:
        """Definitions of ``var`` reaching the *start* of the block."""
        return frozenset(d for d in self.In(ref) if d.var == var)

    def reaching_use(self, use: Use) -> DefSet:
        """Definitions reaching a specific use (intra-block defs considered:
        a same-block definition before the use supersedes inflowing ones)."""
        node = self._node(use.site)
        local = node.local_def_before(use.var, use.ordinal)
        if local is not None:
            return frozenset((local,))
        return self.reaching(node, use.var)

    def ud_chains(self) -> Dict[Use, DefSet]:
        """Use-definition chains for every use in the program."""
        chains: Dict[Use, DefSet] = {}
        for node in self.graph.nodes:
            for use in node.uses():
                chains[use] = self.reaching_use(use)
        return chains

    def du_chains(
        self, ud: Optional[Dict[Use, DefSet]] = None
    ) -> Dict[Definition, Tuple[Use, ...]]:
        """Definition-use chains: the inverse of ``ud``, the chains
        :meth:`ud_chains` returns (built here when not passed in)."""
        out: Dict[Definition, List[Use]] = {d: [] for d in self.graph.defs}
        for use, defs in (self.ud_chains() if ud is None else ud).items():
            for d in defs:
                out[d].append(use)
        return {d: tuple(uses) for d, uses in out.items()}

    # -- reporting -------------------------------------------------------------------

    def row(self, ref: NodeRef) -> Dict[str, FrozenSet[str]]:
        """All sets of one block, by paper column name (for table output)."""
        node = self._node(ref)
        row: Dict[str, FrozenSet[str]] = {
            "Gen": self.set_names("Gen", node),
            "Kill": self.set_names("Kill", node),
            "In": self.set_names("In", node),
            "Out": self.set_names("Out", node),
        }
        if self.acc_killin is not None:
            row["ParKill"] = self.set_names("ParallelKill", node)
            row["ACCKillin"] = self.set_names("ACCKillin", node)
            row["ACCKillout"] = self.set_names("ACCKillout", node)
            row["ForkKill"] = self.set_names("ForkKill", node)
        if self.synch_pass is not None:
            row["SynchPass"] = self.set_names("SynchPass", node)
        return row


#: The result field holding each system slot's rows.
SLOT_FIELDS = {
    "In": "in_sets",
    "Out": "out_sets",
    "ACCKillin": "acc_killin",
    "ACCKillout": "acc_killout",
    "ForkKill": "fork_kill",
    "SynchPass": "synch_pass",
}


class RDSystem(EquationSystem[PFGNode]):
    """Base of the reaching-definitions equation systems.

    Each node's variables are bitsets held in one dict per variable;
    ``_slots()`` names them (``In``/``Out`` here, subclasses append
    theirs), and initialization, :meth:`snapshot`, :meth:`state_key`,
    provenance and :meth:`_result` work from that list alone.
    Subclasses supply the equations (``update``, ``dependents``).
    """

    system_name = ""

    #: Whether the In equation reads synchronization edges — the flow-edge
    #: family provenance recording follows.
    provenance_sync_edges = False

    def __init__(
        self, graph: ParallelFlowGraph, info: GenKillInfo, record_provenance: bool = False
    ):
        self.graph = graph
        self.info = info
        self.wants_provenance = record_provenance
        self._provenance = None
        self.ops = make_backend(list(graph.defs))
        self._gen = {n: self.ops.from_defs(info.gen[n]) for n in graph.nodes}
        self.In: Dict[PFGNode, object] = {}
        self.Out: Dict[PFGNode, object] = {}

    def _slots(self):
        """Every per-node variable, by paper name."""
        return (("In", self.In), ("Out", self.Out))

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        empty = self.ops.empty()
        for _, slot in self._slots():
            for n in self.graph.nodes:
                slot[n] = empty

    def snapshot(self):
        """Frozenset state per slot (pass tables, non-convergence payloads)."""
        to_frozenset = self.ops.to_frozenset
        return {
            name: {n.name: to_frozenset(slot[n]) for n in self.graph.nodes}
            for name, slot in self._slots()
        }

    def state_key(self, nodes):
        """Raw bitset image of every slot over ``nodes``, for the stabilized
        convergence checks: equal keys iff equal state, with no decode."""
        return tuple(slot[n] for _, slot in self._slots() for n in nodes)

    def record_justifications(self):
        """Derive the justification graph from the converged sets (the
        solver's post-convergence hook; see
        :func:`repro.dataflow.solver._finalize_provenance`)."""
        from ..provenance.record import build_justifications

        to_frozenset = self.ops.to_frozenset
        nodes = self.graph.nodes
        self._provenance = build_justifications(
            self.graph,
            {n: to_frozenset(self.In[n]) for n in nodes},
            {n: to_frozenset(self.Out[n]) for n in nodes},
            self.info.gen,
            include_sync=self.provenance_sync_edges,
            system=self.system_name,
        )
        return self._provenance

    def _result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        """Every slot decoded into a :class:`ReachingDefsResult`.
        ``known`` maps slot name → {node: frozenset} for rows whose final
        values are already materialized (the incremental engine's seeded
        clean regions) — frozenset conversion is skipped there."""
        to_frozenset = self.ops.to_frozenset
        nodes = self.graph.nodes
        known = known or {}
        rows = {}
        for name, slot in self._slots():
            pre = known.get(name)
            if pre:
                rows[SLOT_FIELDS[name]] = {
                    n: pre[n] if n in pre else to_frozenset(slot[n]) for n in nodes
                }
            else:
                rows[SLOT_FIELDS[name]] = {n: to_frozenset(slot[n]) for n in nodes}
        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            stats=stats,
            system=self.system_name,
            provenance=self._provenance,
            **rows,
        )
