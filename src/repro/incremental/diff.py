"""Structural diff between two program versions at PFG-node granularity.

The incremental engine (:mod:`repro.incremental.engine`) never patches a
graph in place — the new program's PFG is built from scratch (graph
construction is linear and cheap next to fixpoint iteration).  What this
module recovers is the *correspondence* between the base and new graphs:
which new nodes are statement-for-statement identical to a base node,
and how the base solve's :class:`~repro.ir.defs.Definition` objects map
onto the new definition table.  Everything the engine reuses flows
through that correspondence.

Matching is content-based, not name-based: a node's fingerprint is its
kind plus the *rendered text* of its statements, wait/post events,
branch condition, and loop-header flag.  Node names, ids, and definition
indices are deliberately excluded — inserting a statement early in the
program renumbers everything downstream, and a renumbered-but-unchanged
suffix must still match.  The two fingerprint sequences (in document
order, which the builder emits deterministically) are aligned with
:class:`difflib.SequenceMatcher`, the same machinery ``diff`` tools use:
for the near-identical sequences an edit produces this is effectively
linear and recovers the unique common structure.

A matched pair is only *trusted* (eligible for row reuse) when its local
environment matched too:

* every in-edge ``(pred, kind)`` corresponds under the match (same
  multiset after mapping base preds to new preds) — this covers
  sequential, parallel, **and** back edges, so loop membership changes
  are caught structurally;
* for joins, the technical fork link corresponds (the §5 join equations
  read ``ForkKill[fork]``);
* gen/kill/parallel-kill/other-defs agree under the definition map —
  this is the global net: inserting or deleting *any* definition of
  variable ``v`` perturbs the kill sets of **every** node assigning
  ``v``, and those nodes become dirty here even though their own text
  never changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Dict, List, Optional, Set, Tuple

from ..ir.defs import Definition
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from ..reachdefs.genkill import compute_genkill

Fingerprint = Tuple[object, ...]


def node_fingerprint(node: PFGNode) -> Fingerprint:
    """Content identity of one PFG node — everything its own equations
    depend on locally, nothing positional (no ids, names, or def
    indices)."""
    return (
        node.kind.value,
        node.wait_event,
        tuple(f"{type(s).__name__}|{s}" for s in node.stmts),
        node.post_event,
        str(node.cond) if node.cond is not None else None,
        node.is_loop_header,
    )


@dataclass
class GraphMatch:
    """The recovered correspondence between a base and a new PFG."""

    base: ParallelFlowGraph
    new: ParallelFlowGraph
    #: trusted pairs only (environment checks passed)
    base_to_new: Dict[PFGNode, PFGNode] = field(default_factory=dict)
    new_to_base: Dict[PFGNode, PFGNode] = field(default_factory=dict)
    #: base Definition -> new Definition, for defs of trusted nodes
    def_map: Dict[Definition, Definition] = field(default_factory=dict)
    #: new nodes with no trusted base counterpart — the dirty frontier
    dirty_nodes: Set[PFGNode] = field(default_factory=set)

    @property
    def n_matched(self) -> int:
        return len(self.new_to_base)


def _aligned_pairs(
    base: ParallelFlowGraph, new: ParallelFlowGraph
) -> Tuple[List[Tuple[PFGNode, PFGNode]], List[Tuple[List[PFGNode], List[PFGNode]]]]:
    """Longest-common-subsequence alignment of the two document-order
    fingerprint sequences.

    Returns ``(pairs, gaps)``: the aligned node pairs, plus the
    ``replace`` gaps — runs of base nodes rewritten into runs of new
    nodes with no fingerprint match.  Gap nodes are dirty by definition,
    but their *definitions* may still correspond (an edited right-hand
    side keeps the def of its target alive at the same site), which
    matters for the kill-universe comparison on untouched bystanders.
    """
    base_nodes = base.document_order()
    new_nodes = new.document_order()
    base_fps = [node_fingerprint(n) for n in base_nodes]
    new_fps = [node_fingerprint(n) for n in new_nodes]
    # An edit leaves long equal runs at both ends: align those directly
    # and hand SequenceMatcher (superlinear in its input) only the span
    # between them.
    n_base, n_new = len(base_fps), len(new_fps)
    limit = min(n_base, n_new)
    lo = 0
    while lo < limit and base_fps[lo] == new_fps[lo]:
        lo += 1
    hi = 0
    while hi < limit - lo and base_fps[n_base - 1 - hi] == new_fps[n_new - 1 - hi]:
        hi += 1
    matcher = SequenceMatcher(
        None, base_fps[lo:n_base - hi], new_fps[lo:n_new - hi], autojunk=False
    )
    pairs: List[Tuple[PFGNode, PFGNode]] = list(zip(base_nodes[:lo], new_nodes[:lo]))
    gaps: List[Tuple[List[PFGNode], List[PFGNode]]] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        i1, i2, j1, j2 = i1 + lo, i2 + lo, j1 + lo, j2 + lo
        if tag == "equal":
            pairs.extend(zip(base_nodes[i1:i2], new_nodes[j1:j2]))
        elif tag == "replace":
            gaps.append((base_nodes[i1:i2], new_nodes[j1:j2]))
    pairs.extend(zip(base_nodes[n_base - hi:], new_nodes[n_new - hi:]))
    return pairs, gaps


def _gap_def_pairs(
    gaps: List[Tuple[List[PFGNode], List[PFGNode]]]
) -> List[Tuple[Definition, Definition]]:
    """Per-variable positional pairing of definitions inside each replace
    gap: the i-th def of ``v`` on the base side corresponds to the i-th
    def of ``v`` on the new side.  A def with no partner (the edit
    really did add/remove a definition of ``v``) stays unmapped — and
    every bystander node killing ``v`` then fails the gen/kill agreement
    check and joins the dirty cone, which is exactly the §2/§5
    perturbation an added/removed definition causes.
    """
    out: List[Tuple[Definition, Definition]] = []
    for base_run, new_run in gaps:
        by_var: Dict[str, List[Definition]] = {}
        for node in base_run:
            for d in node.defs:
                by_var.setdefault(d.var, []).append(d)
        seen: Dict[str, int] = {}
        for node in new_run:
            for d in node.defs:
                i = seen.get(d.var, 0)
                seen[d.var] = i + 1
                partners = by_var.get(d.var, ())
                if i < len(partners):
                    out.append((partners[i], d))
    return out


def _edges_correspond(
    pair_map: Dict[PFGNode, PFGNode], b: PFGNode, n: PFGNode, match: GraphMatch
) -> bool:
    """The in-edge multisets agree under the (candidate) match, and the
    join→fork technical link survives."""
    mapped = []
    for pred, kind in match.base.in_edges(b):
        image = pair_map.get(pred)
        if image is None:
            return False  # an in-edge from an unmatched node: environment changed
        mapped.append((image.id, kind))
    actual = [(pred.id, kind) for pred, kind in match.new.in_edges(n)]
    if sorted(mapped, key=repr) != sorted(actual, key=repr):
        return False
    if n.is_join:
        if b.fork is None or n.fork is None:
            return b.fork is None and n.fork is None
        return pair_map.get(b.fork) is n.fork
    return True


def _genkill_agrees(
    b: PFGNode, n: PFGNode, match: GraphMatch, base_gk, new_gk
) -> bool:
    """gen/kill/parallel-kill/other-defs are equal after mapping base
    definitions into the new table.  Any base def with no image (its
    defining node was edited away) makes the node dirty."""
    for base_table, new_table in (
        (base_gk.gen, new_gk.gen),
        (base_gk.kill, new_gk.kill),
        (base_gk.parallel_kill, new_gk.parallel_kill),
        (base_gk.other_defs, new_gk.other_defs),
    ):
        want = set()
        for d in base_table[b]:
            image = match.def_map.get(d)
            if image is None:
                return False
            want.add(image)
        if want != set(new_table[n]):
            return False
    return True


def match_graphs(base: ParallelFlowGraph, new: ParallelFlowGraph) -> GraphMatch:
    """Compute the trusted correspondence between ``base`` and ``new``.

    Runs in three passes: (1) LCS alignment over fingerprints, (2) the
    definition map from aligned defining nodes (fingerprint equality
    forces equal per-node def counts in statement order), (3) the
    environment checks — edge correspondence and gen/kill agreement —
    which demote aligned-but-perturbed nodes to dirty.  Every new node
    that is not in a *trusted* pair lands in ``dirty_nodes``.
    """
    match = GraphMatch(base=base, new=new)
    pairs, gaps = _aligned_pairs(base, new)
    pair_map: Dict[PFGNode, PFGNode] = {b: n for b, n in pairs}
    # Pass 2: the def map covers all *aligned* nodes (not just trusted
    # ones) plus surviving defs inside replace gaps — a dirty node's
    # defs still keep their identity, and the gen/kill comparison needs
    # the full picture to decide trust.
    for b, n in pairs:
        for bd, nd in zip(b.defs, n.defs):
            match.def_map[bd] = nd
    for bd, nd in _gap_def_pairs(gaps):
        match.def_map[bd] = nd
    base_gk = compute_genkill(base)
    new_gk = compute_genkill(new)
    trusted: List[Tuple[PFGNode, PFGNode]] = []
    for b, n in pairs:
        if _edges_correspond(pair_map, b, n, match) and _genkill_agrees(
            b, n, match, base_gk, new_gk
        ):
            trusted.append((b, n))
    match.base_to_new = {b: n for b, n in trusted}
    match.new_to_base = {n: b for b, n in trusted}
    match.dirty_nodes = {n for n in new.nodes if n not in match.new_to_base}
    return match


def dirty_regions(match: GraphMatch, schedule) -> Set[int]:
    """Region indices invalidated by the match: every region containing a
    dirty node, closed forward over the condensation DAG (one pass in
    topological order — ``schedule.regions`` is already topsorted)."""
    dirty: Set[int] = set()
    for n in match.dirty_nodes:
        dirty.add(schedule.region_of[n])
    for region in schedule.regions:
        if region.index in dirty:
            for node in region.nodes:
                for dep in schedule.dependents.get(node, ()):
                    dirty.add(schedule.region_of[dep])
    return dirty
