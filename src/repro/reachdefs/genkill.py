"""Locally computable sets: ``Gen``, ``Kill``, ``ParallelKill``, ``OtherDefs``.

Paper §5: "as in the sequential dataflow problem, Kill and ParallelKill can
be computed directly and need not be computed using an iterative
algorithm."

Definitions (for node ``n``; ``defs(v)`` is all definitions of ``v``):

* ``Gen(n)``          — downward-exposed definitions of ``n`` (the last
  definition of each variable assigned in ``n`` — earlier same-block
  definitions never escape the block);
* ``OtherDefs(n)``    — definitions *outside* ``n`` of variables that also
  have definitions *inside* ``n`` (paper §6);
* ``Kill(n)``         — the subset of ``OtherDefs(n)`` whose node cannot
  execute concurrently with ``n``;
* ``ParallelKill(n)`` — the subset of ``OtherDefs(n)`` whose node *may*
  execute concurrently with ``n``.

So ``Kill(n) ⊎ ParallelKill(n) = OtherDefs(n)`` by construction.  On a
sequential CFG, ``ParallelKill`` is empty and ``Kill`` coincides with the
classical kill set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from ..ir.defs import Definition
from ..obs import get_metrics
from ..pfg.concurrency import concurrent
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode

DefSet = FrozenSet[Definition]


@dataclass
class GenKillInfo:
    """Per-node local sets, as frozensets of :class:`Definition`."""

    gen: Dict[PFGNode, DefSet]
    kill: Dict[PFGNode, DefSet]
    parallel_kill: Dict[PFGNode, DefSet]
    other_defs: Dict[PFGNode, DefSet]
    #: definition -> node containing it
    def_node: Dict[Definition, PFGNode]


def compute_genkill(graph: ParallelFlowGraph) -> GenKillInfo:
    """Compute all local sets for every node of ``graph``.

    Memoized **on the graph object** (``graph._genkill_memo``): the
    tables are keyed by node identity, so they are only meaningful for
    the exact graph they were computed from — a digest-keyed cache would
    hand tables whose keys belong to a *different* build of the same
    program.  The graph's ``_invalidate`` hook drops the memo on any
    structural mutation.  Hit/miss totals land in ``cache.genkill.*``
    when an observability session is installed.
    """
    memo = getattr(graph, "_genkill_memo", None)
    metrics = get_metrics()
    if memo is not None:
        if metrics.enabled:
            metrics.inc("cache.genkill.hits")
        return memo
    if metrics.enabled:
        metrics.inc("cache.genkill.misses")
    def_node: Dict[Definition, PFGNode] = {}
    for node in graph.nodes:
        for d in node.defs:
            def_node[d] = node

    gen: Dict[PFGNode, DefSet] = {}
    kill: Dict[PFGNode, DefSet] = {}
    parallel_kill: Dict[PFGNode, DefSet] = {}
    other_defs: Dict[PFGNode, DefSet] = {}

    for node in graph.nodes:
        gen[node] = frozenset(node.gen_defs())
        own = set(node.defs)
        defined_vars = {d.var for d in node.defs}
        others = set()
        par = set()
        seq = set()
        for var in defined_vars:
            for d in graph.defs.of_var(var):
                if d in own:
                    continue
                others.add(d)
                if concurrent(def_node[d], node):
                    par.add(d)
                else:
                    seq.add(d)
        other_defs[node] = frozenset(others)
        kill[node] = frozenset(seq)
        parallel_kill[node] = frozenset(par)

    info = GenKillInfo(
        gen=gen, kill=kill, parallel_kill=parallel_kill, other_defs=other_defs, def_node=def_node
    )
    graph._genkill_memo = info
    return info

