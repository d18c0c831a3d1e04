"""Property: per-pass behaviour of the chaotic solver on monotone halves.

* The sequential system's In/Out grow monotonically pass over pass (it is
  a genuinely monotone framework).
* In the parallel/synchronized systems the *flow phase alone* (kill layer
  frozen) grows monotonically — the invariant the stabilized solver's
  phases rest on.
* Preserved sets and MustDone sets are consistent (MustDone ⊆ Preserved:
  "certainly ran before" implies "ordered before if both ran").
"""

from hypothesis import given, settings

from repro import build_pfg
from repro.analysis.mustexec import compute_must_done
from repro.dataflow.solver import solve_round_robin
from repro.reachdefs import SequentialRDSystem, compute_preserved
from repro.reachdefs.synch import SynchRDSystem
from repro.reachdefs.preserved import resolve_preserved

from .conftest import generated_programs, sequential_programs


@settings(max_examples=30, deadline=None)
@given(prog=sequential_programs())
def test_sequential_in_out_grow_per_pass(prog):
    graph = build_pfg(prog)
    system = SequentialRDSystem(graph)
    stats = solve_round_robin(system, graph.document_order(), snapshot_passes=True)
    snaps = stats.snapshots
    for earlier, later in zip(snaps, snaps[1:]):
        for name in earlier["In"]:
            assert earlier["In"][name] <= later["In"][name]
            assert earlier["Out"][name] <= later["Out"][name]


@settings(max_examples=25, deadline=None)
@given(prog=generated_programs())
def test_flow_phase_monotone_with_frozen_kills(prog):
    graph = build_pfg(prog)
    system = SynchRDSystem(graph, preserved=resolve_preserved(graph))
    system.initialize()
    nodes = graph.document_order()
    prev = None
    for _pass in range(30):
        changed = False
        for n in nodes:
            changed |= system.update_flow(n)
        snap = system.snapshot()
        if prev is not None:
            for name in prev["In"]:
                assert prev["In"][name] <= snap["In"][name]
                assert prev["Out"][name] <= snap["Out"][name]
        prev = snap
        if not changed:
            break
    assert not changed, "flow phase must reach a fixpoint"


@settings(max_examples=25, deadline=None)
@given(prog=generated_programs())
def test_mustdone_subset_of_preserved(prog):
    """"Certainly ran before" implies "ordered before if both ran" —
    except across parallel-do iterations: MustDone is per-instance
    (iteration A's body prefix certainly ran before its suffix), while
    Preserved quantifies over all iterations and so drops blocks sharing
    a parallel-do body with the observer."""
    graph = build_pfg(prog)
    preserved = compute_preserved(graph)
    must = compute_must_done(graph)
    for node in graph.nodes:
        shared = set(node.pardo_ids)
        comparable = {m for m in must[node] if not (shared & set(m.pardo_ids))}
        assert comparable <= preserved[node], node.name


@settings(max_examples=25, deadline=None)
@given(prog=generated_programs())
def test_preserved_irreflexive_and_no_forward_descendants(prog):
    # A node never preserves itself, and nothing strictly downstream of a
    # node (over forward control edges) can be ordered before it — except
    # through synchronization, which only ever adds posts and their
    # ancestors, never the node's own control descendants.
    graph = build_pfg(prog)
    preserved = compute_preserved(graph)
    back = graph.back_edges()
    # forward-reachability sets
    for node in graph.nodes:
        assert node not in preserved[node]
        reach = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            for succ in graph.control_succs(cur):
                if (cur, succ) not in back and succ not in reach:
                    reach.add(succ)
                    stack.append(succ)
        assert not (preserved[node] & reach), node.name
