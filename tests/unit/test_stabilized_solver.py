"""Stabilized-solver internals: phase behaviour and cycle resolution."""

from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_synch
from repro.reachdefs.preserved import compute_preserved
from repro.reachdefs.synch import SynchRDSystem

#: The period-2 oscillator distilled in tests/regression: loop around a
#: construct where the waiter redefines a variable that a concurrent
#: section also defines — with the SynchPass filter *disabled* the outer
#: rounds of the stabilized solver cycle, exercising the kill-intersection
#: resolution path.
OSCILLATOR = """program oscillator
event e
(1) v = 0
(2) loop
  clear(e)
  (3) parallel sections
    (4) section POSTER
      (4) post(e)
    (5) section WAITER
      (5) wait(e)
      (5) v = 1
    (6) section OTHER
      (6) v = 2
  (7) end parallel sections
(8) endloop
end"""


def test_cycle_resolution_engages_and_is_sound():
    graph = build_pfg(parse_program(OSCILLATOR))
    result = solve_synch(graph, solver="stabilized", filter_synch_pass=False)
    assert result.stats.converged
    assert "+cycle" in result.stats.order
    # Conservative resolution: both concurrent definitions reach the join
    # (the kill claim was only justified in half the cycle states).
    assert {d.name for d in result.reaching("7", "v")} >= {"v5", "v6"}


def test_cycle_resolution_not_needed_with_filter():
    graph = build_pfg(parse_program(OSCILLATOR))
    result = solve_synch(graph, solver="stabilized")
    assert result.stats.converged
    assert "+cycle" not in result.stats.order


def test_kill_state_roundtrip():
    graph = build_pfg(parse_program(OSCILLATOR))
    system = SynchRDSystem(graph, preserved=compute_preserved(graph))
    system.initialize()
    for node in graph.nodes:
        system.update(node)
    state = system.kill_state()
    assert set(state) == {"ACCKillin", "ACCKillout", "ForkKill", "SynchPass"}
    # meet with itself is identity; loading it back changes nothing
    met = {
        slot: {n: system.meet_values(v, v) for n, v in state[slot].items()}
        for slot in state
    }
    system.set_kill_state(met)
    for slot, values in state.items():
        for n, v in values.items():
            assert system.ops.equals(getattr(system, slot)[n], v)


def test_flow_and_kill_phase_partition_state():
    graph = build_pfg(parse_program(OSCILLATOR))
    system = SynchRDSystem(graph, preserved=compute_preserved(graph))
    system.initialize()
    nodes = graph.document_order()
    for _ in range(20):
        if not any(system.update_flow(n) for n in nodes):
            break
    flow_snapshot = {n: system.In[n] for n in nodes}
    # a kill sweep must not modify In/Out...
    for n in nodes:
        system.update_kill(n)
    assert all(system.ops.equals(system.In[n], flow_snapshot[n]) for n in nodes)
    # ...and reset_flow_nodes clears exactly the flow half
    killin_before = {n: system.ACCKillin[n] for n in nodes}
    system.reset_flow_nodes(graph.nodes)
    assert all(system.ops.equals(system.In[n], system.ops.empty()) for n in nodes)
    assert all(system.ops.equals(system.ACCKillin[n], killin_before[n]) for n in nodes)
