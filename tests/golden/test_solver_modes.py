"""The stabilized (default) solver reproduces the paper's fixpoints
bit-for-bit on every paper example — the per-iteration tables are a
round-robin artifact, the *answers* are solver-independent there."""

import pytest

from repro.paper import programs
from repro import reachdefs
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch

CASES = [
    ("fig1a", solve_sequential),
    ("fig1b", solve_parallel),
    ("fig5a", solve_sequential),
    ("fig5b", solve_parallel),
    ("fig6", solve_parallel),
    ("fig3", solve_synch),
    ("fig3c", solve_synch),
    ("fig9", solve_synch),
]


@pytest.mark.parametrize("key,solve", CASES, ids=[c[0] for c in CASES])
def test_stabilized_equals_paper_mode(key, solve):
    kwargs = {} if solve is solve_sequential else {"solver": "stabilized"}
    stabilized = solve(programs.graph(key), **kwargs)
    paper = solve(programs.graph(key), solver="round-robin")
    for node in stabilized.graph.nodes:
        assert stabilized.in_names(node) == paper.in_names(node.name), node.name
        assert stabilized.out_names(node) == paper.out_names(node.name), node.name
        if stabilized.acc_killout is not None:
            assert stabilized.set_names("ACCKillout", node) == paper.set_names(
                "ACCKillout", node.name
            ), node.name


@pytest.mark.parametrize("key,solve", CASES, ids=[c[0] for c in CASES])
def test_worklist_equals_paper_mode(key, solve):
    wl = solve(programs.graph(key), solver="worklist")
    paper = solve(programs.graph(key), solver="round-robin")
    for node in wl.graph.nodes:
        assert wl.in_names(node) == paper.in_names(node.name), node.name


def test_snapshot_passes_requires_round_robin(fig6_graph):
    with pytest.raises(ValueError, match="round-robin"):
        solve_parallel(fig6_graph, solver="stabilized", snapshot_passes=True)


SNAPSHOT_CASES = [
    (key, solve, solver)
    for key, solve in (("fig1a", solve_sequential), ("fig6", solve_parallel), ("fig3", solve_synch))
    for solver in ("stabilized", "worklist", "scc")
]


@pytest.mark.parametrize(
    "key,solve,solver", SNAPSHOT_CASES, ids=[f"{c[0]}-{c[2]}" for c in SNAPSHOT_CASES]
)
def test_snapshot_passes_only_under_round_robin(key, solve, solver):
    """Every system, every solver but round-robin: snapshots are refused,
    never silently dropped."""
    with pytest.raises(ValueError, match="round-robin"):
        solve(programs.graph(key), solver=solver, snapshot_passes=True)
    recorded = solve(programs.graph(key), solver="round-robin", snapshot_passes=True)
    assert len(recorded.stats.snapshots) == recorded.stats.passes


def test_sequential_stabilized_runs_round_robin():
    """The §2 system has no flow/kill phases: "stabilized" is its
    round-robin run, reported under the plain order name."""
    stabilized = solve_sequential(programs.graph("fig1a"), solver="stabilized")
    paper = solve_sequential(programs.graph("fig1a"), solver="round-robin")
    assert stabilized.stats.order == paper.stats.order == "document"
    assert stabilized.stats.node_updates == paper.stats.node_updates


@pytest.mark.parametrize("key", sorted(programs.SOURCES))
def test_solve_picks_the_papers_system(key):
    graph = programs.graph(key)
    result = reachdefs.solve(graph)
    assert result.system == reachdefs.family(graph)
    expected = {"fig1a": "sequential", "fig5a": "sequential", "fig1b": "parallel",
                "fig5b": "parallel", "fig6": "parallel"}.get(key, "synch")
    assert result.system == expected
