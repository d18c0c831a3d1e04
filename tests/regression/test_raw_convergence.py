"""Regression: the stabilized convergence checks compare raw backend
values, never decoded frozensets.

Both ``solve_stabilized`` and the SCC scheduler's per-region loop once
decoded every row to a ``frozenset`` on every outer round, a
rounds × rows × |defs| term that dominated wide cyclic programs.  Here
the backend's decode raises for the whole solve; decoding is allowed
again only for materializing the converged result, which must still
match the default analysis.
"""

import pytest

from repro.lang import parse_program
from repro.paper import programs
from repro.pfg import build_pfg
from repro.reachdefs import solve_parallel, solve_synch
from repro.reachdefs.parallel import ParallelRDSystem, run_solver
from repro.reachdefs.preserved import resolve_preserved
from repro.reachdefs.synch import SynchRDSystem
from repro.synthetic import par_diamond_loop

from .test_synch_oscillation import OSCILLATOR


def _refuse(value):
    raise AssertionError("a row was decoded to a frozenset during the solve")


def _parallel(backend):
    graph = build_pfg(par_diamond_loop(3, 2))
    return graph, ParallelRDSystem(graph, backend=backend), solve_parallel(graph)


def _synch(backend, source=programs.FIG3_SYNC, filter_synch_pass=True):
    graph = build_pfg(parse_program(source))
    system = SynchRDSystem(
        graph,
        preserved=resolve_preserved(graph, mode="approx"),
        backend=backend,
        filter_synch_pass=filter_synch_pass,
    )
    reference = solve_synch(graph, filter_synch_pass=filter_synch_pass)
    return graph, system, reference


CASES = {
    "parallel-loop": _parallel,
    "fig3-synch": _synch,
    # Unfiltered SynchPass oscillates: exercises the cycle-meet path.
    "oscillator-cycle": lambda backend: _synch(backend, OSCILLATOR, filter_synch_pass=False),
}


@pytest.mark.parametrize("backend", ["bitset", "numpy"])
@pytest.mark.parametrize("solver", ["stabilized", "scc"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_never_decodes_rows(case, solver, backend):
    graph, system, reference = CASES[case](backend)
    system.ops.to_frozenset = _refuse
    stats = run_solver(system, graph, "document", solver, False)
    del system.ops.to_frozenset  # decode again for the result
    assert stats.converged
    assert stats.order.endswith("+cycle") == (case == "oscillator-cycle")
    result = system.to_result(stats)
    for node in graph.nodes:
        for slot in ("In", "Out"):
            assert result.set_names(slot, node.name) == reference.set_names(slot, node.name)
