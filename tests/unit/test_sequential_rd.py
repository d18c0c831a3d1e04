"""Sequential reaching-definitions unit tests (paper §2)."""

import pytest

from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_sequential


def solve(src, **kw):
    return solve_sequential(build_pfg(parse_program(src)), **kw)


def test_straightline_kill():
    r = solve("program p\n(1) x = 1\n(2) x = 2\n(3) y = x\nend")
    assert r.in_names("3") == {"x2"}
    assert r.out_names("3") == {"x2", "y3"}


def test_branch_merges_both_definitions():
    r = solve("program p\n(1) x=1\n(2) if c then\n(3) x=2\nendif\n(4) y=x\nend")
    assert r.reaching("4", "x") == {r.graph.defs.by_name("x1"), r.graph.defs.by_name("x3")}


def test_both_branches_kill():
    r = solve("program p\n(1) x=1\n(2) if c then\n(3) x=2\nelse\n(4) x=3\nendif\n(5) y=x\nend")
    assert {d.name for d in r.reaching("5", "x")} == {"x3", "x4"}


def test_loop_carried_definitions_reach_header():
    r = solve("program p\n(1) x=1\n(2) loop\n(3) x=x+1\n(4) endloop\nend")
    assert {d.name for d in r.reaching("2", "x")} == {"x1", "x3"}


def test_use_before_def_in_same_block():
    r = solve("program p\n(1) x=1\n(2) y=x\n(2) x=2\nend")
    from repro.ir.defs import Use

    assert {d.name for d in r.reaching_use(Use("x", "2", 0))} == {"x1"}


def test_use_after_def_in_same_block_sees_local():
    r = solve("program p\n(1) x=1\n(2) x=2\n(2) y=x\nend")
    from repro.ir.defs import Use

    assert {d.name for d in r.reaching_use(Use("x", "2", 1))} == {"x2"}


def test_empty_program():
    r = solve("program p\nskip\nend")
    assert r.in_names("Exit") == frozenset()


def test_uninitialized_use_has_no_reaching_defs():
    r = solve("program p\n(1) y = x\nend")
    assert r.reaching("1", "x") == frozenset()


@pytest.mark.parametrize("solver", ["round-robin", "worklist"])
@pytest.mark.parametrize("order", ["document", "rpo", "reverse-document"])
def test_solver_and_order_do_not_change_fixpoint(fig1a_graph, solver, order):
    base = solve_sequential(fig1a_graph)
    other = solve_sequential(fig1a_graph, solver=solver, order=order)
    for n in fig1a_graph.nodes:
        assert base.In(n) == other.In(n)


def test_unknown_solver_rejected(fig1a_graph):
    with pytest.raises(ValueError):
        solve_sequential(fig1a_graph, solver="magic")


def test_result_metadata(fig1a_graph):
    r = solve_sequential(fig1a_graph)
    assert r.system == "sequential"
    assert r.acc_killin is None
    assert r.stats.converged
