"""UDChains wrapper tests."""

from repro import analyze
from repro.analysis import compute_ud_chains
from repro.lang import parse_program
from repro.reachdefs import ReachingDefsResult


def chains(src):
    return compute_ud_chains(analyze(parse_program(src)))


SRC = """program p
(1) x = 1
(2) if x < 2 then
(3) x = 3
endif
(4) y = x
(5) dead = 7
end"""


def test_unused_defs():
    c = chains(SRC)
    # y4 and dead5 reach the exit (observable) but have no in-program uses.
    assert {d.name for d in c.unused_defs()} == {"y4", "dead5"}


def test_multi_def_uses():
    c = chains(SRC)
    multi = dict(c.multi_def_uses())
    (use,) = [u for u in multi if u.site == "4"]
    assert {d.name for d in multi[use]} == {"x1", "x3"}


def test_singleton_uses():
    c = chains(SRC)
    singles = dict(c.singleton_uses())
    cond_use = [u for u in singles if u.site == "2"][0]
    assert singles[cond_use].name == "x1"


def test_defs_for_and_uses_of_agree():
    c = chains(SRC)
    for use, defs in c.ud.items():
        for d in defs:
            assert use in c.uses_of(d)
        assert c.defs_for(use) == defs


def test_format_lists_uses():
    text = chains(SRC).format()
    assert "x@4#0" in text
    assert "{x1, x3}" in text


def test_uninitialized_read_formatted():
    text = chains("program p\n(1) y = q\nend").format()
    assert "uninitialized" in text


def test_from_result_resolves_each_use_once(monkeypatch):
    """du-chains are inverted from the ud-chains already built, not
    re-derived: one ``reaching_use`` per use."""
    result = analyze(parse_program(SRC))
    expected_du = result.du_chains()
    calls = []
    original = ReachingDefsResult.reaching_use

    def counted(self, use):
        calls.append(use)
        return original(self, use)

    monkeypatch.setattr(ReachingDefsResult, "reaching_use", counted)
    c = compute_ud_chains(result)
    assert len(calls) == len(c.ud) == sum(len(n.uses()) for n in result.graph.nodes)
    assert c.du == expected_du
