"""Definition table tests."""

from repro.ir.defs import DefTable, Definition, Use


def test_add_assigns_dense_indices():
    t = DefTable()
    d0 = t.add("x", "1")
    d1 = t.add("y", "1")
    d2 = t.add("x", "4")
    assert (d0.index, d1.index, d2.index) == (0, 1, 2)
    assert len(t) == 3


def test_paper_style_names():
    t = DefTable()
    assert t.add("x", "4").name == "x4"
    assert t.add("y", "Entry").name == "yEntry"


def test_of_var_in_creation_order():
    t = DefTable()
    a = t.add("x", "1")
    t.add("y", "2")
    b = t.add("x", "3")
    assert t.of_var("x") == (a, b)
    assert t.of_var("missing") == ()


def test_by_name_lookup():
    t = DefTable()
    d = t.add("k", "5")
    assert t.by_name("k5") is d


def test_same_block_redefinition_keeps_clean_name_on_newest():
    t = DefTable()
    d1 = t.add("x", "3")
    d2 = t.add("x", "3")
    # d2 is downward-exposed: it keeps the paper-style name.
    assert t.by_name("x3") is d2
    assert t.by_name("x3'1") is d1
    assert d1.name == "x3'1" and d2.name == "x3"


def _probing_names(adds):
    """Reference rename rule: probe ``'1, '2, ...`` from 1 on every clash."""
    by_name = {}
    for i, (var, site) in enumerate(adds):
        base = f"{var}{site}"
        if base in by_name:
            bump = 1
            while f"{base}'{bump}" in by_name:
                bump += 1
            by_name[f"{base}'{bump}"] = by_name.pop(base)
        by_name[base] = i
    return by_name


def test_repeated_redefinitions_match_probing_rule():
    # x+11 and x1+1 share the base name x11, so they rename each other too.
    cycle = [("x", "3"), ("y", "3"), ("x", "11"), ("x1", "1")]
    for k in range(1, 51):
        adds = [a for i in range(k) for a in cycle[: 1 + i % 4]]
        t = DefTable()
        defs = [t.add(var, site) for var, site in adds]
        expected = _probing_names(adds)
        assert {name: t.by_name(name).index for name in t.names()} == expected
        assert {d.name: d.index for d in defs} == expected


def test_definitions_hash_by_index():
    t = DefTable()
    d = t.add("x", "1")
    clone = Definition(index=d.index, var="x", site="1")
    assert d == clone
    assert hash(d) == hash(clone)
    assert len({d, clone}) == 1


def test_definitions_with_different_index_differ():
    assert Definition(0, "x", "1") != Definition(1, "x", "1")


def test_iteration_and_getitem():
    t = DefTable()
    d0 = t.add("x", "1")
    d1 = t.add("y", "2")
    assert list(t) == [d0, d1]
    assert t[1] is d1


def test_variables_listing():
    t = DefTable()
    t.add("x", "1")
    t.add("y", "2")
    t.add("x", "3")
    assert t.variables() == ("x", "y")


def test_use_naming():
    u = Use(var="k", site="6", ordinal=0)
    assert u.name == "k@6#0"
    assert str(u) == "k@6#0"


def test_uses_are_value_objects():
    assert Use("k", "6", 0) == Use("k", "6", 0)
    assert Use("k", "6", 0) != Use("k", "6", 1)
