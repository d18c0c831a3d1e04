"""Property: every bitset operation the equation systems call agrees with
Python ``frozenset`` semantics on random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.bitset import make_backend
from repro.ir.defs import DefTable


def _universe(n=70):
    t = DefTable()
    for i in range(n):
        t.add(f"v{i % 5}", str(i))
    return list(t)


UNIVERSE = _universe()
subsets = st.sets(st.integers(min_value=0, max_value=len(UNIVERSE) - 1))


@settings(max_examples=200, deadline=None)
@given(a=subsets, b=subsets, c=subsets)
def test_operations_match_frozenset_model(a, b, c):
    ops = make_backend(UNIVERSE)
    fa, fb, fc = (frozenset(UNIVERSE[i] for i in s) for s in (a, b, c))
    sa, sb, sc = ops.from_defs(fa), ops.from_defs(fb), ops.from_defs(fc)
    assert ops.to_frozenset(sa) == fa
    assert ops.to_frozenset(ops.union(sa, sb)) == fa | fb
    assert ops.to_frozenset(ops.intersection(sa, sb)) == fa & fb
    assert ops.to_frozenset(ops.difference(sa, sb)) == fa - fb
    assert ops.to_frozenset(ops.union_difference(sa, sb, sc)) == (fa | fb) - fc
    assert ops.to_frozenset(ops.difference_union(sa, sb, sc)) == (fa - fb) | fc
    assert ops.equals(sa, sb) == (fa == fb)
    assert ops.equals(sa, ops.from_defs(sorted(fa, key=lambda d: -d.index)))


@settings(max_examples=100, deadline=None)
@given(fams=st.lists(subsets, max_size=4))
def test_family_operations_match_model(fams):
    ops = make_backend(UNIVERSE)
    fsets = [frozenset(UNIVERSE[i] for i in f) for f in fams]
    handles = [ops.from_defs(f) for f in fsets]
    expected_union = frozenset().union(*fsets) if fsets else frozenset()
    assert ops.to_frozenset(ops.union_all(handles)) == expected_union
    if fsets:
        expected_inter = frozenset.intersection(*fsets)
    else:
        expected_inter = frozenset()  # DESIGN.md empty-intersection rule
    assert ops.to_frozenset(ops.intersection_all(handles)) == expected_inter
