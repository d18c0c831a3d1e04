"""Bit-vector sets of definitions.

The paper notes that "most commercial compilers use the bit vector
intermediate representation".  Every equation system here holds its
values as Python ints used as bit vectors (bit ``i`` set iff the
definition with index ``i`` is in the set): branch-free word operations
in C, decoded to ``frozenset`` only at the API edge.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence

from ..ir.defs import Definition
from ..obs import bitset_counting_enabled, get_metrics


class IntBitsetBackend:
    """Operations over subsets of a fixed definition universe.  Ints are
    immutable, so every operation returns a fresh value and never mutates
    its arguments (solver state snapshots rely on this)."""

    def __init__(self, universe: Sequence[Definition]):
        self.universe: List[Definition] = list(universe)

    def empty(self) -> int:
        return 0

    def from_defs(self, defs: Iterable[Definition]) -> int:
        out = 0
        for d in defs:
            out |= 1 << d.index
        return out

    def union(self, a: int, b: int) -> int:
        return a | b

    def intersection(self, a: int, b: int) -> int:
        return a & b

    def difference(self, a: int, b: int) -> int:
        return a & ~b

    def equals(self, a: int, b: int) -> bool:
        return a == b

    # The equation hot paths compute ``(a ∪ b) − c`` (the accumulated-kill
    # base) and ``(a − b) ∪ c`` (the classical Out) constantly.

    def union_difference(self, a: int, b: int, c: int) -> int:
        """``(a ∪ b) − c`` in one call."""
        return (a | b) & ~c

    def difference_union(self, a: int, b: int, c: int) -> int:
        """``(a − b) ∪ c`` in one call."""
        return (a & ~b) | c

    def union_all(self, sets: Iterable[int]) -> int:
        """Union of a family; the empty family gives the empty set."""
        out = 0
        for s in sets:
            out = self.union(out, s)
        return out

    def intersection_all(self, sets: Iterable[int]) -> int:
        """Intersection of a family.

        Per DESIGN.md §2, the intersection of an **empty** family is the
        **empty set** — the convention the paper's worked examples use for
        blocks with no sequential (or synchronization) predecessors.
        """
        out = None
        for s in sets:
            out = s if out is None else self.intersection(out, s)
        return 0 if out is None else out

    def to_frozenset(self, s: int) -> FrozenSet[Definition]:
        # Extract set bits directly (s & -s isolates the lowest one) so
        # sparse sets decode in O(popcount), not O(highest bit index).
        out = []
        while s:
            low = s & -s
            out.append(self.universe[low.bit_length() - 1])
            s ^= low
        return frozenset(out)


class CountingBackend(IntBitsetBackend):
    """The same operations, counted into the current :mod:`repro.obs`
    metrics registry: ``bitset.ops`` (one per union/intersection/
    difference/equals; two per fused call) and ``bitset.word_ops`` (the
    same weighted by the 64-bit word width of the universe — the
    paper-era cost model for bit-vector data flow).

    Counting is accurate but not free, so it is **opt-in**:
    ``make_backend`` only returns this class under an observability
    session installed with ``count_bitset_ops=True`` (or when the caller
    forces ``count_ops=True``).
    """

    def __init__(self, universe: Sequence[Definition]):
        super().__init__(universe)
        #: 64-bit words needed to pack one subset of the universe.
        self.n_words = max(1, (len(self.universe) + 63) // 64)
        metrics = get_metrics()
        self._ops = metrics.counter("bitset.ops")
        self._word_ops = metrics.counter("bitset.word_ops")

    def _count(self, ops: int = 1) -> None:
        self._ops.inc(ops)
        self._word_ops.inc(ops * self.n_words)

    def union(self, a, b):
        self._count()
        return super().union(a, b)

    def intersection(self, a, b):
        self._count()
        return super().intersection(a, b)

    def difference(self, a, b):
        self._count()
        return super().difference(a, b)

    def equals(self, a, b) -> bool:
        self._count()
        return super().equals(a, b)

    def union_difference(self, a, b, c):
        self._count(2)
        return super().union_difference(a, b, c)

    def difference_union(self, a, b, c):
        self._count(2)
        return super().difference_union(a, b, c)


def make_backend(
    universe: Sequence[Definition], count_ops: Optional[bool] = None
) -> IntBitsetBackend:
    """The bitset operations over ``universe``; counted when ``count_ops``
    is true, or, by default, when the ambient observability session asks
    for it (``repro.obs.session(count_bitset_ops=True)``)."""
    if count_ops is None:
        count_ops = bitset_counting_enabled()
    return CountingBackend(universe) if count_ops else IntBitsetBackend(universe)
