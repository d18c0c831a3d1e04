"""Definition and use sites.

The reaching-definitions problem assigns "a distinct number to each
definition" (paper §2.1) and names definitions after the block containing
them — definition ``j4`` is the assignment to ``j`` in block ``(4)``.  This
module provides that identity layer, shared by the CFG and PFG pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang import ast


@dataclass(frozen=True, eq=False)
class Definition:
    """A single static definition site of a scalar variable.

    Identity is the ``index`` (assigned densely, in program order), which is
    also the definition's bit position in the bit-vector sets.  ``site``
    is the label of the block containing the definition, so ``str(d)``
    matches the paper's ``x4`` naming.
    """

    index: int
    var: str
    site: str
    stmt: Optional[ast.Assign] = field(default=None, repr=False, compare=False)
    name: str = ""
    """Unique display name; defaults to ``var+site`` (``x4``), with a
    ``'1``/``'2``... suffix when one block defines a variable repeatedly
    (only the unsuffixed, last one is downward-exposed)."""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"{self.var}{self.site}")

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Definition) and other.index == self.index

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Definition({self.index}, {self.name})"


@dataclass(frozen=True)
class Use:
    """A use (read) of a variable inside a block.

    ``ordinal`` is the position of the reading statement within its block,
    used to distinguish uses that appear before/after a same-block
    definition when forming ud-chains.
    """

    var: str
    site: str
    ordinal: int

    @property
    def name(self) -> str:
        return f"{self.var}@{self.site}#{self.ordinal}"

    def __str__(self) -> str:
        return self.name


class DefTable:
    """Dense registry of all definitions in one program.

    Also the *universe* of the bit-vector sets: definition ``d`` occupies
    bit ``d.index`` and ``len(table)`` is the universe size.
    """

    def __init__(self) -> None:
        self._defs: List[Definition] = []
        self._by_var: Dict[str, List[Definition]] = {}
        self._by_name: Dict[str, Definition] = {}
        #: Last ``'k`` suffix handed out per base name.
        self._bumps: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._defs)

    def __iter__(self):
        return iter(self._defs)

    def __getitem__(self, index: int) -> Definition:
        return self._defs[index]

    def add(self, var: str, site: str, stmt: Optional[ast.Assign] = None) -> Definition:
        """Register a new definition of ``var`` in block ``site``.

        When one block defines a variable repeatedly, the *newest* (and so
        downward-exposed) definition keeps the clean paper-style name; the
        superseded one is renamed with a ``'1``/``'2``... suffix (it never
        escapes its block, so the suffix only shows in intra-block chains).
        """
        d = Definition(index=len(self._defs), var=var, site=site, stmt=stmt)
        self._defs.append(d)
        self._by_var.setdefault(var, []).append(d)
        base = d.name
        if base in self._by_name:
            shadowed = self._by_name.pop(base)
            # Suffixed names are only created here and never removed, so
            # resume after the last suffix instead of probing from 1.
            bump = self._bumps.get(base, 0) + 1
            while f"{base}'{bump}" in self._by_name:
                bump += 1
            self._bumps[base] = bump
            new_name = f"{base}'{bump}"
            object.__setattr__(shadowed, "name", new_name)
            self._by_name[new_name] = shadowed
        self._by_name[base] = d
        return d

    def of_var(self, var: str) -> Tuple[Definition, ...]:
        """All definitions of ``var``, in creation order."""
        return tuple(self._by_var.get(var, ()))

    def variables(self) -> Tuple[str, ...]:
        return tuple(self._by_var)

    def by_name(self, name: str) -> Definition:
        """Look up a definition by its paper-style name (``'x4'``)."""
        return self._by_name[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._by_name)
