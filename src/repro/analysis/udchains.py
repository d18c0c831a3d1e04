"""Use-definition chains — the paper's "ud-chaining problem" (§2.1).

Thin, report-friendly layer over
:meth:`repro.reachdefs.result.ReachingDefsResult.ud_chains`: the chains
the optimization report prints, and the du-chains inverted from them.
The other clients (constprop, copyprop, deadcode, cse) do not go
through here: they query the result directly, one use at a time, with
:meth:`~repro.reachdefs.result.ReachingDefsResult.reaching_use`
(constprop also asks it for ``du_chains``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..ir.defs import Definition, Use
from ..reachdefs.result import ReachingDefsResult


@dataclass
class UDChains:
    """ud- and du-chains for one analysis result."""

    result: ReachingDefsResult
    ud: Dict[Use, FrozenSet[Definition]]
    du: Dict[Definition, Tuple[Use, ...]]

    @classmethod
    def from_result(cls, result: ReachingDefsResult) -> "UDChains":
        ud = result.ud_chains()
        du = result.du_chains(ud)
        return cls(result=result, ud=ud, du=du)

    # -- queries -----------------------------------------------------------

    def defs_for(self, use: Use) -> FrozenSet[Definition]:
        return self.ud[use]

    def uses_of(self, d: Definition) -> Tuple[Use, ...]:
        return self.du[d]

    def unused_defs(self) -> List[Definition]:
        """Definitions with an empty du-chain (candidates for dead code)."""
        return [d for d, uses in self.du.items() if not uses]

    def multi_def_uses(self) -> List[Tuple[Use, FrozenSet[Definition]]]:
        """Uses reached by more than one definition — where optimizations
        lose precision and potential anomalies hide."""
        return [(u, ds) for u, ds in self.ud.items() if len(ds) > 1]

    def singleton_uses(self) -> List[Tuple[Use, Definition]]:
        """Uses with exactly one reaching definition (safe to specialize)."""
        return [(u, next(iter(ds))) for u, ds in self.ud.items() if len(ds) == 1]

    # -- reporting -----------------------------------------------------------

    def format(self) -> str:
        lines = []
        for use in sorted(self.ud, key=lambda u: (u.site, u.ordinal, u.var)):
            defs = ", ".join(sorted(d.name for d in self.ud[use])) or "∅ (uninitialized read)"
            lines.append(f"{use.name:>16}  <-  {{{defs}}}")
        return "\n".join(lines)


def compute_ud_chains(result: ReachingDefsResult) -> UDChains:
    """Convenience constructor."""
    return UDChains.from_result(result)
