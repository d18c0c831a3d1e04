"""One-call optimization driver: the whole pipeline behind one function.

``optimize(source_or_program)`` runs parse → PFG → reaching definitions →
every client analysis, and returns an :class:`OptimizationReport` holding
the individual results plus a human-readable rendering — the shape a
compiler integration or a CI check would consume.  Available on the
command line as ``python -m repro report FILE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .analysis import (
    Anomaly,
    CommonSubexpression,
    ConstantPropagation,
    CopyPropagation,
    DeadCodeReport,
    InductionVariable,
    SyncIssue,
    UDChains,
    compute_ud_chains,
    find_anomalies,
    find_common_subexpressions,
    find_copy_propagations,
    find_dead_code,
    find_induction_variables,
    lint_synchronization,
    propagate_constants,
)
from .dataflow.budget import ResourceBudget
from .lang import ast, parse_program
from .obs import get_tracer
from .reachdefs.result import ReachingDefsResult
from .robust.degrade import DegradationRecord, analyze_with_degradation


@dataclass
class OptimizationReport:
    """Everything the analyses concluded about one program."""

    program: ast.Program
    result: ReachingDefsResult
    chains: UDChains
    anomalies: List[Anomaly]
    sync_issues: List[SyncIssue]
    constants: ConstantPropagation
    induction_variables: List[InductionVariable]
    dead_code: DeadCodeReport
    copies: List[CopyPropagation]
    subexpressions: List[CommonSubexpression]
    notes: List[str] = field(default_factory=list)
    #: phase → wall seconds, filled only when an observability session is
    #: installed around :func:`optimize` (empty otherwise, so rendered
    #: output is unchanged for untraced runs).
    timings: Dict[str, float] = field(default_factory=dict)
    #: degradation provenance when the analysis fell down the
    #: :mod:`repro.robust.degrade` ladder (``None`` = full precision).
    degradation: Optional[DegradationRecord] = None

    # -- aggregate views ----------------------------------------------------

    @property
    def is_clean(self) -> bool:
        """No race-severity anomalies and no blocking synchronization
        issues — the program is safe to optimize aggressively."""
        from .analysis import AnomalyKind, SyncIssueKind

        racy = any(
            a.kind in (AnomalyKind.RACE, AnomalyKind.CROSS_ITERATION)
            for a in self.anomalies
        )
        blocking = any(
            i.kind is not SyncIssueKind.POST_WITHOUT_WAIT for i in self.sync_issues
        )
        return not racy and not blocking

    def opportunity_count(self) -> Dict[str, int]:
        return {
            "constant-definitions": len(self.constants.constant_defs()),
            "induction-variables": len(self.induction_variables),
            "dead-definitions": len(self.dead_code.dead),
            "copy-propagations": len(self.copies),
            "common-subexpressions": len(self.subexpressions),
        }

    def render(self) -> str:
        lines: List[str] = [
            f"optimization report for '{self.program.name}' "
            f"({self.result.system} equations, "
            f"{len(self.result.graph)} blocks, "
            f"{len(self.result.graph.defs)} definitions)",
            "",
        ]
        if self.degradation is not None:
            lines.append(f"degradation: {self.degradation.format()}")
            lines.append("")
        lines.append("safety:")
        if not self.anomalies and not self.sync_issues:
            lines.append("  clean — no anomalies, no synchronization issues")
        for a in self.anomalies:
            lines.append(f"  {a.format()}")
        for issue in self.sync_issues:
            lines.append(f"  {issue.format()}")

        lines.append("")
        lines.append("opportunities:")
        consts = self.constants.constant_defs()
        for d in sorted(consts, key=lambda d: d.index):
            lines.append(f"  constant      {d.name} = {consts[d]}")
        for iv in self.induction_variables:
            lines.append(f"  induction     {iv.format()}")
        for d in sorted(self.dead_code.dead, key=lambda d: d.index):
            lines.append(f"  dead          {d.name}")
        for c in self.copies:
            lines.append(f"  copy-prop     {c.format()}")
        for c in self.subexpressions:
            lines.append(f"  cse           {c.format()}")
        if not any(self.opportunity_count().values()):
            lines.append("  none found")
        if self.timings:
            lines.append("")
            lines.append("timings:")
            total = sum(self.timings.values())
            for phase, seconds in self.timings.items():
                lines.append(f"  {seconds * 1e3:8.3f} ms  {phase}")
            lines.append(f"  {total * 1e3:8.3f} ms  total")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def optimize(
    source: Union[str, ast.Program],
    preserved: str = "approx",
    observable_at_exit: bool = True,
    budget: Optional[ResourceBudget] = None,
    degrade: bool = True,
    solver: str = "stabilized",
) -> OptimizationReport:
    """Run the full analysis pipeline on source text or a parsed program.

    Each phase runs under a tracer span (``parse``, ``analyze`` — which
    itself nests ``pfg-build`` and ``solve`` — and one ``client:<name>``
    span per client analysis), so with an observability session installed
    the report's ``timings`` maps every phase to wall seconds and a
    ``--profile`` export contains the whole pipeline tree.

    ``budget`` bounds the reaching-definitions solve.  With ``degrade=True``
    (default) an unaffordable or untrustworthy precise analysis falls down
    the :mod:`repro.robust.degrade` ladder and the report carries the
    :class:`~repro.robust.degrade.DegradationRecord`; with
    ``degrade=False`` exhaustion propagates as
    :class:`~repro.dataflow.budget.NonConvergenceError` for the caller to
    handle (the CLI maps it to exit code 2).

    ``solver`` selects the fixpoint engine as in :func:`repro.analyze`
    (``"stabilized"`` default; ``"scc"`` for the sparse SCC-scheduled
    engine, ``"round-robin"``/``"worklist"`` for the paper's chaotic
    iteration).
    """
    from . import analyze  # deferred: repro/__init__ imports this module

    tracer = get_tracer()
    with tracer.span("optimize") as pipeline:
        program = parse_program(source) if isinstance(source, str) else source
        degradation: Optional[DegradationRecord] = None
        with tracer.span("analyze", preserved=preserved):
            if degrade:
                result, degradation = analyze_with_degradation(
                    program, solver=solver, preserved=preserved,
                    budget=budget,
                )
            else:
                result = analyze(
                    program, solver=solver, preserved=preserved,
                    budget=budget,
                )

        notes: List[str] = []
        if degradation is not None:
            notes.append(degradation.format())
        if not result.stats.converged:  # pragma: no cover - solvers raise instead
            notes.append("solver did not converge")
        if "+cycle" in result.stats.order:
            notes.append(
                "stabilized solver resolved an outer-round oscillation "
                "conservatively (see DESIGN.md §5)"
            )

        def client(name: str, fn, *args, **kwargs):
            with tracer.span(f"client:{name}"):
                return fn(*args, **kwargs)

        report = OptimizationReport(
            program=program,
            result=result,
            chains=client("ud-chains", compute_ud_chains, result),
            anomalies=client("anomalies", find_anomalies, result),
            sync_issues=client("sync-lint", lint_synchronization, result.graph),
            constants=client("constprop", propagate_constants, result),
            induction_variables=client("induction", find_induction_variables, result),
            dead_code=client(
                "deadcode", find_dead_code, result, observable_at_exit=observable_at_exit
            ),
            copies=client("copyprop", find_copy_propagations, result),
            subexpressions=client("cse", find_common_subexpressions, result),
            notes=notes,
            degradation=degradation,
        )
    if tracer.enabled:
        report.timings = {
            child.name: child.duration
            for child in pipeline.children
            if child.duration is not None
        }
    return report
