"""End-to-end soundness self-check: static sets vs. dynamic executions.

The reproduction's core safety property is that the static ``In`` sets
over-approximate *every* execution — every definition a run actually
observes reaching a use must be in that use's static ud-chain
(:func:`repro.interp.trace.check_soundness`).  This module turns that
property into an operational gate:

* :func:`verify_result` replays a program under a spread of seeded
  random schedules and collects every observation the given (possibly
  degraded, possibly tampered) result fails to explain;
* :func:`self_check` is the full oracle behind ``repro check FILE``:
  analyze through the degradation ladder
  (:func:`repro.robust.analyze_with_degradation`), then
  :func:`verify_result` — returning a :class:`SelfCheckReport` that also
  surfaces deadlocked schedules and any degradation provenance.

A passing self-check is evidence, not proof (it quantifies over the
schedules actually run) — but the chaos tests show it is a *sharp*
instrument: results corrupted by :func:`repro.robust.chaos.corrupt_result`
or by persistent update suppression are flagged deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..interp.interp import run_program
from ..interp.scheduler import RandomScheduler
from ..interp.trace import SoundnessViolation, check_soundness
from ..lang import ast
from ..obs import get_metrics, get_tracer
from ..reachdefs.result import ReachingDefsResult
from .degrade import DegradationRecord, analyze_with_degradation


@dataclass
class SelfCheckReport:
    """Outcome of one :func:`self_check` oracle run."""

    runs: int
    violations: List[Tuple[int, SoundnessViolation]] = field(default_factory=list)
    """(seed, violation) pairs — which schedule escaped the static sets."""
    deadlocked_seeds: List[int] = field(default_factory=list)
    degradation: Optional[DegradationRecord] = None
    system: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = []
        verdict = "PASS" if self.ok else "FAIL"
        suffix = f" [{self.degradation.format()}]" if self.degradation else ""
        lines.append(
            f"self-check {verdict}: {self.runs} runs against the {self.system} "
            f"system, {len(self.violations)} violation(s){suffix}"
        )
        for seed, v in self.violations:
            lines.append(f"  seed {seed}: {v.format()}")
        if self.deadlocked_seeds:
            seeds = ", ".join(str(s) for s in self.deadlocked_seeds)
            lines.append(f"  note: deadlocked under seed(s) {seeds}")
        return "\n".join(lines)


def verify_result(
    result: ReachingDefsResult,
    program: ast.Program,
    seeds: Sequence[int],
    max_loop_iters: int = 2,
) -> Tuple[List[Tuple[int, SoundnessViolation]], List[int]]:
    """Replay ``program`` under one seeded random schedule per seed and
    check every run against ``result``'s static sets.

    Returns ``(violations, deadlocked_seeds)``.  Runs are executed on
    ``result.graph`` so dynamic observations and static sets share one
    coordinate system.  Deadlocked runs still contribute the observations
    they made before blocking.
    """
    violations: List[Tuple[int, SoundnessViolation]] = []
    deadlocked: List[int] = []
    for seed in seeds:
        sched = RandomScheduler(seed=seed, max_loop_iters=max_loop_iters)
        run = run_program(program, scheduler=sched, graph=result.graph)
        if run.deadlocked:
            deadlocked.append(seed)
        for v in check_soundness(result, run):
            violations.append((seed, v))
    return violations, deadlocked


def self_check(
    program: ast.Program,
    runs: int = 5,
    max_loop_iters: int = 2,
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    seeds: Optional[Sequence[int]] = None,
) -> SelfCheckReport:
    """Analyze ``program`` (degradation ladder enabled) and verify the
    result dynamically; see module docstring."""
    tracer = get_tracer()
    metrics = get_metrics()
    if seeds is None:
        seeds = range(runs)
    seeds = list(seeds)
    with tracer.span("selfcheck", runs=str(len(seeds))):
        result, record = analyze_with_degradation(
            program,
            order=order,
            solver=solver,
            preserved=preserved,
            budget=budget,
        )
        violations, deadlocked = verify_result(
            result, program, seeds, max_loop_iters=max_loop_iters
        )
    report = SelfCheckReport(
        runs=len(seeds),
        violations=violations,
        deadlocked_seeds=deadlocked,
        degradation=record,
        system=result.system,
    )
    if metrics.enabled:
        metrics.inc("robust.selfcheck.runs", len(seeds))
        metrics.inc("robust.selfcheck.violations", len(violations))
        metrics.inc("robust.selfcheck.pass" if report.ok else "robust.selfcheck.fail")
    return report
