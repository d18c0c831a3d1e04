"""Seeded differential-fuzzing campaigns: generate → oracle → shrink.

:func:`run_campaign` drives the whole loop behind ``repro fuzz``:

* one **case** per seed — a structured-random program from
  :func:`repro.synthetic.generate_program` (size and shape knobs drawn
  deterministically from the seed itself, so a case replays identically
  whatever other seeds ran);
* the **oracle battery** (:mod:`repro.fuzz.oracles`) over each case;
* on any failure, the **shrinker** (:mod:`repro.fuzz.shrink`) minimizes
  the program under "the same oracle still fails" and the case record
  carries the minimized source plus a ready-to-paste pytest snippet;
* with ``check=True``, **injected-fault drills**: a known corruption
  (:func:`repro.robust.chaos.corrupt_result`) is planted in a healthy
  result and the harness must both *detect* it (dynamic self-check) and
  *shrink* it to at most :data:`DRILL_SHRINK_FRACTION` of the original
  statement count — proving the fuzz loop would catch and minimize a
  real soundness bug, even on a day the campaign itself finds nothing.

The campaign is bounded by a :class:`~repro.dataflow.budget.ResourceBudget`
(wall-clock deadline; total-statement cap via the update meter).  A
budget trip is **not** a failure: remaining seeds are recorded as
``skipped`` and the exit code still reflects only oracle findings.

Results stream to a ``repro-fuzz/1`` JSONL manifest (same conventions as
``repro-batch/1``: a ``meta`` line, one record per unit of work in
completion order, a final ``summary``), and ``fuzz.*`` counters land in
the installed observability session.

Exit-code contract (shared with the CLI): 0 — every oracle on every
case held (skipped-on-budget allowed); 2 — any oracle failure or any
drill that went undetected/unshrinkable; 1 — usage errors, raised as
exceptions for the CLI front end to map.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dataflow.budget import ResourceBudget
from ..dataflow.cache import program_digest
from ..lang import ast, pretty
from ..obs import get_metrics, get_tracer, read_jsonl
from ..synthetic import GeneratorConfig, generate_program
from .oracles import OracleConfig, default_oracle_names, run_oracles
from .shrink import regression_snippet, shrink, stmt_count

SCHEMA = "repro-fuzz/1"

#: A drill artifact must shrink to at most this fraction of the original
#: statement count to be considered minimized (the acceptance bar).
DRILL_SHRINK_FRACTION = 0.20

#: Seed offset for drill programs, far outside normal campaign ranges.
DRILL_SEED_BASE = 900_000


@dataclass(frozen=True)
class FuzzOptions:
    """Campaign configuration (JSON-ready; ``asdict`` lands in the
    manifest meta record)."""

    seeds: Tuple[int, ...] = tuple(range(50))
    #: Mean generated-program size; actual sizes spread around it per seed.
    target_stmts: int = 30
    #: Oracle names (None = registry default; dynamic oracle included
    #: only when ``check`` is set).
    oracles: Optional[Tuple[str, ...]] = None
    #: Full-verification mode: adds the dynamic self-check oracle and
    #: runs the injected-fault drills.
    check: bool = False
    #: Number of injected-fault drills in check mode.
    drills: int = 2
    #: Minimize failing cases and attach source + pytest snippet.
    shrink_failures: bool = True
    #: Campaign budget: wall-clock seconds / total generated statements.
    deadline_s: Optional[float] = None
    max_stmts: Optional[int] = None
    dynamic_runs: int = 3
    max_loop_iters: int = 2
    mutation_seed: int = 0

    def budget(self) -> Optional[ResourceBudget]:
        if self.deadline_s is None and self.max_stmts is None:
            return None
        return ResourceBudget(deadline_s=self.deadline_s, max_updates=self.max_stmts)

    def oracle_names(self) -> Tuple[str, ...]:
        if self.oracles is not None:
            return self.oracles
        return default_oracle_names(dynamic=self.check)

    def oracle_config(self) -> OracleConfig:
        return OracleConfig(
            mutation_seed=self.mutation_seed,
            dynamic_runs=self.dynamic_runs,
            max_loop_iters=self.max_loop_iters,
        )


def case_generator_config(seed: int, target_stmts: int) -> GeneratorConfig:
    """The per-seed program shape: deterministic in the seed alone, and
    spread across sizes and construct densities so one campaign covers
    sequential, parallel-only, synchronized, and loop-heavy programs."""
    sizes = (
        max(5, target_stmts // 3),
        max(8, (2 * target_stmts) // 3),
        target_stmts,
        (3 * target_stmts) // 2,
    )
    return GeneratorConfig(
        target_stmts=sizes[seed % len(sizes)],
        n_vars=2 + (seed % 5),
        p_parallel=(0.1, 0.25, 0.4)[seed % 3],
        p_loop=(0.0, 0.1, 0.2)[(seed // 3) % 3],
        p_pardo=(0.0, 0.08)[(seed // 2) % 2],
        with_sync=seed % 4 != 3,
    )


@dataclass
class FuzzReport:
    """Everything a campaign concluded."""

    records: List[Dict[str, object]]
    options: FuzzOptions
    wall_s: float = 0.0

    def cases(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "case"]

    def drills(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "drill"]

    def failures(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == "failed"]

    def skipped(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == "skipped"]

    @property
    def exit_code(self) -> int:
        return 2 if self.failures() else 0

    def summary_record(self) -> Dict[str, object]:
        by_status: Dict[str, int] = {}
        for rec in self.records:
            status = str(rec.get("status"))
            by_status[status] = by_status.get(status, 0) + 1
        return {
            "type": "summary",
            "cases": len(self.cases()),
            "drills": len(self.drills()),
            "by_status": dict(sorted(by_status.items())),
            "failures": len(self.failures()),
            "exit_code": self.exit_code,
            "wall_s": round(self.wall_s, 6),
        }

    def render_summary(self) -> str:
        """Deterministic end-of-run lines (wall time excluded, as in the
        batch summary: CI logs should diff clean)."""
        summary = self.summary_record()
        by_status = ", ".join(f"{n} {s}" for s, n in summary["by_status"].items())
        lines = [
            f"fuzz campaign: {summary['cases']} case(s), "
            f"{summary['drills']} drill(s) — {by_status or 'nothing ran'} "
            f"(exit {summary['exit_code']})"
        ]
        for rec in self.failures():
            unit = rec.get("seed") if rec.get("type") == "case" else f"drill {rec.get('drill')}"
            lines.append(f"  FAIL {rec.get('type')} {unit}: {rec.get('program')}")
            for failure in rec.get("failures") or []:
                lines.append(f"    [{failure['oracle']}] {failure['detail']}")
            shrunk = rec.get("shrunk")
            if shrunk:
                lines.append(
                    f"    shrunk {rec.get('stmts')} → {shrunk['stmts']} statements; "
                    "minimized source and pytest snippet are in the manifest"
                )
        if self.skipped():
            lines.append(
                f"  note: {len(self.skipped())} case(s) skipped on campaign budget"
            )
        return "\n".join(lines) + "\n"


class _FuzzManifest:
    """Streaming ``repro-fuzz/1`` writer (same shape as the batch one)."""

    def __init__(self, path: Union[str, Path], options: FuzzOptions):
        self.path = Path(path)
        self._fh = self.path.open("w")
        meta = {
            "type": "meta",
            "schema": SCHEMA,
            "seeds": len(options.seeds),
            "options": {
                **asdict(options),
                "seeds": list(options.seeds),
                "oracles": list(options.oracle_names()),
            },
        }
        self.write(meta)

    def write(self, record: Dict[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_fuzz_manifest(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a fuzz manifest; validates the schema stamp on line one."""
    records = read_jsonl(path)
    if not records or records[0].get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} manifest")
    return records


# ---------------------------------------------------------------------------
# Campaign pieces
# ---------------------------------------------------------------------------


def _shrink_failure(
    program: ast.Program,
    failing_oracles: Tuple[str, ...],
    options: FuzzOptions,
    seed: int,
) -> Dict[str, object]:
    """Minimize a failing case under "the same oracle still fails"."""
    cfg = options.oracle_config()
    names = tuple(failing_oracles)

    def still_fails(candidate: ast.Program) -> bool:
        report = run_oracles(candidate, cfg, names=names)
        return not report.ok

    result = shrink(program, still_fails)
    snippet = regression_snippet(
        result.program,
        oracle=names[0],
        test_name=f"test_fuzz_seed{seed}_{names[0].replace('-', '_')}",
        note=f"minimized from fuzz seed {seed} ({result.format()})",
    )
    return {
        "stmts": result.shrunk_stmts,
        "reduction": round(result.reduction, 4),
        "rounds": result.rounds,
        "attempts": result.attempts,
        "source": pretty(result.program),
        "snippet": snippet,
    }


def run_case(seed: int, options: FuzzOptions) -> Dict[str, object]:
    """Generate and check one case; returns its manifest record."""
    tracer = get_tracer()
    t0 = time.perf_counter()
    program = generate_program(
        seed, case_generator_config(seed, options.target_stmts), name=f"fuzz{seed}"
    )
    record: Dict[str, object] = {
        "type": "case",
        "seed": seed,
        "program": program.name,
        "digest": program_digest(program),
        "stmts": stmt_count(program),
        "status": "ok",
        "oracles": list(options.oracle_names()),
        "failures": [],
        "shrunk": None,
    }
    with tracer.span("fuzz-case", seed=seed):
        report = run_oracles(
            program, options.oracle_config(), names=options.oracle_names()
        )
        if not report.ok:
            record["status"] = "failed"
            record["failures"] = [
                {"oracle": f.oracle, "detail": f.detail} for f in report.failures
            ]
            if options.shrink_failures:
                record["shrunk"] = _shrink_failure(
                    program, report.failing_oracles(), options, seed
                )
    record["wall_s"] = round(time.perf_counter() - t0, 6)
    return record


def run_drill(drill: int, options: FuzzOptions) -> Dict[str, object]:
    """One injected-fault drill: corrupt a healthy result, require the
    dynamic oracle to flag it, and require the shrinker to minimize the
    carrier program to ≤ :data:`DRILL_SHRINK_FRACTION` of its statements.
    """
    from ..interp.interp import run_program
    from ..interp.scheduler import RandomScheduler
    from ..pfg import build_pfg
    from ..reachdefs import solve
    from ..robust.chaos import corrupt_result
    from ..robust.selfcheck import verify_result

    tracer = get_tracer()
    t0 = time.perf_counter()
    seed = DRILL_SEED_BASE + drill
    # A sizeable synchronized program so the 20% bar is meaningful.
    program = generate_program(
        seed,
        GeneratorConfig(
            target_stmts=max(60, 2 * options.target_stmts),
            n_vars=4,
            p_parallel=0.3,
            p_loop=0.1,
        ),
        name=f"drill{drill}",
    )
    record: Dict[str, object] = {
        "type": "drill",
        "drill": drill,
        "seed": seed,
        "program": program.name,
        "stmts": stmt_count(program),
        "status": "ok",
        "failures": [],
        "shrunk": None,
    }

    def corruption_detected(candidate: ast.Program) -> bool:
        """True when a seeded corruption of the candidate's (sound)
        analysis is flagged by the dynamic self-check."""
        result = solve(build_pfg(candidate))
        run = run_program(
            candidate,
            scheduler=RandomScheduler(seed=0, max_loop_iters=options.max_loop_iters),
            graph=result.graph,
        )
        try:
            tampered, _ = corrupt_result(result, run, seed=drill)
        except ValueError:
            return False  # nothing eligible to corrupt
        violations, _ = verify_result(tampered, candidate, seeds=(0,))
        return bool(violations)

    with tracer.span("fuzz-drill", drill=drill):
        if not corruption_detected(program):
            record["status"] = "failed"
            record["failures"] = [
                {
                    "oracle": "inject",
                    "detail": "injected In-set corruption was not detected "
                    "by the dynamic self-check",
                }
            ]
        else:
            result = shrink(program, corruption_detected)
            record["shrunk"] = {
                "stmts": result.shrunk_stmts,
                "reduction": round(result.reduction, 4),
                "rounds": result.rounds,
                "attempts": result.attempts,
                "source": pretty(result.program),
            }
            if result.reduction > DRILL_SHRINK_FRACTION:
                record["status"] = "failed"
                record["failures"] = [
                    {
                        "oracle": "shrink",
                        "detail": f"unshrinkable artifact: {result.format()} — "
                        f"bar is ≤{DRILL_SHRINK_FRACTION:.0%} of the original",
                    }
                ]
    record["wall_s"] = round(time.perf_counter() - t0, 6)
    return record


def run_campaign(
    options: Optional[FuzzOptions] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> FuzzReport:
    """Run the full campaign; see the module docstring."""
    options = options if options is not None else FuzzOptions()
    tracer = get_tracer()
    metrics = get_metrics()
    budget = options.budget()
    if budget is not None:
        budget.start()
    writer = _FuzzManifest(manifest_path, options) if manifest_path else None
    records: List[Dict[str, object]] = []
    t0 = time.perf_counter()

    def finish(record: Dict[str, object]) -> None:
        records.append(record)
        if writer is not None:
            writer.write(record)
        if metrics.enabled:
            metrics.inc(f"fuzz.{record['type']}s")
            metrics.inc(f"fuzz.status.{record['status']}")

    try:
        with tracer.span("fuzz", seeds=len(options.seeds)):
            exhausted: Optional[str] = None
            for seed in options.seeds:
                if budget is not None and exhausted is None:
                    exhausted = budget.exceeded()
                if exhausted is not None:
                    finish(
                        {
                            "type": "case",
                            "seed": seed,
                            "status": "skipped",
                            "reason": f"campaign budget: {exhausted}",
                        }
                    )
                    continue
                record = run_case(seed, options)
                if budget is not None:
                    budget.charge_pass()
                    budget.charge_updates(int(record.get("stmts") or 0))
                finish(record)
            if options.check:
                for drill in range(options.drills):
                    finish(run_drill(drill, options))
        report = FuzzReport(
            records=records, options=options, wall_s=time.perf_counter() - t0
        )
        if writer is not None:
            writer.write(report.summary_record())
    finally:
        if writer is not None:
            writer.close()
    if metrics.enabled and report.exit_code != 0:
        metrics.inc("fuzz.campaign_failures")
    return report


def parse_seed_spec(spec: str) -> Tuple[int, ...]:
    """Parse the CLI ``--seeds`` argument: ``A:B`` (inclusive range),
    a single integer, or a comma-separated mix (``0:9,100,200:205``)."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_s, hi_s = part.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return tuple(dict.fromkeys(seeds))
