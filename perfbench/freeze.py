"""Freeze the expected output of every program any seed can send.

Usage (from the repository root)::

    python3 perfbench/freeze.py

Writes ``perfbench/expected.json``: per program (keyed by the sha256
prefix of its pretty-printed source) the digest of its default
``analyze`` In/Out rows and, when it is sent to ``optimize``, its
``opportunity_count()``.  Before anything is written each entry is
cross-checked: the ``scc`` engine must produce the same rows, the
interpreter (:func:`repro.robust.selfcheck.verify_result`, three seeded
schedules) must observe no soundness violation, and ``optimize`` must
not degrade.  Run it only when the pools in ``corpus.py`` change or a
change to the analyzer is *meant* to change answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from checks import EXPECTED_PATH, KEY_LEN, golden_ok, opportunities, rows_digest  # noqa: E402
from repro import analyze, optimize, parse_program  # noqa: E402
from repro.robust.selfcheck import verify_result  # noqa: E402

SCHEDULE_SEEDS = (0, 1, 2)


def freeze_one(request) -> dict:
    program = parse_program(request.source)
    result = analyze(program, cache=False)
    rows = rows_digest(result)
    if rows_digest(analyze(parse_program(request.source), solver="scc", cache=False)) != rows:
        raise SystemExit(f"{request.name}: scc rows differ from the default solver")
    if not golden_ok(request.figure, result):
        raise SystemExit(f"{request.name}: rows differ from the golden tables")
    violations, _ = verify_result(result, program, seeds=SCHEDULE_SEEDS)
    if violations:
        raise SystemExit(f"{request.name}: {violations[0][1].format()}")
    entry = {"rows": rows, "opps": None}
    if request.optimize:
        report = optimize(request.source)
        if report.degradation is not None:
            raise SystemExit(f"{request.name}: optimize degraded: {report.degradation.format()}")
        entry["opps"] = opportunities(report)
    return entry


def main() -> int:
    expected = {}
    for workload in corpus.WORKLOAD_NAMES:
        pool = corpus.full_pool(workload)
        for request in pool:
            key = request.digest[:KEY_LEN]
            if key not in expected:
                expected[key] = freeze_one(request)
        print(f"{workload}: {len(pool)} programs", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {EXPECTED_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
