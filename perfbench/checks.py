"""Output checks: every request's answer against frozen expectations.

* Paper figures are checked against the hand-derived tables of
  :mod:`repro.paper.golden`.
* Every request is checked against ``expected.json``: a digest of its
  In/Out rows and, for ``optimize`` requests, its
  ``opportunity_count()``.  ``freeze.py`` wrote those from the default
  pipeline and cross-checked each against the ``scc`` engine and the
  interpreter-backed :func:`repro.robust.selfcheck.verify_result`.
* :func:`corruption_drill` proves the checks are not vacuous: a result
  tampered with :func:`repro.robust.chaos.corrupt_result` must fail.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.paper import golden
from repro.reachdefs import ReachingDefsResult

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Key length of ``expected.json`` entries (hex digits of a sha256).
KEY_LEN = 16

FLOW_SLOTS = ("In", "Out")
ALL_SLOTS = ("In", "Out", "ACCKillin", "ACCKillout", "ForkKill", "SynchPass")
_SLOT_FIELDS = {
    "ACCKillin": "acc_killin",
    "ACCKillout": "acc_killout",
    "ForkKill": "fork_kill",
    "SynchPass": "synch_pass",
}

#: Figure key → the golden table its fixpoint must reproduce.
GOLDEN_TABLES = {
    "fig1a": [golden.TABLE1_FIXPOINT],
    "fig6": [golden.FIG8_FIXPOINT],
    "fig3": [golden.FIG3_LOCAL, golden.FIG12_ITER2],
    "fig9": [
        {
            "6": {"In": golden.FIG9_JOIN_IN},
            "4": {"ACCKillout": golden.FIG9_POST_ACCKILLOUT},
        }
    ],
}


def rows_text(result: ReachingDefsResult, slots: Iterable[str] = FLOW_SLOTS) -> str:
    """Canonical text of ``result``'s rows (document order, sorted names);
    slots the result's system does not have are skipped."""
    present = [
        s for s in slots if s in FLOW_SLOTS or getattr(result, _SLOT_FIELDS[s]) is not None
    ]
    lines = []
    for node in result.graph.document_order():
        for slot in present:
            lines.append(f"{node.name} {slot} {' '.join(sorted(result.set_names(slot, node)))}")
    return "\n".join(lines)


def rows_digest(result: ReachingDefsResult) -> str:
    return hashlib.sha256(rows_text(result).encode("utf-8")).hexdigest()[:KEY_LEN]


def opportunities(report) -> List[int]:
    return list(report.opportunity_count().values())


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_ok(figure: Optional[str], result: ReachingDefsResult) -> bool:
    for table in GOLDEN_TABLES.get(figure, ()):
        for node, row in table.items():
            for col, want in row.items():
                if result.set_names(col, node) != want:
                    return False
    return True


class Checker:
    """Checks request outputs against ``expected.json`` and the goldens."""

    def __init__(self, expected: Optional[Dict[str, Dict[str, object]]] = None):
        self.expected = load_expected() if expected is None else expected

    def has(self, request) -> bool:
        return request.digest[:KEY_LEN] in self.expected

    def analyze_ok(self, request, result: ReachingDefsResult) -> bool:
        want = self.expected.get(request.digest[:KEY_LEN])
        return (
            want is not None
            and rows_digest(result) == want["rows"]
            and golden_ok(request.figure, result)
        )

    def optimize_ok(self, request, report) -> bool:
        want = self.expected.get(request.digest[:KEY_LEN])
        return (
            report.degradation is None
            and self.analyze_ok(request, report.result)
            and want["opps"] == opportunities(report)
        )


def corruption_drill(checker: Checker, request) -> bool:
    """True when a result with one observed definition removed from an
    ``In`` row (:func:`repro.robust.chaos.corrupt_result`) is rejected
    by the same check the requests pass."""
    from repro import analyze, parse_program
    from repro.interp.interp import run_program
    from repro.interp.scheduler import RandomScheduler
    from repro.robust.chaos import corrupt_result

    program = parse_program(request.source)
    result = analyze(program)
    run = run_program(program, scheduler=RandomScheduler(seed=0, max_loop_iters=2), graph=result.graph)
    tampered, _ = corrupt_result(result, run)
    return checker.analyze_ok(request, result) and not checker.analyze_ok(request, tampered)
