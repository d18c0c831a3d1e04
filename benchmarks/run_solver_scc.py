"""Record (or check) the SCC-scheduled solver's update-count trajectory.

Runs each workload under every registered solver with the analysis cache
disabled and writes ``benchmarks/BENCH_solver_scc.json``: per
(workload, solver) the deterministic ``SolveStats`` record — update and
pass counts, convergence, order tag — plus a wall-clock minimum over
repeats that is recorded for context but never compared.

``--check`` re-runs the workloads, compares every deterministic field
against the checked-in file, and enforces two perf gates:

* **update gate** — on the three key workloads (``chain800``,
  ``diamonds160``, ``nested12``) the scc solver must need at most half
  of round-robin's node updates;
* **wide-cyclic gate** — on ``pdloop12x18`` and ``pdloop16x24`` (one
  large SCC through the §5 kill layer, where the stabilized convergence
  checks run once per round over every row), under both ``scc`` and
  ``stabilized``: node updates match :data:`WIDE_CYCLIC_UPDATES`, the
  fixpoint decodes no row to a frozenset (counted by wrapping the
  system's backend), and its CPU time is at most
  :data:`WIDE_CYCLIC_MAX_RATIO` of one frozenset decode of every final
  row, timed in the same run.  A convergence check that decodes rows
  costs several decodes per solve and fails the ratio.

CI runs this mode; regenerate the file with the bare command after any
change that legitimately moves the counts (the wide-cyclic rows are
checked live and not recorded).

Run:    PYTHONPATH=src python benchmarks/run_solver_scc.py [OUT.json]
Check:  PYTHONPATH=src python benchmarks/run_solver_scc.py --check
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.dataflow.cache import GLOBAL_CACHE
from repro.dataflow.framework import FixpointDiverged
from repro.pfg import build_pfg
from repro.reachdefs.parallel import ParallelRDSystem, run_solver
from repro.synthetic import (
    chain,
    diamond_chain,
    fig3_repeated,
    loop_nest,
    nested_parallel,
    par_diamond_loop,
    random_mix,
    sync_pipeline,
    wide_parallel,
)

REPEATS = 3
SOLVERS = ("round-robin", "worklist", "stabilized", "scc")

#: The acceptance gate: scc must at least halve round-robin's updates here.
KEY_WORKLOADS = ("chain800", "diamonds160", "nested12")

WORKLOADS = {
    "chain800": lambda: chain(800),
    "diamonds160": lambda: diamond_chain(160),
    "nested12": lambda: nested_parallel(12),
    "wide8x6": lambda: wide_parallel(8, 6),
    "loopnest3": lambda: loop_nest(3),
    "syncpipe10": lambda: sync_pipeline(10),
    "fig3x4": lambda: fig3_repeated(4),
    "mix300": lambda: random_mix(seed=21, n_stmts=300),
}


#: The wide-cyclic gate's workloads and their pinned node updates.
WIDE_CYCLIC = {
    "pdloop12x18": lambda: par_diamond_loop(12, 18),
    "pdloop16x24": lambda: par_diamond_loop(16, 24),
}
WIDE_CYCLIC_UPDATES = {
    ("pdloop12x18", "scc"): 13533,
    ("pdloop12x18", "stabilized"): 13575,
    ("pdloop16x24", "scc"): 23793,
    ("pdloop16x24", "stabilized"): 23835,
}
#: Fixpoint CPU time over the CPU time of one decode of every final row.
#: Raw-value convergence checks measure 0.07-0.2; decoding every row on
#: every round measured 3.0-3.8 (Python 3.11, one x86-64 core).
WIDE_CYCLIC_MAX_RATIO = 0.5


def wide_cyclic_gate() -> list:
    """Failures of the wide-cyclic gate (see module docstring)."""
    failures = []
    for name, make in WIDE_CYCLIC.items():
        graph = build_pfg(make())
        for solver in ("scc", "stabilized"):
            system = ParallelRDSystem(graph)
            ops = system.ops
            decodes = 0

            def counting(value, decode=ops.to_frozenset):
                nonlocal decodes
                decodes += 1
                return decode(value)

            ops.to_frozenset = counting
            solve_s = []
            for _ in range(REPEATS):
                t0 = time.process_time()
                stats = run_solver(system, graph, "document", solver, False)
                solve_s.append(time.process_time() - t0)
            solve_decodes = decodes
            decode_s = []
            for _ in range(REPEATS):
                t0 = time.process_time()
                system.snapshot()
                decode_s.append(time.process_time() - t0)
            ratio = min(solve_s) / min(decode_s)
            want = WIDE_CYCLIC_UPDATES[(name, solver)]
            cell = f"{name}/{solver}"
            if stats.node_updates != want:
                failures.append(f"{cell}: {stats.node_updates} node updates, pinned {want}")
            if solve_decodes:
                failures.append(f"{cell}: fixpoint decoded {solve_decodes} rows to frozensets")
            if ratio > WIDE_CYCLIC_MAX_RATIO:
                failures.append(
                    f"{cell}: fixpoint {min(solve_s):.3f}s is {ratio:.2f}x one decode of "
                    f"every row ({min(decode_s):.3f}s), need <= {WIDE_CYCLIC_MAX_RATIO}x"
                )
            print(
                f"{cell}: {stats.node_updates} updates, {solve_decodes} decodes, "
                f"fixpoint {ratio:.2f}x a full decode"
            )
    return failures


def measure() -> dict:
    """Deterministic stats + context-only timing for every cell."""
    out = {}
    for name, make in sorted(WORKLOADS.items()):
        prog = make()
        cells = {}
        for solver in SOLVERS:
            best = None
            record = None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                try:
                    result = analyze(prog, solver=solver, cache=False)
                except FixpointDiverged:
                    # Honest outcome of the literal synch equations under
                    # chaotic iteration; deterministic, so record it.
                    record = {"diverged": True}
                    break
                elapsed = time.perf_counter() - t0
                best = elapsed if best is None else min(best, elapsed)
                record = result.stats.as_dict()
            if "diverged" not in record:
                record["time_s"] = round(best, 6)
            cells[solver] = record
        out[name] = cells
    return out


def deterministic(cells: dict) -> dict:
    """The comparable half of a measurement: everything but wall-clock."""
    return {
        name: {
            solver: {k: v for k, v in rec.items() if k != "time_s"}
            for solver, rec in solvers.items()
        }
        for name, solvers in cells.items()
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    fresh = measure()
    failures = []
    want, got = deterministic(recorded["workloads"]), deterministic(fresh)
    for name in sorted(WORKLOADS):
        for solver in SOLVERS:
            if want.get(name, {}).get(solver) != got[name][solver]:
                failures.append(
                    f"{name}/{solver}: recorded {want.get(name, {}).get(solver)!r}"
                    f" != measured {got[name][solver]!r}"
                )
    for name in KEY_WORKLOADS:
        rr = got[name]["round-robin"]["node_updates"]
        scc = got[name]["scc"]["node_updates"]
        if scc * 2 > rr:
            failures.append(
                f"{name}: perf gate broken — scc {scc} updates vs"
                f" round-robin {rr} (need <= {rr // 2})"
            )
        else:
            print(f"{name}: scc {scc} vs round-robin {rr} updates ({rr / scc:.1f}x)")
    failures += wide_cyclic_gate()
    if failures:
        print(f"\nFAIL: {len(failures)} mismatch(es) vs {path}:")
        for f in failures:
            print(f"  - {f}")
        print("\nRegenerate with: PYTHONPATH=src python benchmarks/run_solver_scc.py")
        return 1
    print(
        f"OK: {path} in sync, update gate holds on {', '.join(KEY_WORKLOADS)}, "
        f"wide-cyclic gate holds on {', '.join(WIDE_CYCLIC)}"
    )
    return 0


def write(path: Path) -> int:
    payload = {
        "meta": {
            "source": "benchmarks/run_solver_scc.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "note": "time_s is context only; --check compares the rest",
        },
        "workloads": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    n = sum(len(v) for v in payload["workloads"].values())
    print(f"wrote {n} (workload, solver) records to {path}")
    return 0


def main(argv: list[str]) -> int:
    GLOBAL_CACHE.enabled = False  # measure real solves, never cache hits
    default = Path(__file__).parent / "BENCH_solver_scc.json"
    if "--check" in argv:
        return check(default)
    return write(Path(argv[0]) if argv else default)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
