"""The repo benchmark: default ``analyze``/``optimize`` end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seq-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one process sends requests in a closed loop (the next
request only after the previous one returned): source text through the
public default-option calls ``repro.analyze``, ``repro.optimize`` and
``repro.incremental.incremental_analyze``.  Every request's output is
checked (``checks.py``).  ``--trace 0`` times requests untraced and
reports the end-to-end metrics, scaled to a nominal host speed measured
between requests (``speed.py``); ``--trace 1`` replays every request one
layer at a time (``spans.py``) and reports the per-layer split.  The
last line of standard output is one JSON object; a run record with the
workload manifest is written under ``.perfbench/`` (``compare.py``
compares two of them).  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

E2E_METRICS = {
    "analyze_rps": "req/s",
    "analyze_p50_ms": "ms",
    "analyze_p90_ms": "ms",
    "optimize_rps": "req/s",
    "optimize_p50_ms": "ms",
    "optimize_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Span name → per-layer time metric (sums of span self times, in ms).
SPAN_METRICS = {
    "lang.parse": "lang.parse_ms",
    "pfg.build": "pfg.build_ms",
    "pfg.validate": "pfg.validate_ms",
    "reachdefs.genkill": "genkill.ms",
    "reachdefs.preserved": "preserved.ms",
    "reachdefs.system": "system.init_ms",
    "dataflow.fixpoint": "dataflow.fixpoint_ms",
    "dataflow.sched": "dataflow.sched_ms",
    "reachdefs.result": "result.materialize_ms",
    "incremental.diff": "incremental.diff_ms",
    "incremental.analyze": "incremental.analyze_ms",
    "dataflow.cache": "cache.ms",
    "robust.degrade": "robust.degrade_ms",
}

COUNT_METRICS = (
    "lang.stmts",
    "pfg.nodes",
    "pfg.defs",
    "genkill.otherdefs_elems",
    "genkill.parallelkill_elems",
    "preserved.pairs",
    "dataflow.node_updates",
    "dataflow.passes",
    "dataflow.dense_regions",
    "result.elems",
    "analysis.opportunities",
    "incremental.regions_reused",
    "incremental.regions_resolved",
    "incremental.fallbacks",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "robust.degradations",
)

RATIO_METRICS = (
    "dataflow.useful_update_ratio",
    "incremental.reuse_ratio",
    "trace.unattributed_frac",
    "trace.overhead_frac",
)


def layer_metric_units():
    from spans import CLIENTS

    units = {name: "ms" for name in SPAN_METRICS.values()}
    units.update({f"analysis.{c}_ms": "ms" for c in CLIENTS})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "fraction" for name in RATIO_METRICS})
    return units


#: Fresh interpreters per run, each ``import repro`` plus a first request
#: on a paper figure (which pays the lazy imports): what every CLI call
#: pays.  ``speed.py`` is the probe they run.
SETUP_REPEATS = 7

#: p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
#: Runs stop adding passes after this long whatever the sample count.
HARD_LIMIT_S = 150.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup() -> float:
    """Median over fresh interpreters of their CPU time (user + system)
    less the probe's reference slices, scaled by the host speed those
    slices measured in the same interpreter."""
    import speed

    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = subprocess.run(
            [sys.executable, str(BENCH / "speed.py"), str(SRC)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        slices = sum(float(t) for t in out.stdout.split())
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        times.append((cpu - slices) * speed.NOMINAL_SLICE_S * 2 * speed.SETUP_SLICES / slices)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one pass over a workload, untraced ---------------------------------------


def _timed(fn, *args):
    from spans import clock

    t0 = clock()
    value = fn(*args)
    return value, clock() - t0


def _corpus_requests(requests, checker):
    """Yield ``(kind, seconds, ok)`` per request of one corpus pass.  Each
    request is a one-shot CLI call, so it starts from an empty cache."""
    from repro import analyze, optimize, parse_program
    from repro.dataflow.cache import GLOBAL_CACHE

    for req in requests:
        GLOBAL_CACHE.clear()
        try:
            result, dt = _timed(lambda s: analyze(parse_program(s)), req.source)
            yield "analyze", dt, checker.analyze_ok(req, result)
        except Exception:  # a raising request is a failed request
            yield "analyze", None, False
        if req.optimize:
            GLOBAL_CACHE.clear()
            try:
                report, dt = _timed(optimize, req.source)
                yield "optimize", dt, checker.optimize_ok(req, report)
            except Exception:
                yield "optimize", None, False


def _open_session(chain, opened):
    """Open an edit session on ``chain``: an empty cache and a collected
    heap, as a fresh editor process has, and the full ``analyze`` of the
    opening version retained as the base.  Every chain of a base opens
    the same version, so ``opened`` keeps that analysis between chains."""
    from repro import analyze, parse_program
    from repro.dataflow.cache import GLOBAL_CACHE
    from repro.incremental import store_base

    source = chain.versions[0].source
    if source not in opened:
        program = parse_program(source)
        opened[source] = (program, analyze(program))
    GLOBAL_CACHE.clear()
    gc.collect()
    return store_base(*opened[source]).digest


def _edit_requests(chains, checker, opened):
    from repro import optimize, parse_program
    from repro.incremental import incremental_analyze, lookup_base

    def edit(source, base_digest):
        return incremental_analyze(lookup_base(base_digest), parse_program(source))

    for chain in chains:
        base_digest = _open_session(chain, opened)
        for req in chain.versions[1:]:
            try:
                outcome, dt = _timed(edit, req.source, base_digest)
                base_digest = outcome.result.graph.program_digest
                yield "analyze", dt, checker.analyze_ok(req, outcome.result)
            except Exception:
                yield "analyze", None, False
            try:
                report, dt = _timed(optimize, req.source)
                yield "optimize", dt, checker.optimize_ok(req, report)
            except Exception:
                yield "optimize", None, False


def _new_pass() -> None:
    """Every pass starts from an empty cache and a collected heap, as a
    fresh process would."""
    from repro.dataflow.cache import GLOBAL_CACHE

    GLOBAL_CACHE.clear()
    gc.collect()


def _done(start: float, unit_start: float, seconds: float, samples: int, min_samples: int) -> bool:
    """A run stops once ``samples`` reached ``min_samples`` and another
    unit as long as the last one would end past ``seconds`` (or at the
    hard limit)."""
    now = time.perf_counter()
    elapsed, last_unit = now - start, now - unit_start
    return elapsed >= HARD_LIMIT_S or (samples >= min_samples and elapsed + last_unit > seconds)


def _units(workload, inputs):
    """What an untraced run may stop between: a whole corpus pass, or one
    edit chain (a pass of ``edit-session`` is long, and its chains take
    the bases in turn, so a partial pass still loads them alike)."""
    return [[chain] for chain in inputs] if workload == "edit-session" else [inputs]


def _warm_up() -> None:
    """Pay the lazy imports before timing (``setup_s`` reports them)."""
    from repro import analyze, optimize, parse_program
    from repro.paper.programs import SOURCES

    analyze(parse_program(SOURCES["fig1b"]))
    optimize(SOURCES["fig1b"])


def run_untraced(workload, inputs, checker, seconds):
    """Untraced passes for ``seconds``; request times are scaled to the
    nominal host speed (``speed.py``) before the percentiles are taken."""
    from speed import Normalizer

    latencies = {"analyze": [], "optimize": []}
    normalized = Normalizer(latencies)
    attempted = failed = 0
    opened = {}
    start = time.perf_counter()
    done = False
    while not done:
        _new_pass()
        for unit in _units(workload, inputs):
            unit_start = time.perf_counter()
            gen = (
                _edit_requests(unit, checker, opened)
                if workload == "edit-session"
                else _corpus_requests(unit, checker)
            )
            for kind, dt, ok in gen:
                attempted += 1
                if ok:
                    normalized.add(kind, dt)
                else:
                    failed += 1
            samples = min(len(v) for v in latencies.values())
            if _done(start, unit_start, seconds, samples, MIN_SAMPLES):
                done = True
                break
    normalized.flush()
    metrics = {}
    for kind, values in latencies.items():
        metrics[f"{kind}_samples"] = len(values)
        if not values:  # every request failed; the run reports correct: false
            values = [0.0]
        metrics[f"{kind}_rps"] = len(values) / sum(values) if sum(values) else 0.0
        metrics[f"{kind}_p50_ms"] = statistics.median(values) * 1e3
        metrics[f"{kind}_p90_ms"] = percentile(values, 0.9) * 1e3
    return metrics, attempted, failed


# -- one pass over a workload, traced -------------------------------------------


def _count(result, counts):
    """Add one request's deterministic work counts."""
    info = result.info
    stats = result.stats
    counts["lang.stmts"] += sum(1 for _ in result.graph.source_program.walk())
    counts["pfg.nodes"] += len(result.graph)
    counts["pfg.defs"] += len(result.graph.defs)
    counts["genkill.otherdefs_elems"] += sum(len(s) for s in info.other_defs.values())
    counts["genkill.parallelkill_elems"] += sum(len(s) for s in info.parallel_kill.values())
    if result.preserved is not None:
        counts["preserved.pairs"] += sum(len(s) for s in result.preserved.preserved.values())
    counts["dataflow.node_updates"] += stats.node_updates
    counts["dataflow.changed_updates"] += stats.changed_updates
    counts["dataflow.passes"] += stats.passes
    counts["dataflow.dense_regions"] += stats.dense_regions
    for rows in (result.in_sets, result.out_sets, result.acc_killin, result.acc_killout, result.fork_kill):
        if rows is not None:
            counts["result.elems"] += sum(len(s) for s in rows.values())


def _same(a, b) -> bool:
    """Replay composition: byte-identical rows and the same dispatch."""
    from checks import ALL_SLOTS, rows_text

    return (
        rows_text(a, ALL_SLOTS) == rows_text(b, ALL_SLOTS)
        and a.stats.order == b.stats.order
        and a.stats.node_updates == b.stats.node_updates
    )


def traced_pass(workload, inputs, checker, rec):
    """One traced pass: each request runs untraced (checked, timed) and is
    then replayed under spans; returns per-pass sums and request tallies."""
    from collections import Counter

    from repro import analyze, optimize, parse_program
    from repro.dataflow.cache import GLOBAL_CACHE
    from repro.incremental import incremental_analyze, lookup_base

    import spans
    from checks import opportunities

    counts = Counter()
    untraced = 0.0
    attempted = failed = 0
    first_span = len(rec.spans)

    def request(kind, run_plain, replay, check, compare):
        nonlocal untraced, attempted, failed
        attempted += 1
        replayed = None
        if workload != "edit-session":
            GLOBAL_CACHE.clear()
        try:
            plain, dt = _timed(run_plain)
            untraced += dt
            cache_before = (GLOBAL_CACHE.hits, GLOBAL_CACHE.misses, GLOBAL_CACHE.evictions)
            rec.request = attempted
            with rec.span(f"request.{kind}"):
                replayed = replay()
            counts["cache.hits"] += GLOBAL_CACHE.hits - cache_before[0]
            counts["cache.misses"] += GLOBAL_CACHE.misses - cache_before[1]
            counts["cache.evictions"] += GLOBAL_CACHE.evictions - cache_before[2]
            ok = check(plain) and compare(plain, replayed)
        except spans.Degraded:
            counts["robust.degradations"] += 1
            ok = False
        except Exception:  # a raising request is a failed request
            ok = False
        finally:
            rec.request = None
        if not ok:
            failed += 1
        return replayed

    def optimize_request(req):
        if not req.optimize:
            return
        report = request(
            "optimize",
            lambda: optimize(req.source),
            lambda: spans.replay_optimize(rec, req.source),
            lambda r: checker.optimize_ok(req, r),
            lambda a, b: _same(a.result, b.result) and opportunities(a) == opportunities(b),
        )
        if report is not None:
            _count(report.result, counts)
            counts["analysis.opportunities"] += sum(opportunities(report))

    if workload == "edit-session":
        opened = {}
        for chain in inputs:
            base_digest = _open_session(chain, opened)
            for req in chain.versions[1:]:
                outcome = request(
                    "analyze",
                    lambda: incremental_analyze(lookup_base(base_digest), parse_program(req.source)),
                    lambda: spans.replay_edit(rec, req.source, base_digest),
                    lambda o: checker.analyze_ok(req, o.result),
                    lambda a, b: _same(a.result, b.result),
                )
                if outcome is not None:
                    base_digest = outcome.result.graph.program_digest
                    _count(outcome.result, counts)
                    counts["incremental.regions_reused"] += outcome.regions_reused
                    counts["incremental.regions_resolved"] += outcome.regions_solved
                    counts["incremental.fallbacks"] += outcome.fallback is not None
                optimize_request(req)
    else:
        for req in inputs:
            result = request(
                "analyze",
                lambda: analyze(parse_program(req.source)),
                lambda: spans.replay_analyze(rec, rec.call("lang.parse", parse_program, req.source)),
                lambda r: checker.analyze_ok(req, r),
                _same,
            )
            if result is not None:
                _count(result, counts)
            optimize_request(req)

    pass_spans = rec.spans[first_span:]
    own = spans.self_times(pass_spans)
    layer = {name: 0.0 for name in layer_metric_units()}
    roots = [s for s in pass_spans if s["parent"] is None]
    root_total = sum(s["end"] - s["start"] for s in roots)
    for s in pass_spans:
        if s["parent"] is None:
            continue
        metric = SPAN_METRICS.get(s["name"]) or f"{s['name']}_ms"
        layer[metric] += own[s["id"]] * 1e3
        if s["name"] == "dataflow.sched":
            layer["dataflow.fixpoint_ms"] += own[s["id"]] * 1e3
    for name in COUNT_METRICS:
        layer[name] = counts[name]
    updates = counts["dataflow.node_updates"]
    layer["dataflow.useful_update_ratio"] = counts["dataflow.changed_updates"] / updates if updates else 0.0
    regions = counts["incremental.regions_reused"] + counts["incremental.regions_resolved"]
    layer["incremental.reuse_ratio"] = counts["incremental.regions_reused"] / regions if regions else 0.0
    layer["trace.unattributed_frac"] = sum(own[s["id"]] for s in roots) / root_total if roots else 0.0
    layer["trace.overhead_frac"] = (root_total - untraced) / untraced if untraced else 0.0
    return layer, attempted, failed


def run_traced(workload, inputs, checker, seconds):
    """Traced passes for ``seconds``; each metric is the median over
    passes of the per-pass sum (counts repeat exactly from pass to pass)."""
    import spans

    rec = spans.Recorder()
    per_pass = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        _new_pass()
        layer, a, f = traced_pass(workload, inputs, checker, rec)
        per_pass.append(layer)
        attempted += a
        failed += f
        if _done(start, pass_start, seconds, len(per_pass), 1):
            break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, attempted, failed, rec.spans


# -- run records -----------------------------------------------------------------


def source_tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def manifest(workload: str, seed: int):
    import corpus

    programs = corpus.manifest_programs(workload, seed)
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "source_digest": source_tree_digest(),
        "python": platform.python_version(),
        "workload_digest": corpus.workload_digest(programs),
        "programs": programs,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import corpus
    from checks import Checker, corruption_drill

    checker = Checker()
    inputs = (
        corpus.edit_session(seed) if workload == "edit-session" else corpus.corpus(workload, seed)
    )
    missing = [r.name for r in corpus.requests_of(workload, seed) if not checker.has(r)]
    if missing:
        print(f"error: no frozen expectation for {', '.join(missing)}", file=sys.stderr)
        return 2
    drill_detected = corruption_drill(checker, corpus.figure_request("fig6"))

    _warm_up()
    if trace:
        metrics, attempted, failed, recorded = run_traced(workload, inputs, checker, seconds)
        units = layer_metric_units()
    else:
        setup = measure_setup()
        metrics, attempted, failed = run_untraced(workload, inputs, checker, seconds)
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = E2E_METRICS
        recorded = None

    correct = failed == 0 and drill_detected
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  requests {attempted}")
    if not trace:
        for kind in ("analyze", "optimize"):
            print(f"# {kind} samples: {metrics[kind + '_samples']}")
    print(f"{workload:14s} {'error_rate':34s} {failed / attempted:12.6f} fraction")
    print(f"{workload:14s} {'corruption_drill_detected':34s} {str(drill_detected):>12s}")
    for name, unit in units.items():
        print(f"{workload:14s} {name:34s} {metrics[name]:12.4f} {unit}")

    record = {
        "manifest": manifest(workload, seed),
        "trace": int(trace),
        "seconds": seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "corruption_drill_detected": drill_detected,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if recorded is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for s in recorded:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, one fresh process each (peak RSS is per process)."""
    import corpus

    status = 0
    for workload in corpus.WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        ok = out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus

    if args.workload == "all":
        return run_all(args)
    if args.workload not in corpus.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(corpus.WORKLOAD_NAMES)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
