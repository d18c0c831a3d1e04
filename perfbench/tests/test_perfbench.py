"""Self-tests of the repo benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from checks import KEY_LEN, Checker, corruption_drill  # noqa: E402
from repro import analyze, parse_program  # noqa: E402
from repro.incremental import incremental_analyze, lookup_base, store_base  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_workload_digests():
    for workload in corpus.WORKLOAD_NAMES:
        first = corpus.manifest_programs(workload, 7)
        assert first == corpus.manifest_programs(workload, 7)
        assert corpus.workload_digest(first) != corpus.workload_digest(
            corpus.manifest_programs(workload, 8)
        )


def test_metric_names_are_well_formed_and_declared():
    names = set(run.E2E_METRICS) | set(run.layer_metric_units())
    assert all(NAME.fullmatch(n) for n in names)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["end_to_end"]} == set(run.E2E_METRICS)
    assert {m["name"] for m in declared["per_layer"]} == set(run.layer_metric_units())
    assert [w["name"] for w in declared["workloads"]] == list(corpus.WORKLOAD_NAMES)


def _small_inputs(workload):
    if workload == "edit-session":
        return [
            corpus.EditChain(c.name, c.versions[:3]) for c in corpus.edit_session(3)
        ]
    requests = corpus.corpus(workload, 3)[:6]
    if workload == "par-corpus":
        requests.append(corpus.figure_request("fig9"))
    return requests


def test_layer_self_times_fit_in_request_span_and_replay_composes():
    checker = Checker()
    for workload in corpus.WORKLOAD_NAMES:
        rec = spans.Recorder()
        layer, attempted, failed = run.traced_pass(
            workload, _small_inputs(workload), checker, rec
        )
        assert attempted > 0 and failed == 0, workload
        own = spans.self_times(rec.spans)
        roots = [s for s in rec.spans if s["parent"] is None]
        assert roots and all(s["name"].startswith("request.") for s in roots)
        for root in roots:
            children = [
                own[s["id"]]
                for s in rec.spans
                if s["request"] == root["request"] and s["parent"] is not None
            ]
            assert sum(children) <= root["end"] - root["start"] + 1e-9
        if workload == "seq-corpus":
            assert layer["preserved.ms"] == 0 and layer["preserved.pairs"] == 0
        if workload != "edit-session":
            assert layer["incremental.analyze_ms"] == 0 and layer["dataflow.sched_ms"] == 0


def test_edit_session_sync_chain_falls_back_and_parallel_chain_reuses():
    outcomes = {}
    for chain in corpus.edit_session(5):
        program = parse_program(chain.versions[0].source)
        digest = store_base(program, analyze(program)).digest
        for version in chain.versions[1:]:
            out = incremental_analyze(lookup_base(digest), parse_program(version.source))
            digest = out.result.graph.program_digest
            outcomes.setdefault(chain.name, []).append(out)
    assert all(o.fallback == "sync" for o in outcomes["fig3x4"])
    assert sum(o.regions_reused for o in outcomes["plchain6x5"]) > 0


def test_corrupted_result_is_counted_as_failure():
    assert corruption_drill(Checker(), corpus.figure_request("fig6"))


def test_wrong_outputs_count_as_failed_requests():
    inputs = corpus.corpus("seq-corpus", 3)[:2]
    wrong = {r.digest[:KEY_LEN]: {"rows": "0", "opps": []} for r in inputs}
    rec = spans.Recorder()
    _, attempted, failed = run.traced_pass("seq-corpus", inputs, Checker(wrong), rec)
    assert attempted == failed == 4


def test_compare_refuses_differing_workload_digests():
    def record(seed):
        programs = corpus.manifest_programs("seq-corpus", seed)
        return {
            "trace": 0,
            "manifest": {
                "workload": "seq-corpus",
                "seed": seed,
                "workload_digest": corpus.workload_digest(programs),
            },
        }

    assert compare.comparable(record(1), record(1)) is None
    assert "digests differ" in compare.comparable(record(1), record(2))


def test_normalizer_scales_each_window_by_its_reference_speed(monkeypatch):
    slow = iter([2 * speed.NOMINAL_SLICE_S] * speed.WINDOW + [speed.NOMINAL_SLICE_S] * 3)
    monkeypatch.setattr(speed, "reference_slice", lambda: next(slow))
    latencies = {"analyze": [], "optimize": []}
    norm = speed.Normalizer(latencies)
    for _ in range(speed.WINDOW + 3):
        norm.add("analyze", 0.010)
    norm.flush()
    assert latencies["analyze"] == [0.005] * speed.WINDOW + [0.010] * 3
