"""CLI tests (in-process, via main())."""

import pytest

from repro.tools.cli import main

GOOD = """program demo
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.pcf"
    path.write_text(GOOD)
    return str(path)


def test_parse_roundtrips(program_file, capsys):
    assert main(["parse", program_file]) == 0
    out = capsys.readouterr().out
    assert "program demo" in out and "(3) x = 2" in out


def test_graph_describe(program_file, capsys):
    assert main(["graph", program_file]) == 0
    out = capsys.readouterr().out
    assert "[2:fork]" in out


def test_graph_dot(program_file, capsys):
    assert main(["graph", program_file, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_analyze_prints_table_and_anomalies(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    out = capsys.readouterr().out
    assert "parallel reaching definitions" in out
    assert "ACCKillout" in out
    assert "converged" in out


def test_run_prints_final_values(program_file, capsys):
    assert main(["run", program_file, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "x : 2" in out


def test_tables_named(capsys):
    assert main(["tables", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_tables_all(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Figure 8" in out and "digraph" in out


def test_tables_unknown_name(capsys):
    assert main(["tables", "fig99"]) == 2
    assert "unknown artifact" in capsys.readouterr().err


def test_parse_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.pcf"
    bad.write_text("program p\nx = = 1\nend\n")
    assert main(["parse", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_reported(capsys):
    assert main(["parse", "/nonexistent/file.pcf"]) == 1
    assert "error" in capsys.readouterr().err


def test_cssa_command(program_file, capsys):
    assert main(["cssa", program_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CSSA form of demo")
    assert "ψ(" in out


def test_report_command(program_file, capsys):
    assert main(["report", program_file]) == 0
    out = capsys.readouterr().out
    assert "optimization report for 'demo'" in out
    assert "safety:" in out and "opportunities:" in out


def test_report_preserved_flag(program_file, capsys):
    assert main(["report", program_file, "--preserved", "none"]) == 0
    assert "optimization report" in capsys.readouterr().out


def test_report_trace_prints_phase_tree(program_file, capsys):
    assert main(["report", program_file, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "optimization report" in out
    assert "phase-time tree" in out
    assert "timings:" in out  # report render gains the timings section
    for phase in ("parse", "pfg-build", "solve", "client:constprop"):
        assert phase in out, phase


def test_report_untraced_has_no_timings(program_file, capsys):
    assert main(["report", program_file]) == 0
    out = capsys.readouterr().out
    assert "timings:" not in out and "phase-time tree" not in out


def test_report_profile_writes_jsonl(program_file, capsys, tmp_path):
    import json

    out_path = tmp_path / "profile.jsonl"
    assert main(["report", program_file, "--profile", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert records[0]["type"] == "meta" and records[0]["schema"] == "repro-obs/1"
    assert records[0]["command"] == "report"
    spans = {r["name"] for r in records if r["type"] == "span"}
    assert {"parse", "pfg-build", "solve", "pass"} <= spans
    assert any(name.startswith("client:") for name in spans)
    assert "wrote" in capsys.readouterr().err


def test_analyze_trace(program_file, capsys):
    assert main(["analyze", program_file, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "reaching definitions" in out and "phase-time tree" in out


def test_run_trace_shows_interp_span(program_file, capsys):
    assert main(["run", program_file, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "interp.run" in out and "interp.steps" in out


def test_stats_command(program_file, capsys):
    assert main(["stats", program_file]) == 0
    out = capsys.readouterr().out
    assert "pipeline stats for 'demo'" in out
    assert "phase-time tree" in out
    for phase in ("parse", "pfg-build", "solve", "interp.run"):
        assert phase in out, phase
    assert "bitset.ops" in out  # stats enables op counting


def test_stats_no_run_skips_interpreter(program_file, capsys):
    assert main(["stats", program_file, "--no-run"]) == 0
    out = capsys.readouterr().out
    assert "interp.run" not in out


def test_stats_profile(program_file, capsys, tmp_path):
    import json

    out_path = tmp_path / "stats.jsonl"
    assert main(["stats", program_file, "--profile", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert any(r["type"] == "counter" for r in records)


# -- exit-code contract (documented in the CLI module docstring) ----------

SYNC_SRC = """program sync
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section producer
      (3) data = x + 1
      (3) post(ready)
    (4) section consumer
      (4) wait(ready)
      (4) y = data
  (5) end parallel sections
  (5) z = y
end program
"""

DEADLOCK_SRC = """program dl
  event e
  (1) a = 1
  (2) parallel sections
    (3) section one
      (3) wait(e)
      (3) b = a
    (4) section two
      (4) c = 2
  (5) end parallel sections
end program
"""


@pytest.fixture
def sync_file(tmp_path):
    path = tmp_path / "sync.pcf"
    path.write_text(SYNC_SRC)
    return str(path)


def test_analyze_budget_exhaustion_exits_2(sync_file, capsys):
    """Regression for silent non-convergence: an exhausted budget must be
    a loud, typed failure — distinct exit code plus an error: line."""
    assert main(["analyze", sync_file, "--max-passes", "1"]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: analysis did not converge:")
    assert "pass budget 1 exceeded" in err
    assert "passes" in err and "updates" in err  # stats detail, not just "failed"


def test_analyze_generous_budget_is_fine(sync_file, capsys):
    assert main(["analyze", sync_file, "--max-passes", "500"]) == 0
    assert "converged" in capsys.readouterr().out


def test_report_degrades_instead_of_failing(sync_file, capsys):
    assert main(["report", sync_file, "--max-passes", "1"]) == 0
    out = capsys.readouterr().out
    assert "degradation: degraded to level 2 (conservative)" in out


def test_report_no_degrade_exits_2(sync_file, capsys):
    assert main(["report", sync_file, "--max-passes", "1", "--no-degrade"]) == 2
    assert "error: analysis did not converge" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["check", "no-such-file.pcf"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_os_error_exits_1(tmp_path, capsys):
    # Reading a directory raises IsADirectoryError (an OSError).
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invariant_violation_exits_3(program_file, capsys, monkeypatch):
    from repro.pfg.validate import PFGInvariantError
    from repro.tools import cli

    def boom(*args, **kwargs):
        raise PFGInvariantError(["fork (2) without matching join"])

    monkeypatch.setattr(cli, "_analyze", boom)
    assert main(["analyze", program_file]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: graph invariant violation:")
    assert "fork (2)" in err


def test_runtime_error_exits_2(program_file, capsys, monkeypatch):
    from repro.tools import cli

    def boom(*args, **kwargs):
        raise RuntimeError("snapshot cap exceeded")

    monkeypatch.setattr(cli, "_analyze", boom)
    assert main(["analyze", program_file]) == 2
    assert "error: snapshot cap exceeded" in capsys.readouterr().err


# -- check command ---------------------------------------------------------


def test_check_passes_on_sound_program(sync_file, capsys):
    assert main(["check", sync_file, "--runs", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("self-check PASS: 3 runs against the synch system")


def test_check_reports_degradation(tmp_path, capsys):
    path = tmp_path / "dl.pcf"
    path.write_text(DEADLOCK_SRC)
    assert main(["check", str(path), "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "wait-without-post" in out  # ladder provenance is surfaced
    assert "deadlocked under seed(s)" in out


def test_check_detects_tampered_result(tmp_path, capsys, monkeypatch):
    """End-to-end corruption detection: a tampered analysis makes
    ``repro check`` exit 2 with an error: line."""
    import repro.robust.selfcheck as selfcheck_mod
    from repro import analyze
    from repro.interp import RandomScheduler, run_program
    from repro.robust import corrupt_result

    def tampered_analysis(program, **kwargs):
        sound = analyze(program)
        probe = run_program(
            program, RandomScheduler(seed=0, max_loop_iters=2), graph=sound.graph
        )
        tampered, _ = corrupt_result(sound, probe, seed=0)
        return tampered, None

    monkeypatch.setattr(selfcheck_mod, "analyze_with_degradation", tampered_analysis)
    path = tmp_path / "sync.pcf"
    path.write_text(SYNC_SRC)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert "self-check FAIL" in captured.out
    assert "escaped the static sets" in captured.err


# -- run: deadlock surface -------------------------------------------------


def test_run_reports_deadlock_with_blocked_events(tmp_path, capsys):
    """A deadlocked run must be loud on stdout AND in the exit code (4,
    the documented dynamic-failure code) — CI cannot scrape stdout."""
    path = tmp_path / "dl.pcf"
    path.write_text(DEADLOCK_SRC)
    assert main(["run", str(path)]) == 4
    out = capsys.readouterr().out
    assert "DEADLOCK (blocked on: e)" in out
    assert "a : 1" in out  # final values still printed for post-mortems


def test_run_clean_program_still_exits_0(program_file, capsys):
    assert main(["run", program_file]) == 0
    assert "DEADLOCK" not in capsys.readouterr().out


def test_profile_written_even_when_analysis_fails(sync_file, tmp_path, capsys):
    """Regression: the --profile JSONL used to be written only after a
    clean run — a budget trip lost the trace exactly when a post-mortem
    needed it.  It must now be exported with the failure stamped."""
    import json

    out_path = tmp_path / "fail.jsonl"
    assert main(["analyze", sync_file, "--max-passes", "1", "--profile", str(out_path)]) == 2
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    meta = records[0]
    assert meta["type"] == "meta" and meta["schema"] == "repro-obs/1"
    assert meta["failure"].startswith("BudgetExceeded:")
    assert "pass budget 1 exceeded" in meta["failure"]
    # The session still carries real content: counters at minimum.
    assert any(r["type"] == "counter" for r in records)
    assert "wrote" in capsys.readouterr().err


def test_profile_on_success_has_no_failure_stamp(program_file, tmp_path):
    import json

    out_path = tmp_path / "ok.jsonl"
    assert main(["analyze", program_file, "--profile", str(out_path)]) == 0
    meta = json.loads(out_path.read_text().splitlines()[0])
    assert "failure" not in meta


# -- graph/cssa go through the PFG cache -----------------------------------


def test_graph_command_populates_pfg_cache(program_file):
    from repro.dataflow.cache import GLOBAL_CACHE

    assert len(GLOBAL_CACHE) == 0
    assert main(["graph", program_file]) == 0
    assert len(GLOBAL_CACHE) == 1  # ("pfg", digest) entry landed


def test_cssa_command_counts_cache_metrics(program_file):
    from repro import obs
    from repro.dataflow.cache import GLOBAL_CACHE

    with obs.session() as sess:
        assert main(["cssa", program_file]) == 0
    assert len(GLOBAL_CACHE) == 1
    counters = sess.metrics.as_dict()["counters"]
    assert counters["cache.pfg.misses"] == 1  # counted, not bypassed


# -- batch command ---------------------------------------------------------


def test_batch_all_ok_exits_0(program_file, sync_file, capsys):
    assert main(["batch", program_file, sync_file]) == 0
    out = capsys.readouterr().out
    assert "batch summary: 2 task(s)" in out
    assert "2 ok" in out


def test_batch_glob_expansion(tmp_path, capsys):
    (tmp_path / "a.pcf").write_text(GOOD)
    (tmp_path / "b.pcf").write_text(SYNC_SRC)
    assert main(["batch", str(tmp_path / "*.pcf")]) == 0
    assert "2 task(s)" in capsys.readouterr().out


def test_batch_manifest_input(tmp_path, program_file, capsys):
    listing = tmp_path / "list.txt"
    listing.write_text(f"# corpus\n{program_file}\n\n{program_file}\n")  # dup deduped
    assert main(["batch", "--manifest", str(listing)]) == 0
    assert "1 task(s)" in capsys.readouterr().out


def test_batch_no_inputs_exits_1(capsys):
    assert main(["batch"]) == 1
    assert "error: no input programs" in capsys.readouterr().err


def test_batch_unmatched_glob_exits_1(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "*.pcf")]) == 1
    assert "matched no files" in capsys.readouterr().err


def test_batch_missing_manifest_exits_1(tmp_path, capsys):
    assert main(["batch", "--manifest", str(tmp_path / "nope.txt")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_batch_bad_task_recorded_not_fatal(tmp_path, program_file, capsys):
    bad = tmp_path / "bad.pcf"
    bad.write_text("program p\nx = = 1\nend\n")
    out_path = tmp_path / "batch.jsonl"
    assert main(["batch", program_file, str(bad), "--out", str(out_path)]) == 2
    out = capsys.readouterr().out
    assert "1 error" in out and "1 ok" in out  # healthy task completed
    from repro.batch import read_manifest

    records = read_manifest(out_path)
    tasks = [r for r in records if r["type"] == "task"]
    assert {t["status"] for t in tasks} == {"ok", "error"}
    assert records[-1]["type"] == "summary" and records[-1]["exit_code"] == 2


def test_batch_profile_merges_worker_counters(program_file, sync_file, tmp_path):
    import json

    out_path = tmp_path / "batch-profile.jsonl"
    assert main(["batch", program_file, sync_file, "--profile", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
    assert counters["batch.tasks"] == 2
    assert counters["batch.status.ok"] == 2
    # fleet-aggregated pipeline counters from the per-task sessions
    assert counters["solve.runs"] >= 2
    assert counters["cache.pfg.misses"] >= 2
