"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro import analyze, obs, optimize, parse_program
from repro.dataflow.bitset import CountingBackend, IntBitsetBackend, make_backend
from repro.ir.defs import Definition
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Metrics,
    Tracer,
    get_metrics,
    get_tracer,
    read_jsonl,
    records,
    render_tree,
    span_records,
    write_jsonl,
)

SOURCE = """program obsdemo
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end
"""


# -- spans ----------------------------------------------------------------


def test_span_nesting_structure():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner-1"):
            pass
        with tracer.span("inner-2") as inner2:
            with tracer.span("leaf"):
                pass
    assert [r.name for r in tracer.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
    assert [c.name for c in inner2.children] == ["leaf"]
    assert tracer.current is None


def test_span_timing_monotone_and_contained():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            sum(range(1000))
    assert outer.end is not None and inner.end is not None
    assert outer.duration >= 0 and inner.duration >= 0
    # The child's window lies inside the parent's.
    assert outer.start <= inner.start
    assert inner.end <= outer.end
    assert inner.duration <= outer.duration


def test_span_annotate_and_find():
    tracer = Tracer()
    with tracer.span("solve", order="rpo") as sp:
        sp.annotate(passes=5)
        tracer.annotate(via_tracer=True)
    hit = tracer.find("solve")
    assert hit is sp
    assert hit.attrs == {"order": "rpo", "passes": 5, "via_tracer": True}


def test_sibling_spans_ordered():
    tracer = Tracer()
    for name in ("a", "b", "c"):
        with tracer.span(name):
            pass
    starts = [r.start for r in tracer.roots]
    assert starts == sorted(starts)
    assert [r.name for r in tracer.roots] == ["a", "b", "c"]


# -- metrics --------------------------------------------------------------


def test_counter_aggregation():
    m = Metrics()
    m.inc("a")
    m.inc("a", 4)
    m.counter("a").inc(2)
    m.inc("b")
    assert m.counter("a").value == 7
    assert m.as_dict()["counters"] == {"a": 7, "b": 1}


def test_gauge_tracks_max():
    m = Metrics()
    m.set_gauge("depth", 3)
    m.set_gauge("depth", 9)
    m.set_gauge("depth", 2)
    g = m.gauge("depth")
    assert g.value == 2 and g.max == 9


def test_histogram_summary():
    m = Metrics()
    for v in (4, 1, 7):
        m.observe("len", v)
    h = m.histogram("len")
    assert (h.count, h.total, h.min, h.max) == (3, 12, 1, 7)
    assert h.mean == 4


def test_solver_metrics_aggregate_across_runs():
    prog = parse_program(SOURCE)
    with obs.session() as sess:
        analyze(prog, cache=False)
        analyze(prog, cache=False)
    counters = sess.metrics.as_dict()["counters"]
    assert counters["solve.runs"] == 2
    assert counters["solve.document.runs"] == 2
    assert counters["solve.node_updates"] > 0
    assert counters["pfg.builds"] == 2


def test_warm_analyze_is_a_counted_cache_hit():
    # With caching on (the default), the second analyze of an unchanged
    # program is a cache hit: zero additional solver runs or PFG builds,
    # and the hit lands in the cache.* counters.
    prog = parse_program(SOURCE)
    with obs.session() as sess:
        first = analyze(prog)
        second = analyze(prog)
    counters = sess.metrics.as_dict()["counters"]
    assert second is first
    assert counters["solve.runs"] == 1
    assert counters["pfg.builds"] == 1
    assert counters["cache.hits"] >= 1
    assert counters["cache.analyze.hits"] == 1


# -- JSONL round-trip -----------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "profile.jsonl"
    with obs.session() as sess:
        optimize(SOURCE)
    n = write_jsonl(path, sess.tracer, sess.metrics, {"command": "test"})
    recs = read_jsonl(path)
    assert len(recs) == n
    assert recs == records(sess.tracer, sess.metrics, {"command": "test"})
    # Every line is standalone JSON (the file really is JSONL).
    for line in path.read_text().splitlines():
        json.loads(line)
    meta = recs[0]
    assert meta["type"] == "meta" and meta["schema"] == obs.SCHEMA
    names = {r["name"] for r in recs if r["type"] == "span"}
    assert {"parse", "pfg-build", "solve", "pass", "optimize"} <= names
    assert any(r["name"].startswith("client:") for r in recs if r["type"] == "span")
    # Tree shape is recoverable from path/depth.  The solve sits under the
    # degradation ladder's attempt span: optimize/analyze/analyze-attempt/…
    solve = next(r for r in recs if r["type"] == "span" and r["name"] == "solve")
    assert solve["path"].startswith("optimize/analyze/analyze-attempt/")
    assert solve["depth"] == 3
    assert solve["dur"] >= 0


def test_span_records_skip_open_spans():
    tracer = Tracer()
    handle = tracer.span("left-open")
    handle.__enter__()
    with tracer.span("closed"):
        pass
    recs = span_records(tracer)
    names = [r["name"] for r in recs]
    assert "closed" in names and "left-open" not in names


# -- disabled-by-default guarantees --------------------------------------


def test_no_session_means_null_collectors():
    assert get_tracer() is NULL_TRACER
    assert get_metrics() is NULL_METRICS


def test_noop_tracer_records_nothing():
    prog = parse_program(SOURCE)
    result = analyze(prog)
    report = optimize(prog)
    run = __import__("repro.interp", fromlist=["run_program"]).run_program(prog)
    assert NULL_TRACER.roots == []
    assert span_records(NULL_TRACER) == []
    assert NULL_METRICS.counters == {}
    assert result.stats.span is None
    assert report.timings == {}
    assert run.steps > 0  # the pipeline actually ran


def test_noop_metrics_instruments_inert():
    NULL_METRICS.inc("x", 100)
    NULL_METRICS.set_gauge("g", 5)
    NULL_METRICS.observe("h", 5)
    c = NULL_METRICS.counter("x")
    c.inc(3)
    assert c.value == 0
    assert NULL_METRICS.counters == {} and NULL_METRICS.gauges == {}


def test_session_installs_and_restores():
    before_tracer, before_metrics = get_tracer(), get_metrics()
    with obs.session() as sess:
        assert get_tracer() is sess.tracer
        assert get_metrics() is sess.metrics
        assert sess.tracer.enabled and sess.metrics.enabled
        with obs.session() as inner:  # nested sessions stack
            assert get_tracer() is inner.tracer
        assert get_tracer() is sess.tracer
    assert get_tracer() is before_tracer
    assert get_metrics() is before_metrics


def test_session_restores_on_error():
    with pytest.raises(RuntimeError):
        with obs.session():
            raise RuntimeError("boom")
    assert get_tracer() is NULL_TRACER
    assert not obs.bitset_counting_enabled()


def test_stats_span_set_inside_session():
    prog = parse_program(SOURCE)
    with obs.session() as sess:
        result = analyze(prog)
    assert result.stats.span is not None
    assert result.stats.span.name == "solve"
    assert result.stats.span.attrs["converged"] is True
    assert sess.tracer.find("solve") is result.stats.span


# -- bitset op counting ---------------------------------------------------


def _universe(n=8):
    return [Definition(name=f"d{i}", var="x", site="1", index=i) for i in range(n)]


def test_make_backend_not_wrapped_by_default():
    backend = make_backend(_universe())
    assert type(backend) is IntBitsetBackend
    with obs.session():  # session without count_bitset_ops
        backend = make_backend(_universe())
        assert type(backend) is IntBitsetBackend


def test_counting_backend_counts_ops_and_words():
    with obs.session(count_bitset_ops=True) as sess:
        backend = make_backend(_universe(100))
        assert isinstance(backend, CountingBackend)
        a = backend.from_defs(_universe(100)[:3])
        b = backend.from_defs(_universe(100)[2:5])
        backend.union(a, b)
        backend.intersection(a, b)
        backend.difference(a, b)
        backend.equals(a, b)
        backend.union_difference(a, b, a)  # a fused call counts as two
        backend.difference_union(a, b, a)
    counters = sess.metrics.as_dict()["counters"]
    assert counters["bitset.ops"] == 8
    assert counters["bitset.word_ops"] == 8 * 2  # 100 defs -> 2 words


def test_counting_backend_transparent_results():
    plain = make_backend(_universe())
    with obs.session(count_bitset_ops=True):
        counted = make_backend(_universe())
    a, b = plain.from_defs(_universe()[:4]), plain.from_defs(_universe()[2:6])
    assert counted.union(a, b) == plain.union(a, b)


def test_analyze_under_op_counting_matches_plain():
    prog = parse_program(SOURCE)
    plain = analyze(prog)
    with obs.session(count_bitset_ops=True) as sess:
        counted = analyze(prog, cache=False)  # a cache hit would skip the ops
    assert sess.metrics.as_dict()["counters"]["bitset.ops"] > 0
    for node in plain.graph.nodes:
        assert plain.in_names(node.name) == counted.in_names(node.name)


# -- rendering ------------------------------------------------------------


def test_render_tree_shows_phases_and_counters():
    with obs.session() as sess:
        optimize(SOURCE)
    text = render_tree(sess.tracer, sess.metrics)
    assert "phase-time tree" in text
    assert "optimize" in text and "solve" in text and "pfg-build" in text
    assert "counters:" in text and "solve.runs" in text


def test_render_tree_elides_long_sibling_runs():
    tracer = Tracer()
    with tracer.span("root"):
        for i in range(40):
            with tracer.span("pass", index=i):
                pass
    text = render_tree(tracer, max_children=12)
    assert "more spans" in text
    assert text.count("pass") < 40


def test_merge_counters_aggregates_snapshots():
    """Cross-process aggregation hook: worker counter snapshots (plain
    dicts) fold into a live registry additively; zeros are skipped."""
    from repro.obs import NULL_METRICS, Metrics

    m = Metrics()
    m.inc("solve.runs", 2)
    m.merge_counters({"solve.runs": 3, "cache.hits": 5, "noise": 0})
    counters = m.as_dict()["counters"]
    assert counters["solve.runs"] == 5
    assert counters["cache.hits"] == 5
    assert "noise" not in counters  # zero-valued entries create nothing
    # the disabled singleton swallows merges like every other mutator
    NULL_METRICS.merge_counters({"x": 1})
    assert NULL_METRICS.counters == {}
