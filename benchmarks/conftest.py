"""Benchmark helpers.

Every ``bench_*`` module regenerates one of the paper's tables/figures
(asserting the golden content, outside the timed region) and measures the
code path that produces it; the ``bench_scaling``/``bench_orders``/
``bench_preserved_ablation`` modules measure the machinery on synthetic
workloads.

Run:  pytest benchmarks/ --benchmark-only

Observability: set ``REPRO_BENCH_PROFILE=out.jsonl`` to run every bench
test under a :mod:`repro.obs` session — each test becomes one ``bench``
root span (with the pipeline's nested spans inside) and the combined
records are written as JSONL (schema ``repro-obs/1``, the same schema as
the CLI ``--profile`` flag and the checked-in ``BENCH_*.json`` trajectory
files; see ``benchmarks/run_obs_baseline.py``).  Unset (the default),
benches run against the no-op singletons: timings are undistorted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List

import pytest

from repro import obs
from repro.paper import programs

_PROFILE_PATH = os.environ.get("REPRO_BENCH_PROFILE")
_collected: List[dict] = []


@pytest.fixture(scope="session")
def paper_graphs():
    """All paper PFGs, built once (construction is benchmarked separately)."""
    return {key: programs.graph(key) for key in programs.SOURCES}


@pytest.fixture(autouse=True)
def bench_cache_disabled():
    """Benchmarks time the real pipeline: with the digest-keyed analysis
    cache left on, every benchmark repeat after the first would be a
    cache hit and the timings would measure dictionary lookups."""
    from repro.dataflow.cache import GLOBAL_CACHE

    prev = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = False
    GLOBAL_CACHE.clear()
    try:
        yield
    finally:
        GLOBAL_CACHE.enabled = prev


@pytest.fixture(autouse=True)
def bench_obs_session(request):
    """Per-test observability session when REPRO_BENCH_PROFILE is set."""
    if not _PROFILE_PATH:
        yield
        return
    with obs.session() as sess:
        with sess.tracer.span("bench", test=request.node.nodeid):
            yield
    _collected.extend(obs.span_records(sess.tracer))
    _collected.extend(obs.metric_records(sess.metrics))


def pytest_sessionfinish(session, exitstatus):
    if _PROFILE_PATH and _collected:
        records = [{"type": "meta", "schema": obs.SCHEMA, "source": "benchmarks"}]
        records.extend(_collected)
        Path(_PROFILE_PATH).write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
