"""Span recording and the layer-by-layer replay of the traced run.

The traced run replays each request by calling each layer's public
function itself, under a span named after the layer's module:

* ``replay_analyze`` mirrors the dispatch of :func:`repro.analyze` with
  default options (cache lookup → PFG → genkill → Preserved → system →
  fixpoint → result; the sequential system uses round-robin);
* ``replay_optimize`` mirrors :func:`repro.driver.optimize` (parse → PFG
  → validate → degradation-ladder lint → solve → every client);
* an edit request calls :func:`repro.incremental.incremental_analyze`
  itself, with the layer functions the engine calls wrapped in spans for
  the duration of the call (:func:`instrumented`); its full-solve
  fallback goes through ``replay_analyze``.

Spans stay in memory (``Recorder.spans``) and are written out when the
run ends.  Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import repro
from repro import parse_program
from repro.analysis import (
    compute_ud_chains,
    find_anomalies,
    find_common_subexpressions,
    find_copy_propagations,
    find_dead_code,
    find_induction_variables,
    lint_synchronization,
    propagate_constants,
)
from repro.dataflow.cache import GLOBAL_CACHE, MISSING, cached_build_pfg, program_digest
from repro.dataflow.solver import make_order, solve_round_robin
from repro.driver import OptimizationReport
from repro.incremental import engine, incremental_analyze, lookup_base
from repro.pfg import validate_pfg
from repro.pfg.validate import PFGInvariantError
from repro.reachdefs import (
    ParallelRDSystem,
    SequentialRDSystem,
    SynchRDSystem,
    compute_genkill,
    parallel,
    resolve_preserved,
    sequential,
)
from repro.reachdefs.parallel import run_solver
from repro.robust.degrade import BLOCKING_SYNC_ISSUES

#: Request and span clock: CPU time of the calling thread.  The pipeline
#: is single-threaded and never waits, so on an unshared machine this is
#: its wall time; on a shared VM it leaves out time the host ran others.
clock = time.thread_time

#: Layer-client span names, in the order ``optimize`` runs them.
CLIENTS = ("udchains", "anomalies", "synclint", "constprop", "induction", "deadcode", "copyprop", "cse")


class Recorder:
    """In-memory spans: name, start, end, parent and request id."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self.request: Optional[int] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """Span id → duration minus the time its children cover.  Children
    of one span run one after another (single thread), so their
    coverage is the sum of their durations."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Degraded(Exception):
    """The degradation ladder would leave full precision: the request
    fails, exactly as a degraded ``optimize`` report does."""


def _family(graph) -> str:
    if graph.posts_of_event or graph.waits_of_event:
        return "synch"
    if graph.forks or graph.pardos:
        return "parallel"
    return "sequential"


def _solve(rec: Recorder, graph):
    """genkill → Preserved → system → fixpoint → result, as the default
    ``solve_sequential`` / ``solve_parallel`` / ``solve_synch`` run them."""
    info = rec.call("reachdefs.genkill", compute_genkill, graph)
    family = _family(graph)
    if family == "sequential":
        system = rec.call("reachdefs.system", SequentialRDSystem, graph, info=info)
        stats = rec.call(
            "dataflow.fixpoint",
            solve_round_robin, system, make_order(graph, "document"), order_name="document",
        )
    else:
        if family == "synch":
            pres = rec.call("reachdefs.preserved", resolve_preserved, graph, mode="approx")
            system = rec.call("reachdefs.system", SynchRDSystem, graph, preserved=pres, info=info)
        else:
            system = rec.call("reachdefs.system", ParallelRDSystem, graph, info=info)
        stats = rec.call("dataflow.fixpoint", run_solver, system, graph, "document", "stabilized", False)
    return rec.call("reachdefs.result", system.to_result, stats)


def replay_analyze(rec: Recorder, program, graph=None):
    """:func:`repro.analyze` with default options, one span per layer."""
    with rec.span("dataflow.cache"):
        key = ("analyze", program_digest(program), "bitset", "document", "stabilized", "approx", False, None)
        hit = GLOBAL_CACHE.get(
            key, MISSING, valid=lambda r: getattr(r.graph, "source_program", None) is program
        )
    if hit is not MISSING:
        return hit
    if graph is None:
        graph = rec.call("pfg.build", cached_build_pfg, program)
    result = _solve(rec, graph)
    rec.call("dataflow.cache", GLOBAL_CACHE.put, key, result)
    return result


def replay_optimize(rec: Recorder, source: str) -> OptimizationReport:
    """:func:`repro.optimize` with default options, one span per layer.
    Raises :class:`Degraded` where the ladder would leave full precision."""
    program = rec.call("lang.parse", parse_program, source)
    graph = rec.call("pfg.build", cached_build_pfg, program)
    try:
        rec.call("pfg.validate", validate_pfg, graph)
    except PFGInvariantError as err:
        raise Degraded(str(err)) from err
    if _family(graph) == "synch":
        issues = rec.call("robust.degrade", lint_synchronization, graph)
        if any(i.kind in BLOCKING_SYNC_ISSUES for i in issues):
            raise Degraded("synchronization lint voids the Preserved assumption")
    result = _solve(rec, graph)

    def client(name, fn, *args, **kwargs):
        return rec.call(f"analysis.{name}", fn, *args, **kwargs)

    return OptimizationReport(
        program=program,
        result=result,
        chains=client("udchains", compute_ud_chains, result),
        anomalies=client("anomalies", find_anomalies, result),
        sync_issues=client("synclint", lint_synchronization, graph),
        constants=client("constprop", propagate_constants, result),
        induction_variables=client("induction", find_induction_variables, result),
        dead_code=client("deadcode", find_dead_code, result, observable_at_exit=True),
        copies=client("copyprop", find_copy_propagations, result),
        subexpressions=client("cse", find_common_subexpressions, result),
    )


def _wrapped(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def instrumented(rec: Recorder):
    """Wrap, for the duration of the block, the layer functions the
    incremental engine calls; the engine's full-solve fallback calls
    ``repro.analyze``, which is swapped for :func:`replay_analyze`."""
    targets = [
        (engine, "cached_build_pfg", "pfg.build"),
        (engine, "match_graphs", "incremental.diff"),
        (engine, "dirty_regions", "incremental.diff"),
        (engine, "ParallelRDSystem", "reachdefs.system"),
        (engine, "SequentialRDSystem", "reachdefs.system"),
        (parallel, "compute_genkill", "reachdefs.genkill"),
        (sequential, "compute_genkill", "reachdefs.genkill"),
        (engine, "get_schedule", "dataflow.sched"),
        (engine, "solve_scc", "dataflow.sched"),
        (engine, "store_base", "dataflow.cache"),
        (ParallelRDSystem, "to_result", "reachdefs.result"),
        (SequentialRDSystem, "to_result", "reachdefs.result"),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in targets]
    saved.append((repro, "analyze", repro.analyze))
    try:
        for obj, attr, name in targets:
            setattr(obj, attr, _wrapped(rec, name, getattr(obj, attr)))
        repro.analyze = lambda program, graph=None, **_: replay_analyze(rec, program, graph)
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)


def replay_edit(rec: Recorder, source: str, base_digest: str):
    """One edit-session request: parse, look up the previous version's
    base, and re-analyze incrementally under :func:`instrumented`."""
    program = rec.call("lang.parse", parse_program, source)
    base = rec.call("dataflow.cache", lookup_base, base_digest)
    if base is None:
        raise LookupError(f"no incremental base for {base_digest[:12]}")
    with instrumented(rec):
        return rec.call("incremental.analyze", incremental_analyze, base, program)
