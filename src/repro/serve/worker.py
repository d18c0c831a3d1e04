"""Serve worker: the process-pool half of the daemon.

Each worker is a long-lived child process running :func:`worker_main` — a
loop that receives job dicts over a :class:`multiprocessing.Pipe`, runs
:func:`execute_request`, and sends the result record back.  Two properties
carry the serving story:

* **warm caches** — the worker's process-wide
  :data:`repro.dataflow.cache.GLOBAL_CACHE` persists across requests, so
  a repeat request for an unchanged program is solver-free (the
  ``cache.*`` counters it ships back surface fleet-wide via ``/healthz``).
  Two serve-specific layers make that true under a deadline:
  :func:`_parse_cached` memoizes the parsed AST per source text, so the
  digest-keyed PFG/analyze caches pass their AST-identity validation on
  repeats, and completed records are memoized under the ``serve`` cache
  namespace keyed by source digest **plus** every result-affecting option
  and the served degradation level — the full-result ``analyze`` cache
  deliberately bypasses itself when a budget is armed (a budget asks for
  the work to run under a guard), but a *previously completed* record is
  a valid answer at any deadline, so serving it from cache is sound;
* **never raises** — :func:`execute_request` converts every analysis
  failure into a typed record (the same taxonomy as
  :mod:`repro.batch.driver`); the only way a worker dies is a genuine
  crash (or an injected chaos kill), which the supervisor treats as a
  transport fault: kill, respawn, retry.

Chaos injection (``--chaos`` daemons only): a job's ``chaos`` dict may
carry ``kill_attempts`` (die with :func:`os._exit` while the job's
``attempt`` index is below it — deterministic crash-then-recover drills)
and ``delay_ms`` (sleep before analyzing — latency injection).  Daemons
started without ``--chaos`` ignore the field entirely.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import OrderedDict
from typing import Dict, Optional

#: Exit code a chaos kill uses — distinguishable from real faults in logs.
CHAOS_EXIT_CODE = 23

#: Per-process AST memo: source-text digest → parsed Program.  Repeat
#: requests must analyze the *same AST object* or the digest-keyed caches
#: reject the entry (PFG nodes hold statement objects; results validate
#: ``source_program is program`` — see :mod:`repro.dataflow.cache`).
_AST_MEMO: "OrderedDict[str, object]" = OrderedDict()
_AST_MEMO_MAX = 64


def _parse_cached(source: str):
    """Parse ``source``, memoized by content digest (bounded LRU).

    Returns ``(program, source_digest)``.  Parse errors are not memoized —
    they raise through to the caller's taxonomy."""
    from ..lang import parse_program

    key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    program = _AST_MEMO.get(key)
    if program is None:
        program = parse_program(source)
        _AST_MEMO[key] = program
        if len(_AST_MEMO) > _AST_MEMO_MAX:
            _AST_MEMO.popitem(last=False)
    else:
        _AST_MEMO.move_to_end(key)
    return program, key


def execute_request(
    params: Dict[str, object],
    level: int = 0,
    deadline_s: Optional[float] = None,
) -> Dict[str, object]:
    """Run one analysis request at the given degradation ``level``; never
    raises.

    ``level`` is the admission policy's precision decision: 0 runs the
    full pipeline (the :mod:`repro.robust.degrade` ladder still applies),
    1 forces ``preserved="none"`` (the ladder's no-preserved rung), and 2
    runs the conservative accumulate-only system directly — the cheapest
    sound answer, for a daemon fighting overload.  ``deadline_s`` arms a
    fresh :class:`~repro.dataflow.budget.ResourceBudget` so one hostile
    program cannot hold the worker past its allowance (the supervisor's
    wall-clock kill is the backstop for hangs outside the solver).

    Returns a JSON-ready record: ``status``/``error``, ``result`` (on
    analysis completion), ``degradation`` (ladder or policy provenance),
    and the worker session's ``counters`` for the parent to merge.
    """
    from .. import obs
    from ..analysis import find_anomalies, lint_synchronization
    from ..dataflow.budget import NonConvergenceError, ResourceBudget
    from ..dataflow.cache import (
        GLOBAL_CACHE,
        MISSING,
        cached_build_pfg,
        program_digest,
    )
    from ..dataflow.framework import FixpointDiverged
    from ..driver import optimize
    from ..lang.errors import LangError
    from ..pfg.validate import PFGInvariantError
    from ..reachdefs import solve_conservative

    t0 = time.perf_counter()
    record: Dict[str, object] = {
        "status": "ok",
        "error": None,
        "result": None,
        "degradation": None,
    }
    preserved = str(params.get("preserved") or "approx")
    solver = str(params.get("solver") or "stabilized")
    max_passes = params.get("max_passes")
    base_digest = params.get("base_digest")
    base_digest = str(base_digest) if base_digest is not None else None
    budget = (
        ResourceBudget(deadline_s=deadline_s, max_passes=max_passes)
        if deadline_s is not None or max_passes is not None
        else None
    )
    with obs.session() as sess:
        try:
            program, source_digest = _parse_cached(str(params["source"]))
            serve_key = (
                "serve",
                source_digest,
                preserved,
                solver,
                max_passes,
                level,
                base_digest,
            )
            cached = GLOBAL_CACHE.get(serve_key, MISSING)
            if cached is not MISSING:
                record.update(cached)
                record["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
                record["counters"] = sess.metrics.export_state()["counters"]
                return record
            # Delta form: re-analyze incrementally off the retained base
            # solve.  Only at full precision (level 0) — a degraded
            # admission level changes the equation system or Preserved
            # mode, and the retained rows answer a different question.
            incr_stamp: Optional[Dict[str, object]] = None
            incr_done = False
            if base_digest is not None:
                from ..incremental import incremental_analyze, lookup_base

                state = lookup_base(base_digest) if level == 0 else None
                if state is not None:
                    outcome = incremental_analyze(
                        state,
                        program,
                        solver=solver,
                        preserved=preserved,
                        budget=budget,
                    )
                    result = outcome.result
                    anomalies = find_anomalies(result)
                    sync_issues = lint_synchronization(result.graph)
                    degradation = None
                    incr_stamp = outcome.stamp()
                    incr_done = True
                else:
                    # Base miss (eviction/cold worker) or degraded level:
                    # full solve below, fallback counted and stamped.
                    sess.metrics.inc("solve.incr.fallbacks")
                    incr_stamp = {
                        "base_digest": base_digest,
                        "regions_reused": 0,
                        "regions_resolved": 0,
                        "nodes_matched": 0,
                        "nodes_dirty": 0,
                        "fallback": "degraded" if level > 0 else "base-miss",
                    }
            if incr_done:
                pass
            elif level >= 2:
                graph = cached_build_pfg(program)
                result = solve_conservative(graph)
                anomalies = find_anomalies(result)
                sync_issues = lint_synchronization(graph)
                degradation = {
                    "level": 2,
                    "level_name": "conservative",
                    "reason": "admission degradation policy: conservative-only under load",
                    "budget_spent": {},
                }
            else:
                report = optimize(
                    program,
                    preserved="none" if level >= 1 else preserved,
                    budget=budget,
                    degrade=True,
                    solver=solver,
                )
                result = report.result
                anomalies = report.anomalies
                sync_issues = report.sync_issues
                degradation = (
                    report.degradation.as_dict()
                    if report.degradation is not None
                    else None
                )
                if level >= 1 and degradation is None:
                    degradation = {
                        "level": 1,
                        "level_name": "no-preserved",
                        "reason": "admission degradation policy: preserved sets disabled under load",
                        "budget_spent": {},
                    }
            record["result"] = {
                "program": program.name,
                "digest": program_digest(program),
                "system": result.system,
                "stats": result.stats.as_dict(),
                "anomalies": len(anomalies),
                "sync_issues": len(sync_issues),
            }
            if incr_stamp is not None:
                record["result"]["incremental"] = incr_stamp
            if degradation is not None:
                record["status"] = "degraded"
                record["degradation"] = degradation
            elif level == 0 and not incr_done:
                # Retain full-precision solves as incremental bases so a
                # later delta request against this digest can reuse rows
                # (the engine retains its own outputs).
                from ..incremental import store_base

                store_base(program, result)
            # Completed records are deterministic given (source, options,
            # level) — memoize so warm repeats skip the solver entirely.
            # Failures are NOT cached: a deadline-driven failure is not a
            # property of the program, and retries should get to re-run.
            GLOBAL_CACHE.put(
                serve_key,
                {
                    "status": record["status"],
                    "result": record["result"],
                    "degradation": record["degradation"],
                },
            )
        except LangError as err:
            record["status"] = "error"
            record["error"] = str(err)
        except NonConvergenceError as err:
            record["status"] = "failed"
            record["error"] = f"analysis did not converge: {err.reason}"
        except FixpointDiverged as err:
            record["status"] = "failed"
            record["error"] = f"analysis did not converge: {err}"
        except PFGInvariantError as err:
            record["status"] = "invariant"
            record["error"] = f"graph invariant violation: {err}"
        except Exception as err:  # the worker must survive anything typed above misses
            record["status"] = "failed"
            record["error"] = f"{type(err).__name__}: {err}"
    record["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    record["counters"] = sess.metrics.export_state()["counters"]
    return record


def worker_main(conn, chaos_enabled: bool = False, peer=None) -> None:
    """Worker process entry: serve jobs from ``conn`` until EOF or a
    ``None`` shutdown sentinel.

    ``peer`` is the supervisor's end of the pipe, inherited across fork —
    closed immediately so that if the daemon dies uncleanly (SIGKILL, a
    crash) this worker sees EOF on ``conn`` and exits instead of holding
    the pipe open against itself and lingering forever.

    SIGINT is ignored (a ^C to the daemon's process group must not kill
    workers before the parent's graceful drain coordinates shutdown);
    SIGTERM keeps its default so the supervisor's ``kill()`` works.
    """
    if peer is not None:
        try:
            peer.close()
        except OSError:  # pragma: no cover - already closed
            pass
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:
            return
        chaos = (job.get("chaos") or {}) if chaos_enabled else {}
        if int(chaos.get("kill_attempts", 0) or 0) > int(job.get("attempt", 0)):
            os._exit(CHAOS_EXIT_CODE)
        delay_ms = float(chaos.get("delay_ms", 0) or 0)
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        record = execute_request(
            job.get("params") or {},
            level=int(job.get("level", 0)),
            deadline_s=job.get("deadline_s"),
        )
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            return
