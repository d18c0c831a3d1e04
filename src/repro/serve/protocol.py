"""The ``repro-serve/1`` wire protocol: request validation, the response
envelope, and the serve-side error taxonomy.

Every RPC exchange is JSON over HTTP.  A request is::

    POST /rpc
    {"id": "req-1",                  # required, client-chosen, echoed back
     "method": "analyze",            # the only method today
     "params": {"source": "program ... end program",
                "preserved": "approx", "solver": "stabilized",
                "max_passes": null,
                "deadline_s": null,
                "base_digest": null},    # delta form: see below
     "chaos": {"kill_attempts": 0, "delay_ms": 0}}   # honored only with --chaos

The **delta form** sets ``params.base_digest`` to the ``digest`` field of
a prior response: the worker then re-analyzes the new source
*incrementally* off the retained base solve (:mod:`repro.incremental`),
reusing every condensation region the edit provably did not perturb.
Fallback — base digest unknown, structural mismatch, any
synchronization involvement, or a degraded admission level — silently
takes the ordinary full-analysis path; either way the response is
terminal and carries an ``incremental`` provenance block
(``{base_digest, regions_reused, regions_resolved, nodes_matched,
nodes_dirty, fallback}``) in ``result``, so clients can observe reuse
without a second request shape.

and **every admitted request receives exactly one terminal response** —
the zero-lost-requests invariant the chaos drills enforce::

    {"schema": "repro-serve/1", "id": "req-1",
     "status": "ok", "code": 0, "error": null,
     "result": {"program": ..., "digest": ..., "system": ...,
                "stats": ..., "anomalies": ..., "sync_issues": ...},
     "degradation": null,            # ladder/policy provenance when degraded
     "served_level": 0,              # admission policy's precision level
     "attempts": 1,                  # worker tries (retries show up here)
     "timings": {"queue_ms": ..., "exec_ms": ..., "total_ms": ...}}

Statuses extend the batch driver's exit-code-aligned taxonomy
(:data:`repro.batch.TASK_EXIT_CODES`) with the transport-level outcomes a
*service* can produce; ``code`` keeps the CLI exit-code contract meaning
so a response row answers "what would this program have exited with?":

=============  ====  ======================================================
status         code  meaning
=============  ====  ======================================================
ok             0     full-precision analysis succeeded
degraded       0     sound result from a lower rung (ladder or load policy)
bad-request    1     malformed envelope (missing id/source, unknown option)
error          1     front-end failure (syntax error in the program)
failed         2     analysis failure (non-convergence, budget exhaustion)
invariant      3     PFG invariant violation
timeout        2     worker blew the request deadline and was killed
crashed        2     worker died and retries were exhausted
shed           5     admission control refused: queue full (HTTP 429)
draining       5     daemon is draining, not admitting (HTTP 503)
=============  ====  ======================================================

``shed``/``draining`` are *fast* refusals — they never consume a worker —
and use code 5 (the first code the CLI contract does not claim) so
load-shedding is distinguishable from any per-program outcome.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..batch.driver import TASK_EXIT_CODES

SCHEMA = "repro-serve/1"

#: Serve status → CLI-contract-aligned code (see module docstring).
STATUS_CODES: Dict[str, int] = {
    "ok": TASK_EXIT_CODES["ok"],
    "degraded": TASK_EXIT_CODES["degraded"],
    "error": TASK_EXIT_CODES["error"],
    "failed": TASK_EXIT_CODES["failed"],
    "invariant": TASK_EXIT_CODES["invariant"],
    "crashed": TASK_EXIT_CODES["crashed"],
    "timeout": 2,  # deadline exhaustion is an analysis failure operationally
    "bad-request": 1,
    "shed": 5,
    "draining": 5,
}

#: Serve status → HTTP status for the envelope.  Analysis outcomes are
#: HTTP 200 (the RPC itself succeeded; the typed status is in the body);
#: only transport-level refusals use error HTTP codes, so clients can
#: implement backpressure (429) and drain-aware retry (503) without
#: parsing bodies.
HTTP_STATUS: Dict[str, int] = {
    "bad-request": 400,
    "shed": 429,
    "draining": 503,
}

VALID_PRESERVED = ("approx", "none")
VALID_SOLVERS = ("stabilized", "round-robin", "worklist", "scc")
VALID_METHODS = ("analyze",)


class ProtocolError(ValueError):
    """A request that violates ``repro-serve/1`` (maps to ``bad-request``)."""


def validate_request(obj: object) -> Dict[str, object]:
    """Check a decoded request body against the protocol; returns it.

    Raises :class:`ProtocolError` with a client-actionable message on any
    violation — the daemon turns that into a ``bad-request`` response
    *before* admission, so malformed traffic never consumes queue slots.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request body must be a JSON object")
    if "id" not in obj or obj["id"] is None:
        raise ProtocolError("request must carry a non-null 'id'")
    if not isinstance(obj["id"], (str, int)):
        raise ProtocolError("'id' must be a string or integer")
    method = obj.get("method", "analyze")
    if method not in VALID_METHODS:
        raise ProtocolError(
            f"unknown method {method!r}; supported: {', '.join(VALID_METHODS)}"
        )
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    source = params.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("'params.source' must be non-empty program text")
    for key, valid in (
        ("preserved", VALID_PRESERVED),
        ("solver", VALID_SOLVERS),
    ):
        value = params.get(key)
        if value is not None and value not in valid:
            raise ProtocolError(
                f"'params.{key}' must be one of {', '.join(valid)} (got {value!r})"
            )
    max_passes = params.get("max_passes")
    if max_passes is not None and (not isinstance(max_passes, int) or max_passes <= 0):
        raise ProtocolError("'params.max_passes' must be a positive integer")
    deadline = params.get("deadline_s")
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ProtocolError("'params.deadline_s' must be a positive number")
    base_digest = params.get("base_digest")
    if base_digest is not None and (
        not isinstance(base_digest, str) or not base_digest.strip()
    ):
        raise ProtocolError(
            "'params.base_digest' must be a non-empty digest string "
            "(the 'digest' field of a prior response)"
        )
    chaos = obj.get("chaos")
    if chaos is not None and not isinstance(chaos, dict):
        raise ProtocolError("'chaos' must be an object")
    return obj


def response(
    request_id: object,
    status: str,
    error: Optional[str] = None,
    result: Optional[Dict[str, object]] = None,
    degradation: Optional[Dict[str, object]] = None,
    served_level: Optional[int] = None,
    attempts: int = 0,
    timings: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Build a terminal ``repro-serve/1`` envelope (the only response shape
    the daemon ever sends for ``/rpc``)."""
    if status not in STATUS_CODES:
        raise ValueError(f"unknown serve status {status!r}")
    return {
        "schema": SCHEMA,
        "id": request_id,
        "status": status,
        "code": STATUS_CODES[status],
        "error": error,
        "result": result,
        "degradation": degradation,
        "served_level": served_level,
        "attempts": attempts,
        "timings": timings or {},
    }


def http_status(status: str) -> int:
    """The HTTP status code an envelope with serve-status ``status`` rides on."""
    return HTTP_STATUS.get(status, 200)


def classify(envelope: Dict[str, object]) -> Tuple[str, int]:
    """(status, code) of a received envelope, validating the schema stamp."""
    if envelope.get("schema") != SCHEMA:
        raise ProtocolError(f"not a {SCHEMA} envelope: {envelope.get('schema')!r}")
    return str(envelope.get("status")), int(envelope.get("code", -1))
