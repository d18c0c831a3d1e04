"""Unit tests for the ``repro-serve/1`` wire protocol."""

import pytest

from repro.batch import TASK_EXIT_CODES
from repro.serve import protocol


def _request(**overrides):
    base = {
        "id": "req-1",
        "method": "analyze",
        "params": {"source": "program p\n  (1) a = 1\nend program\n"},
    }
    base.update(overrides)
    return base


class TestValidateRequest:
    def test_minimal_request_passes(self):
        req = _request()
        assert protocol.validate_request(req) is req

    def test_method_defaults_to_analyze(self):
        req = _request()
        del req["method"]
        assert protocol.validate_request(req) is req

    def test_integer_id_allowed(self):
        protocol.validate_request(_request(id=7))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda r: r.pop("id"), "id"),
            (lambda r: r.update(id=None), "id"),
            (lambda r: r.update(id=[1]), "id"),
            (lambda r: r.update(method="explode"), "method"),
            (lambda r: r.update(params=None), "params"),
            (lambda r: r.update(params={}), "source"),
            (lambda r: r["params"].update(source="   "), "source"),
            (lambda r: r["params"].update(preserved="all"), "preserved"),
            (lambda r: r["params"].update(solver="magic"), "solver"),
            (lambda r: r["params"].update(max_passes=0), "max_passes"),
            (lambda r: r["params"].update(max_passes="ten"), "max_passes"),
            (lambda r: r["params"].update(deadline_s=-1), "deadline_s"),
            (lambda r: r.update(chaos="yes"), "chaos"),
        ],
    )
    def test_violations_raise_with_actionable_message(self, mutate, fragment):
        req = _request()
        mutate(req)
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.validate_request(req)
        assert fragment in str(exc.value)

    def test_non_dict_body_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request([1, 2, 3])

    def test_valid_option_values_accepted(self):
        req = _request()
        req["params"].update(
            preserved="none",
            solver="worklist",
            max_passes=10,
            deadline_s=2.5,
        )
        protocol.validate_request(req)


class TestEnvelope:
    def test_codes_align_with_batch_exit_contract(self):
        # A serve response row answers "what would this program have
        # exited with?" — the shared statuses must agree with batch.
        for status in ("ok", "degraded", "error", "failed", "invariant", "crashed"):
            assert protocol.STATUS_CODES[status] == TASK_EXIT_CODES[status]
        # Transport refusals claim a code no per-program outcome uses.
        assert protocol.STATUS_CODES["shed"] == 5
        assert protocol.STATUS_CODES["draining"] == 5
        assert 5 not in TASK_EXIT_CODES.values()

    def test_http_mapping(self):
        assert protocol.http_status("ok") == 200
        assert protocol.http_status("crashed") == 200  # RPC succeeded; body is typed
        assert protocol.http_status("bad-request") == 400
        assert protocol.http_status("shed") == 429
        assert protocol.http_status("draining") == 503

    def test_response_shape(self):
        env = protocol.response("r1", "ok", result={"program": "p"}, attempts=2)
        assert env["schema"] == protocol.SCHEMA
        assert env["id"] == "r1"
        assert env["code"] == 0
        assert env["attempts"] == 2
        assert env["timings"] == {}
        assert protocol.classify(env) == ("ok", 0)

    def test_response_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            protocol.response("r1", "mystery")

    def test_classify_rejects_foreign_schema(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.classify({"schema": "other/9", "status": "ok", "code": 0})
