"""Request validation and the repro.serve/1 envelopes."""

import json

import pytest

from repro.disambig.pipeline import Disambiguator
from repro.serve.schemas import (ENDPOINTS, MAX_SOURCE_BYTES, SCHEMA,
                                 RequestError, encode_body, error_body,
                                 parse_request, result_body)

SOURCE = "int a[4];\nint main() { a[0] = 1; print(a[0]); return 0; }\n"


def parse(payload, endpoint="compile"):
    return parse_request(endpoint, payload)


class TestParseRequest:
    def test_minimal_request_defaults(self):
        request = parse({"source": SOURCE})
        assert request.endpoint == "compile"
        assert request.kind is Disambiguator.SPEC
        assert request.config.engine == "jit"
        assert request.label == "request"
        assert request.machine.num_fus == 5
        assert request.machine.memory_latency == 2
        assert request.config.guard_words == 0

    def test_every_endpoint_is_known(self):
        for endpoint in ENDPOINTS:
            assert parse({"source": SOURCE}, endpoint).endpoint == endpoint

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            parse({"source": SOURCE}, "frobnicate")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_endpoint"

    @pytest.mark.parametrize("payload", [
        None, [], "text",                       # not an object
        {},                                     # no source
        {"source": ""}, {"source": "   "},      # empty source
        {"source": 42},                         # non-string source
        {"source": SOURCE, "bogus": 1},         # unknown key
        {"source": SOURCE, "kind": "psychic"},  # unknown disambiguator
        {"source": SOURCE, "engine": "cloud"},  # unknown engine
        {"source": SOURCE, "label": ""},        # empty label
        {"source": SOURCE, "label": "x" * 201},
        {"source": SOURCE, "knobs": {"nope": 1}},
        {"source": SOURCE, "knobs": {"guard_words": 9}},
        {"source": SOURCE, "knobs": {"guard_words": "two"}},
        {"source": SOURCE, "knobs": {"passes": ["dce"]}},
        {"source": SOURCE, "knobs": {"passes": "not-a-pass"}},
        {"source": SOURCE, "machine": {"fus": -1}},
        {"source": SOURCE, "machine": {"memory": 3}},
        {"source": SOURCE, "machine": {"bogus": 1}},
        {"source": SOURCE, "hw": {"predictor": "oracle9000"}},
        {"source": SOURCE, "hw": {"window": -1}},
        {"source": SOURCE, "hw": {"replay_penalty": -1}},
    ])
    def test_malformed_requests_are_400(self, payload):
        with pytest.raises(RequestError) as excinfo:
            parse(payload)
        assert excinfo.value.status == 400

    def test_source_size_cap(self):
        big = SOURCE + "// pad\n" * (MAX_SOURCE_BYTES // 7)
        with pytest.raises(RequestError):
            parse({"source": big})

    def test_knobs_round_trip(self):
        request = parse({
            "source": SOURCE, "kind": "static", "engine": "interp",
            "knobs": {"max_expansion": 2.0, "min_gain": 1.5,
                      "profiled_alias": True, "graft": True,
                      "passes": "default", "guard_words": 2},
            "machine": {"fus": 0, "memory": 6},
        }, endpoint="time")
        assert request.kind is Disambiguator.STATIC
        config = request.config
        assert config.engine == "interp"
        assert config.spd_config.max_expansion == 2.0
        assert config.spd_config.min_gain == 1.5
        assert config.spd_config.alias_probability_weighting
        assert config.graft is not None
        assert config.passes.cleanup
        assert config.guard_words == 2
        assert request.machine.is_infinite
        assert request.machine.memory_latency == 6

    def test_hw_round_trip(self):
        request = parse({"source": SOURCE,
                         "hw": {"fus": 8, "memory": 6, "window": 0,
                                "predictor": "always", "replay_penalty": 7}},
                        endpoint="hwtime")
        assert request.hw.num_fus == 8
        assert request.hw.memory_latency == 6
        assert request.hw.window is None
        assert request.hw.predictor == "always"
        assert request.hw.replay_penalty == 7


class TestEnvelopes:
    def test_error_body(self):
        body = error_body("time", "bad_request", "nope")
        assert body == {"schema": SCHEMA, "endpoint": "time",
                        "error": {"code": "bad_request", "message": "nope"}}

    def test_result_body(self):
        body = result_body("compile", "f" * 64, {"ops": 3})
        assert body["schema"] == SCHEMA
        assert body["fingerprint"] == "f" * 64
        assert body["result"] == {"ops": 3}

    def test_encode_body_is_canonical(self):
        first = encode_body({"b": 1, "a": {"d": 2, "c": 3}})
        second = encode_body({"a": {"c": 3, "d": 2}, "b": 1})
        assert first == second
        assert first.endswith(b"\n")
        assert json.loads(first) == {"a": {"c": 3, "d": 2}, "b": 1}
