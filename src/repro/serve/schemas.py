"""Request validation and response envelopes (schema ``repro.serve/1``).

Every service endpoint takes a JSON object and returns a JSON object
stamped ``{"schema": "repro.serve/1", "endpoint": ...}``.  Success
bodies carry the content-addressed ``fingerprint`` of the result plus
an endpoint-specific ``result`` object; failures carry a structured
``error`` object (``code`` + ``message``) instead.  Whether a response
was served warm is deliberately *not* part of the body — identical
requests must produce byte-identical bodies whether they hit the cache,
joined an in-flight computation or caused the work — so the transport
reports it out of band (the ``X-Repro-Cache`` header).

Request parsing is strict: unknown top-level or nested keys are a
``bad_request`` error rather than silently ignored, because ignored
keys would make two *different* intended configurations share one
fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..disambig.pipeline import Disambiguator
from ..disambig.spd_heuristic import SpDConfig
from ..engines import DEFAULT_ENGINE, engine_names
from ..frontend.grafting import GraftConfig
from ..machine.description import LifeMachine, machine
from ..machine.hw import PREDICTOR_NAMES, HwMachine, hw_machine
from ..passes import PassPipelineConfig, UnknownPassError, cleanup_from_spec
from ..pipeline.core import PipelineConfig

__all__ = ["SCHEMA", "ENDPOINTS", "MAX_SOURCE_BYTES", "RequestError",
           "ServeRequest", "parse_request", "error_body", "result_body",
           "encode_body"]

#: Version tag stamped on every request/response body.
SCHEMA = "repro.serve/1"

#: The five compute endpoints (POST ``/v1/<endpoint>``).
ENDPOINTS = ("compile", "disambiguate", "time", "hwtime", "report")

#: Largest accepted tinyc source, in bytes of UTF-8.
MAX_SOURCE_BYTES = 1 << 20


class RequestError(Exception):
    """A structured request failure: HTTP status + error code + message."""

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status


@dataclass(frozen=True)
class ServeRequest:
    """One validated request: everything a pipeline stage needs."""

    endpoint: str
    label: str
    source: str
    kind: Disambiguator
    config: PipelineConfig
    machine: LifeMachine
    hw: HwMachine = field(default_factory=HwMachine)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError("bad_request", message)


def _no_unknown_keys(payload: Dict[str, object], allowed: Tuple[str, ...],
                     where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    _require(not unknown,
             f"unknown {where} key(s): {', '.join(unknown)} "
             f"(allowed: {', '.join(allowed)})")


def _parse_knobs(payload: object, engine: str) -> PipelineConfig:
    """The ``knobs`` object (plus the validated engine) → the request's
    toolchain configuration."""
    if payload is None:
        payload = {}
    _require(isinstance(payload, dict), "'knobs' must be an object")
    _no_unknown_keys(payload, ("max_expansion", "min_gain", "profiled_alias",
                               "graft", "passes", "guard_words"), "knobs")
    try:
        spd = SpDConfig(
            max_expansion=float(payload.get("max_expansion",
                                            SpDConfig.max_expansion)),
            min_gain=float(payload.get("min_gain", SpDConfig.min_gain)),
            alias_probability_weighting=bool(
                payload.get("profiled_alias", False)))
    except (TypeError, ValueError) as error:
        raise RequestError("bad_request", f"invalid SpD knobs: {error}")
    graft = GraftConfig() if payload.get("graft", False) else None
    spec = payload.get("passes", "none")
    _require(isinstance(spec, str),
             "'knobs.passes' must be a string ('none', 'default' or a "
             "comma-separated pass list)")
    try:
        passes = PassPipelineConfig(cleanup=cleanup_from_spec(spec)).validated()
    except UnknownPassError as error:
        raise RequestError("bad_request", str(error))
    guard_words = payload.get("guard_words", 0)
    _require(isinstance(guard_words, int) and 0 <= guard_words <= 8,
             "'knobs.guard_words' must be an integer in [0, 8]")
    return PipelineConfig(spd_config=spd, graft=graft, passes=passes,
                          guard_words=guard_words, engine=engine)


def _parse_machine(payload: object) -> LifeMachine:
    if payload is None:
        payload = {}
    _require(isinstance(payload, dict), "'machine' must be an object")
    _no_unknown_keys(payload, ("fus", "memory"), "machine")
    fus = payload.get("fus", 5)
    memory = payload.get("memory", 2)
    _require(isinstance(fus, int) and fus >= 0,
             "'machine.fus' must be an integer >= 0 (0 = infinite)")
    _require(memory in (2, 6), "'machine.memory' must be 2 or 6")
    return machine(None if fus == 0 else fus, memory)


def _parse_hw(payload: object) -> HwMachine:
    if payload is None:
        payload = {}
    _require(isinstance(payload, dict), "'hw' must be an object")
    _no_unknown_keys(payload, ("fus", "memory", "window", "predictor",
                               "replay_penalty"), "hw")
    fus = payload.get("fus", 4)
    memory = payload.get("memory", 2)
    window = payload.get("window", 32)
    predictor = payload.get("predictor", "store-set")
    replay = payload.get("replay_penalty", 3)
    _require(isinstance(fus, int) and fus >= 0,
             "'hw.fus' must be an integer >= 0 (0 = unbounded)")
    _require(memory in (2, 6), "'hw.memory' must be 2 or 6")
    _require(isinstance(window, int) and window >= 0,
             "'hw.window' must be an integer >= 0 (0 = unbounded)")
    _require(predictor in PREDICTOR_NAMES,
             f"'hw.predictor' must be one of {', '.join(PREDICTOR_NAMES)}")
    _require(isinstance(replay, int) and replay >= 0,
             "'hw.replay_penalty' must be an integer >= 0")
    return hw_machine(None if fus == 0 else fus, memory,
                      predictor=predictor,
                      window=None if window == 0 else window,
                      replay_penalty=replay)


def parse_request(endpoint: str, payload: object) -> ServeRequest:
    """Validate one request body; raise :class:`RequestError` on any
    malformed field."""
    if endpoint not in ENDPOINTS:
        raise RequestError("unknown_endpoint",
                           f"unknown endpoint {endpoint!r} "
                           f"(known: {', '.join(ENDPOINTS)})", status=404)
    _require(isinstance(payload, dict), "request body must be a JSON object")
    _no_unknown_keys(payload, ("source", "label", "kind", "engine", "knobs",
                               "machine", "hw"), "request")
    source = payload.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "'source' must be a non-empty string of tinyc code")
    _require(len(source.encode("utf-8")) <= MAX_SOURCE_BYTES,
             f"'source' exceeds {MAX_SOURCE_BYTES} bytes")
    label = payload.get("label", "request")
    _require(isinstance(label, str) and 0 < len(label) <= 200,
             "'label' must be a string of at most 200 characters")
    kind_name = payload.get("kind", Disambiguator.SPEC.value)
    try:
        kind = Disambiguator(kind_name)
    except ValueError:
        raise RequestError(
            "bad_request",
            f"unknown disambiguator kind {kind_name!r} "
            f"(known: {', '.join(k.value for k in Disambiguator)})")
    engine = payload.get("engine", DEFAULT_ENGINE)
    _require(engine in engine_names(),
             f"unknown engine {engine!r} "
             f"(known: {', '.join(engine_names())})")
    return ServeRequest(
        endpoint=endpoint, label=label, source=source, kind=kind,
        config=_parse_knobs(payload.get("knobs"), engine),
        machine=_parse_machine(payload.get("machine")),
        hw=_parse_hw(payload.get("hw")))


# -- response envelopes -------------------------------------------------------

def error_body(endpoint: str, code: str, message: str) -> Dict[str, object]:
    """The structured failure envelope."""
    return {"schema": SCHEMA, "endpoint": endpoint,
            "error": {"code": code, "message": message}}


def result_body(endpoint: str, fingerprint: str,
                result: Dict[str, object]) -> Dict[str, object]:
    """The structured success envelope."""
    return {"schema": SCHEMA, "endpoint": endpoint,
            "fingerprint": fingerprint, "result": result}


def encode_body(body: Dict[str, object]) -> bytes:
    """Canonical byte serialisation: identical bodies are identical
    bytes no matter which code path produced them."""
    return (json.dumps(body, sort_keys=True, separators=(",", ":"))
            .encode("utf-8") + b"\n")
