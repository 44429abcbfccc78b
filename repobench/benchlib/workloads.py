"""The three workloads: set-up, timed rounds, checks and metrics.

:func:`setup` does everything before a run's first timed operation
(:mod:`benchlib.cli` also repeats it in fresh processes to measure
``setup_s``); a ``run_*`` function per workload returns an
:class:`Outcome`.  An untraced run repeats whole rounds until their
measured windows add up to the requested seconds; a traced run makes
one untraced round as the overhead reference, then one traced round.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.corpus.manifest import entry_source, load_manifest
from repro.disambig.pipeline import Disambiguator
from repro.machine.description import machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore

from . import flows, inputs, layers, service
from .metrics import geomean, median, percentile

__all__ = ["Outcome", "WORKLOAD_RUNNERS", "setup"]

#: The checkout whose ``src/`` is measured.
ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path("benchmarks") / "corpus" / "manifest.json"


@dataclass
class Outcome:
    values: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    problems: List[str] = field(default_factory=list)
    tracer: Optional[layers.LayerTracer] = None


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _regenerate(manifest: dict, entries: List[dict]) -> Dict[str, str]:
    """Entry id -> regenerated source.  Looks ``entry_source`` up in this
    module, where the traced run wraps it."""
    return {entry["id"]: entry_source(manifest, entry) for entry in entries}


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int) -> dict:
    """Everything a run does before its first timed operation, except
    starting the service (see :func:`benchlib.cli.probe_setup`)."""
    if workload == "kernels":
        from repro.bench.suite import SUITE
        return {"order": inputs.kernel_order(list(SUITE), seed)}
    manifest = load_manifest(ROOT / MANIFEST)
    if workload == "corpus":
        entries = inputs.corpus_draw(manifest, seed)
    else:
        entries = inputs.serve_draw(manifest, seed)
    return {"manifest": manifest, "entries": entries,
            "sources": _regenerate(manifest, entries)}


# -- kernels and corpus ---------------------------------------------------------

def _flow_values(passes: List[flows.PassResult]) -> Dict[str, float]:
    programs = sum(p.programs for p in passes)
    calls = sum(len(p.miss_ms) + len(p.hit_ms) for p in passes)
    cold_s = sum(p.cold_s for p in passes)
    window_s = sum(p.window_s for p in passes)
    program_ms = [v for p in passes for v in p.program_ms]
    warm_ms = [v for p in passes for v in p.warm_ms]
    miss_ms = [v for p in passes for v in p.miss_ms]
    hit_ms = [v for p in passes for v in p.hit_ms]
    return {
        "programs_per_s": programs / cold_s,
        "program_ms.p50": median(program_ms),
        # a median: a few slow replays among hundreds of 2-30 ms ones
        # swung a mean-based rate by a quarter between runs
        "warm_programs_per_s": 1e3 / median(warm_ms),
        # cold and warm stage calls over the whole window
        "requests_per_s": calls / window_s,
        "miss_ms.p50": median(miss_ms),
        "miss_ms.p90": percentile(miss_ms, 0.9),
        "hit_ms.p50": median(hit_ms),
        # read once, before the first check: the RSS peak never falls,
        # so a later reading would include the checks
        "peak_rss_mb": passes[0].peak_rss_mb,
        "spec_speedup_geomean": geomean(
            v for p in passes for v in p.speedups),
        "code_growth": geomean(v for p in passes for v in p.growths),
    }


def _run_flow(prepare_fn: Callable[[bool], Callable[[], list]],
              flow: flows.FlowSpec, workdir: Path, seconds: float,
              traced: bool) -> Outcome:
    """Untraced: whole passes until their measured windows add up to
    *seconds*.  Traced: one untraced reference pass, then one traced
    pass; both regenerate their inputs inside the window."""
    passes: List[flows.PassResult] = []
    tracer = None
    if not traced:
        while sum(p.window_s for p in passes) < seconds or not passes:
            passes.append(flows.run_pass(
                prepare_fn(False), flow, workdir,
                peak_rss=None if passes else _rss_mb,
                expected=passes[0].answers if passes else None))
        values = _flow_values(passes)
    else:
        reference = flows.run_pass(prepare_fn(True), flow, workdir)
        tracer = layers.LayerTracer("repobench")
        tracer.install(layers.pipeline_targets(sys.modules[__name__]))
        traced_pass = flows.run_pass(prepare_fn(True), flow, workdir,
                                     tracer=tracer)
        passes = [reference, traced_pass]
        values = layer_values(tracer, traced_pass.counters,
                              traced_pass.window_s / reference.window_s)
    problems = [problem for p in passes for problem in p.problems]
    return Outcome(values, sum(p.attempted for p in passes),
                   sum(p.failed for p in passes), not problems, problems,
                   tracer)


def run_kernels(state: dict, workdir: Path, seconds: float, traced: bool,
                seed: int) -> Outcome:
    def prepare_fn(_regenerate):
        return lambda: flows.kernel_programs(state["order"])
    return _run_flow(prepare_fn, flows.KERNELS_FLOW, workdir, seconds,
                     traced)


def run_corpus(state: dict, workdir: Path, seconds: float, traced: bool,
               seed: int) -> Outcome:
    def prepare_fn(regenerate):
        def prepare():
            sources = (_regenerate(state["manifest"], state["entries"])
                       if regenerate else state["sources"])
            return flows.corpus_programs(state["entries"], sources)
        return prepare
    return _run_flow(prepare_fn, flows.CORPUS_FLOW, workdir, seconds,
                     traced)


# -- per-layer values ------------------------------------------------------------

_SERVE_LAYER_DEFAULTS = {
    "serve.server_miss_ms.p50": 0.0, "serve.server_hit_ms.p50": 0.0,
    "serve.transport_ms.p50": 0.0, "serve.executions": 0.0,
    "serve.dedup_hits": 0.0, "serve.response_hits": 0.0,
    "serve.batches": 0.0, "serve.executions_per_miss": 0.0,
}


def layer_values(tracer: layers.LayerTracer, counters: Dict[str, float],
                 overhead_ratio: float,
                 serve_values: Optional[Dict[str, float]] = None
                 ) -> Dict[str, float]:
    values = tracer.layer_values()
    memo_hits = counters.get("hwsim.memo_hits", 0)
    memo_lookups = memo_hits + counters.get("hwsim.memo_misses", 0)
    values.update({
        "engines.jit_compiles": counters.get("engines.jit.compiles", 0),
        "sim.steps": counters.get("sim.steps", 0),
        "spd.gain_evaluations": counters.get("spd.gain_evaluations", 0),
        "hwsim.tree_executions": counters.get("hwsim.tree_executions", 0),
        "hwsim.memo_hit_ratio": (memo_hits / memo_lookups
                                 if memo_lookups else 0.0),
        "store.disk_hits": counters.get("pipeline.cache_hits.disk", 0),
        "trace.overhead_ratio": overhead_ratio,
    })
    values.update(_SERVE_LAYER_DEFAULTS)
    values.update(serve_values or {})
    return values


# -- serve ------------------------------------------------------------------------

def _serve_prepare(state: dict, seed: int, regenerate: bool):
    def prepare():
        sources = (_regenerate(state["manifest"], state["entries"])
                   if regenerate else state["sources"])
        return inputs.serve_requests(
            [(entry["id"], sources[entry["id"]], entry["ops"])
             for entry in state["entries"]], seed)
    return prepare


def _check_round(result: service.RoundResult,
                 reference: Pipeline) -> List[str]:
    """Independent checks of one round against *reference*, an
    in-process pipeline over its own memory-only store; one problem per
    failed request index (the round checks its own shutdown)."""
    problems: List[str] = []
    by_index = service.response_map(result)
    for index, (endpoint, payload) in enumerate(result.distinct):
        records = by_index.get(index, [])
        problem = _check_request(reference, endpoint, payload, records)
        if problem:
            problems.append(f"{payload['label']} /v1/{endpoint}: {problem}")
    return problems


def _check_request(reference: Pipeline, endpoint: str, payload: dict,
                   records: List[service.Record]) -> Optional[str]:
    if not records:
        return "never answered"
    first = records[0]
    if first.status != 200:
        return f"status {first.status}: {first.body[:200]!r}"
    for record in records[1:]:
        if record.body != first.body:
            sent = "relabelled " if record.relabelled else ""
            return (f"a {sent}{record.cache} answer differs from the "
                    f"first answer")
    body = json.loads(first.body)["result"]
    label, source = payload["label"], payload["source"]
    mach = payload.get("machine", {})
    memory = mach.get("memory", 2)
    life = machine(mach.get("fus", 5) or None, memory)
    if endpoint == "compile":
        expected = {"ops": reference.compiled(label, source).program.size()}
        got = {"ops": body["ops"]}
    elif endpoint == "disambiguate":
        view = reference.view(label, source, Disambiguator(payload["kind"]),
                              memory)
        expected = {"code_size": view.code_size()}
        got = {"code_size": body["code_size"]}
    elif endpoint == "time":
        expected = {"cycles": reference.timing(
            label, source, Disambiguator(payload["kind"]), life).cycles}
        got = {"cycles": body["cycles"]}
    else:
        expected = {"ops": reference.compiled(label, source).program.size()}
        got = {"ops": body["ops"]}
        for kind in Disambiguator:
            expected[kind.value] = reference.timing(label, source, kind,
                                                    life).cycles
            got[kind.value] = body["disambiguators"][kind.value]["cycles"]
        expected["spec_ops"] = reference.view(
            label, source, Disambiguator.SPEC, memory).code_size()
        got["spec_ops"] = body["disambiguators"]["spec"]["code_size"]
        if got["spec"] > got["naive"]:
            return (f"SPEC {got['spec']} > NAIVE {got['naive']} cycles on "
                    f"the infinite machine")
    if got != expected:
        return f"body {got} != in-process pipeline {expected}"
    return None


def _serve_values(results: List[service.RoundResult]) -> Dict[str, float]:
    load_s = sum(r.load_s for r in results)
    requests = sum(len(r.records) for r in results)
    report_ms, miss_ms, hit_ms, store_hit_ms = [], [], [], []
    speedups, growths = [], []
    for result in results:
        by_index = service.response_map(result)
        for index, (endpoint, _payload) in enumerate(result.distinct):
            first = by_index[index][0]
            if endpoint == "report" and first.status == 200:
                # a report takes its program through the whole flow:
                # compile, the four views and their timing
                report_ms.append(first.latency_ms)
                body = json.loads(first.body)["result"]
                table = body["disambiguators"]
                speedups.append(table["naive"]["cycles"]
                                / table["spec"]["cycles"])
                growths.append(table["spec"]["code_size"] / body["ops"])
        for record in result.records:
            if record.cache == "miss":
                miss_ms.append(record.latency_ms)
            elif record.cache == "hit" and record.relabelled:
                store_hit_ms.append(record.latency_ms)
            elif record.cache == "hit":
                hit_ms.append(record.latency_ms)
    return {
        # one connection's rate through the report flow, as the
        # in-process rate is one thread's rate through the cold flow
        "programs_per_s": 1e3 * len(report_ms) / sum(report_ms),
        "program_ms.p50": median(report_ms),
        # requests answered from the artifact store past the response
        # cache: the warm path of a program's request
        "warm_programs_per_s": 1e3 / median(store_hit_ms),
        "requests_per_s": requests / load_s,
        "miss_ms.p50": median(miss_ms),
        "miss_ms.p90": percentile(miss_ms, 0.9),
        "hit_ms.p50": median(hit_ms),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "spec_speedup_geomean": geomean(speedups),
        "code_growth": geomean(growths),
    }


def _serve_layer_values(result: service.RoundResult) -> Dict[str, float]:
    hits = [r.latency_ms for r in result.records
            if r.cache == "hit" and not r.relabelled]
    server_hit = service.server_p50(result, "serve.latency_ms.hit")
    misses = service.counter_delta(result, "serve.cache_misses")
    executions = service.counter_delta(result, "serve.executions")
    return {
        "serve.server_miss_ms.p50": service.server_p50(
            result, "serve.latency_ms.miss"),
        "serve.server_hit_ms.p50": server_hit,
        "serve.transport_ms.p50": median(hits) - server_hit,
        "serve.executions": executions,
        "serve.dedup_hits": service.counter_delta(result,
                                                  "serve.dedup_hits"),
        "serve.response_hits": service.counter_delta(
            result, "serve.response_hits"),
        "serve.batches": service.counter_delta(result, "serve.batches"),
        "serve.executions_per_miss": executions / misses if misses else 0.0,
    }


def run_serve(state: dict, workdir: Path, seconds: float, traced: bool,
              seed: int) -> Outcome:
    results: List[service.RoundResult] = []

    def one_round(regenerate: bool, tracer=None) -> None:
        results.append(service.run_round(
            ROOT, workdir, str(len(results)),
            _serve_prepare(state, seed, regenerate), tracer=tracer))

    tracer = None
    if not traced:
        while not results or sum(r.window_s for r in results) < seconds:
            one_round(regenerate=False)
        values = _serve_values(results)
    else:
        one_round(regenerate=True)
        tracer = layers.LayerTracer("repobench")
        tracer.install(layers.pipeline_targets(sys.modules[__name__]))
        try:
            one_round(regenerate=True, tracer=tracer)
        finally:
            tracer.uninstall()
        values = layer_values(tracer, {}, results[1].window_s
                              / results[0].window_s,
                              _serve_layer_values(results[1]))

    problems: List[str] = []
    attempted = failed = 0
    reference = Pipeline(store=ArtifactStore(root=None))
    for result in results:
        round_problems = _check_round(result, reference)
        attempted += len(result.records) + 1
        failed += len(round_problems)
        problems.extend(round_problems)
        if result.shutdown_problem:
            failed += 1
    correct = not problems
    shutdown = [f"SIGTERM shutdown: {r.shutdown_problem}" for r in results
                if r.shutdown_problem]
    return Outcome(values, attempted, failed, correct, problems + shutdown,
                   tracer)


WORKLOAD_RUNNERS = {"kernels": run_kernels, "corpus": run_corpus,
                    "serve": run_serve}
