"""The in-process workloads: ``kernels`` and ``corpus``.

One *pass* takes every program of the workload through its cold flow
(the pass starts with an empty artifact store and an empty JIT code
cache, ``jobs=1``), each followed by :data:`WARM_REPLAYS` replays of the
same calls through a fresh :class:`Pipeline` over the populated disk
store (the warm flow).  Each program's cold flow and its warm replays
are one operation each.  The correctness checks run after the pass,
outside every timed region.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.disambig.pipeline import Disambiguator
from repro.engines.jit import clear_code_cache
from repro.machine.description import machine
from repro.machine.hw import HW_ORACLE_INFINITE, hw_machine
from repro.pipeline.core import Pipeline
from repro.pipeline.store import ArtifactStore
from repro.sim.interpreter import run_program

from .inputs import FUS

__all__ = ["Program", "FlowSpec", "KERNELS_FLOW", "CORPUS_FLOW",
           "CLOSED_FORM", "PassResult", "kernel_programs",
           "corpus_programs", "run_pass"]

SPEC = Disambiguator.SPEC
NAIVE = Disambiguator.NAIVE

#: Kernels whose first printed value has a closed form: towers prints
#: its move count 2**12 - 1, queen the 92 solutions of eight queens,
#: bubble and quick a sorted flag.
CLOSED_FORM: Dict[str, int] = {"towers": 4095, "queen": 92, "bubble": 1,
                               "quick": 1}

#: Warm replays of each program, each by a fresh Pipeline (empty memory
#: tier) over the disk store its cold flow just populated.  Replaying
#: right after the cold flow spreads the short warm samples over the
#: whole pass, so a brief host slowdown cannot dominate them.
WARM_REPLAYS = 2

#: The SpD+HW machine: a 4-wide store-set core at 2-cycle memory.
HW_CORE = hw_machine(4, 2)


@dataclass
class Program:
    label: str
    source: str
    #: expected first output value, when it has a closed form
    expected_first: Optional[int] = None
    #: manifest SHA-256 of the regenerated source (corpus only)
    fingerprint: Optional[str] = None
    #: run the SpD+HW flow on this program
    hw: bool = True


@dataclass(frozen=True)
class FlowSpec:
    """Which stage calls make up one program's cold flow."""

    #: (kind, memory latency) views requested explicitly
    views: Tuple[Tuple[Disambiguator, int], ...]
    #: (kind, memory latency) pairs timed on every width of :data:`FUS`
    timed: Tuple[Tuple[Disambiguator, int], ...]
    #: compile and profile are requested before the views
    explicit_front: bool

    def calls(self, program: Program) -> List[tuple]:
        calls: List[tuple] = []
        if self.explicit_front:
            calls += [("compiled",), ("profile",)]
        calls += [("view", kind, memory) for kind, memory in self.views]
        calls += [("timing", kind, machine(fus, memory))
                  for kind, memory in self.timed for fus in FUS]
        if program.hw:
            calls.append(("hw_timing", SPEC, HW_CORE))
        return calls


#: The paper's whole flow: four views at 2- and 6-cycle memory, each
#: list-scheduled on the 1/2/4/8-FU machines, and one SpD+HW run.
KERNELS_FLOW = FlowSpec(
    views=tuple((kind, memory) for memory in (2, 6)
                for kind in Disambiguator),
    timed=tuple((kind, memory) for memory in (2, 6)
                for kind in Disambiguator),
    explicit_front=True)

#: What ``repro bench --corpus`` does per program, on four widths.
CORPUS_FLOW = FlowSpec(views=((SPEC, 2),), timed=((NAIVE, 2), (SPEC, 2)),
                       explicit_front=False)


def kernel_programs(order: List[str]) -> List[Program]:
    from repro.bench.suite import SUITE
    return [Program(name, SUITE[name].source, CLOSED_FORM.get(name))
            for name in order]


def corpus_programs(entries: List[dict],
                    sources: Dict[str, str]) -> List[Program]:
    """The drawn entries with their regenerated *sources* (id -> text);
    the smallest drawn program of each stratum also runs SpD+HW."""
    smallest: Dict[str, dict] = {}
    for entry in entries:
        best = smallest.get(entry["stratum"])
        if best is None or (entry["ops"], entry["id"]) < (best["ops"],
                                                          best["id"]):
            smallest[entry["stratum"]] = entry
    hw_ids = {entry["id"] for entry in smallest.values()}
    return [Program(entry["id"], sources[entry["id"]],
                    fingerprint=entry["fingerprint"],
                    hw=entry["id"] in hw_ids)
            for entry in entries]


def _call(pipeline: Pipeline, program: Program, call: tuple):
    method = getattr(pipeline, call[0])
    return method(program.label, program.source, *call[1:])


def _result_key(call: tuple) -> tuple:
    if call[0] in ("timing", "hw_timing"):
        return (call[0], call[1], call[2].name)
    if call[0] == "view":
        return call
    return (call[0],)


def _observable(call: tuple, artifact) -> object:
    """What a call's answer is, for comparing cold and warm."""
    if call[0] in ("timing", "hw_timing"):
        return artifact.cycles
    if call[0] == "view":
        return artifact.code_size()
    if call[0] == "compiled":
        return artifact.program.size()
    return tuple(artifact.reference.output)


@dataclass
class PassResult:
    programs: int = 0
    #: prepare + cold + warm, the span a traced window covers
    window_s: float = 0.0
    cold_s: float = 0.0
    program_ms: List[float] = field(default_factory=list)
    #: wall time of each warm replay of a program
    warm_ms: List[float] = field(default_factory=list)
    miss_ms: List[float] = field(default_factory=list)
    hit_ms: List[float] = field(default_factory=list)
    #: NAIVE/SPEC cycles per program x width at 2-cycle memory
    speedups: List[float] = field(default_factory=list)
    growths: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: label -> call -> answer of the cold flow
    answers: Dict[str, Dict[tuple, object]] = field(default_factory=dict)
    #: repro.obs counters of a traced pass
    counters: Dict[str, float] = field(default_factory=dict)


def run_pass(prepare: Callable[[], List[Program]], flow: FlowSpec,
             workdir: Path, tracer=None, peak_rss=None,
             expected: Optional[Dict[str, Dict[tuple, object]]] = None
             ) -> PassResult:
    """One cold pass plus its warm replay, then the checks.

    Without *expected* every program gets the independent checks of
    :func:`_check`; with it (the answers of an earlier, checked pass over
    the same programs) each program's answers must equal the earlier
    ones, which is far cheaper than checking them again.

    *prepare* returns the programs; it runs first inside the measured
    window, so that a traced pass also sees source regeneration.  With
    *tracer* (a :class:`~benchlib.layers.LayerTracer` whose wrappers are
    installed) the window is traced under a ``repro.obs`` tracer, whose
    counters land in :attr:`PassResult.counters`, and the wrappers are
    removed before the checks.  *peak_rss* is read after the measured
    window, before the checks allocate anything."""
    store_root = workdir / "store"
    shutil.rmtree(store_root, ignore_errors=True)
    result = PassResult()
    cold: Dict[str, Dict[tuple, object]] = {}
    errors: Dict[str, str] = {}
    warm_bad: Dict[str, str] = {}
    try:
        with (obs.tracing() if tracer else nullcontext()) as obs_tracer, \
                (tracer.window() if tracer else nullcontext()):
            window_start = time.perf_counter()
            programs = prepare()
            clear_code_cache()
            pipeline = Pipeline(store=ArtifactStore(root=store_root))
            for program in programs:
                with _phase(tracer, "cold"):
                    started = time.perf_counter()
                    cold[program.label] = _cold_flow(
                        pipeline, program, flow, result, errors)
                    result.cold_s += time.perf_counter() - started
                for _ in range(WARM_REPLAYS):
                    warm = Pipeline(store=ArtifactStore(root=store_root))
                    with _phase(tracer, "warm"):
                        started = time.perf_counter()
                        _warm_flow(warm, program, flow, cold[program.label],
                                   result, warm_bad)
                        result.warm_ms.append(
                            (time.perf_counter() - started) * 1e3)
            result.window_s = time.perf_counter() - window_start
        if obs_tracer is not None:
            result.counters = dict(obs_tracer.metrics.snapshot()["counters"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    if peak_rss is not None:
        result.peak_rss_mb = peak_rss()

    result.programs = len(programs)
    result.attempted = (1 + WARM_REPLAYS) * len(programs)
    result.answers = cold
    for program in programs:
        problem = errors.get(program.label)
        if problem is None and expected is None:
            problem = _check(pipeline, program, flow, cold[program.label],
                             result)
        elif problem is None and cold[program.label] != expected.get(
                program.label):
            problem = "answers differ from the first pass"
        if problem:
            result.problems.append(f"{program.label}: {problem}")
            result.failed += 1
    for label, problem in sorted(warm_bad.items()):
        result.problems.append(f"{label}: warm replay: {problem}")
        result.failed += 1
    shutil.rmtree(store_root, ignore_errors=True)
    return result


def _cold_flow(pipeline: Pipeline, program: Program, flow: FlowSpec,
               result: PassResult, errors: Dict[str, str]
               ) -> Dict[tuple, object]:
    answers: Dict[tuple, object] = {}
    program_start = time.perf_counter()
    try:
        for call in flow.calls(program):
            t0 = time.perf_counter()
            artifact = _call(pipeline, program, call)
            result.miss_ms.append((time.perf_counter() - t0) * 1e3)
            answers[_result_key(call)] = _observable(call, artifact)
    except Exception as error:  # noqa: BLE001 - counted and reported
        errors[program.label] = f"{type(error).__name__}: {error}"
    result.program_ms.append((time.perf_counter() - program_start) * 1e3)
    return answers


def _warm_flow(pipeline: Pipeline, program: Program, flow: FlowSpec,
               cold: Dict[tuple, object], result: PassResult,
               bad: Dict[str, str]) -> None:
    try:
        for call in flow.calls(program):
            t0 = time.perf_counter()
            artifact = _call(pipeline, program, call)
            result.hit_ms.append((time.perf_counter() - t0) * 1e3)
            key = _result_key(call)
            if key in cold and cold[key] != _observable(call, artifact):
                bad[program.label] = f"{key} differs from the cold answer"
    except Exception as error:  # noqa: BLE001 - counted and reported
        bad[program.label] = f"{type(error).__name__}: {error}"


def _phase(tracer, name: str):
    return tracer.phase(name) if tracer is not None else nullcontext()


def _check(pipeline: Pipeline, program: Program, flow: FlowSpec,
           answers: Dict[tuple, object], result: PassResult
           ) -> Optional[str]:
    """The independent checks of one program; the problem, or None.

    Also folds the program's generated-code figures into *result*."""
    label, source = program.label, program.source
    if program.fingerprint is not None:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        if digest != program.fingerprint:
            return "regenerated source does not match its manifest SHA-256"
    compiled = pipeline.compiled(label, source)
    profiled = pipeline.profile(label, source)
    reference = run_program(compiled.program.copy(), engine="interp",
                            collect_profile=False)
    if (not reference.output_equal(profiled.reference)
            or reference.return_value != profiled.reference.return_value):
        return "output differs from the reference interpreter"
    if (program.expected_first is not None
            and profiled.reference.output[:1] != [program.expected_first]):
        return (f"first output {profiled.reference.output[:1]} is not "
                f"the closed-form {program.expected_first}")
    infinite: Dict[tuple, int] = {}
    for kind, memory in flow.timed:
        infinite[(kind, memory)] = pipeline.timing(
            label, source, kind, machine(None, memory)).cycles
        for fus in FUS:
            finite = answers[("timing", kind, machine(fus, memory).name)]
            if finite < infinite[(kind, memory)]:
                return (f"{kind.value} on {fus} FUs at memory {memory}: "
                        f"{finite} cycles < infinite machine "
                        f"{infinite[(kind, memory)]}")
    for (kind, memory), cycles in infinite.items():
        naive = infinite.get((NAIVE, memory))
        if kind is SPEC and naive is not None and cycles > naive:
            return (f"SPEC {cycles} > NAIVE {naive} cycles on the infinite "
                    f"machine at memory {memory}")
    if program.hw:
        bound = pipeline.hw_timing(label, source, SPEC,
                                   HW_ORACLE_INFINITE).cycles
        cycles = answers[("hw_timing", SPEC, HW_CORE.name)]
        if cycles < bound:
            return f"hwsim {cycles} cycles < oracle bound {bound}"
    for fus in FUS:
        name = machine(fus, 2).name
        result.speedups.append(answers[("timing", NAIVE, name)]
                               / answers[("timing", SPEC, name)])
    view = pipeline.view(label, source, SPEC, 2)
    result.growths.append(view.code_size() / compiled.program.size())
    return None
