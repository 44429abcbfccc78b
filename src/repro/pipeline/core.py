"""The compile → profile → disambiguate → time pipeline.

:class:`Pipeline` is the paper's Section 6.1 experimental flow as four
explicit, individually cached stages.  Each stage method computes its
content-addressed fingerprint, consults the two-tier
:class:`~repro.pipeline.store.ArtifactStore`, and only rebuilds on a
miss; a second ``repro report`` or pytest run served from the disk tier
therefore skips compilation, profiling and disambiguation entirely.

A :class:`PipelineConfig` holds the one toolchain configuration the
stages run under (SpD knobs, grafting, cleanup passes, guard words and
the execution engine) and computes the stage fingerprints; everything
that carries a configuration — the benchmark runner, the parallel
workers, the compilation service and the CLI — carries this object.

The pipeline is deliberately *source-addressed*: stages take the tinyc
source text (plus a display label), not a benchmark name, so the layer
knows nothing about :mod:`repro.bench` — benchmark-name resolution
lives in the :class:`~repro.bench.runner.BenchmarkRunner` façade one
level up.  That layering is also what lets this module import
:func:`~repro.frontend.driver.compile_source` at module level: the old
``BenchmarkRunner`` deferred the import to dodge the
``repro.bench ↔ repro.frontend`` package-init cycle, which no longer
exists.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .. import obs
from ..disambig.pipeline import Disambiguator, disambiguate
from ..disambig.spd_heuristic import SpDConfig
from ..engines import DEFAULT_ENGINE, get_engine
from ..frontend.driver import compile_source
from ..frontend.grafting import GraftConfig, graft_program
from ..hwsim.core import simulate_program
from ..machine.description import LifeMachine, machine
from ..machine.hw import HwMachine
from ..passes import PassPipelineConfig
from ..sim.evaluate import evaluate_program
from ..sim.interpreter import run_program
from .artifacts import (CompiledArtifact, DisambiguationArtifact,
                        HwTimingArtifact, ProfileArtifact, TimingArtifact)
from .fingerprint import fingerprint
from .store import ArtifactStore

__all__ = ["Pipeline", "PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """One toolchain configuration: everything besides the source and
    the machine that decides what a stage produces.

    Frozen and hashable, so it doubles as the key of per-process
    pipeline caches; its fingerprint methods are the content addresses
    of the artifacts a :class:`Pipeline` over it computes.
    """

    spd_config: SpDConfig = SpDConfig()
    #: tail-duplication bounds, or ``None`` for no grafting
    graft: Optional[GraftConfig] = None
    passes: PassPipelineConfig = PassPipelineConfig()
    #: unused padding words the frontend lays out between arrays
    guard_words: int = 0
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        self.passes.validated()
        # fail fast on unknown names; stages key their fingerprints on
        # the engine, so every registered engine gets its own cache rows
        get_engine(self.engine)

    def compile_fingerprint(self, source: str) -> str:
        return fingerprint({"stage": "compiled", "source": source,
                            "graft": (None if self.graft is None
                                      else asdict(self.graft)),
                            "guard_words": self.guard_words})

    def profile_fingerprint(self, source: str) -> str:
        return fingerprint({"stage": "profile",
                            "compiled": self.compile_fingerprint(source),
                            "engine": self.engine})

    def view_fingerprint(self, source: str, kind: Disambiguator,
                         memory_latency: int = 2) -> str:
        payload = {"stage": "view",
                   "compiled": self.compile_fingerprint(source),
                   "kind": kind.value,
                   # the profiling run and SPEC's validation re-run go
                   # through the configured engine; engines are verified
                   # equivalent, but a miscompile must never poison
                   # entries the reference engine computed
                   "engine": self.engine,
                   # the cleanup pass list runs on every view, so every
                   # view's fingerprint must see it (a changed pass list
                   # or pass option is a cache miss; the observational
                   # knobs are not part of the key)
                   "passes": self.passes.cache_key()}
        if kind is Disambiguator.SPEC:
            # only SPEC's Gain() estimates see the latency table and the
            # heuristic knobs; the other views share one entry per source
            payload["spd_config"] = asdict(self.spd_config)
            payload["latencies"] = asdict(
                machine(None, memory_latency).latencies)
        return fingerprint(payload)

    def timing_fingerprint(self, source: str, kind: Disambiguator,
                           mach: LifeMachine) -> str:
        return fingerprint({
            "stage": "timing",
            "view": self.view_fingerprint(source, kind, mach.memory_latency),
            "machine": {"num_fus": mach.num_fus,
                        "latencies": asdict(mach.latencies)},
        })

    def hw_timing_fingerprint(self, source: str, kind: Disambiguator,
                              mach: HwMachine) -> str:
        return fingerprint({
            "stage": "hwtime",
            "view": self.view_fingerprint(source, kind, mach.memory_latency),
            "machine": {"num_fus": mach.num_fus, "window": mach.window,
                        "predictor": mach.predictor,
                        "replay_penalty": mach.replay_penalty,
                        "latencies": asdict(mach.latencies)},
        })


class Pipeline:
    """Cached, parallelisable pipeline over one toolchain configuration."""

    def __init__(self, config: PipelineConfig = PipelineConfig(),
                 store: Optional[ArtifactStore] = None):
        self.config = config
        self.store = store if store is not None else ArtifactStore()

    # -- stages --------------------------------------------------------------

    def compiled(self, label: str, source: str) -> CompiledArtifact:
        config = self.config
        fp = config.compile_fingerprint(source)
        artifact = self.store.get("compiled", fp)
        if artifact is None:
            with obs.profile_span("pipeline.compile", program=label):
                program = compile_source(source,
                                         guard_words=config.guard_words)
                if config.graft is not None:
                    # grafting changes the tree structure, so every later
                    # stage runs against the grafted program
                    program, _stats = graft_program(program, config.graft)
            artifact = CompiledArtifact(fp, label, program)
            self.store.put("compiled", fp, artifact)
        return artifact

    def profile(self, label: str, source: str) -> ProfileArtifact:
        fp = self.config.profile_fingerprint(source)
        artifact = self.store.get("profile", fp)
        if artifact is None:
            compiled = self.compiled(label, source)
            with obs.profile_span("pipeline.profile", program=label):
                reference = run_program(compiled.program,
                                        engine=self.config.engine)
            artifact = ProfileArtifact(fp, label, reference)
            self.store.put("profile", fp, artifact)
        return artifact

    def view(self, label: str, source: str, kind: Disambiguator,
             memory_latency: int = 2) -> DisambiguationArtifact:
        config = self.config
        fp = config.view_fingerprint(source, kind, memory_latency)
        # --dump-after is observational (excluded from the fingerprint),
        # so a requested dump must bypass the cache: neither serve a hit
        # (no passes would run, no dump would happen) nor poison the
        # store with an entry other configs would then share
        use_cache = not config.passes.dump_after
        artifact = self.store.get("view", fp) if use_cache else None
        if artifact is None:
            compiled = self.compiled(label, source)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.disambiguate", program=label,
                          kind=kind.value, memory_latency=memory_latency):
                result = disambiguate(
                    compiled.program, kind, profile=profiled.profile,
                    machine=machine(None, memory_latency),
                    spd_config=config.spd_config, passes=config.passes)
                if kind is Disambiguator.SPEC:
                    transformed = run_program(result.program.copy(),
                                              collect_profile=False,
                                              engine=config.engine)
                    if not profiled.reference.output_equal(transformed):
                        raise AssertionError(
                            f"SpD changed the output of program {label!r}")
            artifact = DisambiguationArtifact(fp, label, result)
            if use_cache:
                self.store.put("view", fp, artifact)
        return artifact

    def timing(self, label: str, source: str, kind: Disambiguator,
               mach: LifeMachine) -> TimingArtifact:
        fp = self.config.timing_fingerprint(source, kind, mach)
        artifact = self.store.get("timing", fp)
        if artifact is None:
            view = self.view(label, source, kind, mach.memory_latency)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.timing", program=label,
                          kind=kind.value, machine=mach.name):
                timing = evaluate_program(view.program, view.graphs, mach,
                                          profiled.profile)
            artifact = TimingArtifact(fp, label, kind, timing)
            self.store.put("timing", fp, artifact)
        return artifact

    def hw_timing(self, label: str, source: str, kind: Disambiguator,
                  mach: HwMachine) -> HwTimingArtifact:
        """Stage 4': cycle count of one view on a dynamically scheduled
        machine — the same cached-artifact discipline as :meth:`timing`,
        but the cycles come from executing the program through
        :class:`~repro.hwsim.core.HwSimulator` rather than evaluating
        static schedules against a profile."""
        fp = self.config.hw_timing_fingerprint(source, kind, mach)
        artifact = self.store.get("hwtime", fp)
        if artifact is None:
            view = self.view(label, source, kind, mach.memory_latency)
            profiled = self.profile(label, source)
            with obs.profile_span("pipeline.hw_timing", program=label,
                          kind=kind.value, machine=mach.name):
                # simulate a copy: the simulator may lay out memory on a
                # program the store also serves to other callers
                run = simulate_program(view.program.copy(), mach)
                if not profiled.reference.output_equal(run):
                    raise AssertionError(
                        f"hardware simulation diverged from the reference "
                        f"interpreter on program {label!r} ({mach.name})")
            artifact = HwTimingArtifact(fp, label, kind, run.timing)
            self.store.put("hwtime", fp, artifact)
        return artifact

    # -- parallel fan-out ----------------------------------------------------

    def prefetch(self, jobs: Sequence, num_jobs: int = 1) -> list:
        """Compute a batch of :class:`~repro.pipeline.executor.ViewJob` /
        :class:`~repro.pipeline.executor.TimingJob` specs — fanned out
        over *num_jobs* worker processes when ``num_jobs > 1`` — and
        land the results in this pipeline's store.  Results come back in
        job order regardless of worker scheduling."""
        from .executor import run_jobs
        return run_jobs(self, jobs, num_jobs)

    def stream(self, jobs: Sequence, num_jobs: int = 1, chunksize: int = 4):
        """Like :meth:`prefetch` but yields results one at a time and
        never accumulates artifacts in this pipeline's memory tier —
        the corpus-scale path: a consumer can fold a thousand-program
        run into aggregates while holding O(1) artifacts."""
        from .executor import stream_jobs
        return stream_jobs(self, jobs, num_jobs, chunksize=chunksize)
