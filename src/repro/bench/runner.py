"""Benchmark runner: a thin façade over :mod:`repro.pipeline`.

Mirrors the paper's experimental flow (Section 6.1): "The C compiler
generates decision trees from the benchmark source codes.  The decision
trees are then processed by the disambiguator before being fed into the
simulator, which produces an execution cycle count.  It also produces
the program output, which is used to validate the correctness of the
decision trees."

The runner resolves benchmark *names* to sources and delegates every
stage to a :class:`~repro.pipeline.core.Pipeline`, which caches each
artifact in a two-tier (memory + disk) content-addressed store — so
repeated invocations, other processes and parallel workers all share
work.  The pre-pipeline public API (:meth:`compiled`, :meth:`view`,
:meth:`timing` and the headline metrics) is preserved verbatim;
:meth:`prefetch_timings` / :meth:`prefetch_views` add the parallel
fan-out used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..disambig.pipeline import DisambiguationResult, Disambiguator
from ..hwsim.core import HwTiming
from ..ir.program import Program
from ..machine.description import LifeMachine
from ..machine.hw import HwMachine
from ..pipeline.core import Pipeline, PipelineConfig
from ..pipeline.executor import HwTimingJob, TimingJob, ViewJob
from ..pipeline.store import ArtifactStore
from ..sim.evaluate import ProgramTiming
from ..sim.interpreter import RunResult
from .suite import Benchmark, get_benchmark

__all__ = ["CompiledBenchmark", "BenchmarkRunner"]


@dataclass
class CompiledBenchmark:
    """A benchmark after compilation and the profiling run."""

    benchmark: Benchmark
    program: Program
    reference: RunResult

    @property
    def profile(self):
        return self.reference.profile

    @property
    def base_size(self) -> int:
        return self.program.size()


class BenchmarkRunner:
    """Name-addressed façade over the artifact-store pipeline."""

    def __init__(self, config: PipelineConfig = PipelineConfig(),
                 jobs: int = 1, store: Optional[ArtifactStore] = None):
        self.jobs = jobs
        self.pipeline = Pipeline(config, store)
        self._compiled: Dict[str, CompiledBenchmark] = {}

    # -- stages ------------------------------------------------------------

    def compiled(self, name: str) -> CompiledBenchmark:
        cached = self._compiled.get(name)
        if cached is None:
            benchmark = get_benchmark(name)
            artifact = self.pipeline.compiled(name, benchmark.source)
            profiled = self.pipeline.profile(name, benchmark.source)
            cached = CompiledBenchmark(benchmark, artifact.program,
                                       profiled.reference)
            self._compiled[name] = cached
        return cached

    def view(self, name: str, kind: Disambiguator,
             memory_latency: int = 2) -> DisambiguationResult:
        source = get_benchmark(name).source
        return self.pipeline.view(name, source, kind, memory_latency).result

    def timing(self, name: str, kind: Disambiguator,
               mach: LifeMachine) -> ProgramTiming:
        source = get_benchmark(name).source
        return self.pipeline.timing(name, source, kind, mach).timing

    def hw_timing(self, name: str, kind: Disambiguator,
                  mach: HwMachine) -> HwTiming:
        """Cycle count of one view on a dynamically scheduled machine
        (:mod:`repro.hwsim`), cached like every other stage."""
        source = get_benchmark(name).source
        return self.pipeline.hw_timing(name, source, kind, mach).timing

    # -- parallel fan-out ----------------------------------------------------

    def prefetch_timings(self,
                         specs: Iterable[Tuple[str, Disambiguator,
                                               LifeMachine]],
                         jobs: Optional[int] = None) -> None:
        """Warm the cache for a batch of (name, kind, machine) timings,
        using ``jobs`` worker processes (default: the runner's knob)."""
        job_list = [TimingJob(name, get_benchmark(name).source, kind, mach)
                    for name, kind, mach in specs]
        self.pipeline.prefetch(job_list, self.jobs if jobs is None else jobs)

    def prefetch_hw_timings(self,
                            specs: Iterable[Tuple[str, Disambiguator,
                                                  HwMachine]],
                            jobs: Optional[int] = None) -> None:
        """Warm the cache for a batch of hardware-simulation timings."""
        job_list = [HwTimingJob(name, get_benchmark(name).source, kind, mach)
                    for name, kind, mach in specs]
        self.pipeline.prefetch(job_list, self.jobs if jobs is None else jobs)

    def prefetch_views(self,
                       specs: Iterable[Tuple[str, Disambiguator, int]],
                       jobs: Optional[int] = None) -> None:
        """Warm the cache for a batch of (name, kind, memory_latency)
        disambiguated views."""
        job_list = [ViewJob(name, get_benchmark(name).source, kind, latency)
                    for name, kind, latency in specs]
        self.pipeline.prefetch(job_list, self.jobs if jobs is None else jobs)

    # -- headline metrics ----------------------------------------------------

    def speedup_over_naive(self, name: str, kind: Disambiguator,
                           mach: LifeMachine) -> float:
        """Figure 6-2 metric: NAIVE cycles / kind cycles - 1."""
        naive = self.timing(name, Disambiguator.NAIVE, mach)
        other = self.timing(name, kind, mach)
        return other.speedup_over(naive)

    def spec_over_static(self, name: str, mach: LifeMachine) -> float:
        """Figure 6-3 metric: STATIC cycles / SPEC cycles - 1."""
        static = self.timing(name, Disambiguator.STATIC, mach)
        spec = self.timing(name, Disambiguator.SPEC, mach)
        return spec.speedup_over(static)

    def code_growth(self, name: str, memory_latency: int = 2) -> float:
        """Figure 6-4 metric: fractional operation-count increase."""
        compiled = self.compiled(name)
        spec = self.view(name, Disambiguator.SPEC, memory_latency)
        return spec.code_size() / compiled.base_size - 1.0
