"""Parallel job executor: fan the timing matrix out over processes.

The experiment harness is an embarrassingly parallel matrix of
(program × disambiguator × machine) jobs.  :func:`run_jobs` executes a
batch of picklable job specs either serially (``num_jobs <= 1`` — the
default, and byte-identical to the historical behaviour) or on a
``multiprocessing`` pool.  Determinism is preserved in both modes:

* results are returned in job order (ordered ``Pool.imap``),
  independent of worker scheduling;
* every stage is itself deterministic, so a worker computes exactly the
  artifact the parent would have;
* workers share the parent's *disk* store (atomic write-rename makes
  concurrent writes safe), so intermediate artifacts — compiled
  programs, profiles, views — are visible to the parent afterwards;
  the finished job results are additionally shipped back through the
  pool and inserted into the parent's in-memory tier in job order.

The ``fork`` start method is preferred (cheap, inherits the loaded
package); platforms without it (Windows, macOS spawn default) fall back
to ``spawn``, which only requires the job/config dataclasses to pickle.

Each worker process gets its pipeline from :func:`worker_pipeline`, a
small per-process cache keyed by ``(PipelineConfig, cache root)``; the
compilation service's executor (:mod:`repro.serve.service`) uses the
same helper, so there is one place a worker builds a pipeline.

When the parent runs under a tracer, workers record each job under a
tracer of their own and ship the resulting ``pipeline.worker_job`` span
subtree (stamped with the worker's OS pid) and metrics registry back
with the artifact.  :func:`run_jobs` grafts the spans under its
``pipeline.parallel`` span in job order and folds the registries into
the parent's, so a ``--jobs N`` run produces one coherent trace —
Chrome-trace exports lay worker spans out on per-pid lanes (see
:mod:`repro.obs.export`) and merged counters equal a serial run's.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .. import obs
from ..disambig.pipeline import Disambiguator
from ..machine.description import LifeMachine
from ..machine.hw import HwMachine
from .artifacts import CompiledArtifact, HwTimingArtifact, TimingArtifact
from .core import Pipeline, PipelineConfig
from .store import ArtifactStore

__all__ = ["CompileJob", "ViewJob", "TimingJob", "HwTimingJob", "run_jobs",
           "stream_jobs", "artifact_stage", "start_worker", "worker_pipeline"]


@dataclass(frozen=True)
class CompileJob:
    """Compile (and graft) one source into its tree program (stage 1)."""

    label: str
    source: str


@dataclass(frozen=True)
class ViewJob:
    """Compute one disambiguated view (stage 3)."""

    label: str
    source: str
    kind: Disambiguator
    memory_latency: int = 2


@dataclass(frozen=True)
class TimingJob:
    """Compute one whole-program timing (stage 4, pulls in 1-3)."""

    label: str
    source: str
    kind: Disambiguator
    machine: LifeMachine


@dataclass(frozen=True)
class HwTimingJob:
    """Compute one hardware-simulation timing (stage 4', pulls in 1-3)."""

    label: str
    source: str
    kind: Disambiguator
    machine: HwMachine


Job = Union[CompileJob, ViewJob, TimingJob, HwTimingJob]


@dataclass(frozen=True)
class _WorkerSpec:
    """What a pool worker needs: the pipeline it runs jobs on and how
    the parent wants them observed."""

    config: PipelineConfig
    cache_root: Optional[str]
    trace: bool = False
    profile_top_n: Optional[int] = None
    keep_spans: bool = True


@dataclass
class _WorkerResult:
    """One job's artifact plus the worker-side observability capture.

    ``span`` is the worker's job span subtree (``None`` when the parent
    ran untraced) and ``metrics`` the registry the job accumulated;
    both travel back through the pool so the parent can merge a
    parallel run into one coherent trace."""

    artifact: object
    span: Optional[obs.Span] = None
    metrics: Optional[obs.MetricsRegistry] = None


#: Per-process pipelines keyed by ``(config, cache_root)``, so a worker
#: processing many jobs or requests for one configuration reuses its
#: in-memory tier.
_worker_pipelines: "OrderedDict[Tuple[PipelineConfig, Optional[str]], " \
    "Pipeline]" = OrderedDict()
_WORKER_PIPELINE_CAP = 8
_worker_spec: Optional[_WorkerSpec] = None


def worker_pipeline(config: PipelineConfig,
                    cache_root: Optional[str]) -> Pipeline:
    """This process's pipeline for *config* over the store at
    *cache_root* (``None`` = memory-only), from a small LRU."""
    key = (config, cache_root)
    pipeline = _worker_pipelines.get(key)
    if pipeline is None:
        pipeline = Pipeline(config, ArtifactStore(cache_root))
        _worker_pipelines[key] = pipeline
        while len(_worker_pipelines) > _WORKER_PIPELINE_CAP:
            _worker_pipelines.popitem(last=False)
    else:
        _worker_pipelines.move_to_end(key)
    return pipeline


def start_worker() -> None:
    """Initializer of every pipeline worker process: a forked parent
    tracer or profiler would record into a dead copy, so start with
    neither.  A forked parent's signal handlers (``repro serve``'s
    event loop catches SIGTERM/SIGINT) are reset to the interpreter's
    defaults, so the pool can still terminate its workers and a worker's
    signals never wake the parent's loop."""
    obs.disable()
    obs.disable_profiling()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)


def _start_pool_worker(spec: _WorkerSpec) -> None:
    global _worker_spec
    start_worker()
    _worker_spec = spec
    if spec.trace and spec.profile_top_n is not None:
        obs.enable_profiling(spec.profile_top_n)


def _run_job(job: Job) -> _WorkerResult:
    spec = _worker_spec
    pipeline = worker_pipeline(spec.config, spec.cache_root)
    if not spec.trace:
        return _WorkerResult(_run_on(pipeline, job))
    # record this job under its own tracer; the job span (with the
    # worker's pid stamped on it) ships back for the parent to graft
    with obs.tracing() as tracer:
        with obs.span("pipeline.worker_job", job=job.label,
                      worker_pid=os.getpid()) as job_span:
            artifact = _run_on(pipeline, job)
    # at corpus scale span subtrees dominate the shipped payload, so
    # metrics-only runs drop them (counters/histograms still merge)
    return _WorkerResult(artifact, job_span if spec.keep_spans else None,
                         tracer.metrics)


def _run_on(pipeline: Pipeline, job: Job):
    if isinstance(job, CompileJob):
        return pipeline.compiled(job.label, job.source)
    if isinstance(job, TimingJob):
        return pipeline.timing(job.label, job.source, job.kind, job.machine)
    if isinstance(job, HwTimingJob):
        return pipeline.hw_timing(job.label, job.source, job.kind,
                                  job.machine)
    return pipeline.view(job.label, job.source, job.kind, job.memory_latency)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _pool_results(pipeline: Pipeline, jobs: List[Job], workers: int,
                  keep_spans: bool, chunksize: int):
    """Run *jobs* on a pool of *workers* processes; yield each
    :class:`_WorkerResult` in job order, its worker metrics already
    merged into the parent tracer (merge is associative, so ``jobs=N``
    matches a serial run's counters)."""
    tracer = obs.current_tracer()
    root = pipeline.store.root
    spec = _WorkerSpec(
        pipeline.config, str(root) if root is not None else None,
        trace=tracer is not None,
        profile_top_n=(obs.profile.DEFAULT_TOP_N
                       if obs.is_profiling() else None),
        keep_spans=keep_spans)
    obs.set_gauge("pipeline.jobs", workers)
    obs.incr("pipeline.parallel_tasks", len(jobs))
    with _pool_context().Pool(workers, initializer=_start_pool_worker,
                              initargs=(spec,)) as pool:
        for result in pool.imap(_run_job, jobs, chunksize=chunksize):
            if tracer is not None and result.metrics is not None:
                tracer.metrics.merge(result.metrics)
            yield result


def run_jobs(pipeline: Pipeline, jobs: Sequence[Job],
             num_jobs: int = 1) -> List[object]:
    """Execute *jobs* against *pipeline*; results in job order.

    ``num_jobs <= 1`` runs in-process.  Otherwise a worker pool computes
    the jobs; each result artifact is inserted into the parent store's
    memory tier (workers already wrote the shared disk tier, if any),
    and each worker's job span is grafted under ``pipeline.parallel``
    with its ``worker_pid`` annotation, so exporters lay subprocess
    spans out on their own pid lanes.
    """
    jobs = list(jobs)
    if num_jobs <= 1 or len(jobs) <= 1:
        return [_run_on(pipeline, job) for job in jobs]

    workers = min(num_jobs, len(jobs))
    with obs.span("pipeline.parallel", jobs=workers,
                  tasks=len(jobs)) as parallel_span:
        # Pool.map's chunking, so workers see the same job batches
        worker_results = list(_pool_results(
            pipeline, jobs, workers, keep_spans=True,
            chunksize=-(-len(jobs) // (4 * workers))))
        if obs.current_tracer() is not None:
            parallel_span.children.extend(
                result.span for result in worker_results
                if result.span is not None)
    results = [result.artifact for result in worker_results]
    for artifact in results:
        pipeline.store.put_memory(artifact_stage(artifact),
                                  artifact.fingerprint, artifact)
    return results


def stream_jobs(pipeline: Pipeline, jobs: Sequence[Job], num_jobs: int = 1,
                chunksize: int = 4):
    """Yield job results in job order without accumulating them.

    The corpus-scale sibling of :func:`run_jobs`: artifacts are yielded
    one at a time and are **not** inserted into the parent's in-memory
    tier, so a thousand-program run holds O(1) artifacts in the parent
    regardless of corpus size — the shared disk tier still ends up
    fully populated by the workers.  Worker metrics registries are
    merged into the parent tracer as results arrive, but span subtrees
    are dropped at the source: at this scale the counters and
    stage-duration histograms are the signal and per-job span trees
    would dominate the shipped payload.
    """
    jobs = list(jobs)
    if num_jobs <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield _run_on(pipeline, job)
        return

    workers = min(num_jobs, len(jobs))
    with obs.span("pipeline.stream", jobs=workers, tasks=len(jobs)):
        for result in _pool_results(pipeline, jobs, workers,
                                    keep_spans=False, chunksize=chunksize):
            yield result.artifact


def artifact_stage(artifact) -> str:
    """The store stage a job-result artifact belongs to."""
    if isinstance(artifact, TimingArtifact):
        return "timing"
    if isinstance(artifact, HwTimingArtifact):
        return "hwtime"
    if isinstance(artifact, CompiledArtifact):
        return "compiled"
    return "view"
