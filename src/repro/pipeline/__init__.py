"""``repro.pipeline`` — artifact-store compilation pipeline.

The paper's experimental flow (compile → profile → disambiguate → time,
Section 6.1) as four explicitly cached stages:

* :mod:`repro.pipeline.fingerprint` — content-addressed artifact
  identity (source + SpD knobs + grafting + machine + version salt);
* :mod:`repro.pipeline.artifacts` — picklable inter-stage values;
* :mod:`repro.pipeline.store` — in-memory LRU over an on-disk cache
  (``$REPRO_CACHE_DIR`` / ``~/.cache/repro-spd``);
* :mod:`repro.pipeline.shards` — the sharded variant of the store
  (per-shard locks, LRU size budget) used by the compilation service
  (:mod:`repro.serve`);
* :mod:`repro.pipeline.core` — the :class:`PipelineConfig` toolchain
  configuration and the :class:`Pipeline` stage driver over it;
* :mod:`repro.pipeline.executor` — multiprocessing fan-out of the
  (program × disambiguator × machine) job matrix.

See ``docs/architecture.md`` for the full design, including cache
layout and invalidation rules.
"""

from .artifacts import (CompiledArtifact, DisambiguationArtifact,
                        ProfileArtifact, TimingArtifact)
from .core import Pipeline, PipelineConfig
from .executor import CompileJob, HwTimingJob, TimingJob, ViewJob, run_jobs
from .fingerprint import PIPELINE_VERSION, fingerprint
from .shards import ShardedArtifactStore
from .store import ArtifactStore, default_cache_dir

__all__ = [
    "ArtifactStore", "CompileJob", "CompiledArtifact",
    "DisambiguationArtifact", "HwTimingJob", "Pipeline", "PipelineConfig",
    "PIPELINE_VERSION", "ProfileArtifact", "ShardedArtifactStore",
    "TimingArtifact", "TimingJob", "ViewJob", "default_cache_dir",
    "fingerprint", "run_jobs",
]
