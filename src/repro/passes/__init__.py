"""Unified pass-manager architecture for program transforms.

Every whole-program transform in the toolchain — lowering, grafting,
speculative disambiguation, and the guard-aware cleanups — is a
registered :class:`~repro.passes.base.Pass` run by a
:class:`~repro.passes.manager.PassManager`.  See
``docs/architecture.md`` ("Pass pipeline") for ordering and
cache-invalidation rules, and ``repro passes`` for the live registry.
"""

from .base import (
    DEFAULT_CLEANUP,
    Pass,
    PassContext,
    PassPipelineConfig,
    PassResult,
    UnknownPassError,
    build_cleanup_passes,
    cleanup_from_spec,
    ensure_builtin_passes,
    pass_class,
    register,
    registered_passes,
)
from .manager import PassManager

__all__ = [
    "DEFAULT_CLEANUP",
    "Pass",
    "PassContext",
    "PassManager",
    "PassPipelineConfig",
    "PassResult",
    "UnknownPassError",
    "build_cleanup_passes",
    "cleanup_from_spec",
    "ensure_builtin_passes",
    "pass_class",
    "register",
    "registered_passes",
]
