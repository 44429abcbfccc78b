"""Execution engines: interchangeable strategies for running programs.

This package is the single seam between "what a decision-tree program
means" (the sequential semantics of :mod:`repro.sim.interpreter`) and
"how it gets executed".  See :mod:`repro.engines.base` for the protocol
and the registry, :mod:`repro.engines.codegen` for the tree-to-Python
specializer, and :mod:`repro.engines.jit` for the default compiled
engine.  Importing this package registers the two built-in backends:

======== ====================================================
name     implementation
======== ====================================================
interp   reference tree-walking interpreter
jit      per-tree compiled Python (default)
======== ====================================================

Both are drop-in replacements for each other and are differentially
cross-checked by the fuzz oracle.  The dynamically scheduled hardware
simulator (:mod:`repro.hwsim`) reuses the same code generator for its
resolve/commit passes, but it is a timing model, not an engine: the
pipeline runs it as its own ``hw_timing`` stage.
"""

from __future__ import annotations

from ..sim.interpreter import Interpreter
from .base import (DEFAULT_ENGINE, ExecutionEngine, engine_names, get_engine,
                   register_engine)
from .jit import JitInterpreter

__all__ = ["ExecutionEngine", "DEFAULT_ENGINE", "register_engine",
           "get_engine", "engine_names", "JitInterpreter"]


register_engine(ExecutionEngine(
    "interp", "reference tree-walking interpreter (differential oracle)",
    Interpreter))
register_engine(ExecutionEngine(
    "jit", "per-tree compiled Python functions (default)",
    JitInterpreter))
