"""Per-layer attribution for the traced run, from outside the program.

:class:`LayerTracer` replaces public functions with timing wrappers at
the places where the calling modules look them up (a module attribute
or a class attribute), records one span per wrapped call, and puts
everything back on :meth:`LayerTracer.uninstall`.  Nothing in ``src/``
is edited and no option is added to it.

A layer's self time is its spans' durations minus the parts their
wrapped children cover.  Spans opened by :meth:`phase` belong to no
layer, so the self time of the harness's own code ends up in the
unattributed remainder and the layers' self times plus that remainder
add up to the traced window exactly.

Only the thread that created the tracer is recorded: the serve
workload's client threads run concurrently, and overlapping spans
would make the self times add up to more than the window.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import Span

from .metrics import SELF_TIME_LAYERS

__all__ = ["LayerTracer", "pipeline_targets"]


def pipeline_targets(harness_module) -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped entry point.

    *harness_module* is the harness module that looks up
    ``entry_source`` (source regeneration)."""
    import repro.disambig.pipeline as disambig_pipeline
    import repro.disambig.spd_heuristic as spd_heuristic
    import repro.engines.jit as jit
    import repro.frontend.driver as driver
    import repro.hwsim.core as hwsim_core
    import repro.hwsim.engine as hwsim_engine
    import repro.pipeline.core as core
    import repro.sched.list_scheduler as list_scheduler
    from repro.pipeline.store import ArtifactStore

    targets: List[Tuple[object, str, str]] = [
        (core.Pipeline, name, "pipeline")
        for name in ("compiled", "profile", "view", "timing", "hw_timing")]
    targets += [
        (core, "compile_source", "frontend"),
        (driver, "parse", "frontend.parse"),
        (core, "run_program", "engines.execute"),
        (jit, "generate_function_source", "engines.codegen"),
        (jit, "compiled_fn", "engines.codegen"),
        (hwsim_core, "generate_tree_source", "engines.codegen"),
        (hwsim_core, "compiled_fn", "engines.codegen"),
        (core, "disambiguate", "disambig"),
        (disambig_pipeline, "speculative_disambiguation", "spd.heuristic"),
        (spd_heuristic, "apply_spd", "spd.transform"),
        (disambig_pipeline, "build_dependence_graph", "depgraph"),
        (spd_heuristic, "build_dependence_graph", "depgraph"),
        (hwsim_engine, "build_dependence_graph", "depgraph"),
        (core, "evaluate_program", "timing"),
        (list_scheduler, "schedule_tree", "sched"),
        (core, "simulate_program", "hwsim"),
        (ArtifactStore, "get", "store.get"),
        (ArtifactStore, "put", "store.put"),
        (harness_module, "entry_source", "corpus.regen"),
    ]
    return targets


class LayerTracer:
    """Span recorder over wrapped entry points (see module docstring)."""

    def __init__(self, name: str, clock: Callable[[], float] =
                 time.perf_counter):
        self._clock = clock
        self._thread = threading.get_ident()
        self.root = Span(name)
        #: open frames: [span, layer or None, seconds covered by children]
        self._stack: List[list] = [[self.root, None, 0.0]]
        self.self_s: Dict[str, float] = {layer: 0.0
                                         for layer in SELF_TIME_LAYERS}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: run_program inclusive seconds keyed by the calling stage
        self.execute_by_stage: Dict[str, float] = {}
        self.ops_compiled = 0
        self.spd_applications = 0
        self.disk_bytes = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._window: Optional[Tuple[float, float]] = None

    # -- installation --------------------------------------------------------

    def install(self, targets) -> None:
        for owner, attr, layer in targets:
            original = getattr(owner, attr)
            saved = (owner.__dict__[attr] if isinstance(owner, type)
                     else original)
            self._patches.append((owner, attr, saved))
            setattr(owner, attr, self._wrapper(original, layer,
                                               f"{layer}:{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            setattr(owner, attr, saved)

    @contextmanager
    def window(self):
        """The traced window: its elapsed time is what the layers'
        self times and the unattributed remainder partition."""
        started = self._clock()
        self.root.start_s = started
        try:
            yield self
        finally:
            self.root.end_s = self._clock()
            self._window = (started, self.root.end_s)

    @contextmanager
    def phase(self, name: str):
        """A structural span of the harness (belongs to no layer)."""
        frame = self._open(name, None)
        try:
            yield
        finally:
            self._close(frame)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: Optional[str]) -> list:
        span = Span(name)
        self._stack[-1][0].children.append(span)
        frame = [span, layer, 0.0]
        self._stack.append(frame)
        span.start_s = self._clock()
        return frame

    def _close(self, frame: list) -> float:
        span = frame[0]
        span.end_s = self._clock()
        duration = span.end_s - span.start_s
        self._stack.pop()
        self._stack[-1][2] += duration
        layer = frame[1]
        if layer is not None:
            self.self_s[layer] += duration - frame[2]
            self.inclusive_s[layer] = (self.inclusive_s.get(layer, 0.0)
                                       + duration)
            self.calls[layer] = self.calls.get(layer, 0) + 1
        return duration

    def _stage(self) -> Optional[str]:
        """The innermost open Pipeline stage method, if any."""
        for frame in reversed(self._stack):
            if frame[1] == "pipeline":
                return frame[0].name.split(":", 1)[1]
        return None

    def _wrapper(self, original, layer: str, name: str):
        tracer = self

        def wrapped(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            frame = tracer._open(name, layer)
            if layer == "pipeline":
                frame[0].annotate(program=args[1])
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            tracer._account(layer, duration, args, result)
            return result

        return functools.wraps(original)(wrapped)

    def _account(self, layer: str, duration: float, args, result) -> None:
        if layer == "frontend":
            self.ops_compiled += result.size()
        elif layer == "engines.execute":
            stage = self._stage() or "other"
            self.execute_by_stage[stage] = (
                self.execute_by_stage.get(stage, 0.0) + duration)
        elif layer == "spd.heuristic":
            self.spd_applications += len(result.applications)
        elif layer == "store.put":
            store, stage, fingerprint = args[0], args[1], args[2]
            if store.root is not None:
                try:
                    self.disk_bytes += store._path(
                        stage, fingerprint).stat().st_size
                except OSError:
                    pass

    # -- results -------------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        if self._window is None:
            raise RuntimeError("no traced window recorded")
        return self._window[1] - self._window[0]

    def unattributed_s(self) -> float:
        return self.elapsed_s - sum(self.self_s.values())

    def layer_values(self) -> Dict[str, float]:
        """The wrapper-derived per-layer metrics (ms, counts)."""
        values = {SELF_TIME_LAYERS[layer]: seconds * 1e3
                  for layer, seconds in self.self_s.items()}
        frontend_s = self.inclusive_s.get("frontend", 0.0)
        values.update({
            "frontend.ops_per_s": (self.ops_compiled / frontend_s
                                   if frontend_s else 0.0),
            "engines.profile_ms":
                self.execute_by_stage.get("profile", 0.0) * 1e3,
            "engines.validate_ms":
                self.execute_by_stage.get("view", 0.0) * 1e3,
            "depgraph.builds": self.calls.get("depgraph", 0),
            "sched.trees_scheduled": self.calls.get("sched", 0),
            "spd.applications": self.spd_applications,
            "store.disk_bytes": self.disk_bytes,
            "trace.unattributed_ms": self.unattributed_s() * 1e3,
        })
        return values
