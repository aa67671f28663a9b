"""Spans around calls into the repository's layers, from outside.

The benchmark never edits ``src/``.  In a traced run it rebinds a
fixed list of public functions and methods (:data:`TARGETS`) to thin
wrappers that record a span per call, and restores the originals
afterwards.  A target that no longer exists (renamed or deleted by a
refactor) is listed in :attr:`Recorder.missing` and its metrics are
reported missing; it never stops the run.

Self time per layer comes from a sweep over all spans of all threads:
at every instant the deepest active span owns the time, and spans on
threads other than the main thread (the in-process server's loop and
compute threads) sit below every main-thread span, because the main
thread only waits while they work.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, layer, span name).  A dotted attribute
#: path names a method; a plain one names a module-level function,
#: which is rebound in every ``repro`` module that imported it.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.linalg", "svd", "linalg", "linalg.svd"),
    ("repro.linalg.convergence", "off_diagonal_ratio", "linalg",
     "linalg.off_diagonal_ratio"),
    ("repro.linalg.streaming", "StreamingSVD.update", "linalg",
     "linalg.streaming_update"),
    ("repro.guard.validate", "validate_matrix", "guard",
     "guard.validate_matrix"),
    ("repro.guard.validate", "prescale_matrix", "guard",
     "guard.prescale_matrix"),
    ("repro.exec.batch", "BatchExecutor.run", "exec", "exec.batch_run"),
    ("repro.serve.protocol", "decode_line", "serve", "serve.decode"),
    ("repro.serve.protocol", "validate_request", "serve",
     "serve.validate_request"),
    ("repro.serve.protocol", "encode", "serve", "serve.encode"),
    ("repro.serve.queue", "JobQueue.push", "serve", "serve.queue_push"),
    ("repro.serve.queue", "JobQueue.pop_batch", "serve", "serve.queue_pop"),
    ("repro.core.perf_model", "PerformanceModel.__init__", "perf_model",
     "perf_model.build"),
    ("repro.core.perf_model", "PerformanceModel.task_time", "perf_model",
     "perf_model.task_time"),
    ("repro.core.perf_model", "PerformanceModel.throughput", "perf_model",
     "perf_model.throughput"),
    ("repro.core.perf_model", "PerformanceModel.iteration_time",
     "perf_model", "perf_model.iteration_time"),
    ("repro.core.dse", "DesignSpaceExplorer.make_config", "dse",
     "dse.make_config"),
    ("repro.core.dse", "DesignSpaceExplorer.evaluate_config", "dse",
     "dse.evaluate_config"),
    ("repro.resilience.checkpoint", "SweepCheckpoint.__init__",
     "resilience", "checkpoint.open"),
    ("repro.resilience.checkpoint", "SweepCheckpoint.flush", "resilience",
     "checkpoint.flush"),
    ("repro.core.timing", "TimingSimulator.simulate", "sim", "sim.simulate"),
    ("repro.core.accelerator", "HeteroSVDAccelerator.run", "versal",
     "versal.accelerator_run"),
)

#: Layers of the breakdown; ``other`` is the benchmark's own code and
#: any instant where only benchmark spans are open.
LAYERS = ("linalg", "guard", "exec", "serve", "perf_model", "dse",
          "resilience", "sim", "versal", "other")

#: Depth offset of spans recorded off the main thread.
_WORKER_DEPTH = 1000


@dataclass
class Span:
    start: float
    end: float
    depth: int
    layer: str
    name: str
    cells: int = 0


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: Spans are kept only while set: the phases' timed windows.
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, layer: str, name: str, cells: int = 0) -> Iterator[None]:
        if not self.recording:
            yield
            return
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        if threading.get_ident() != self._main:
            depth += _WORKER_DEPTH
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.depth -= 1
            with self._lock:
                self.spans.append(Span(start, end, depth, layer, name, cells))

    def wrap(self, func: Callable, layer: str, name: str) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            cells = 0
            if args:
                shape = getattr(args[0], "shape", None)
                if shape is not None and len(shape) == 2:
                    cells = int(shape[0]) * int(shape[1])
            with recorder.span(layer, name, cells):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the ones that do not."""
        for module_name, path, layer, name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, layer, name)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # the wrapped method was inherited
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))


def attribute(spans: List[Span], start: float, end: float
              ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split ``[start, end]`` among spans: the deepest open span wins.

    Instants covered by no span at all are reported under the layer
    ``untraced``; the breakdown check fails when they grow.
    """
    events: List[Tuple[float, int, int]] = []
    for index, s in enumerate(spans):
        lo, hi = max(s.start, start), min(s.end, end)
        if hi > lo:
            events.append((lo, 1, index))
            events.append((hi, 0, index))
    events.sort()
    layers: Dict[str, float] = {}
    names: Dict[str, float] = {}
    active: Dict[int, Tuple[int, float]] = {}
    cursor = start
    for when, kind, index in events:
        if when > cursor:
            gap = when - cursor
            if active:
                owner = spans[max(active, key=active.__getitem__)]
                layers[owner.layer] = layers.get(owner.layer, 0.0) + gap
                names[owner.name] = names.get(owner.name, 0.0) + gap
            else:
                layers["untraced"] = layers.get("untraced", 0.0) + gap
            cursor = when
        if kind:
            active[index] = (spans[index].depth, spans[index].start)
        else:
            active.pop(index, None)
    if end > cursor:
        layers["untraced"] = layers.get("untraced", 0.0) + (end - cursor)
    return layers, names


def calibrate_span_cost(samples: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain call."""
    probe = Recorder()

    def noop(x):
        return x

    wrapped = probe.wrap(noop, "other", "calibrate")
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(samples):
            noop(i)
        t1 = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        t2 = time.perf_counter()
        probe.spans.clear()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return max(0.0, best_wrapped - best_plain) / samples


def obs_counter(name: str) -> Optional[int]:
    """Current value of a ``repro.obs`` counter (None when absent)."""
    try:
        from repro.obs import get_metrics
    except ImportError:
        return None
    snapshot = get_metrics().snapshot()
    counters = snapshot.get("counters", snapshot)
    value = counters.get(name) if isinstance(counters, dict) else None
    if isinstance(value, dict):
        value = value.get("value")
    return int(value) if isinstance(value, (int, float)) else None


class NullRecorder:
    """The untraced run: spans cost one attribute lookup and a yield."""

    recording = False

    @contextlib.contextmanager
    def span(self, layer: str, name: str, cells: int = 0) -> Iterator[None]:
        yield
