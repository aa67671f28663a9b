"""Statistics, bookkeeping and the machine record shared by every phase."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: p90 latency limit a ladder rung must meet (ms).
LATENCY_LIMIT_MS = 100.0

#: Tolerance of the per-layer breakdown against the traced wall time.
BREAKDOWN_TOLERANCE = 0.05


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


def backlog_growing(latencies_ms: Sequence[float],
                    limit_ms: float = LATENCY_LIMIT_MS) -> bool:
    """Whether latencies (in send order) climb through a rung.

    A queue that keeps up returns the last third of a rung about as
    fast as the first; a queue that falls behind adds the same backlog
    to every later request.  Growth of more than half the latency limit
    between the medians of the first and last thirds counts as growing.
    """
    if len(latencies_ms) < 6:
        return False
    third = len(latencies_ms) // 3
    first = median(latencies_ms[:third])
    last = median(latencies_ms[-third:])
    return last - first > 0.5 * limit_ms


@dataclass
class Rung:
    """Outcome of one open-loop rate on the ladder."""

    rate: float
    p90_ms: float
    growing: bool

    def meets(self, limit_ms: float = LATENCY_LIMIT_MS) -> bool:
        return self.p90_ms <= limit_ms and not self.growing


def max_rate(rungs: Sequence[Rung],
             limit_ms: float = LATENCY_LIMIT_MS) -> float:
    """Highest sustainable rate from an ascending ladder.

    The answer is the last rung that meets the limit, moved toward the
    first rung that misses it by linear interpolation of p90 on rate
    (so the knee reads as a continuous number, not a rung index).  A
    missed rung whose backlog grows while its p90 is still within the
    limit stops the interpolation at the passing rung.  With no passing
    rung the result is the lowest rate scaled by ``limit / p90``.
    """
    if not rungs:
        raise ValueError("empty ladder")
    passing: Optional[Rung] = None
    for rung in rungs:
        if not rung.meets(limit_ms):
            if passing is None:
                return rung.rate * min(1.0, limit_ms / rung.p90_ms)
            if rung.p90_ms <= limit_ms or rung.p90_ms <= passing.p90_ms:
                return passing.rate
            share = (limit_ms - passing.p90_ms) / (rung.p90_ms - passing.p90_ms)
            return passing.rate + share * (rung.rate - passing.rate)
        passing = rung
    return passing.rate


def breakdown_error(layer_s: Dict[str, float], wall_s: float) -> float:
    """Relative gap between the summed layer self-times and the wall."""
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return abs(sum(layer_s.values()) - wall_s) / wall_s


@dataclass
class Outcome:
    """Operation accounting: every checked operation is one attempt."""

    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.violations) < 50:
                self.violations.append(what)
        return ok


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_child_processes(timeout_s: float = 10.0) -> None:
    """End every process this one started through ``multiprocessing``.

    Shard workers are joined (and terminated if they outlive
    ``timeout_s``), then the resource tracker that spawning them
    started is stopped and reaped; left alone it outlives this
    process for a moment after exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def cpu_probe_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop: the machine's speed
    at this moment, independent of the code under test.

    The loop is timed in this thread's CPU time, so waiting for the
    GIL while the program's own threads run, or being preempted, does
    not count; a slower core (a co-tenant's load, a lower clock) does.
    """
    started = time.thread_time()
    total = 0
    for i in range(20000):
        total += i * i
    return (time.thread_time() - started) * 1e3


def machine_record(root: str, load_before: Tuple[float, ...],
                   probes_ms: Sequence[float]) -> Dict:
    """Where and on what the numbers were taken.

    ``probes_ms`` are :func:`cpu_probe_ms` samples taken between the
    run's slices; their quartiles show how fast the machine ran.
    """
    import numpy
    from repro.linalg import native_available

    quartiles = [percentile(probes_ms, q) for q in (25.0, 50.0, 75.0)]
    return {
        "nproc": os.cpu_count(),
        "cpu_probe_ms_quartiles": quartiles,
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "native_available": bool(native_available()),
        "git_commit": _git_commit(root),
    }
