"""Phase ``dse``: design sweeps driven through ``repro.cli.main``.

Cold classic sweeps (each with its own empty ``--cache``), a cold
two-shard widened sweep plus ``dse-merge``, then passes of the warm
re-runs: the same classic sweeps answered from their caches and a
sharded ``--resume`` that finds every ledger complete.  Driving the CLI keeps
the phase valid when the sweep engines behind it are consolidated.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import Outcome, median

OBJECTIVES = ("latency", "throughput", "energy_efficiency")

#: Classic sweep sizes and the sharded sweep's size.
CLASSIC_SIZES = (128, 256, 512, 1024)
SHARDED_SIZE = 256

SHARDS = 2

#: Cold passes over every classic sweep, and warm passes, per run.
COLD_PASSES = 2
WARM_PASSES = 4

#: A ``--top`` above any space's size: tables list every point.
TOP_ALL = 1_000_000


def make_inputs(seed: int) -> Dict:
    """Sweep order and shard partition seed, from ``seed`` alone."""
    rng = np.random.default_rng([seed, 3])
    classic = [(size, objective) for size in CLASSIC_SIZES
               for objective in OBJECTIVES]
    return {
        "classic": [classic[i] for i in rng.permutation(len(classic))],
        "shard_seed": int(rng.integers(0, 1000)),
    }


def cli(argv: List[str]) -> Tuple[int, str]:
    """One CLI invocation in-process; returns (exit code, stdout)."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _table(stdout: str) -> str:
    """Stdout without the cache statistics and ``--save`` lines, which
    name counts and paths that differ between otherwise equal runs."""
    return "".join(line for line in stdout.splitlines(True)
                   if not line.startswith(("cache:", "saved ")))


def _frontier_rows(stdout: str) -> List[Tuple[str, ...]]:
    """(P_eng, P_task, ordering, freq MHz) of every row marked front."""
    rows = []
    for line in stdout.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 9 and cells[0].isdigit() and cells[-1] == "*":
            rows.append(tuple(cells[1:5]))
    return sorted(rows)


class _LeaseWatch:
    """Seconds until every shard's lease file exists (traced runs)."""

    def __init__(self, workdir: Path, shards: int):
        self.paths = [workdir / f"shard-{i}.lease" for i in range(shards)]
        self.seconds: Optional[float] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "_LeaseWatch":
        self._start = time.perf_counter()
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.is_set():
            if all(p.exists() for p in self.paths):
                self.seconds = time.perf_counter() - self._start
                return
            time.sleep(0.002)

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(5.0)


def run(inputs: Dict, workdir: Path, rec, outcome: Outcome, traced: bool):
    """Cold, sharded and warm sweeps.

    A generator: it yields after every CLI call and returns the
    end-to-end metrics, the layer metrics and the check to run outside
    the timed windows.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    sharded_dir = workdir / "sharded"

    def saved(name: str) -> Path:
        return workdir / f"{name}.json"

    def shard_argv(name: str) -> List[str]:
        return ["dse", "--size", str(SHARDED_SIZE), "--shards", str(SHARDS),
                "--shard-seed", str(inputs["shard_seed"]),
                "--workdir", str(sharded_dir), "--top", str(TOP_ALL),
                "--save", str(saved(name))]

    def cache_dir(size_: int, objective: str, cold_pass: int = 0) -> Path:
        suffix = f"-{cold_pass}" if cold_pass else ""
        return workdir / f"cache-{size_}-{objective}{suffix}"

    def classic_argv(size_: int, objective: str, name: str,
                     cold_pass: int = 0) -> List[str]:
        return ["dse", "--size", str(size_), "--objective", objective,
                "--top", "10", "--cache",
                str(cache_dir(size_, objective, cold_pass)),
                "--save", str(saved(f"{name}-{size_}-{objective}"))]

    def timed(argv: List[str], name: str) -> Tuple[float, str]:
        with rec.span("dse", name):
            t0 = time.perf_counter()
            code, stdout = cli(argv)
            seconds = time.perf_counter() - t0
        outcome.check(code == 0, f"dse {' '.join(argv)}: exit {code}")
        return seconds, stdout

    # The three objectives of one size evaluate the same units, so each
    # size's cold cost is the median of its sweeps over every objective
    # and cold pass (each into its own empty cache), which are spread
    # over the run: a burst of host contention or slow file writes that
    # hits a few of them drops out.  One sweep takes 0.1-0.5 s.
    cold_times: Dict[int, List[float]] = {}
    cold_units: Dict[int, int] = {}
    cold_out: Dict[Tuple[int, str], str] = {}
    again: List[Tuple[int, str, int, str, int]] = []
    for cold_pass in range(COLD_PASSES):
        name = f"cold{cold_pass}" if cold_pass else "cold"
        for size_, objective in inputs["classic"]:
            seconds, out = timed(
                classic_argv(size_, objective, name, cold_pass),
                "bench.dse_cold")
            cold_times.setdefault(size_, []).append(seconds)
            found = len(list(
                cache_dir(size_, objective, cold_pass).rglob("*.json")))
            if cold_pass:
                again.append((size_, objective, cold_pass, out, found))
            else:
                cold_out[(size_, objective)] = out
                cold_units[size_] = found
            yield
    units = sum(cold_units[s] for s, _ in inputs["classic"])
    cold_s = sum(median(t) for t in cold_times.values())

    watch = _LeaseWatch(sharded_dir, SHARDS) if traced else \
        contextlib.nullcontext()
    with watch:
        shard_s, shard_out = timed(shard_argv("sharded"),
                                   "bench.dse_sharded")
    heartbeats = _heartbeats(sharded_dir)
    yield
    merge_s, merge_out = timed(
        ["dse-merge", "--workdir", str(sharded_dir), "--top", str(TOP_ALL),
         "--save", str(saved("merged"))], "bench.dse_merge")
    yield

    # The warm re-runs repeat, each pass a slice of its own: most of a
    # pass is the resume spawning two fresh interpreters, whose cost
    # swings by a third from one pass to the next.
    warm_passes: List[float] = []
    warm_out: List[Dict[Tuple[int, str], str]] = []
    resume_out: List[str] = []
    disk_hits = 0
    for k in range(WARM_PASSES):
        warm_s, out = 0.0, {}
        for size_, objective in inputs["classic"]:
            seconds, out[(size_, objective)] = timed(
                classic_argv(size_, objective, "warm"), "bench.dse_warm")
            warm_s += seconds
            found = re.search(r"(\d+) disk hits", out[(size_, objective)])
            disk_hits += int(found.group(1)) if found else 0
        seconds, resumed = timed(shard_argv(f"resumed-{k}") + ["--resume"],
                                 "bench.dse_warm")
        warm_passes.append(warm_s + seconds)
        warm_out.append(out)
        resume_out.append(resumed)
        yield

    metrics = {
        "dse_cold_ms_per_unit": cold_s * 1e3 / max(1, sum(
            cold_units.values())),
        "dse_sharded_s": shard_s + merge_s,
        "dse_warm_s": median(warm_passes),
    }
    layer = {"cache.disk_hits": float(disk_hits) / WARM_PASSES,
             "dse.merge_s": merge_s}
    if heartbeats is not None:
        layer["lease.heartbeats"] = float(heartbeats)
    if traced and watch.seconds is not None:
        layer["dse.spawn_s"] = watch.seconds

    def check() -> None:
        outcome.check(units > 0, "dse: cold sweeps evaluated no units")
        for size_, objective, cold_pass, out, found in again:
            outcome.check(
                _table(out) == _table(cold_out[(size_, objective)])
                and found == cold_units[size_]
                and _read(saved(f"cold{cold_pass}-{size_}-{objective}"))
                == _read(saved(f"cold-{size_}-{objective}")),
                f"dse cold pass {cold_pass} {size_} {objective}: differs "
                f"from the first cold sweep")
        for (size_, objective), cold in cold_out.items():
            cold_points = _read(saved(f"cold-{size_}-{objective}"))
            same = (all(_table(out[(size_, objective)]) == _table(cold)
                        for out in warm_out)
                    and cold_points is not None
                    and _read(saved(f"warm-{size_}-{objective}"))
                    == cold_points)
            outcome.check(same, f"dse warm {size_} {objective}: ranked "
                          f"points differ from the cold sweep's")
        outcome.check(disk_hits == units * WARM_PASSES,
                      f"dse warm: {disk_hits} disk hits over {WARM_PASSES} "
                      f"passes for {units} cached units")
        reference, frontier = _serial_reference()
        outputs = [("sharded", shard_out), ("merged", merge_out)]
        outputs += [(f"resumed-{k}", out) for k, out in enumerate(resume_out)]
        for name, out in outputs:
            outcome.check(
                _read(saved(name)) == reference
                and _frontier_rows(out) == frontier
                and _table(out) == _table(shard_out),
                f"dse {name}: points or frontier differ from the serial "
                f"sweep's")
        shutil.rmtree(workdir, ignore_errors=True)

    def _serial_reference() -> Tuple[bytes, List[Tuple[str, ...]]]:
        """Every ranked point and the frontier rows of a serial sweep of
        the same space, outside the sharded path."""
        from repro.analysis.pareto import pareto_front
        from repro.dse import DesignSpace
        from repro.io import save_design_points

        space = DesignSpace(SHARDED_SIZE, SHARDED_SIZE)
        points = space.explore_serial()
        save_design_points(space.ranked(points, "latency"),
                           saved("serial"))
        frontier = sorted(
            (str(p.config.p_eng), str(p.config.p_task),
             "codesign" if p.config.use_codesign else "traditional",
             f"{p.config.pl_frequency_hz / 1e6:.0f}")
            for p in pareto_front(points))
        return _read(saved("serial")), frontier

    return metrics, layer, check


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _heartbeats(sharded_dir: Path) -> Optional[int]:
    """Heartbeats the shard workers wrote, read from their leases."""
    total = 0
    leases = list(sharded_dir.glob("shard-*.lease"))
    if not leases:
        return None
    for path in leases:
        try:
            total += int(json.loads(path.read_text())["beat"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
    return total
