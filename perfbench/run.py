"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 5 --trace 0

Every run executes the ``solve``, ``dse`` and ``accel`` phases so that
it reports every end-to-end metric.  The ``solve`` workload runs the
solver phase at full size for ``--seconds``, the ``serve`` workload at
probe size; every other phase runs at full size in both.  The phases
run in slices, interleaved.  ``--trace 1`` wraps the layers' public
entry points, adds the ``serve`` phase (open-loop traffic to the
in-process server) and reports per-layer metrics instead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
machine record.  Run from the repository root; outside a checkout
that holds ``src/repro`` the script exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("solve", "serve", "dse", "accel")

#: Workloads; only ``solve`` runs the solver phase at full size.
WORKLOADS = ("solve", "serve")
PROBE_SHARE = 0.15

#: Cold set-ups per run: this process's own plus fresh interpreters.
#: One cold set-up swings by a third from run to run on the reference
#: machine, so ``setup_s`` is the median of several.
SETUP_REPEATS = 5

#: Expected measured seconds of each phase per scale (for ``serve``,
#: of its ladder), which only weight the interleaving of slices.
PLAN_S = {"solve": {"full": 22.0, "probe": 12.0}, "serve": {"full": 10.0},
          "dse": {"full": 22.0}, "accel": {"full": 8.0}}

#: The CPU probe's median on the reference machine (ms).  Timings are
#: reported at this speed: multiplied by it over the run's median
#: probe.  The host's speed drifts by up to 30% over minutes, and
#: moves every timing of a run with it.
REFERENCE_PROBE_MS = 1.5

#: The share of each end-to-end metric that follows the host's speed
#: (1 for every other timing).  Memory and model error do not; about
#: half of ``dse_sharded_s`` is a shard sleeping through a steal poll,
#: so half of it is scaled.  Over six sets of ten runs, its largest
#: spread was 0.23 unscaled, 0.21 fully scaled and 0.13 half scaled.
SPEED_SHARE = {"peak_rss_mb": 0.0, "model_err_max_pct": 0.0,
               "dse_sharded_s": 0.5}

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB",
    "solve_block_s": "s", "solve_hestenes_s": "s", "solve_dnc_s": "s",
    "solve_tsqr_s": "s", "solve_streaming_s": "s",
    "dse_cold_ms_per_unit": "ms", "dse_sharded_s": "s", "dse_warm_s": "s",
    "accel_wall_s": "s", "model_err_max_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cold_setup_in_child() -> float:
    """Seconds of one cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "coldstart.py")],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # One BLAS thread: the workloads may use at most two threads, and
    # the server and generator threads already take both cores.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    load_before = os.getloadavg()

    # Every set-up sample is cold: fresh interpreters first, then this
    # process's own, whose server the run uses.
    setups = [_cold_setup_in_child() for _ in range(SETUP_REPEATS - 1)]
    from perfbench.coldstart import set_up

    server, seconds = set_up(time.perf_counter())
    setups.append(seconds)

    from perfbench import accel, dse, serve, solve
    from perfbench import harness
    from perfbench.tracing import NullRecorder, Recorder

    def scale(phase: str) -> str:
        full = phase != "solve" or args.workload == "solve"
        return "full" if full else "probe"

    def budget(phase: str) -> float:
        share = 1.0 if scale(phase) == "full" else PROBE_SHARE
        return args.seconds * share

    inputs = {
        "solve": solve.make_inputs(args.seed, scale("solve")),
        "serve": serve.make_inputs(args.seed, args.seconds),
        "dse": dse.make_inputs(args.seed),
        "accel": accel.make_inputs(args.seed),
    }
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    outcome = harness.Outcome()
    traced = bool(args.trace)
    rec = Recorder() if traced else NullRecorder()
    if traced:
        from repro import obs

        obs.reset()
        obs.enable_metrics()
        rec.install()

    runners = {
        "solve": solve.run(inputs["solve"], budget("solve"), rec, outcome,
                           traced),
        "dse": dse.run(inputs["dse"], workdir, rec, outcome, traced),
        "accel": accel.run(inputs["accel"], budget("accel"), rec, outcome),
    }
    # Serve latencies swing with how promptly the host wakes the
    # server's and the generator's threads: over ten runs the spread of
    # p50 and p90 reached 0.38-0.48 and that of the knee 0.6-1.4, past
    # any bound, while the timings above stayed within 0.25.  So the
    # serve phase is measured in the traced run.
    if traced:
        runners["serve"] = serve.run(inputs["serve"], server.address, rec,
                                     outcome)
    planned = {phase: max(budget(phase), PLAN_S[phase][scale(phase)])
               for phase in PHASES}
    planned["serve"] += serve.nominal_count(args.seconds) / serve.NOMINAL_RATE
    spent = dict.fromkeys(PHASES, 0.0)
    metrics, layer, windows, probes = {}, {}, [], []
    try:
        # Slices go to the phase furthest behind its plan, so every
        # phase's samples spread over the whole run and a contention
        # spell of a few seconds cannot cover all of any one phase.
        while runners:
            phase = min(runners, key=lambda p: spent[p] / planned[p])
            rec.recording = traced
            w0 = time.perf_counter()
            finished = None
            with rec.span("other", f"bench.{phase}"):
                try:
                    next(runners[phase])
                except StopIteration as stop:
                    finished = stop.value
            w1 = time.perf_counter()
            rec.recording = False
            windows.append((w0, w1))
            probes.append(harness.cpu_probe_ms())
            spent[phase] += w1 - w0
            if finished is not None:
                del runners[phase]
                phase_metrics, phase_layer, check = finished
                metrics.update(phase_metrics)
                layer.update(phase_layer)
                check()
                print(f"perfbench: {phase} ({scale(phase)}) measured "
                      f"{spent[phase]:.1f} s, checked "
                      f"{time.perf_counter() - w1:.1f} s", file=sys.stderr)
    finally:
        for runner in runners.values():
            runner.close()
        server.stop()
        harness.stop_child_processes()
        if traced:
            rec.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run shares it

    metrics["setup_s"] = harness.median(setups)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    lag = layer.get("serve.gen_lag_ms_max", 0.0)
    valid = lag <= serve.MAX_GEN_LAG_MS
    if not valid:
        print(f"perfbench: invalid run: generator ran {lag:.1f} ms late "
              f"(bound {serve.MAX_GEN_LAG_MS} ms)", file=sys.stderr)

    if traced:
        from perfbench.layers import layer_metrics

        report = layer_metrics(rec, windows, layer, outcome)
        for name in rec.missing:
            print(f"perfbench: traced target {name} is missing",
                  file=sys.stderr)
    else:
        speed = REFERENCE_PROBE_MS / harness.median(probes)
        report = {name: (value * (1.0 + SPEED_SHARE.get(name, 1.0)
                                  * (speed - 1.0)), UNITS[name])
                  for name, value in metrics.items() if name in UNITS}
    for violation in outcome.violations:
        print(f"perfbench: FAILED {violation}", file=sys.stderr)

    record = harness.machine_record(str(ROOT), load_before, probes)
    if not traced:
        record["speed_scale"] = speed
        record["unscaled"] = {name: value for name, value in metrics.items()
                              if name in UNITS}
    print(json.dumps({"machine": record}))
    print(json.dumps({
        "correct": outcome.failed == 0 and valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(report.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
