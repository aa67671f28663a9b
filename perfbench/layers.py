"""Per-layer metrics of a traced run, from spans and phase facts."""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.harness import (
    BREAKDOWN_TOLERANCE, Outcome, breakdown_error, median,
)
from perfbench.tracing import (
    LAYERS, Recorder, attribute, calibrate_span_cost, obs_counter,
)

#: Inputs at or below this many cells count as small (serve's shapes).
SMALL_CELLS = 32 * 32

#: Unit of every per-layer metric; a metric whose source is missing is
#: left out of the result (and its target named on stderr).
UNITS: Dict[str, str] = {
    "linalg.sweeps.block": "count",
    "linalg.sweeps.hestenes": "count",
    "linalg.convergence_share": "ratio",
    "guard.validate_share": "ratio",
    "linalg.small_svd_ms": "ms",
    **{f"linalg.lapack_ratio.{m}": "ratio"
       for m in ("block", "hestenes", "dnc", "tsqr", "streaming")},
    "exec.batch_run_ms": "ms",
    "exec.tasks_per_batch": "ratio",
    "serve.p50_ms": "ms",
    "serve.p90_ms": "ms",
    "serve.max_rps": "1/s",
    "serve.queue_ms_p50": "ms",
    "serve.service_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.queue_depth_peak": "count",
    "serve.shed": "count",
    "serve.gen_lag_ms_max": "ms",
    "serve.degraded_rate": "ratio",
    "perf_model.evaluations": "count",
    "perf_model.eval_ms": "ms",
    "dse.config_build_ms": "ms",
    "checkpoint.io_s": "s",
    "cache.disk_hits": "count",
    "dse.spawn_s": "s",
    "dse.merge_s": "s",
    "lease.heartbeats": "count",
    "sim.events_run": "count",
    "sim.host_us_per_event": "us",
    "accel.functional_s": "s",
    "versal.dma_transfers": "count",
    "versal.neighbor_transfers": "count",
    **{f"perf_model.iteration_err_pct.{m}x{p}": "%"
       for p in (2, 4, 8) for m in (128, 256, 512)},
    "obs.trace_overhead_pct": "%",
    "breakdown.error_pct": "%",
    **{f"layer.{name}_s": "s" for name in LAYERS},
}


def layer_metrics(rec: Recorder, windows: List[Tuple[float, float]],
                  facts: Dict[str, float], outcome: Outcome
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric whose source exists, with its unit.

    Spans are recorded only inside the timed windows, so one sweep over
    the whole run attributes exactly the windows' time; the gaps
    between windows land in ``untraced`` and are left out.
    """
    layers, names = attribute(rec.spans, windows[0][0], windows[-1][1])
    wall = sum(end - start for start, end in windows)
    traced_layers = {k: v for k, v in layers.items() if k != "untraced"}
    error = breakdown_error(traced_layers, wall)
    outcome.check(error <= BREAKDOWN_TOLERANCE,
                  f"breakdown: layers sum to {sum(traced_layers.values()):.3f}"
                  f" s against {wall:.3f} s of traced wall time")

    values: Dict[str, float] = dict(facts)
    values["breakdown.error_pct"] = error * 100.0
    for name in LAYERS:
        values[f"layer.{name}_s"] = layers.get(name, 0.0)
    values["obs.trace_overhead_pct"] = (
        len(rec.spans) * calibrate_span_cost() / wall * 100.0)

    present = {s.name for s in rec.spans}

    def when(*span_names: str) -> bool:
        return all(n not in rec.missing for n in span_names)

    if when("linalg.off_diagonal_ratio"):
        values["linalg.convergence_share"] = (
            rec.total("linalg.off_diagonal_ratio") / wall)
    if when("guard.validate_matrix"):
        values["guard.validate_share"] = (
            rec.total("guard.validate_matrix") / wall)
    small = [s.end - s.start for s in rec.named("linalg.svd")
             if 0 < s.cells <= SMALL_CELLS]
    if small:
        values["linalg.small_svd_ms"] = median(small) * 1e3
    batches = [s.end - s.start for s in rec.named("exec.batch_run")]
    if batches:
        values["exec.batch_run_ms"] = median(batches) * 1e3
    evaluations = len(rec.named("perf_model.build"))
    if when("perf_model.build"):
        values["perf_model.evaluations"] = float(evaluations)
        perf_names = [n for n in present if n.startswith("perf_model.")]
        if evaluations:
            values["perf_model.eval_ms"] = (
                sum(names.get(n, 0.0) for n in perf_names)
                / evaluations * 1e3)
    configs = rec.named("dse.make_config")
    if configs:
        values["dse.config_build_ms"] = (
            sum(s.end - s.start for s in configs) / len(configs) * 1e3)
    if when("checkpoint.open", "checkpoint.flush"):
        values["checkpoint.io_s"] = (rec.total("checkpoint.open")
                                     + rec.total("checkpoint.flush"))
    # The timing simulator reserves resources instead of queueing engine
    # events; both are simulated events.
    counts = [obs_counter("sim.events_run"),
              obs_counter("sim.resource_requests")]
    if counts != [None, None]:
        events = sum(c or 0 for c in counts) / facts.get("_accel_passes", 1)
        values["sim.events_run"] = float(events)
        if events and when("sim.simulate"):
            values["sim.host_us_per_event"] = (
                _outermost(rec, "sim.simulate")
                / (events * facts.get("_accel_passes", 1)) * 1e6)
    if when("versal.accelerator_run"):
        values["accel.functional_s"] = rec.total("versal.accelerator_run")
    return {name: (float(value), UNITS[name])
            for name, value in values.items() if name in UNITS}


def _outermost(rec: Recorder, name: str) -> float:
    """Summed duration of ``name`` spans not nested in another of them."""
    spans = sorted(rec.named(name), key=lambda s: s.start)
    total, reach = 0.0, float("-inf")
    for s in spans:
        if s.start >= reach:
            total += s.end - s.start
            reach = s.end
    return total
