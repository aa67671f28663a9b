"""Phase ``accel``: the simulator and the functional accelerator model.

A pass covers the Table IV grid (simulated single-iteration time
against the analytic model), multi-task ``simulate(16)`` at P_eng=8,
and ``HeteroSVDAccelerator.run`` on seeded matrices.  The simulator is
deterministic, so passes repeat until the budget is spent (at least
four times) and the metric sums each component's median time over the
passes.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.harness import Outcome, median
from perfbench.solve import rotated_base

#: Table IV grid: (size, P_eng).
GRID = tuple((m, p) for p in (2, 4, 8) for m in (128, 256, 512))

#: Model-vs-simulator error beyond which a grid point fails (the
#: acceptance band of benchmarks/bench_table4_perf_model_accuracy.py).
MAX_MODEL_ERROR_PCT = 10.0

#: ``simulate(16)`` sizes at P_eng=8 and the functional model's sizes.
SIMULATE_SIZES = (256, 512)
FUNCTIONAL_SIZES = (32, 64)

#: Fewest passes, whatever the budget.
MIN_PASSES = 4

#: σ contract of the functional model against LAPACK (relative to σ_max).
SIGMA_RTOL = 1e-10


def make_inputs(seed: int) -> List[np.ndarray]:
    """The functional model's seeded matrices.

    They are rotated copies of fixed bases (see ``solve``), so the
    accelerator runs the same number of sweeps for every seed.
    """
    return [rotated_base(n, seed, 4) for n in FUNCTIONAL_SIZES]


def run(inputs: List[np.ndarray], budget_s: float, rec, outcome: Outcome):
    """Passes over the design-point set until the budget is spent.

    A generator: it yields after every component (the grid, each
    ``simulate``, each functional run) and returns the end-to-end
    metrics, the layer metrics and the check to run outside the timed
    windows.
    """
    from repro import (
        HeteroSVDAccelerator, HeteroSVDConfig, PerformanceModel,
        TimingSimulator,
    )
    from repro.units import mhz

    times: Dict[str, List[float]] = {}
    errors: Dict[str, float] = {}
    results = []

    spent = [0.0]

    def done(component: str, t0: float) -> None:
        seconds = time.perf_counter() - t0
        times.setdefault(component, []).append(seconds)
        spent[0] += seconds

    passes = 0
    while passes < MIN_PASSES or spent[0] < budget_s:
        passes += 1
        t0 = time.perf_counter()
        with rec.span("sim", "bench.accel_grid"):
            for m, p_eng in GRID:
                config = HeteroSVDConfig(
                    m=m, n=m, p_eng=p_eng, p_task=1,
                    pl_frequency_hz=mhz(208.3), fixed_iterations=1,
                )
                measured = TimingSimulator(config).measure_iteration_time()
                modelled = PerformanceModel(config).iteration_time()
                errors[f"{m}x{p_eng}"] = (
                    abs(modelled - measured) / measured * 100.0)
        done("grid", t0)
        yield
        for m in SIMULATE_SIZES:
            t0 = time.perf_counter()
            with rec.span("sim", "bench.accel_simulate"):
                config = HeteroSVDConfig(m=m, n=m, p_eng=8)
                simulated = TimingSimulator(config).simulate(16)
            done(f"simulate{m}", t0)
            outcome.check(
                simulated.makespan > 0 and simulated.iterations >= 1
                and len(simulated.task_times) == 16,
                f"accel simulate(16) at {m}: implausible result",
            )
            yield
        results = []
        for a in inputs:
            t0 = time.perf_counter()
            with rec.span("versal", "bench.accel_functional"):
                results.append(HeteroSVDAccelerator(
                    HeteroSVDConfig(m=a.shape[0], n=a.shape[1], p_eng=8)
                ).run(a))
            done(f"functional{a.shape[0]}", t0)
            yield

    metrics = {
        "accel_wall_s": sum(median(t) for t in times.values()),
        "model_err_max_pct": max(errors.values()),
    }
    layer = {f"perf_model.iteration_err_pct.{k}": v
             for k, v in errors.items()}
    layer["_accel_passes"] = float(passes)
    dma = [getattr(r.transfers, "dma_transfers", None) for r in results]
    neighbor = [getattr(r.transfers, "neighbor_transfers", None)
                for r in results]
    if None not in dma:
        layer["versal.dma_transfers"] = float(sum(dma))
    if None not in neighbor:
        layer["versal.neighbor_transfers"] = float(sum(neighbor))

    def check() -> None:
        for key, error in errors.items():
            outcome.check(error <= MAX_MODEL_ERROR_PCT,
                          f"accel model error {error:.2f}% at {key}")
        for a, result in zip(inputs, results):
            ref = np.linalg.svd(a, compute_uv=False)
            err = float(np.abs(np.asarray(result.sigma) - ref).max() / ref[0])
            outcome.check(err <= SIGMA_RTOL,
                          f"accel sigma error {err:.1e} at {a.shape}")

    return metrics, layer, check
