"""Phase ``solve``: one closed-loop caller of ``repro.svd`` per method.

Each metric is the median per-call time of its method over the run
(per fold for streaming).

Square Jacobi inputs are ``Q @ B``: a fixed base matrix ``B`` rotated
from the left by a seeded orthogonal ``Q``.  The rotation leaves
``BᵀB`` unchanged, and one-sided Jacobi only ever reads column inner
products, so every seed costs the same number of sweeps while the
solver still sees different bytes.  Without it the seed would decide
between 10 and 11 sweeps and the metric would measure the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench.harness import Outcome, median

#: Sizes per scale: the ``solve`` workload runs ``full``, the ``serve``
#: workload ``probe``, so every run still reports every metric.
SIZES = {
    "full": {"square": 128, "dnc": 256, "tsqr": (8192, 64),
             "stream": (2048, 128, 64, 16)},
    "probe": {"square": 64, "dnc": 128, "tsqr": (2048, 32),
              "stream": (512, 64, 32, 8)},
}

#: Inputs generated per method; rounds cycle through them.
POOL = 4

#: Fewest rounds per scale, whatever the budget: the median of fewer
#: samples is not steady.
MIN_ROUNDS = {"full": 12, "probe": 32}

#: Base-matrix seed (fixed so the Jacobi work is the same per seed).
BASE_SEED = 20250

#: Accuracy contract (docs/workloads.md): σ error relative to σ_max,
#: max |UᵀU − I|, max |VᵀV − I| and ‖A − U S Vᵀ‖_F / ‖A‖_F.  Jacobi
#: U-orthogonality tracks the convergence threshold (1e-6), tsqr's the
#: core threshold (1e-8), dnc's the leaf threshold (1e-10); each gets a
#: factor of ten of headroom.
CONTRACT = {
    "block": (1e-10, 1e-5, 1e-9, 1e-9),
    "hestenes": (1e-10, 1e-5, 1e-9, 1e-9),
    "dnc": (1e-10, 1e-9, 1e-9, 1e-9),
    "tsqr": (1e-10, 1e-7, 1e-9, 1e-9),
}

METHODS = ("block", "hestenes", "dnc", "tsqr")


@dataclass
class SolveInputs:
    matrices: Dict[str, List[np.ndarray]]
    stream: List[np.ndarray]
    stream_rank: int
    min_rounds: int


def make_inputs(seed: int, scale: str) -> SolveInputs:
    """Every matrix the phase factors, from ``seed`` alone."""
    from repro.workloads.matrices import random_matrix
    from repro.workloads.streaming import rating_stream

    sizes = SIZES[scale]
    rng = np.random.default_rng([seed, 1])

    def rotated(n: int, salt: int) -> List[np.ndarray]:
        return [rotated_base(n, seed, salt, k) for k in range(POOL)]

    m, n = sizes["tsqr"]
    matrices = {
        "block": rotated(sizes["square"], 1),
        "hestenes": rotated(sizes["square"], 2),
        "dnc": rotated(sizes["dnc"], 3),
        "tsqr": [random_matrix(m, n, seed=int(rng.integers(1 << 30)))
                 for _ in range(POOL)],
    }
    users, items, chunk, rank = sizes["stream"]
    stream = rating_stream(users, items, latent_rank=8, chunk_rows=chunk,
                           seed=seed)
    chunks = [stream.initial] + list(stream.updates)
    return SolveInputs(matrices, chunks, rank, MIN_ROUNDS[scale])


def rotated_base(n: int, *seed: int) -> np.ndarray:
    """``Q @ B`` for the fixed ``n × n`` base ``B`` and an orthogonal
    ``Q`` drawn from ``seed``."""
    from repro.workloads.matrices import random_matrix

    q, r = np.linalg.qr(
        np.random.default_rng(list(seed)).standard_normal((n, n)))
    return (q * np.sign(np.diag(r))) @ random_matrix(n, n, seed=BASE_SEED)


def _factor_checks(method: str, a: np.ndarray, result, outcome: Outcome
                   ) -> bool:
    """Orthogonality and reconstruction (no reference needed)."""
    _, tol_u, tol_v, tol_rec = CONTRACT[method]
    u, s, v = result.u, result.singular_values, result.v
    orth_u = float(np.abs(u.T @ u - np.eye(u.shape[1])).max())
    orth_v = float(np.abs(v.T @ v - np.eye(v.shape[1])).max())
    rec = float(np.linalg.norm(a - (u * s) @ v.T) / np.linalg.norm(a))
    return outcome.check(
        orth_u <= tol_u and orth_v <= tol_v and rec <= tol_rec,
        f"solve {method} {a.shape}: |UtU-I|={orth_u:.1e} "
        f"|VtV-I|={orth_v:.1e} rec={rec:.1e}",
    )


def run(inputs: SolveInputs, budget_s: float, rec, outcome: Outcome,
        traced: bool):
    """Closed loop: rounds of one call per method plus a few folds.

    A generator: it yields after every round, so the runner can spread
    rounds over the run, and returns the end-to-end metrics, the layer
    metrics and the reference check to run outside the timed windows.
    """
    from repro import svd
    from repro.linalg.streaming import StreamingSVD

    times: Dict[str, List[float]] = {m: [] for m in METHODS}
    sigmas: Dict[str, List[tuple]] = {m: [] for m in METHODS}
    sweeps: Dict[str, List[int]] = {"block": [], "hestenes": []}
    fold_times: List[float] = []
    folds_per_round = max(1, len(inputs.stream) // 16)
    tracker = StreamingSVD(rank=inputs.stream_rank)
    next_chunk = 0
    streams_done = 0
    spent = 0.0
    round_index = 0
    while round_index < inputs.min_rounds or spent < budget_s:
        started = time.perf_counter()
        pick = round_index % POOL
        for method in METHODS:
            a = inputs.matrices[method][pick]
            with rec.span("linalg", "bench.solve_call"):
                t0 = time.perf_counter()
                result = svd(a, method=method)
                times[method].append(time.perf_counter() - t0)
            if _factor_checks(method, a, result, outcome):
                sigmas[method].append((pick, result.singular_values))
            if method in sweeps:
                sweeps[method].append(int(result.sweeps))
        for _ in range(folds_per_round):
            chunk = inputs.stream[next_chunk]
            with rec.span("linalg", "bench.solve_fold"):
                t0 = time.perf_counter()
                tracker.update(chunk)
                fold_times.append(time.perf_counter() - t0)
            next_chunk += 1
            if next_chunk == len(inputs.stream):
                _check_stream(inputs, tracker, outcome)
                streams_done += 1
                tracker = StreamingSVD(rank=inputs.stream_rank)
                next_chunk = 0
        round_index += 1
        spent += time.perf_counter() - started
        yield
    if streams_done == 0:
        # Finish the stream outside the timed folds so it is checked.
        while next_chunk < len(inputs.stream):
            tracker.update(inputs.stream[next_chunk])
            next_chunk += 1
        _check_stream(inputs, tracker, outcome)

    # Medians over rounds spread across the run: the best of a few
    # samples swings with whether one of them meets a quiet second.
    metrics = {f"solve_{m}_s": median(times[m]) for m in METHODS}
    metrics["solve_streaming_s"] = median(fold_times)
    layer = {f"linalg.sweeps.{m}": float(median(v))
             for m, v in sweeps.items() if v}
    if traced:
        for method, ratio in _lapack_ratios(inputs, times, fold_times).items():
            layer[f"linalg.lapack_ratio.{method}"] = ratio
    return metrics, layer, lambda: _check_sigmas(inputs, sigmas, outcome)


def _check_sigmas(inputs: SolveInputs, sigmas, outcome: Outcome) -> None:
    """σ against LAPACK on the same inputs."""
    for method in METHODS:
        refs = {}
        for pick, sigma in sigmas[method]:
            if pick not in refs:
                refs[pick] = np.linalg.svd(inputs.matrices[method][pick],
                                           compute_uv=False)
            ref = refs[pick]
            err = float(np.abs(sigma - ref).max() / ref[0])
            outcome.check(err <= CONTRACT[method][0],
                          f"solve {method}: sigma error {err:.1e}")


def _check_stream(inputs: SolveInputs, tracker, outcome: Outcome) -> None:
    """Truncated tracking: the bound must dominate the true error."""
    a = np.vstack(inputs.stream)
    u, v = tracker.u, tracker.v
    true_err = float(np.linalg.norm(a - tracker.reconstruct()))
    bound = float(tracker.error_bound())
    orth = max(float(np.abs(u.T @ u - np.eye(u.shape[1])).max()),
               float(np.abs(v.T @ v - np.eye(v.shape[1])).max()))
    outcome.check(
        true_err <= bound * (1 + 1e-9) + 1e-9 and orth <= 1e-9,
        f"solve streaming: error {true_err:.3e} > bound {bound:.3e} "
        f"or orthogonality {orth:.1e}",
    )


def _lapack_ratios(inputs: SolveInputs, times, fold_times) -> Dict[str, float]:
    """Best method time over best LAPACK time on the same inputs."""
    ratios = {}
    for method in METHODS:
        ref = []
        for a in inputs.matrices[method]:
            t0 = time.perf_counter()
            np.linalg.svd(a, full_matrices=False)
            ref.append(time.perf_counter() - t0)
        ratios[method] = min(times[method]) / min(ref)
    # A fold factors a (rank + chunk rows) x items core.
    ref = []
    for chunk in inputs.stream[:8]:
        core = np.vstack([chunk, chunk[:inputs.stream_rank]])
        t0 = time.perf_counter()
        np.linalg.svd(core, full_matrices=False)
        ref.append(time.perf_counter() - t0)
    ratios["streaming"] = min(fold_times) / min(ref)
    return ratios
