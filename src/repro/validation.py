"""Cross-implementation validation suite.

The repository contains five distinct executions of the same
mathematics: the Hestenes driver's scalar (golden reference) tier, the
block-Jacobi variant, the Hestenes driver's vectorized round kernel,
the functional accelerator model, and the event-driven co-simulation —
all of which must agree with LAPACK.
:func:`run_validation` exercises every implementation on a shared set
of stress inputs (well-conditioned, ill-conditioned, rank-deficient,
non-square) and reports per-implementation accuracy, giving users an
installation self-test (``heterosvd`` ships it as
``python -m repro.validation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.cosim import CoSimulator
from repro.linalg.svd import svd
from repro.workloads.matrices import (
    conditioned_matrix,
    low_rank_matrix,
    random_matrix,
)

#: Acceptable relative deviation of a computed spectrum from LAPACK's.
SPECTRUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ValidationCase:
    """One stress input for the cross-check battery."""

    name: str
    matrix: np.ndarray


@dataclass
class ImplementationReport:
    """Accuracy of one implementation across all cases.

    Attributes:
        implementation: Implementation name.
        worst_error: Max relative spectrum deviation over the cases.
        case_errors: Per-case deviations.
        passed: Whether every case met the tolerance.
    """

    implementation: str
    worst_error: float = 0.0
    case_errors: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_error < SPECTRUM_TOLERANCE

    def record(self, case: str, error: float) -> None:
        self.case_errors[case] = error
        if error > self.worst_error:
            self.worst_error = error


def default_cases(size: int = 32, seed: int = 0) -> List[ValidationCase]:
    """The standard stress battery (``size`` divisible by 8)."""
    return [
        ValidationCase("gaussian", random_matrix(size, size, seed=seed)),
        ValidationCase(
            "ill-conditioned",
            conditioned_matrix(size, size, condition=1e8, seed=seed),
        ),
        ValidationCase(
            "rank-deficient",
            low_rank_matrix(size, size, rank=size // 4, seed=seed),
        ),
        ValidationCase(
            "tall", random_matrix(2 * size, size, seed=seed + 1)
        ),
        ValidationCase(
            "tiny-scale",
            1e-150 * random_matrix(size, size, seed=seed + 2),
        ),
    ]


def _spectrum_error(a: np.ndarray, sigma: np.ndarray) -> float:
    reference = np.linalg.svd(a, compute_uv=False)
    k = min(len(reference), len(sigma))
    scale = reference[0] if reference[0] > 0 else 1.0
    computed = np.sort(np.asarray(sigma, dtype=float))[::-1][:k]
    return float(np.max(np.abs(computed - reference[:k])) / scale)


def _solvers(precision: float) -> Dict[str, Callable[[np.ndarray], np.ndarray]]:
    def hestenes(a):
        return svd(
            a, method="hestenes", strategy="scalar", precision=precision
        ).singular_values

    def block(a):
        return svd(
            a, method="block", block_width=4, precision=precision
        ).singular_values

    def cpu(a):
        return svd(
            a, method="hestenes", strategy="vectorized", precision=precision
        ).singular_values

    def accelerator(a):
        config = HeteroSVDConfig(
            m=a.shape[0], n=a.shape[1], p_eng=4, precision=precision
        )
        return HeteroSVDAccelerator(config).run(a).sigma

    def cosim(a):
        config = HeteroSVDConfig(
            m=a.shape[0], n=a.shape[1], p_eng=4, precision=precision
        )
        return CoSimulator(config).run(a).sigma

    return {
        "hestenes": hestenes,
        "block-jacobi": block,
        "cpu-vectorized": cpu,
        "accelerator": accelerator,
        "cosimulation": cosim,
    }


def run_validation(
    size: int = 32, seed: int = 0, precision: float = 1e-9
) -> List[ImplementationReport]:
    """Run the full battery; returns one report per implementation."""
    cases = default_cases(size, seed)
    reports = []
    for name, solve in _solvers(precision).items():
        report = ImplementationReport(implementation=name)
        for case in cases:
            sigma = solve(case.matrix)
            report.record(case.name, _spectrum_error(case.matrix, sigma))
        reports.append(report)
    return reports


def main() -> int:
    """CLI self-test entry point: ``python -m repro.validation``."""
    from repro.reporting.tables import Table

    reports = run_validation()
    table = Table(
        "Cross-implementation validation (spectrum error vs LAPACK)",
        ["implementation", "worst error", "status"],
    )
    failures = 0
    for report in reports:
        table.add_row(
            report.implementation,
            f"{report.worst_error:.2e}",
            "PASS" if report.passed else "FAIL",
        )
        if not report.passed:
            failures += 1
    table.print()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
