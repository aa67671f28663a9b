"""Factor invariant checks and the --check-invariants solver mode."""

import numpy as np
import pytest

from repro.guard import InvariantReport, check_factor_invariants
from repro.linalg.convergence import (
    off_diagonal_ratio,
    pair_convergence_ratio,
)
from repro.workloads.matrices import low_rank_matrix


def _jacobi_state(a):
    """A correct (B = A V, V) working state built from LAPACK."""
    u, s, vt = np.linalg.svd(a)
    v = vt.T
    b = a @ v
    return b, v


class TestOrthogonalityResidual:
    """The residual the invariant check reports is ``off_diagonal_ratio``."""

    def test_orthogonal_columns_score_near_zero(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert off_diagonal_ratio(q * [1.0, 2, 3, 4, 5, 6, 7, 8]) < 1e-14

    def test_correlated_columns_score_high(self):
        b = np.ones((4, 2))
        assert off_diagonal_ratio(b) == pytest.approx(1.0)

    def test_matches_scalar_routine(self, rng):
        b = rng.standard_normal((12, 8))
        worst = max(
            pair_convergence_ratio(
                float(b[:, i] @ b[:, i]),
                float(b[:, j] @ b[:, j]),
                float(b[:, i] @ b[:, j]),
            )
            for i in range(8)
            for j in range(i + 1, 8)
        )
        assert off_diagonal_ratio(b) == pytest.approx(worst, rel=1e-12)

    def test_zero_matrix_scores_zero(self):
        assert off_diagonal_ratio(np.zeros((4, 4))) == 0.0

    def test_zero_columns_skipped(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q[:, 2] = 0.0
        assert off_diagonal_ratio(q) < 1e-14


class TestCheckFactorInvariants:
    def test_correct_state_passes(self, rng):
        a = rng.standard_normal((10, 10))
        b, v = _jacobi_state(a)
        report = check_factor_invariants(a, b, v, precision=1e-6)
        assert isinstance(report, InvariantReport)
        assert report.ok
        assert report.reconstruction_error < 1e-13
        assert report.orthogonality_residual < 1e-6
        assert report.orthogonality_residual == off_diagonal_ratio(b)

    def test_corrupted_state_fails_reconstruction(self, rng):
        a = rng.standard_normal((10, 10))
        b, v = _jacobi_state(a)
        b = b.copy()
        b[:, 0] *= 2.0  # a lost update
        report = check_factor_invariants(a, b, v, precision=1e-6)
        assert not report.ok
        assert report.reconstruction_error > 1e-3

    def test_unconverged_state_skips_orthogonality(self, rng):
        a = rng.standard_normal((10, 10))
        # B = A, V = I is a valid *unconverged* state: reconstruction
        # holds exactly, orthogonality does not.
        report = check_factor_invariants(
            a, a.copy(), np.eye(10), precision=1e-6, converged=False
        )
        assert report.ok
        assert report.orthogonality_residual is None
        strict = check_factor_invariants(
            a, a.copy(), np.eye(10), precision=1e-6, converged=True
        )
        assert not strict.ok

    def test_counters_published(self, rng):
        from repro import obs

        a = rng.standard_normal((6, 6))
        b, v = _jacobi_state(a)
        obs.reset()
        obs.enable()
        try:
            check_factor_invariants(a, b, v, precision=1e-6)
            check_factor_invariants(a, 2.0 * b, v, precision=1e-6)
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["guard.invariant_checks"] == 2
        assert counters["guard.invariant_failures"] == 1


class TestSolverIntegration:
    @pytest.mark.parametrize(
        "method,rank",
        [
            pytest.param("hestenes", None, id="hestenes"),
            pytest.param("block", None, id="block"),
            # Rank-deficient inputs leave near-zero columns whose noise
            # must not count against orthogonality (the drivers' own
            # zero-column floor), or the check falsely degrades.
            pytest.param("hestenes", 4, id="hestenes-rank4"),
            pytest.param("block", 4, id="block-rank4"),
        ],
    )
    def test_check_invariants_mode_matches_plain_solve(self, rng, method, rank):
        from repro.linalg.svd import svd

        if rank is None:
            a = rng.standard_normal((16, 16))
        else:
            a = low_rank_matrix(16, 16, rank=rank, seed=0)
        kwargs = {"block_width": 8} if method == "block" else {}
        checked = svd(a, method=method, check_invariants=True, **kwargs)
        plain = svd(a, method=method, **kwargs)
        assert checked.converged
        assert not checked.degraded
        assert np.array_equal(
            checked.singular_values, plain.singular_values
        )

    def test_check_invariants_with_fixed_sweeps(self, rng):
        from repro.linalg.svd import svd

        # A fixed-sweep run is legitimately unconverged: only the
        # reconstruction invariant applies, and it holds.
        a = rng.standard_normal((16, 16))
        result = svd(a, fixed_sweeps=1, check_invariants=True)
        assert np.all(np.isfinite(result.singular_values))
