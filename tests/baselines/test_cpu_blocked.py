"""Tests for the CPU blocked-Jacobi baseline.

The CPU baseline is the vectorized tier of the Hestenes driver,
``hestenes_svd(a, strategy="vectorized")``: each round's column pairs
are rotated in one batched numpy call.  These cases pin that tier on
its own, against LAPACK and against the scalar reference path.
"""

import numpy as np
import pytest

from repro.errors import NumericalError
from repro.linalg.hestenes import hestenes_svd


def cpu_blocked_jacobi_svd(a, **kwargs):
    return hestenes_svd(a, strategy="vectorized", **kwargs)


class TestCPUBlockedJacobi:
    def test_matches_lapack(self, rng):
        a = rng.standard_normal((32, 16))
        result = cpu_blocked_jacobi_svd(a, precision=1e-10)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-8)
        assert result.converged

    def test_cross_validates_scalar_implementation(self, rng):
        # The batched rounds must agree with the scalar pair loop.
        a = rng.standard_normal((24, 12))
        vectorized = cpu_blocked_jacobi_svd(a, precision=1e-10)
        scalar = hestenes_svd(a, precision=1e-10, strategy="scalar")
        assert np.allclose(
            vectorized.singular_values, scalar.singular_values, rtol=1e-9
        )

    def test_u_orthonormal(self, rng):
        a = rng.standard_normal((20, 10))
        result = cpu_blocked_jacobi_svd(a, precision=1e-10)
        gram = result.u.T @ result.u
        assert np.allclose(gram, np.eye(10), atol=1e-8)

    def test_equal_norm_columns(self):
        # tau == 0 corner: sign(0) fallback must still rotate.
        a = np.array([[1.0, 1.0], [1.0, -0.5], [0.0, 0.3]])
        result = cpu_blocked_jacobi_svd(a, precision=1e-12)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-10)

    def test_rank_deficient(self, rng):
        a = np.outer(rng.standard_normal(12), rng.standard_normal(6))
        result = cpu_blocked_jacobi_svd(a, precision=1e-10)
        assert result.singular_values[0] > 0
        assert np.allclose(result.singular_values[1:], 0.0, atol=1e-8)

    def test_fixed_sweeps_mode(self, rng):
        a = rng.standard_normal((16, 8))
        result = cpu_blocked_jacobi_svd(a, fixed_sweeps=2)
        assert result.sweeps == 2

    def test_rejects_wide(self, rng):
        with pytest.raises(NumericalError):
            cpu_blocked_jacobi_svd(rng.standard_normal((4, 8)))

    def test_rejects_odd_columns(self, rng):
        with pytest.raises(NumericalError):
            cpu_blocked_jacobi_svd(rng.standard_normal((8, 5)))

    def test_non_convergence_raises(self, rng):
        a = rng.standard_normal((30, 16))
        with pytest.raises(NumericalError):
            cpu_blocked_jacobi_svd(a, precision=1e-14, max_sweeps=1)
