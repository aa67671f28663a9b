"""Warm-start (incremental) SVD for streaming workloads.

Real-time deployments (subspace tracking, channel updates, rating
streams) re-factor matrices that changed only slightly since the last
solve.  One-sided Jacobi is naturally warm-startable: seed the sweep
state with the previous solution's ``B = U diag(S)`` rotated into the
new data's frame, and convergence restarts from an almost-orthogonal
configuration — typically 2-4 sweeps instead of ``log2(n) + 3``.

Concretely, with a previous factorization ``A0 = U0 S0 V0^T`` and new
data ``A1``, the warm start runs :func:`~repro.linalg.hestenes.hestenes_svd`
on ``A1 V0``: if ``A1`` is close to ``A0``, ``A1 V0`` is close to
column-orthogonal ``U0 S0``.  The driver's rotations ``V_b`` compose
onto the tracked basis, ``V1 = V0 V_b``.

This is an extension beyond the paper (its real-time motivation applied
to temporally correlated streams); the sweeps are the Hestenes driver's
own, so everything maps to the accelerator exactly as cold solves do —
only the PL-side seeding differs.
"""

from __future__ import annotations

from typing import List, Optional, Type

import numpy as np

from repro.errors import NumericalError
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS, HestenesResult, hestenes_svd
from repro.linalg.orderings import Ordering, ShiftingRingOrdering


class IncrementalSVD:
    """Tracks the SVD of a slowly changing matrix.

    Args:
        precision: Convergence threshold (Eq. 6).
        max_sweeps: Sweep budget per update.
        ordering_cls: Pair schedule (defaults to the shifting ring).
    """

    def __init__(
        self,
        precision: float = DEFAULT_PRECISION,
        max_sweeps: int = DEFAULT_MAX_SWEEPS,
        ordering_cls: Optional[Type[Ordering]] = None,
    ):
        self.precision = precision
        self.max_sweeps = max_sweeps
        self._ordering_cls = ordering_cls or ShiftingRingOrdering
        self._v: Optional[np.ndarray] = None
        self.history: List[int] = []

    @property
    def warm(self) -> bool:
        """Whether a previous solution is available to seed from."""
        return self._v is not None

    def update(self, a: np.ndarray) -> HestenesResult:
        """Factor the new snapshot, warm-starting when possible.

        Returns:
            The driver's result, with ``v`` the composed basis
            ``V0 V_b`` so that ``a = U diag(S) V^T``.

        Raises:
            NumericalError: for invalid shapes (must be tall, even
                column count, consistent with the tracked state) or
                non-finite input.
            ConvergenceError: if the sweep budget is exhausted.
        """
        a = np.asarray(a, dtype=float)
        v0 = self._v
        if v0 is not None:
            if a.ndim != 2 or a.shape[1] != v0.shape[0]:
                raise NumericalError(
                    f"tracked width {v0.shape[0]} does not match new "
                    f"shape {a.shape}; reset() before changing problem size"
                )
            # Warm start: rotate the new data into the previous right
            # singular frame — near-orthogonal if the data moved little.
            a = a @ v0
        result = hestenes_svd(
            a,
            precision=self.precision,
            max_sweeps=self.max_sweeps,
            ordering_cls=self._ordering_cls,
        )
        if v0 is not None:
            result.v = v0 @ result.v
        self._v = result.v
        self.history.append(result.sweeps)
        return result

    def reset(self) -> None:
        """Forget the tracked state (next update is a cold solve)."""
        self._v = None
        self.history.clear()
