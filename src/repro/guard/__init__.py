"""Input hardening and deadline-bounded execution.

The guard layer front-loads failure: hostile inputs fail fast with a
structured :class:`~repro.errors.InputValidationError` instead of
surfacing as silent NaN singular values; malformed JSON artifacts
(fault plans, checkpoints, bench reports) fail with one
:class:`~repro.errors.SchemaValidationError` naming the exact path;
runaway iterative work is bounded by a cooperative :class:`Deadline`
raising :class:`~repro.errors.DeadlineExceeded` with a
:class:`PartialResult`; stalled workers are detected by a
:class:`Watchdog`; and ``--check-invariants`` verifies the factorization
invariants post-hoc (:func:`check_factor_invariants`).

Everything here is opt-in: default solver/CLI behaviour (including
stdout) is unchanged unless a guard feature is requested — except input
validation, which is on by default because a silently-NaN spectrum is
never the right answer.
"""

from repro.errors import (
    DeadlineExceeded,
    InputValidationError,
    SchemaValidationError,
)
from repro.guard.deadline import Deadline, PartialResult, as_deadline
from repro.guard.invariants import (
    InvariantReport,
    check_factor_invariants,
)
from repro.guard.schemas import validate_json
from repro.guard.validate import (
    SCALE_MAX,
    SCALE_MIN,
    MatrixHealth,
    postscale_singular_values,
    prescale_matrix,
    validate_matrix,
)
from repro.guard.watchdog import Watchdog

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "InputValidationError",
    "InvariantReport",
    "MatrixHealth",
    "PartialResult",
    "SCALE_MAX",
    "SCALE_MIN",
    "SchemaValidationError",
    "Watchdog",
    "as_deadline",
    "check_factor_invariants",
    "postscale_singular_values",
    "prescale_matrix",
    "validate_json",
    "validate_matrix",
]
