"""Dense linear-algebra helpers shared by the ridge solves."""

from __future__ import annotations

import numpy as np
import scipy.linalg


class SingularSystemError(Exception):
    """A ridge system matrix is singular or indefinite."""


_NOT_PD = (
    "ridge system matrix is not positive definite; "
    "use a regularization strength > 0"
)


def spd_factor(matrix: np.ndarray):
    """Cholesky-factor a symmetric positive definite system matrix.

    One factorization is reused across many right-hand sides; the explicit
    inverse is never formed. Raises SingularSystemError when the matrix is
    not positive definite, which for our ridge systems means the
    regularization strength is zero while the moment matrix is rank
    deficient.
    """
    try:
        return scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(_NOT_PD) from exc


def require_regularized(n_samples: int, width: int, strength: float) -> None:
    """Raise SingularSystemError for an unregularized ridge system wider than its batch.

    A width x width moment matrix of n_samples < width samples has rank at
    most n_samples, so with strength 0 it has no inverse. The sample-space
    form of the same solve factors an n_samples x n_samples Gram matrix,
    which can be positive definite and would return the minimum-norm answer
    instead; callers check here first so both forms keep the full-width
    contract.
    """
    if strength == 0 and n_samples < width:
        raise SingularSystemError(_NOT_PD)


def solve_spd(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given a factor from spd_factor."""
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def solve_rows(factor, rows: np.ndarray) -> np.ndarray:
    """Solve X A = rows for X, with A the symmetric factored matrix.

    `rows` holds one right-hand side per row, so a whole weight matrix can
    be corrected with a single factorization.
    """
    return scipy.linalg.cho_solve(factor, rows.T, check_finite=False).T
