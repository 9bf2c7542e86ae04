"""Dense linear-algebra helpers shared by the ridge solves, on numpy alone,
and the one check of each kind of numeric setting (`require_strength`,
`require_int`), whose ValueError each entry point wraps in its own type.
"""

from __future__ import annotations

import sys

import numpy as np


class SingularSystemError(Exception):
    """A ridge system matrix is singular or indefinite."""


_NOT_PD = (
    "ridge system matrix is not positive definite; "
    "use a regularization strength > 0"
)

_BLOCK = 64


def spd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite system matrix for repeated solves.

    Returns L⁻¹, the inverse of the lower Cholesky factor L of A = L Lᵀ, so
    that A⁻¹ = L⁻ᵀ L⁻¹ and every solve is two matrix products. One factor is
    reused across many right-hand sides (every output channel of a layer),
    and numpy has no triangular solve, so the inverse of the triangular
    factor is formed once; A⁻¹ itself is never formed. L⁻¹ comes from a
    blocked 2 x 2 recursion whose off-diagonal blocks are matrix products:
    on a 2-core x86 VM at one BLAS thread it takes 0.024 s at n = 1024 and
    0.40 s at n = 3072, where np.linalg.inv on the whole factor takes
    0.11 s and 2.3 s. Raises SingularSystemError when the matrix is not
    positive definite, which for our ridge systems means the regularization
    strength is zero while the moment matrix is rank deficient.
    """
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(_NOT_PD) from exc
    return _lower_inverse(lower)


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix.

    [[L11, 0], [L21, L22]]⁻¹ = [[A, 0], [-C L21 A, C]] with A = L11⁻¹ and
    C = L22⁻¹, recursively. Blocks of at most _BLOCK rows are inverted
    directly and keep only their lower triangle: the pivoted LU inside
    np.linalg.inv leaves rounding noise above the diagonal.
    """
    n = lower.shape[0]
    if n <= _BLOCK:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    a = _lower_inverse(lower[:h, :h])
    c = _lower_inverse(lower[h:, h:])
    return np.block([[a, np.zeros((h, n - h))], [-(c @ (lower[h:, :h] @ a)), c]])


def require_strength(name: str, value) -> None:
    """Raise ValueError unless a ridge strength is an int or float (not a bool) >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an int or float, got {value!r}")
    if not 0 <= value <= sys.float_info.max:  # NaN, inf and ints past a float fail
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """`value` as a plain int; ValueError unless it is an integer (not a bool) in [lo, hi].

    Python and numpy integers pass; hi None leaves the range open above.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def solve_spd(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given the factor L⁻¹ from spd_factor: x = L⁻ᵀ (L⁻¹ rhs)."""
    return factor.T @ (factor @ rhs)


def solve_rows(factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Solve X A = rows for X, with A the symmetric factored matrix.

    `rows` holds one right-hand side per row, so a whole weight matrix can
    be corrected with a single factorization: X = (rows L⁻ᵀ) L⁻¹.
    """
    return (rows @ factor.T) @ factor
