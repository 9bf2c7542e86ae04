"""Ridge factor and solves against scipy's Cholesky solve, across the block size."""

import numpy as np
import pytest

from quantred.linalg import (
    SingularSystemError,
    solve_rows,
    solve_spd,
    spd_factor,
)

scipy_linalg = pytest.importorskip("scipy.linalg")

# straddle the 64-row leaf block of the factor's recursion and its halvings
SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 300)
REGIMES = ("well", "ridge", "ill")
EPS = np.finfo(np.float64).eps


def _system(n, regime):
    """Symmetric positive definite n x n matrix of one conditioning regime.

    `well`: a Gram matrix plus the identity (cond < 10). `ridge`: a
    rank-n/4 moment matrix plus 1e-3 I, as a ridge system with a thin
    batch. `ill`: eigenvalues spread log-uniformly over 1..1e-8 (cond 1e8).
    """
    rng = np.random.default_rng([n, REGIMES.index(regime)])
    if regime == "well":
        a = rng.normal(0.0, 1.0, (n, n))
        return a @ a.T / n + np.eye(n)
    if regime == "ridge":
        a = rng.normal(0.0, 1.0, (max(n // 4, 1), n))
        return a.T @ a / n + 1e-3 * np.eye(n)
    q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, n)))
    matrix = (q * np.logspace(0.0, -8.0, n)) @ q.T
    return 0.5 * (matrix + matrix.T)


def _scaled_residual(matrix, x, b):
    return np.linalg.norm(matrix @ x - b) / (np.linalg.norm(matrix, 2) * np.linalg.norm(x))


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", SIZES)
class TestAgainstScipy:
    def test_solve_spd(self, n, regime):
        matrix = _system(n, regime)
        rng = np.random.default_rng(n)
        factor = spd_factor(matrix)
        cond = np.linalg.cond(matrix)
        for rhs in (rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, (n, 3))):
            x = solve_spd(factor, rhs)
            assert x.shape == rhs.shape
            assert _scaled_residual(matrix, x, rhs) <= 1e-14
            reference = scipy_linalg.cho_solve(scipy_linalg.cho_factor(matrix, lower=True), rhs)
            # forward error of any backward-stable solve grows with cond
            assert np.linalg.norm(x - reference) <= 1e-14 * cond * np.linalg.norm(reference)

    def test_solve_rows(self, n, regime):
        matrix = _system(n, regime)
        rows = np.random.default_rng(n + 1).normal(0.0, 1.0, (4, n))
        x = solve_rows(spd_factor(matrix), rows)
        assert x.shape == rows.shape
        # X A = rows is A X^T = rows^T, A symmetric
        assert _scaled_residual(matrix, x.T, rows.T) <= 1e-14
        reference = scipy_linalg.cho_solve(scipy_linalg.cho_factor(matrix, lower=True), rows.T).T
        cond = np.linalg.cond(matrix)
        assert np.linalg.norm(x - reference) <= 1e-14 * cond * np.linalg.norm(reference)

    def test_factor_inverts_the_cholesky_factor(self, n, regime):
        matrix = _system(n, regime)
        factor = spd_factor(matrix)
        lower = np.linalg.cholesky(matrix)
        assert np.array_equal(factor, np.tril(factor))
        # a left inverse is exact only to about eps * cond(L), and cond(L)
        # reaches 1e4 in `ill`
        bound = 1e-12 if regime != "ill" else max(1e-12, 10 * EPS * np.linalg.cond(lower))
        assert np.max(np.abs(factor @ lower - np.eye(n))) <= bound


def test_indefinite_matrix_is_singular():
    matrix = _system(70, "well")
    matrix[5, 5] = -1.0
    with pytest.raises(SingularSystemError, match="regularization"):
        spd_factor(matrix)


def test_rank_deficient_unregularized_is_singular():
    # a dead input channel makes the lambda = 0 moment matrix exactly rank
    # deficient, in a leading block and past the 64-row leaf
    rng = np.random.default_rng(3)
    batch = rng.normal(0.0, 1.0, (200, 100))
    for dead in (2, 90):
        dead_batch = batch.copy()
        dead_batch[:, dead] = 0.0
        with pytest.raises(SingularSystemError, match="regularization"):
            spd_factor(dead_batch.T @ dead_batch / 200)
