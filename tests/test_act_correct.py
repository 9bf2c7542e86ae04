"""Activation-error ridge correction: closed-form optimality and reductions."""

import numpy as np
import pytest

from quantred.act_correct import (
    activation_correction_objective,
    solve_activation_correction,
)
from quantred.linalg import SingularSystemError, solve_rows, spd_factor
from quantred.moments import InsufficientSamplesError
from quantred.oracle import layer_mse
from quantred.quantizers import calibrate_scale, quantize_with_scheme


def _quantized_batch(rng, n, d, bits=4):
    a_fp = rng.normal(0.2, 1.3, (n, d))
    scheme = calibrate_scale(a_fp, "uniform", bits, "per_tensor")
    _, a_q = quantize_with_scheme(a_fp, scheme)
    return a_fp, a_q


def _reference_delta_w(w, a_fp, a_q, lam):
    # reference: the D_in x D_in input-space solve for any batch size
    # with the error cross-moment E[dx xbar^T] = (a_q - a_fp)^T a_q / N
    n = a_q.shape[0]
    system = a_q.T @ a_q / n + lam * np.eye(w.shape[1])
    cross = (a_q - a_fp).T @ a_q / n
    return -solve_rows(spd_factor(system), w @ cross)


# (N, D_in) with N < D_in: two samples, N equal to a halving split's
# remainder width (16 -> 8 and 4; 24 -> 12 and 6), and N = D_in - 1
THIN_SHAPES = [(2, 9), (2, 16), (8, 16), (4, 16), (15, 16), (6, 24), (12, 24), (23, 24)]


class TestHandCases:
    def test_scalar_closed_form(self):
        # cross moment 0.1, quantized second moment 1.0, lambda 1:
        # delta = -w * 0.1 / (1 + 1) = -0.1
        a_q = np.array([[1.0], [-1.0]])
        a_fp = np.array([[0.9], [-0.9]])
        corr = solve_activation_correction(np.array([[2.0]]), a_fp, a_q, 1.0)
        np.testing.assert_allclose(corr.delta_w, [[-0.1]], atol=1e-14)
        np.testing.assert_allclose(corr.updated_w, [[1.9]], atol=1e-14)

    def test_zero_activation_error_gives_zero_update(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (32, 5))
        w = rng.normal(0, 1, (3, 5))
        corr = solve_activation_correction(w, a, a, 0.5)
        np.testing.assert_array_equal(corr.delta_w, np.zeros((3, 5)))
        np.testing.assert_array_equal(corr.updated_w, w)

    def test_huge_regularization_shrinks_update_to_zero(self):
        rng = np.random.default_rng(1)
        a_fp, a_q = _quantized_batch(rng, 64, 6)
        w = rng.normal(0, 1, (4, 6))
        delta = solve_activation_correction(w, a_fp, a_q, 1e12).delta_w
        assert np.abs(delta).max() < 1e-9


class TestOptimality:
    def test_solution_beats_random_perturbations(self):
        rng = np.random.default_rng(2)
        a_fp, a_q = _quantized_batch(rng, 128, 8)
        w = rng.normal(0, 1, (5, 8))
        lam = 0.7
        corr = solve_activation_correction(w, a_fp, a_q, lam)
        at_solution = activation_correction_objective(w, corr.delta_w, a_fp, a_q, lam)
        for _ in range(100):
            perturbed = corr.delta_w + rng.normal(0, 0.01, corr.delta_w.shape)
            assert (
                activation_correction_objective(w, perturbed, a_fp, a_q, lam)
                >= at_solution - 1e-12
            )

    def test_objective_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(3)
        a_fp, a_q = _quantized_batch(rng, 96, 6)
        w = rng.normal(0, 1, (4, 6))
        lam = 0.5
        corr = solve_activation_correction(w, a_fp, a_q, lam)
        eps = 1e-6
        grad = np.zeros_like(corr.delta_w)
        for i in range(grad.shape[0]):
            for j in range(grad.shape[1]):
                bump = np.zeros_like(grad)
                bump[i, j] = eps
                up = activation_correction_objective(w, corr.delta_w + bump, a_fp, a_q, lam)
                dn = activation_correction_objective(w, corr.delta_w - bump, a_fp, a_q, lam)
                grad[i, j] = (up - dn) / (2 * eps)
        scale = 1.0 + activation_correction_objective(w, corr.delta_w, a_fp, a_q, lam)
        assert np.abs(grad).max() < 1e-5 * scale

    def test_never_worse_than_no_update(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a_fp, a_q = _quantized_batch(rng, 64, 7)
            w = rng.normal(0, 1, (3, 7))
            lam = float(rng.uniform(0.01, 5.0))
            corr = solve_activation_correction(w, a_fp, a_q, lam)
            at_zero = activation_correction_objective(w, np.zeros_like(w), a_fp, a_q, lam)
            at_sol = activation_correction_objective(w, corr.delta_w, a_fp, a_q, lam)
            assert at_sol <= at_zero + 1e-12

    def test_reduces_layer_output_error(self):
        rng = np.random.default_rng(5)
        a_fp, a_q = _quantized_batch(rng, 256, 12)
        w = rng.normal(0, 1, (8, 12))
        corr = solve_activation_correction(w, a_fp, a_q, 0.1)
        before = layer_mse(w, a_fp, w, a_q)
        after = layer_mse(w, a_fp, corr.updated_w, a_q)
        assert after < before


class TestStructure:
    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        a_fp, a_q = _quantized_batch(rng, 64, 5)
        w = rng.normal(0, 1, (4, 5))
        perm = rng.permutation(4)
        base = solve_activation_correction(w, a_fp, a_q, 0.3)
        permuted = solve_activation_correction(w[perm], a_fp, a_q, 0.3)
        np.testing.assert_allclose(permuted.delta_w, base.delta_w[perm], atol=1e-12)

    def test_singular_without_regularization(self):
        rng = np.random.default_rng(7)
        a_fp = rng.normal(0, 1, (32, 4))
        a_q = a_fp.copy()
        a_q[:, 2] = 0.0  # dead quantized channel makes the system rank deficient
        with pytest.raises(SingularSystemError, match="regularization"):
            solve_activation_correction(rng.normal(0, 1, (2, 4)), a_fp, a_q, 0.0)

    def test_singular_without_regularization_thin_batch(self):
        # N < D_in: the D_in x D_in system has rank <= N, so lambda1 = 0 is
        # singular even though the N x N Gram matrix is positive definite
        rng = np.random.default_rng(8)
        a_fp, a_q = _quantized_batch(rng, 5, 9)
        assert np.linalg.matrix_rank(a_q @ a_q.T) == 5
        with pytest.raises(SingularSystemError, match="regularization"):
            solve_activation_correction(rng.normal(0, 1, (2, 9)), a_fp, a_q, 0.0)

    def test_validation_errors(self):
        w = np.zeros((2, 3))
        batch = np.zeros((4, 3))
        with pytest.raises(ValueError, match="D_in"):
            solve_activation_correction(w, np.zeros((4, 5)), np.zeros((4, 5)), 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            solve_activation_correction(w, batch, batch, -1.0)
        with pytest.raises(InsufficientSamplesError):
            solve_activation_correction(w, batch[:1], batch[:1], 1.0)
        with pytest.raises(ValueError):
            solve_activation_correction(w, batch, np.zeros((5, 3)), 1.0)


class TestInputSpace:
    @pytest.mark.parametrize("n,d_in", [(9, 9), (16, 8), (96, 24), (2048, 16)])
    def test_matches_cross_moment_reference(self, n, d_in):
        # N >= D_in: R = W dA^T / N applied to A before the solve equals
        # W times the D_in x D_in cross-moment
        rng = np.random.default_rng(n + d_in)
        a_fp, a_q = _quantized_batch(rng, n, d_in)
        w = rng.normal(0, 1, (5, d_in))
        got = solve_activation_correction(w, a_fp, a_q, 0.5).delta_w
        want = _reference_delta_w(w, a_fp, a_q, 0.5)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestThinBatch:
    @pytest.mark.parametrize("n,d_in", THIN_SHAPES)
    @pytest.mark.parametrize("lam", [0.05, 10.0])
    def test_matches_input_space_reference(self, n, d_in, lam):
        rng = np.random.default_rng(1000 * n + d_in)
        a_fp, a_q = _quantized_batch(rng, n, d_in)
        w = rng.normal(0, 1, (5, d_in))
        got = solve_activation_correction(w, a_fp, a_q, lam).delta_w
        want = _reference_delta_w(w, a_fp, a_q, lam)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_gradient_vanishes_at_thin_batch_solution(self):
        rng = np.random.default_rng(9)
        a_fp, a_q = _quantized_batch(rng, 6, 20)
        w = rng.normal(0, 1, (3, 20))
        lam = 0.3
        corr = solve_activation_correction(w, a_fp, a_q, lam)
        # gradient of the objective: 2 (dW A^T + W dA^T) A / N + 2 lam dW
        resid = corr.delta_w @ a_q.T + w @ (a_q - a_fp).T
        grad = 2 * resid @ a_q / 6 + 2 * lam * corr.delta_w
        assert np.abs(grad).max() < 1e-12 * (1 + np.abs(w).max())
