"""Closed-form ridge update absorbing activation quantization error.

Quantizing activations perturbs a linear layer's output by W dx per
sample. The minimizer of

    (1/N) sum_n ||dW xbar_n + W dx_n||^2 + lambda1 ||dW||_F^2

over the weight update dW is

    dW* = -W E[dx xbar^T] (E[xbar xbar^T] + lambda1 I)^{-1}

with both expectations taken as 1/N sums over the calibration batch. The
updated weights W + dW* then feed weight quantization, whose channel
scales are calibrated after this step.

With A the quantized batch and dA = A - A_fp, the cross-moment term is
W E[dx xbar^T] = R A for the right-hand side R = W dA^T / N, so

    dW* = -R A (A^T A / N + lambda1 I)^{-1}      (input space)
        = -R (A A^T / N + lambda1 I)^{-1} A      (sample space)

The two forms associate the same R and A in two orders, by the
push-through identity
(A^T A/N + lambda1 I)^{-1} A^T = A^T (A A^T/N + lambda1 I)^{-1}. The input
space factors a D_in x D_in system; when the batch has fewer samples than
inputs (N < D_in) that system has rank at most N plus the ridge, and the
sample space factors an N x N system instead, so no D_in x D_in matrix
is formed. The input-space Gram A^T A / N is `moments.accumulate_moments`,
the same E[x x^T] the weight loop's proxy and ridge read.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_regularized, solve_rows, spd_factor
from .moments import InsufficientSamplesError, accumulate_moments


def solve_activation_correction(
    w: np.ndarray, a_fp: np.ndarray, a_q: np.ndarray, lambda1: float
) -> np.ndarray:
    """The optimal weight update dW* given a paired calibration batch.

    The system matrix is factored once and shared across all output
    channels (one right-hand side per row of W): D_in x D_in in the input
    space, or N x N in the sample space when N < D_in. Raises
    SingularSystemError when lambda1 = 0 leaves the D_in x D_in system rank
    deficient, which N < D_in always does.
    """
    w = np.asarray(w, dtype=np.float64)
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = np.asarray(a_q, dtype=np.float64)
    if w.ndim != 2 or a_fp.ndim != 2 or a_fp.shape != a_q.shape:
        raise ValueError("expected 2-D w and a paired (N, D_in) batch")
    if w.shape[1] != a_fp.shape[1]:
        raise ValueError(
            f"w D_in {w.shape[1]} does not match batch D_in {a_fp.shape[1]}"
        )
    n = a_fp.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    if not (np.isfinite(lambda1) and lambda1 >= 0):
        raise ValueError(f"lambda1 must be finite and >= 0, got {lambda1}")

    rhs = w @ (a_q - a_fp).T / n
    if n < w.shape[1]:
        require_regularized(n, w.shape[1], lambda1)
        factor = spd_factor(a_q @ a_q.T / n + lambda1 * np.eye(n))
        return -solve_rows(factor, rhs) @ a_q
    factor = spd_factor(accumulate_moments(a_q) + lambda1 * np.eye(w.shape[1]))
    return -solve_rows(factor, rhs @ a_q)


def activation_correction_objective(
    w: np.ndarray,
    delta_w: np.ndarray,
    a_fp: np.ndarray,
    a_q: np.ndarray,
    lambda1: float,
) -> float:
    """Empirical value of the regularized correction objective at delta_w."""
    w = np.asarray(w, dtype=np.float64)
    delta_w = np.asarray(delta_w, dtype=np.float64)
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = np.asarray(a_q, dtype=np.float64)
    n = a_fp.shape[0]
    resid = delta_w @ a_q.T + w @ (a_q - a_fp).T
    return float(np.sum(resid * resid) / n + lambda1 * np.sum(delta_w * delta_w))
