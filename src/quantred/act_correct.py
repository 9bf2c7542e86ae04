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
(A^T A/N + lambda1 I)^{-1} A^T = A^T (A A^T/N + lambda1 I)^{-1}. Both
read the layer's `weight_quant.LayerMomentCache`, the one place that
decides between the Gram and the batch: when it holds the Gram A^T A / N
(N >= D_in), the input space factors that D_in x D_in matrix plus the
ridge, the same E[x x^T] the weight loop's proxy and ridge read. A batch
with fewer samples than inputs has no Gram in the cache; its input-space
system would have rank at most N plus the ridge, and the sample space
factors an N x N system instead, so no D_in x D_in matrix is formed.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_regularized, require_strength, solve_rows, spd_factor
from .weight_quant import LayerMomentCache


def solve_activation_correction(
    w: np.ndarray, a_fp: np.ndarray, cache: LayerMomentCache, lambda1: float
) -> np.ndarray:
    """The optimal weight update dW* given a full-precision batch and its cache.

    `cache` is the moment cache of the quantized batch paired with `a_fp`.
    The system matrix is factored once and shared across all output
    channels (one right-hand side per row of W): D_in x D_in in the input
    space when the cache holds the Gram, or N x N in the sample space when
    it does not. Raises SingularSystemError when lambda1 = 0 leaves the
    D_in x D_in system rank deficient, which N < D_in always does.
    """
    w = np.asarray(w, dtype=np.float64)
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = cache.batch
    if w.ndim != 2 or a_fp.shape != a_q.shape:
        raise ValueError("expected 2-D w and a batch paired with the cache's")
    if w.shape[1] != cache.dim:
        raise ValueError(f"w D_in {w.shape[1]} does not match batch D_in {cache.dim}")
    require_strength("lambda1", lambda1)

    n = cache.n_samples
    rhs = w @ (a_q - a_fp).T / n
    if cache.moments is None:
        require_regularized(n, cache.dim, lambda1)
        factor = spd_factor(a_q @ a_q.T / n + lambda1 * np.eye(n))
        return -solve_rows(factor, rhs) @ a_q
    factor = spd_factor(cache.moments + lambda1 * np.eye(cache.dim))
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
