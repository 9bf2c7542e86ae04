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
(A^T A/N + lambda1 I)^{-1} A^T = A^T (A A^T/N + lambda1 I)^{-1}. The
system comes from the layer's `weight_quant.LayerMomentCache.ridge_system`,
which builds the weight loop's remainder systems too, with the same 1/N
normalization: for N >= D_in the Gram A^T A / N plus the ridge, the same
E[x x^T] the weight loop's proxy reads; for a batch with fewer samples
than inputs the N x N sample-space system, so no D_in x D_in matrix is
formed. This module keeps only the right-hand side R and the mapping of
the solution back to dW.

The same R gives the layer's output error. With the weight error
E = W_bar - W of any quantized weights W_bar, the batch's stacked output
error is W dA^T + E A^T = N (R + E A^T / N), so

    MSE = N ||R + E A^T / N||^2                       (sample form)
        = N ||R||^2 + 2 <E, R A> + <E M, E>           (moment form)

with M = A^T A / N. `pipeline.layer_mse` scores every MSE of a run from
these two forms: the sample form costs one N x D_in x d_out product per
score, the moment form d_out x D_in^2 once the Gram M and R A, the
input-space right-hand side, exist. Every term is of the size of the
error, not of the output, so neither cancels the full-precision output
against the quantized one.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_strength, solve_rows, spd_factor
from .weight_quant import LayerMomentCache


def correction_rhs(w: np.ndarray, a_fp: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """R = W (A_q - A_fp)^T / N, the d_out x N right-hand side of a batch pair.

    `a_q` is the quantized batch paired with the full-precision `a_fp`.
    Both aqer's solve and the scoring of every MSE on the pair read it.
    """
    w = np.asarray(w, dtype=np.float64)
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = np.asarray(a_q, dtype=np.float64)
    if w.ndim != 2 or a_fp.ndim != 2 or a_fp.shape != a_q.shape:
        raise ValueError("expected 2-D w and a paired full-precision and quantized batch")
    if w.shape[1] != a_q.shape[1]:
        raise ValueError(f"w D_in {w.shape[1]} does not match batch D_in {a_q.shape[1]}")
    return w @ (a_q - a_fp).T / a_q.shape[0]


def solve_activation_correction(
    rhs: np.ndarray,
    cache: LayerMomentCache,
    lambda1: float,
    projected: np.ndarray | None = None,
) -> np.ndarray:
    """The optimal weight update dW* from the batch pair's right-hand side and cache.

    `rhs` is `correction_rhs` of the full-precision batch and the quantized
    batch the cache was built from. The system matrix is factored once and
    shared across all output channels (one right-hand side per row of W),
    in the space the cache's `ridge_system` picks: D_in x D_in when
    N >= D_in, N x N otherwise. The input-space solve reads `projected`,
    rhs A, when the caller holds it, and forms it otherwise; the
    sample-space solve never reads it. Raises SingularSystemError when
    lambda1 = 0 leaves the D_in x D_in system rank deficient, which
    N < D_in always does.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or rhs.shape[1] != cache.n_samples:
        raise ValueError(
            f"right-hand side of shape {rhs.shape} is not paired with the "
            f"cache's {cache.n_samples}-sample batch"
        )
    require_strength("lambda1", lambda1)

    system, sample_space = cache.ridge_system(slice(None), lambda1)
    factor = spd_factor(system)
    if sample_space:
        return -solve_rows(factor, rhs) @ cache.batch
    if projected is None:
        projected = rhs @ cache.batch
    return -solve_rows(factor, projected)


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
