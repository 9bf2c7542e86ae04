"""Independent reference implementations used to check the fast paths.

Everything here is deliberately simple and O(2^D), O(D^3) or O(N D):
exhaustive enumeration of rounding choices, direct evaluation of every
single flip, Monte Carlo output error, direct layer MSE, central finite
differences, and the scale grid quantizing the whole tensor per candidate.
These are the oracles the engine is tested against, not targets to be
optimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quantizers import (
    ALPHA_GRID,
    LogSqrt2Params,
    UniformParams,
    quantize_log_sqrt2,
    quantize_uniform,
)

MAX_ENUM_DIM = 20
_CHUNK = 1 << 14


@dataclass(frozen=True)
class BruteForceResult:
    best_delta: np.ndarray
    best_proxy: float
    evaluated: int


def brute_force_rounding(
    delta_down: np.ndarray, delta_up: np.ndarray, matrix: np.ndarray
) -> BruteForceResult:
    """Exhaustively minimize delta M delta^T over down/up choices.

    Coordinates with a single candidate (clip saturation makes the two
    sides equal) are fixed; the rest are enumerated, 2^free assignments in
    lexicographic order with down before up, keeping the first minimum.
    Refuses dimensions above MAX_ENUM_DIM.
    """
    delta_down = np.asarray(delta_down, dtype=np.float64)
    delta_up = np.asarray(delta_up, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    d = delta_down.size
    if d > MAX_ENUM_DIM:
        raise ValueError(f"enumeration is limited to {MAX_ENUM_DIM} dims, got {d}")
    if delta_up.shape != delta_down.shape or matrix.shape != (d, d):
        raise ValueError("candidate vectors and matrix shapes disagree")

    free = np.flatnonzero(delta_down != delta_up)
    f = free.size
    total = 1 << f
    best_value = np.inf
    best_index = 0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        deltas = np.broadcast_to(delta_down, (idx.size, d)).copy()
        for j, col in enumerate(free):
            # bit order makes ascending index equal lexicographic order
            take_up = (idx >> (f - 1 - j)) & 1
            deltas[:, col] = np.where(take_up == 1, delta_up[col], delta_down[col])
        values = np.einsum("id,de,ie->i", deltas, matrix, deltas)
        local = int(np.argmin(values))
        if values[local] < best_value:
            best_value = float(values[local])
            best_index = start + local
    best_delta = delta_down.copy()
    for j, col in enumerate(free):
        if (best_index >> (f - 1 - j)) & 1:
            best_delta[col] = delta_up[col]
    return BruteForceResult(
        best_delta=best_delta,
        best_proxy=float(best_delta @ (matrix @ best_delta)),
        evaluated=total,
    )


def single_flip_proxies(
    delta: np.ndarray,
    delta_down: np.ndarray,
    delta_up: np.ndarray,
    flippable: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """Proxy delta M delta^T after moving each coordinate to its other candidate.

    Entry j re-evaluates the full quadratic form with coordinate j flipped,
    O(D^3) in all; coordinates that are not flippable get +inf. Uses no
    gradient, so it checks a refinement's stopping point independently.
    """
    delta = np.asarray(delta, dtype=np.float64)
    delta_down = np.asarray(delta_down, dtype=np.float64)
    delta_up = np.asarray(delta_up, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    values = np.full(delta.size, np.inf)
    for j in np.flatnonzero(flippable):
        flipped = delta.copy()
        flipped[j] = delta_down[j] if delta[j] == delta_up[j] else delta_up[j]
        values[j] = float(flipped @ (matrix @ flipped))
    return values


def mc_output_error(delta_w: np.ndarray, batch: np.ndarray) -> float:
    """(1/N) sum_n (delta_w . xbar_n)^2 over an explicit sample batch."""
    delta_w = np.asarray(delta_w, dtype=np.float64)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != delta_w.size:
        raise ValueError("batch must be (N, D) matching delta_w")
    proj = batch @ delta_w
    return float(np.mean(proj * proj))


def layer_mse(
    w_fp: np.ndarray, a_fp: np.ndarray, w_q: np.ndarray, a_q: np.ndarray
) -> float:
    """(1/N) sum_n ||W x_n - W_bar xbar_n||^2 for a quantized layer.

    Its own plain expression, which shares no code with the run's
    `pipeline.layer_mse`, so it checks the MSE a run reports. The
    quantized output is subtracted in place, so no more than two
    N x d_out arrays are alive at once: the benchmark's parent process
    runs this check, and its children inherit its peak RSS.
    """
    w_fp = np.asarray(w_fp, dtype=np.float64)
    w_q = np.asarray(w_q, dtype=np.float64)
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = np.asarray(a_q, dtype=np.float64)
    if a_fp.shape != a_q.shape or w_fp.shape != w_q.shape:
        raise ValueError("paired inputs must share shapes")
    d = a_fp @ w_fp.T
    d -= a_q @ w_q.T
    return float(np.sum(d * d) / a_q.shape[0])


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, any array shape."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        x_hi = x.copy()
        x_lo = x.copy()
        x_hi[index] += h
        x_lo[index] -= h
        grad[index] = (f(x_hi) - f(x_lo)) / (2.0 * h)
    return grad


def grid_calibrate(values: np.ndarray, family: str, bits: int):
    """Calibrated params by quantizing all values under each of the 141 scales.

    Candidates are ALPHA_GRID times max - min over 2^b - 1 (uniform, with
    zero-point clip(rint(-min / s), 0, 2^b - 1)) or times max (log-sqrt2);
    ties go to the larger scale (last minimum). Empty input, and input
    whose smallest candidate scale is zero in float64 (constant uniform or
    all-zero log-sqrt2 input included), give degenerate unit-scale params.
    For finite input; one full pass over the values per candidate.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    qmax = (1 << bits) - 1
    if family == "uniform":
        lo = float(values.min()) if values.size else 0.0
        s_base = (float(values.max()) - lo) / qmax if values.size else 0.0
        if float(ALPHA_GRID[0] * s_base) == 0.0:
            return UniformParams(scale=1.0, zero_point=0, bits=bits, degenerate=True)
        candidates = []
        for alpha in ALPHA_GRID:
            scale = float(alpha * s_base)
            zero = int(np.clip(np.rint(-lo / scale), 0, qmax))
            candidates.append(UniformParams(scale=scale, zero_point=zero, bits=bits))
        quantize = quantize_uniform
    elif family == "log_sqrt2":
        hi = float(values.max()) if values.size else 0.0
        if float(ALPHA_GRID[0] * hi) == 0.0:
            return LogSqrt2Params(scale=1.0, bits=bits, degenerate=True)
        candidates = [LogSqrt2Params(scale=float(a * hi), bits=bits) for a in ALPHA_GRID]
        quantize = quantize_log_sqrt2
    else:
        raise ValueError(f"unknown family {family!r}")
    best, best_mse = None, None
    for params in candidates:
        _, deq = quantize(values, params)
        mse = float(np.mean((values - deq) ** 2))
        if best_mse is None or mse <= best_mse:
            best, best_mse = params, mse
    return best
