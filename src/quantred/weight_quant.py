"""Progressive per-channel weight quantization.

Each output channel is quantized over several iterations. An iteration
takes the lowest-index half of the remaining columns (ceil(|remaining|/2)
of them), chooses rounding directions for that slice, then applies a ridge
correction to the still-unquantized remainder so it can absorb the error
just committed:

  1. rounding candidates: floor and ceil codes on the channel's fixed
     lattice; delta = dequantized - original, so the floor side is <= 0
     and the ceil side >= 0, one quantizer step apart away from clipping;
  2. rounding refinement: greedy flips of the k largest-|gradient|
     sign-consistent coordinates among those whose single flip lowers the
     proxy delta M delta^T (M = mu_s mu_s^T + Sigma_s), committing only
     non-increasing moves, so refinement ends at a single-flip optimum;
  3. remainder correction: dW_r* = -delta_s E[x_s x_r^T]
     (E[x_r x_r^T] + lambda2 I)^{-1}, added onto the remaining columns.

Moment blocks and ridge factorizations depend only on the column split,
so they are computed once per layer by `LayerMomentCache` and shared
read-only across channels; `LayerMomentCache.remainder_update` is the one
implementation of step 3, also exercised by `quantred verify`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .linalg import solve_spd, spd_factor
from .moments import MomentSet, accumulate_moments
from .quantizers import UniformParams, dequantize_uniform, uniform_codes


@dataclass(frozen=True)
class WeightQuantConfig:
    k: int = 1
    max_iter: int = 100
    lambda2: float = 1e4
    rounding: bool = True
    ridge: bool = True

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.lambda2 < 0:
            raise ValueError("lambda2 must be >= 0")


@dataclass(frozen=True)
class RoundingState:
    """Rounding candidates and the current choice for one channel slice."""

    delta_down: np.ndarray
    delta_up: np.ndarray
    delta: np.ndarray
    up_mask: np.ndarray
    flippable: np.ndarray
    code_down: np.ndarray
    code_up: np.ndarray
    proxy_matrix: np.ndarray

    @property
    def codes(self) -> np.ndarray:
        return np.where(self.up_mask, self.code_up, self.code_down)


@dataclass(frozen=True)
class ChannelTraceRow:
    iteration: int
    slice_size: int
    proxy_before: float
    proxy_after: float
    mse: float


@dataclass(frozen=True)
class ChannelResult:
    codes: np.ndarray
    w_bar: np.ndarray
    trace: tuple[ChannelTraceRow, ...]


@dataclass(frozen=True)
class LayerWeightResult:
    codes: np.ndarray
    w_bar: np.ndarray
    channels: tuple[ChannelResult, ...]


def halving_splits(dim: int) -> list[tuple[int, int, int]]:
    """(lo, mid, hi) column splits; each takes ceil(remaining / 2) columns."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    splits = []
    lo = 0
    while lo < dim:
        take = (dim - lo + 1) // 2
        splits.append((lo, lo + take, dim))
        lo += take
    return splits


def proxy_value(delta: np.ndarray, matrix: np.ndarray) -> float:
    """delta M delta^T: expected squared slice error, O(D^2) regardless of N."""
    delta = np.asarray(delta, dtype=np.float64)
    return float(delta @ (matrix @ delta))


def proxy_gradient(delta: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Gradient 2 delta M of the proxy (M symmetric)."""
    delta = np.asarray(delta, dtype=np.float64)
    return 2.0 * (matrix @ delta)


def select_flip_set(
    delta: np.ndarray, grad: np.ndarray, k: int, flippable: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the k largest |grad| with grad * delta >= 0.

    A zero product counts as eligible. Clip-saturated coordinates (no
    opposite rounding exists) are excluded via `flippable`. Ties resolve
    toward the lowest index; fewer than k candidates returns them all.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    grad = np.asarray(grad, dtype=np.float64)
    eligible = grad * np.asarray(delta, dtype=np.float64) >= 0.0
    if flippable is not None:
        eligible = eligible & flippable
    idx = np.flatnonzero(eligible)
    if idx.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-np.abs(grad[idx]), kind="stable")
    return np.sort(idx[order[:k]])


def init_rounding(
    w_slice: np.ndarray, params: UniformParams, proxy_matrix: np.ndarray
) -> RoundingState:
    """Floor/ceil candidates plus the round-to-nearest starting choice."""
    w_slice = np.asarray(w_slice, dtype=np.float64)
    code_down = uniform_codes(w_slice, params, "floor")
    code_up = uniform_codes(w_slice, params, "ceil")
    delta_down = dequantize_uniform(code_down, params) - w_slice
    delta_up = dequantize_uniform(code_up, params) - w_slice
    up_mask = uniform_codes(w_slice, params) == code_up
    flippable = code_down != code_up
    delta = np.where(up_mask, delta_up, delta_down)
    return RoundingState(
        delta_down=delta_down,
        delta_up=delta_up,
        delta=delta,
        up_mask=up_mask,
        flippable=flippable,
        code_down=code_down,
        code_up=code_up,
        proxy_matrix=proxy_matrix,
    )


def refine_rounding(
    state: RoundingState, k: int, max_iter: int
) -> tuple[RoundingState, list[float]]:
    """Greedy flip refinement; returns the state and committed proxy values.

    Flipping coordinate j moves it by t_j (the step to its other candidate)
    and changes the proxy by exactly t_j g_j + t_j^2 M_jj, with g = 2 M delta.
    Only flips whose exact change is negative are eligible; among them the
    k largest |g_j| that agree in sign with delta are chosen. Their joint
    change, exact from the k x k block of M, is committed unless it is
    positive, in which case refinement stops. The committed sequence is
    therefore non-increasing, the final delta never scores worse than
    round-to-nearest, and at k = 1 refinement ends (short of max_iter) only
    when no single flip lowers the proxy. Global optimality over all 2^D
    roundings is not promised.

    The gradient and proxy are updated incrementally, O(D k) per iteration.
    """
    matrix = state.proxy_matrix
    diag = np.diagonal(matrix)
    delta = state.delta.copy()
    up_mask = state.up_mask.copy()
    grad = proxy_gradient(delta, matrix)
    committed = [proxy_value(delta, matrix)]
    for _ in range(max_iter):
        other = np.where(up_mask, state.delta_down, state.delta_up)
        step = other - delta
        downhill = step * grad + step * step * diag < 0.0
        flips = select_flip_set(delta, grad, k, state.flippable & downhill)
        if flips.size == 0:
            break
        t = step[flips]
        m_cols = matrix[:, flips]
        change = float(t @ grad[flips] + t @ (m_cols[flips] @ t))
        if change > 0.0:
            break
        delta[flips] = other[flips]
        up_mask[flips] = ~up_mask[flips]
        grad += 2.0 * (m_cols @ t)
        committed.append(committed[-1] + change)
    return replace(state, delta=delta, up_mask=up_mask), committed


class LayerMomentCache:
    """Per-layer moment blocks and ridge factorizations, keyed by column split.

    Built once from the quantized calibration activations; all entries are
    read-only afterwards and shared across the channel workers.
    """

    def __init__(self, a_q: np.ndarray, lambda2: float):
        a_q = np.asarray(a_q, dtype=np.float64)
        self.moments: MomentSet = accumulate_moments(a_q)
        self.dim = a_q.shape[1]
        self.splits = halving_splits(self.dim)
        self._proxy: dict[tuple[int, int], np.ndarray] = {}
        self._remainder: dict[tuple[int, int], tuple[np.ndarray, object]] = {}
        ms = self.moments
        for lo, mid, hi in self.splits:
            mu_s = ms.mu[lo:mid]
            self._proxy[(lo, mid)] = np.outer(mu_s, mu_s) + ms.sigma[lo:mid, lo:mid]
            if mid < hi:
                e_sr = ms.raw2[lo:mid, mid:hi]
                factor = spd_factor(
                    ms.raw2[mid:hi, mid:hi] + lambda2 * np.eye(hi - mid)
                )
                self._remainder[(lo, mid)] = (e_sr, factor)

    def proxy_matrix(self, lo: int, mid: int) -> np.ndarray:
        return self._proxy[(lo, mid)]

    def remainder_update(self, lo: int, mid: int, delta_s: np.ndarray) -> np.ndarray:
        """Ridge-optimal update of columns mid:hi given the committed error delta_s.

        Minimizes E[(delta_s x_s + dW_r x_r)^2] + lambda2 ||dW_r||^2 over the
        remainder update dW_r. Raises KeyError for the final split, which
        leaves no remainder.
        """
        e_sr, factor = self._remainder[(lo, mid)]
        return -solve_spd(factor, e_sr.T @ delta_s)


def quantize_channel(
    w_row: np.ndarray,
    params: UniformParams,
    cache: LayerMomentCache,
    cfg: WeightQuantConfig,
) -> ChannelResult:
    """Run the progressive loop for one output channel on the fixed lattice `params`.

    The trace records, per iteration, the slice size, the proxy before and
    after refinement, and the empirical squared output error of the
    partially quantized row.
    """
    w_row = np.asarray(w_row, dtype=np.float64)
    dim = w_row.size
    if dim != cache.dim:
        raise ValueError(f"row dim {dim} does not match cache dim {cache.dim}")
    raw2 = cache.moments.raw2
    original = w_row.copy()
    current = w_row.copy()
    codes = np.zeros(dim, dtype=np.int64)
    w_bar = np.zeros(dim, dtype=np.float64)
    err = np.zeros(dim, dtype=np.float64)
    trace = []

    for iteration, (lo, mid, hi) in enumerate(cache.splits):
        state = init_rounding(current[lo:mid], params, cache.proxy_matrix(lo, mid))
        proxy_before = proxy_value(state.delta, state.proxy_matrix)
        if cfg.rounding and cfg.k > 0:
            state, committed = refine_rounding(state, cfg.k, cfg.max_iter)
            proxy_after = committed[-1]
        else:
            proxy_after = proxy_before
        codes[lo:mid] = state.codes
        w_bar[lo:mid] = dequantize_uniform(codes[lo:mid], params)
        err[lo:mid] = w_bar[lo:mid] - original[lo:mid]
        if cfg.ridge and mid < hi:
            current[mid:hi] += cache.remainder_update(lo, mid, state.delta)
        err[mid:hi] = current[mid:hi] - original[mid:hi]
        mse = float(err @ (raw2 @ err))
        trace.append(
            ChannelTraceRow(
                iteration=iteration,
                slice_size=mid - lo,
                proxy_before=proxy_before,
                proxy_after=proxy_after,
                mse=mse,
            )
        )
    return ChannelResult(codes, w_bar, tuple(trace))


def quantize_layer_weights(
    w: np.ndarray,
    channel_params: tuple[UniformParams, ...],
    a_q: np.ndarray,
    cfg: WeightQuantConfig,
    jobs: int = 1,
) -> LayerWeightResult:
    """Quantize all output channels against the shared moment cache.

    Channels are independent, so `jobs` > 1 runs them on a thread pool;
    results are identical to the sequential order regardless of job count.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    if len(channel_params) != w.shape[0]:
        raise ValueError("need one UniformParams per output channel")
    cache = LayerMomentCache(a_q, cfg.lambda2)

    def run(i: int) -> ChannelResult:
        return quantize_channel(w[i], channel_params[i], cache, cfg)

    if jobs > 1 and w.shape[0] > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            channels = list(pool.map(run, range(w.shape[0])))
    else:
        channels = [run(i) for i in range(w.shape[0])]

    codes = np.stack([c.codes for c in channels])
    w_bar = np.stack([c.w_bar for c in channels])
    return LayerWeightResult(codes=codes, w_bar=w_bar, channels=tuple(channels))
