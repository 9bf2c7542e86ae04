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
implementation of step 3, also exercised by `quantred verify`. When the
batch has fewer samples N than columns, the cache forms no D_in x D_in
matrix: blocks come from batch slices, and a remainder wider than N is
solved in sample space, dW_r* = -delta_s X_s^T (X_r X_r^T + N lambda2 I)^{-1}
X_r with X the N x D_in batch, an N x N system (push-through identity).

Refinement updates its state as it commits flips, O(k) for the flipped
steps and sides plus one rank-k gradient update, instead of rebuilding it
from the candidates every iteration. The trace MSE of a channel, one value
per split, comes from one matrix product of all the split error vectors
after the split loop (`LayerMomentCache.trace_mses`): with E[x x^T], or
with the batch itself when N < D_in, so that matrix is read once per
channel rather than once per split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .linalg import require_regularized, solve_spd, spd_factor
from .moments import InsufficientSamplesError, MomentSet, accumulate_moments
from .quantizers import UniformParams, dequantize_uniform, uniform_codes


@dataclass(frozen=True)
class WeightQuantConfig:
    k: int = 1
    max_iter: int = 100
    lambda2: float = 1e4
    ridge: bool = True

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not (math.isfinite(self.lambda2) and self.lambda2 >= 0):
            raise ValueError(f"lambda2 must be finite and >= 0, got {self.lambda2}")


@dataclass(frozen=True)
class RoundingState:
    """Rounding candidates and the current choice for one channel slice.

    `stop_reason` and `flips_committed` describe the refinement that
    produced the choice: "off" and 0 until `refine_rounding` has run, then
    why it stopped ("no_eligible", "uphill" or "max_iter") and how many
    coordinates its committed steps flipped.
    """

    delta_down: np.ndarray
    delta_up: np.ndarray
    delta: np.ndarray
    up_mask: np.ndarray
    flippable: np.ndarray
    code_down: np.ndarray
    code_up: np.ndarray
    proxy_matrix: np.ndarray
    stop_reason: str = "off"
    flips_committed: int = 0

    @property
    def codes(self) -> np.ndarray:
        return np.where(self.up_mask, self.code_up, self.code_down)


# keys of one trace row, one row per split of a channel
TRACE_FIELDS = (
    "iteration",
    "slice_size",
    "proxy_before",
    "proxy_after",
    "mse",
    "stop_reason",
    "flips_committed",
)


@dataclass(frozen=True)
class LayerWeightResult:
    """Codes and dequantized weights, plus `trace[i]`, the trace rows of channel i."""

    codes: np.ndarray
    w_bar: np.ndarray
    trace: tuple[list[dict], ...]


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
    grad = np.asarray(grad, dtype=np.float64)
    eligible = grad * np.asarray(delta, dtype=np.float64) >= 0.0
    if flippable is not None:
        eligible &= flippable
    return _largest(np.where(eligible, np.abs(grad), -1.0), k)


def _largest(score: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the k largest nonnegative entries of score (consumed).

    k masked argmax picks, O(k D): argmax returns the first maximum, so ties
    go to the lowest index; negative entries are never picked.
    """
    picks = []
    for _ in range(min(k, score.size)):
        j = int(score.argmax())
        if score[j] < 0.0:
            break
        picks.append(j)
        score[j] = -1.0
    return np.array(sorted(picks), dtype=np.int64)


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

    committed[0] is the proxy of the starting rounding and each later entry
    the proxy after one committed step. The returned state records why the
    loop stopped: "no_eligible" (no flip lowers the proxy on its own),
    "uphill" (the chosen flips together would raise it) or "max_iter".

    Flipping coordinate j moves it by t_j (the step to its other candidate)
    and changes the proxy by exactly t_j g_j + t_j^2 M_jj, with g = 2 M delta.
    Only flips whose exact change is negative are eligible; among them the
    k largest |g_j| are chosen, as `select_flip_set` would. Their joint
    change, exact from the k x k block of M, is committed unless it is
    positive, in which case refinement stops. The committed sequence is
    therefore non-increasing, the final delta never scores worse than
    round-to-nearest, and at k = 1 refinement ends (short of max_iter) only
    when no single flip lowers the proxy. Global optimality over all 2^D
    roundings is not promised.

    Each iteration costs O(D k): the gradient and proxy are updated
    incrementally, and a committed flip negates the step t_j at the flipped
    coordinates (exact, so t_j^2 M_jj never changes) and toggles their side;
    delta is read off the final sides. This needs M to be a proxy matrix:
    symmetric, so the gradient update can read the flipped rows of M as its
    columns, with a nonnegative diagonal. A candidate pair brackets the
    weight (delta_down <= 0 <= delta_up), so a negative change
    t_j g_j + t_j^2 M_jj needs g_j of the sign of delta_j (or delta_j = 0):
    every eligible flip is sign-consistent. A coordinate without a second
    candidate has t_j = 0 and is never eligible.
    """
    matrix = state.proxy_matrix
    up_mask = state.up_mask.copy()
    step = np.where(up_mask, state.delta_down, state.delta_up) - state.delta
    curvature = step * step * np.diagonal(matrix)
    grad = proxy_gradient(state.delta, matrix)
    committed = [0.5 * float(state.delta @ grad)]
    stop_reason = "max_iter"
    flips_committed = 0
    for _ in range(max_iter):
        downhill = step * grad + curvature < 0.0
        flips = _largest(np.where(downhill, np.abs(grad), -1.0), k)
        if flips.size == 0:
            stop_reason = "no_eligible"
            break
        t = step[flips]
        m_rows = matrix[flips]
        # np.take keeps the k x k block C-ordered: BLAS may round the product
        # of an F-ordered block differently, moving the values traces record
        change = float(t @ grad[flips] + t @ (np.take(m_rows, flips, axis=1) @ t))
        if change > 0.0:
            stop_reason = "uphill"
            break
        step[flips] = -t
        up_mask[flips] = ~up_mask[flips]
        grad += 2.0 * np.dot(t, m_rows)
        committed.append(committed[-1] + change)
        flips_committed += flips.size
    refined = replace(
        state,
        delta=np.where(up_mask, state.delta_up, state.delta_down),
        up_mask=up_mask,
        stop_reason=stop_reason,
        flips_committed=flips_committed,
    )
    return refined, committed


class LayerMomentCache:
    """Per-layer moment blocks and ridge factorizations, keyed by column split.

    Built once from the quantized calibration activations; all entries are
    read-only afterwards and shared across the channel workers.

    A batch with at least as many samples as columns (N >= D) is reduced to
    its D x D moments once, and every block is sliced from them. A thinner
    batch keeps the samples instead (`moments` is None): each proxy block
    mu_s mu_s^T + C_s^T C_s / (N - 1) comes from the centred slice C_s, and
    each remainder system is factored in the smaller of its two spaces, so
    no D x D matrix is formed. `lambda2` None builds no remainder systems,
    for a run without the ridge stage.
    """

    def __init__(self, a_q: np.ndarray, lambda2: float | None):
        a_q = np.asarray(a_q, dtype=np.float64)
        self.n_samples, self.dim = a_q.shape
        if self.n_samples < 2:
            raise InsufficientSamplesError(
                f"need at least 2 samples, got {self.n_samples}"
            )
        self.splits = halving_splits(self.dim)
        self._proxy: dict[tuple[int, int], np.ndarray] = {}
        self._remainder: dict[tuple[int, int], tuple] = {}
        self.moments: MomentSet | None = None
        ridge = lambda2 is not None
        if self.n_samples >= self.dim:
            ms = self.moments = accumulate_moments(a_q)
            for lo, mid, hi in self.splits:
                mu_s = ms.mu[lo:mid]
                self._proxy[(lo, mid)] = np.outer(mu_s, mu_s) + ms.sigma[lo:mid, lo:mid]
                if ridge and mid < hi:
                    factor = spd_factor(
                        ms.raw2[mid:hi, mid:hi] + lambda2 * np.eye(hi - mid)
                    )
                    self._remainder[(lo, mid)] = (ms.raw2[lo:mid, mid:hi].T, factor, None)
        else:
            self._batch = a_q
            mu = a_q.mean(axis=0)
            centred = a_q - mu
            for lo, mid, hi in self.splits:
                mu_s = mu[lo:mid]
                c_s = centred[:, lo:mid]
                self._proxy[(lo, mid)] = np.outer(mu_s, mu_s) + c_s.T @ c_s / (
                    self.n_samples - 1
                )
                if ridge and mid < hi:
                    self._remainder[(lo, mid)] = _batch_remainder(
                        a_q[:, lo:mid], a_q[:, mid:hi], lambda2
                    )

    def proxy_matrix(self, lo: int, mid: int) -> np.ndarray:
        return self._proxy[(lo, mid)]

    def remainder_update(self, lo: int, mid: int, delta_s: np.ndarray) -> np.ndarray:
        """Ridge-optimal update of columns mid:hi given the committed error delta_s.

        Minimizes E[(delta_s x_s + dW_r x_r)^2] + lambda2 ||dW_r||^2 over the
        remainder update dW_r. Raises KeyError for the final split, which
        leaves no remainder, and for every split of a cache built without
        `lambda2`.
        """
        to_rhs, factor, from_samples = self._remainder[(lo, mid)]
        solution = solve_spd(factor, to_rhs @ delta_s)
        if from_samples is not None:
            solution = from_samples @ solution
        return -solution

    def trace_mses(self, errs: np.ndarray) -> np.ndarray:
        """E[(e x)^2] = e E[x x^T] e^T for each row e of errs."""
        if self.moments is not None:
            return np.einsum("ij,ij->i", errs @ self.moments.raw2, errs)
        outputs = errs @ self._batch.T
        return np.einsum("ij,ij->i", outputs, outputs) / self.n_samples


def _batch_remainder(a_s: np.ndarray, a_r: np.ndarray, lambda2: float) -> tuple:
    """One split's remainder system from its batch slices, as used by remainder_update.

    Returns (to_rhs, factor, from_samples). With fewer samples than
    remainder columns the N x N system A_r A_r^T + N lambda2 I is factored
    (push-through identity) and the update is -A_r^T F^{-1} A_s delta_s;
    otherwise the D_r x D_r system E[x_r x_r^T] + lambda2 I, as from the
    moments.
    """
    n, width = a_r.shape
    if n < width:
        require_regularized(n, width, lambda2)
        factor = spd_factor(a_r @ a_r.T + n * lambda2 * np.eye(n))
        return a_s, factor, a_r.T
    factor = spd_factor(a_r.T @ a_r / n + lambda2 * np.eye(width))
    return a_r.T @ a_s / n, factor, None


def quantize_channel(
    w_row: np.ndarray,
    params: UniformParams,
    cache: LayerMomentCache,
    cfg: WeightQuantConfig,
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Run the progressive loop for one output channel on the fixed lattice `params`.

    Returns the codes, the dequantized row and one trace row per iteration,
    keyed by TRACE_FIELDS: the slice size, the proxy before and after
    refinement, why refinement stopped and how many coordinates it flipped,
    and the empirical squared output error of the partially quantized row.
    Those errors are evaluated together after the loop by
    `cache.trace_mses`, from one product of the per-split error vectors.
    Refinement runs only for k > 0.
    """
    w_row = np.asarray(w_row, dtype=np.float64)
    dim = w_row.size
    if dim != cache.dim:
        raise ValueError(f"row dim {dim} does not match cache dim {cache.dim}")
    original = w_row.copy()
    current = w_row.copy()
    codes = np.zeros(dim, dtype=np.int64)
    w_bar = np.zeros(dim, dtype=np.float64)
    err = np.zeros(dim, dtype=np.float64)
    errs = np.empty((len(cache.splits), dim), dtype=np.float64)
    rows = []

    for iteration, (lo, mid, hi) in enumerate(cache.splits):
        state = init_rounding(current[lo:mid], params, cache.proxy_matrix(lo, mid))
        if cfg.k > 0:
            state, committed = refine_rounding(state, cfg.k, cfg.max_iter)
            proxy_before, proxy_after = committed[0], committed[-1]
        else:
            proxy_before = proxy_after = proxy_value(state.delta, state.proxy_matrix)
        codes[lo:mid] = state.codes
        w_bar[lo:mid] = dequantize_uniform(codes[lo:mid], params)
        err[lo:mid] = w_bar[lo:mid] - original[lo:mid]
        if cfg.ridge and mid < hi:
            current[mid:hi] += cache.remainder_update(lo, mid, state.delta)
        err[mid:hi] = current[mid:hi] - original[mid:hi]
        errs[iteration] = err
        rows.append(
            dict(
                iteration=iteration,
                slice_size=mid - lo,
                proxy_before=proxy_before,
                proxy_after=proxy_after,
                mse=None,  # from one trace_mses product after the loop
                stop_reason=state.stop_reason,
                flips_committed=state.flips_committed,
            )
        )
    for row, mse in zip(rows, cache.trace_mses(errs)):
        row["mse"] = float(mse)
    return codes, w_bar, rows


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
    cache = LayerMomentCache(a_q, cfg.lambda2 if cfg.ridge else None)

    def run(i: int):
        return quantize_channel(w[i], channel_params[i], cache, cfg)

    if jobs > 1 and w.shape[0] > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            channels = list(pool.map(run, range(w.shape[0])))
    else:
        channels = [run(i) for i in range(w.shape[0])]

    codes, w_bar, trace = zip(*channels)
    return LayerWeightResult(codes=np.stack(codes), w_bar=np.stack(w_bar), trace=trace)
