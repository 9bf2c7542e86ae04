"""Progressive per-channel weight quantization, split-outer.

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

Every channel uses the same splits, so the loop runs the splits outside
and the channels inside (`quantize_rows`). Per split, for the whole
(d_out, D_s) block at once:

  - the candidates of step 1 (`rounding_candidates`): each row's scale,
    zero point and largest code are broadcast as columns, the same
    elementwise arithmetic as `uniform_codes` and `dequantize_uniform`
    row by row, so the codes do not depend on how many rows share a call;
  - the committed codes, dequantized weights and error rows;
  - the trace MSE of every channel, one `LayerMomentCache.trace_mses`
    product of the (d_out, D) error block, with E[x x^T] or with the batch
    itself when N < D_in. Only the current error block is held, never one
    per split.

Per row stay step 2, one `refine_rounding` call per (channel, split) on a
`RoundingState` of row views, and step 3, one
`LayerMomentCache.remainder_update` (one `solve_spd`) per (channel,
non-final split). Refinement picks and stops per row; batching it, and the
per-row solves into one right-hand side per split, would change the
per-call structure the benchmark's traced call counts pin.

Moment blocks and ridge factorizations depend only on the column split,
so they are computed once per layer by `LayerMomentCache` and shared by
all channels; `LayerMomentCache.remainder_update` is the one
implementation of step 3, also exercised by `quantred verify`. When the
batch has fewer samples N than columns, the cache forms no D_in x D_in
matrix: blocks come from batch slices, and a remainder wider than N is
solved in sample space, dW_r* = -delta_s X_s^T (X_r X_r^T + N lambda2 I)^{-1}
X_r with X the N x D_in batch, an N x N system (push-through identity).

Refinement updates its state as it commits flips, O(k) for the flipped
steps and sides plus one rank-k gradient update, instead of rebuilding it
from the candidates every iteration. At the default k = 1 an iteration is
one scalar pick (`_refine_single`): seven passes over the slice into
preallocated buffers plus scalar arithmetic, with no index arrays or k x k
block, and the same choices and values as the general loop bit for bit.
On 256- and 1024-column slices that is about 7-13 us per iteration
against 18-24 us for the general loop (2-core x86 VM, BLAS on one
thread).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .linalg import require_regularized, solve_spd, spd_factor
from .moments import InsufficientSamplesError, MomentSet, accumulate_moments
from .quantizers import UniformParams


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

    `rounding_candidates` returns one for a block of rows, with (d, D_s)
    arrays; refinement takes the one-row state of a single slice.

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


def row_lattice(
    channel_params: Sequence[UniformParams],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale, zero point and largest code of each row, as (d, 1) columns."""
    scale = np.array([[p.scale] for p in channel_params], dtype=np.float64)
    zero_point = np.array([[p.zero_point] for p in channel_params], dtype=np.int64)
    qmax = np.array([[(1 << p.bits) - 1] for p in channel_params], dtype=np.int64)
    return scale, zero_point, qmax


def rounding_candidates(
    block: np.ndarray,
    lattice: tuple[np.ndarray, np.ndarray, np.ndarray],
    proxy_matrix: np.ndarray,
) -> RoundingState:
    """Floor/ceil candidates plus round-to-nearest for every row of a (d, D_s) block.

    Row i lies on the lattice of row i of `lattice` (see `row_lattice`).
    Each entry is what `uniform_codes` and `dequantize_uniform` give for
    that row alone, bit for bit: the same elementwise IEEE operations,
    broadcast. The returned state holds (d, D_s) arrays and the shared
    proxy matrix.
    """
    scale, zero_point, qmax = lattice
    t = block / scale
    code_down = np.clip(np.floor(t).astype(np.int64) + zero_point, 0, qmax)
    code_up = np.clip(np.ceil(t).astype(np.int64) + zero_point, 0, qmax)
    nearest = np.clip(np.rint(t).astype(np.int64) + zero_point, 0, qmax)
    delta_down = scale * (code_down - zero_point).astype(np.float64) - block
    delta_up = scale * (code_up - zero_point).astype(np.float64) - block
    up_mask = nearest == code_up
    return RoundingState(
        delta_down=delta_down,
        delta_up=delta_up,
        delta=np.where(up_mask, delta_up, delta_down),
        up_mask=up_mask,
        flippable=code_down != code_up,
        code_down=code_down,
        code_up=code_up,
        proxy_matrix=proxy_matrix,
    )


def _row_state(block: RoundingState, i: int) -> RoundingState:
    """Row i of a block state, as views into the block's arrays."""
    return RoundingState(
        delta_down=block.delta_down[i],
        delta_up=block.delta_up[i],
        delta=block.delta[i],
        up_mask=block.up_mask[i],
        flippable=block.flippable[i],
        code_down=block.code_down[i],
        code_up=block.code_up[i],
        proxy_matrix=block.proxy_matrix,
    )


def init_rounding(
    w_slice: np.ndarray, params: UniformParams, proxy_matrix: np.ndarray
) -> RoundingState:
    """Floor/ceil candidates plus the round-to-nearest starting choice.

    The one-row case of `rounding_candidates`.
    """
    block = np.asarray(w_slice, dtype=np.float64).reshape(1, -1)
    state = rounding_candidates(block, row_lattice((params,)), proxy_matrix)
    return _row_state(state, 0)


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

    k = 1 runs `_refine_single`, which picks one scalar per iteration into
    preallocated buffers and takes no index array, k x k block or
    `_largest` call; its choices, committed values, stop reason and flip
    count equal the general loop's bit for bit. Any other k, and an empty
    slice, runs the general loop.
    """
    matrix = state.proxy_matrix
    up_mask = state.up_mask.copy()
    step = np.where(up_mask, state.delta_down, state.delta_up) - state.delta
    curvature = step * step * np.diagonal(matrix)
    grad = proxy_gradient(state.delta, matrix)
    committed = [0.5 * float(state.delta @ grad)]
    if k == 1 and step.size > 0:  # an empty slice has nothing to argmax over
        stop_reason, flips_committed = _refine_single(
            matrix, step, curvature, grad, up_mask, committed, max_iter
        )
    else:
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


def _refine_single(
    matrix: np.ndarray,
    step: np.ndarray,
    curvature: np.ndarray,
    grad: np.ndarray,
    up_mask: np.ndarray,
    committed: list[float],
    max_iter: int,
) -> tuple[str, int]:
    """The k = 1 loop of `refine_rounding` on one scalar pick per iteration.

    Updates step, grad, up_mask and committed in place and returns the stop
    reason and the number of flips. Each iteration makes seven passes over
    the slice, into preallocated buffers: t g, its comparison with
    -t^2 M_jj, |g|, the zeroing of ineligible scores, argmax, and the two of
    the row update of g. The rest is scalar arithmetic on the pick. It
    chooses and computes what the general loop does at k = 1, bit for bit:

    - a + c < 0 holds exactly when a < -c in IEEE arithmetic;
    - an eligible flip has t_j g_j < -t_j^2 M_jj <= 0, so |g_j| > 0, and a
      zeroed ineligible entry never beats it: argmax still takes the first
      largest eligible |g_j|, and a zero maximum means none is eligible;
    - the one-term products t_j g_j and t_j (M_jj t_j) are the general
      loop's one-term dot products;
    - M_j (2 t_j) is 2 (t_j M_j), since scaling by 2 is exact away from
      the subnormal range.
    """
    diag = np.diagonal(matrix)
    neg_curvature = -curvature
    product = np.empty_like(grad)
    downhill = np.empty(grad.shape, dtype=bool)
    score = np.empty_like(grad)
    proxy = committed[-1]
    for flips in range(max_iter):
        np.multiply(step, grad, out=product)
        np.less(product, neg_curvature, out=downhill)
        np.abs(grad, out=score)
        np.multiply(score, downhill, out=score)
        j = int(score.argmax())
        if score[j] == 0.0:
            return "no_eligible", flips
        t = float(step[j])
        change = t * float(grad[j]) + t * (float(diag[j]) * t)
        if change > 0.0:
            return "uphill", flips
        step[j] = -t
        up_mask[j] = not up_mask[j]
        np.multiply(matrix[j], 2.0 * t, out=product)
        grad += product
        proxy += change
        committed.append(proxy)
    return "max_iter", max_iter


class LayerMomentCache:
    """Per-layer moment blocks and ridge factorizations, keyed by column split.

    Built once from the quantized calibration activations; all entries are
    read-only afterwards and shared by every channel.

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


def quantize_rows(
    w: np.ndarray,
    channel_params: Sequence[UniformParams],
    cache: LayerMomentCache,
    cfg: WeightQuantConfig,
) -> LayerWeightResult:
    """Run the progressive loop for the rows of w, splits outside, rows inside.

    Row i is quantized on the fixed lattice `channel_params[i]`. Returns
    the codes, the dequantized rows and, per row, one trace row per
    iteration keyed by TRACE_FIELDS: the slice size, the proxy before and
    after refinement, why refinement stopped and how many coordinates it
    flipped, and the empirical squared output error of the partially
    quantized row, from one `cache.trace_mses` product per split.
    Refinement runs only for k > 0. Rows never interact: a row's codes,
    dequantized values, proxies and stop reasons do not depend on which
    rows share the call, and its trace MSEs only through the last bits of
    the block product.
    """
    w = np.asarray(w, dtype=np.float64)
    d_out, dim = w.shape
    if dim != cache.dim:
        raise ValueError(f"row dim {dim} does not match cache dim {cache.dim}")
    lattice = row_lattice(channel_params)
    scale, zero_point, _ = lattice
    current = w.copy()
    codes = np.zeros((d_out, dim), dtype=np.int64)
    w_bar = np.zeros((d_out, dim), dtype=np.float64)
    err = np.zeros((d_out, dim), dtype=np.float64)
    trace = tuple([] for _ in range(d_out))

    for iteration, (lo, mid, hi) in enumerate(cache.splits):
        matrix = cache.proxy_matrix(lo, mid)
        block = rounding_candidates(current[:, lo:mid], lattice, matrix)
        stats = []
        for i in range(d_out):
            state = _row_state(block, i)
            if cfg.k > 0:
                state, committed = refine_rounding(state, cfg.k, cfg.max_iter)
                block.up_mask[i] = state.up_mask
                block.delta[i] = state.delta
                before, after = committed[0], committed[-1]
            else:
                before = after = proxy_value(state.delta, matrix)
            stats.append((before, after, state.stop_reason, state.flips_committed))
        codes[:, lo:mid] = block.codes
        w_bar[:, lo:mid] = scale * (codes[:, lo:mid] - zero_point).astype(np.float64)
        err[:, lo:mid] = w_bar[:, lo:mid] - w[:, lo:mid]
        if cfg.ridge and mid < hi:
            for i in range(d_out):
                current[i, mid:hi] += cache.remainder_update(lo, mid, block.delta[i])
            err[:, mid:hi] = current[:, mid:hi] - w[:, mid:hi]
        for rows, mse, (before, after, stop_reason, flips) in zip(
            trace, cache.trace_mses(err), stats
        ):
            rows.append(
                dict(
                    iteration=iteration,
                    slice_size=mid - lo,
                    proxy_before=before,
                    proxy_after=after,
                    mse=float(mse),
                    stop_reason=stop_reason,
                    flips_committed=flips,
                )
            )
    return LayerWeightResult(codes=codes, w_bar=w_bar, trace=trace)


def quantize_channel(
    w_row: np.ndarray,
    params: UniformParams,
    cache: LayerMomentCache,
    cfg: WeightQuantConfig,
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """`quantize_rows` on one row: its codes, dequantized row and trace rows."""
    result = quantize_rows(np.reshape(w_row, (1, -1)), (params,), cache, cfg)
    return result.codes[0], result.w_bar[0], result.trace[0]


def quantize_layer_weights(
    w: np.ndarray,
    channel_params: tuple[UniformParams, ...],
    a_q: np.ndarray,
    cfg: WeightQuantConfig,
) -> LayerWeightResult:
    """Quantize all output channels against one shared moment cache."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    if w.size == 0:
        raise ValueError(f"weight matrix of shape {w.shape} is empty")
    if len(channel_params) != w.shape[0]:
        raise ValueError("need one UniformParams per output channel")
    cache = LayerMomentCache(a_q, cfg.lambda2 if cfg.ridge else None)
    return quantize_rows(w, channel_params, cache, cfg)
