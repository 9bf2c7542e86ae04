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
     proxy delta M delta^T (M = E[x_s x_s^T], so the proxy is the slice's
     mean squared output error over the batch), committing only
     non-increasing moves, so refinement ends at a single-flip optimum;
  3. remainder correction: dW_r* = -delta_s E[x_s x_r^T]
     (E[x_r x_r^T] + lambda2 I)^{-1}, added onto the remaining columns.

Every channel uses the same splits, so the loop runs the splits outside
and the channels inside (`quantize_layer_weights`). Per split, for the
whole (d_out, D_s) block at once:

  - the candidates of step 1 and refinement's elementwise start, one
    `init_rounding` call: the floor, ceil and nearest codes from one
    division, dequantized in one float buffer, then the chosen error, the
    step to the other candidate and the curvature step^2 M_jj, one pass
    each, with each row's lattice broadcast as a column
    (`quantizers.row_lattice`), so nothing depends on how many rows share
    a call;
  - the nearest codes, overwritten per row where refinement flipped, then
    the dequantized weights and error rows;
  - the trace MSE of every channel, one `LayerMomentCache.trace_mses`
    product of the (d_out, D) error block, with E[x x^T] or with the batch
    itself when N < D_in. Only the current error block is held, never one
    per split.

Per row stay step 2, one `refine_rounding` call per (channel, split) on a
`RoundingState` of row views of the block (`RoundingState.rows`), which
reads the block's start instead of rebuilding it, and step 3, one
`RemainderRidge.remainder_update` (one `solve_spd`) per (channel,
non-final split), run back to back after the split's refinements.
Refinement picks and stops per row; batching it, and the per-row solves
into one right-hand side per split, would change the per-call structure
the benchmark's traced call counts pin.

Proxy blocks and ridge factorizations depend only on the column split,
so all channels share them. They come from two products that the caller
builds and passes in, each depending on less than a run:

  - `LayerMomentCache`, built from the batch alone: the batch, its splits
    and the one second moment of the layer, the 1/N Gram E[x x^T]
    (`moments.accumulate_moments`), which the proxy, the trace MSE, the
    ridge and aqer (`act_correct`) all read. A proxy block is a view of
    it. When the batch has fewer samples N than columns, the cache forms
    no D_in x D_in matrix: a block is built from its batch slice when its
    split runs and released after it;
  - `RemainderRidge`, built from a cache and lambda2: the remainder
    factorizations, computed once, and `remainder_update`, the one
    implementation of step 3, also exercised by `quantred verify`. It
    holds the only lambda2, and passing no ridge is the one switch that
    turns step 3 off. A remainder no wider than N is solved in input
    space, from blocks read off the Gram or the batch alike; a wider one
    in sample space, dW_r* = -delta_s X_s^T (X_r X_r^T + N lambda2 I)^{-1}
    X_r with X the N x D_in batch, an N x N system (push-through
    identity).

`pipeline.LayerRun` keeps one cache per layer and one ridge at a time, so
every weight loop of the layer shares them.

Refinement updates its state as it commits flips, O(k) for the flipped
steps and sides plus one rank-k gradient update, instead of rebuilding it
from the candidates every iteration. Every k runs the same loop: three
passes over the slice into preallocated buffers (t g, plus the curvature,
and that sum's sign copied onto g) score every eligible flip -|g_j| < 0
and every other coordinate >= 0, and repeated argmin takes up to k of
them. A step of one flip (every step at the default k = 1) is then scored
and applied in scalar arithmetic, with no index array or k x k block; a
step of several flips takes the k x k block of M.

Measured at k = 1 by replaying every refinement call of the benchmark
workloads at seed 1 (2-core x86 VM, numpy 2.4, BLAS on one thread, each
call timed at max_iter 0 and 100, best of 5; ranges over four runs, as
this host's speed drifts by up to 1.7x): an iteration costs 2.9-5.2 us on
1-12 column slices (16 x 24, 24 x 16 and 12 x 24 layers), 3.6-6.4 us on
1-128 column slices (64 x 256) and 7.6-10.4 us on 1-1024 column slices
(32 x 2048). The set-up of a call, dominated on wide slices by the one
gradient matvec, costs 11-13, 12-20 and 57-71 us there. Reading the
start off the block instead of rebuilding it per call took the mean
set-up from 10.6-11.6 to 7.5-8.4 us on the 16 x 24 chain, 18.5-19.9 to
13.0-14.1 us on 64 x 256 and 83-84 to 75-76 us on 32 x 2048 (the two
versions' calls replayed alternately in one process, best of 5, two
runs; matrices cold in cache, so the last is above the range before).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import require_regularized, require_strength, solve_spd, spd_factor
from .moments import InsufficientSamplesError, accumulate_moments, gram
from .quantizers import (
    UniformParams,
    clip_index,
    dequantize_index,
    dequantize_uniform,
    lattice_quotient,
    row_lattice,
)


@dataclass(frozen=True)
class WeightQuantConfig:
    """Refinement settings; the ridge lives in the `RemainderRidge`."""

    k: int = 1
    max_iter: int = 100

    def __post_init__(self):
        for name in ("k", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass(frozen=True)
class RoundingState:
    """Floor/ceil rounding candidates and the choice between them.

    `init_rounding` builds one for a (D_s,) channel slice or a (d, D_s)
    block of rows; refinement takes the one-row state of a single slice,
    and `rows` gives a block's row states as views of its arrays.
    `up_mask` is the whole record of the choice (True picks the ceil
    candidate): `codes` and `flippable` are read off it and the
    candidates. Three arrays hold refinement's elementwise start for that
    choice: `delta`, the chosen candidate's error; `step`, the move to the
    other candidate; and `curvature`, step^2 M_jj with M the proxy matrix.
    The curvature is gap^2 M_jj, gap = delta_up - delta_down, so no choice
    changes it.

    `stop_reason` and `flips_committed` describe the refinement that
    produced the choice: "off" and 0 until `refine_rounding` has run, then
    why it stopped ("no_eligible", "uphill" or "max_iter") and how many
    coordinates its committed steps flipped.
    """

    delta_down: np.ndarray
    delta_up: np.ndarray
    up_mask: np.ndarray
    code_down: np.ndarray
    code_up: np.ndarray
    delta: np.ndarray
    step: np.ndarray
    curvature: np.ndarray
    proxy_matrix: np.ndarray
    stop_reason: str = "off"
    flips_committed: int = 0

    @property
    def codes(self) -> np.ndarray:
        return np.where(self.up_mask, self.code_up, self.code_down)

    @property
    def flippable(self) -> np.ndarray:
        """Coordinates with two distinct candidates (not clipped to one code)."""
        return self.code_down != self.code_up

    def rows(self):
        """The one-row states of a block, each made of views of its rows."""
        arrays = (
            self.delta_down, self.delta_up, self.up_mask, self.code_down,
            self.code_up, self.delta, self.step, self.curvature,
        )
        for row in zip(*arrays):
            yield RoundingState(*row, self.proxy_matrix)


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


def init_rounding(
    w: np.ndarray, params: UniformParams, proxy_matrix: np.ndarray
) -> RoundingState:
    """Floor/ceil candidates plus the round-to-nearest starting choice.

    `w` is a (D_s,) channel slice on one lattice, or a (d, D_s) block whose
    row i lies on row i of `params`, the (d, 1) columns of
    `quantizers.row_lattice`; the state's arrays take the shape of `w`.
    Broadcasting gives row i the same elementwise operations, bit for bit,
    as its slice alone.

    The floor, ceil and nearest codes come from one division and are
    shifted, clipped and dequantized together in one float buffer, with the
    arithmetic of `uniform_codes` and `dequantize_uniform`, so the chosen
    error `delta` is the nearest code's own. The rest of refinement's start
    (`step` and `curvature`) is built here too, for the whole array at once.
    """
    w = np.asarray(w, dtype=np.float64)
    quotient = lattice_quotient(w, params)
    # floor, ceil and nearest codes as floats, then in place their errors:
    # delta_down, delta_up and delta
    index = np.empty((3, *w.shape))
    np.floor(quotient, out=index[0])
    np.ceil(quotient, out=index[1])
    np.rint(quotient, out=index[2])
    clip_index(index, params)
    up_mask = index[2] == index[1]
    codes = index[:2].astype(np.int64)
    errors = np.subtract(dequantize_index(index, params), w, out=index)
    # step = other - chosen: the gap delta_up - delta_down, negated (exactly)
    # where the ceil side is chosen; adding 0 gives a zero gap's step the +0
    # that other - chosen gives it on either side
    step = np.subtract(errors[1], errors[0], out=quotient)
    sign = np.multiply(up_mask, -2.0)
    sign += 1.0
    step *= sign
    step += 0.0
    curvature = np.multiply(step, step, out=sign)
    curvature *= np.asarray(proxy_matrix).diagonal()
    return RoundingState(
        delta_down=errors[0],
        delta_up=errors[1],
        up_mask=up_mask,
        code_down=codes[0],
        code_up=codes[1],
        delta=errors[2],
        step=step,
        curvature=curvature,
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
    k largest |g_j| are chosen, ties going to the lowest index. Their joint
    change, exact from the k x k block of M, is committed unless it is
    positive, in which case refinement stops. The committed sequence is
    therefore non-increasing, the final delta never scores worse than
    round-to-nearest, and at k = 1 refinement ends (short of max_iter) only
    when no single flip lowers the proxy. Global optimality over all 2^D
    roundings is not promised.

    Each iteration costs O(D k): the gradient and proxy are updated
    incrementally, and a committed flip negates the step t_j at the flipped
    coordinates (exact, so t_j^2 M_jj never changes) and toggles their side;
    delta is read off the final sides. The state's `delta`, `step` and
    `curvature` are the start: only up_mask and step are copied, and a row
    view of a block's state is read like a slice's own. This needs M to be a
    proxy matrix: symmetric, so the gradient update can read the flipped
    rows of M as its columns, with a nonnegative diagonal. A candidate pair
    brackets the weight (delta_down <= 0 <= delta_up), so a negative change
    t_j g_j + t_j^2 M_jj needs g_j of the sign of delta_j (or delta_j = 0):
    every eligible flip is sign-consistent. A coordinate without a second
    candidate has t_j = 0 and is never eligible.

    An iteration scores into preallocated buffers in three passes: t g,
    plus the curvature t^2 M_jj (the state's), and the sign of
    that sum copied onto g. With gradual underflow fl(a + c) < 0 exactly
    when a < -c, so the sign is the exact eligibility test. An eligible
    flip has t_j g_j < -t_j^2 M_jj <= 0, so g_j != 0 and it scores
    -|g_j| < 0; every other coordinate scores a zero or a positive value.
    argmin therefore takes the first largest eligible |g_j|, a minimum
    that is not negative means none is left, and each pick is marked +inf
    before the next, so the picks of a step of several flips are read back,
    sorted, as the infinite scores. This assumes finite values, which the
    boundary guarantees by rejecting NaN and Inf in weights and batches: a
    NaN would win argmin, and an infinite |g_j| would read as a pick.

    A step of one flip is scored and applied in scalar arithmetic, the
    one-term case of the k x k form: t_j g_j + t_j (M_jj t_j) and
    g += M_j (2 t_j), which is 2 (t_j M_j) since scaling by 2 is exact away
    from the subnormal range.
    """
    matrix = state.proxy_matrix
    diag = matrix.diagonal()
    up_mask = state.up_mask.copy()
    step = state.step.copy()
    curvature = state.curvature
    delta = state.delta
    grad = proxy_gradient(delta, matrix)
    proxy = 0.5 * float(delta @ grad)
    committed = [proxy]
    product = np.empty_like(grad)
    score = np.empty_like(grad)
    budget = min(operator.index(k), step.size)  # a float k is a TypeError
    stop_reason = "max_iter"
    flips_committed = 0
    for _ in range(max_iter):
        np.multiply(step, grad, out=product)
        np.add(product, curvature, out=product)
        np.copysign(grad, product, out=score)
        picks = 0
        while picks < budget:
            i = int(score.argmin())
            if score[i] >= 0.0:
                break
            score[i] = np.inf
            j = i
            picks += 1
        if picks == 0:
            stop_reason = "no_eligible"
            break
        if picks == 1:
            t = float(step[j])
            change = t * float(grad[j]) + t * (float(diag[j]) * t)
            if change > 0.0:
                stop_reason = "uphill"
                break
            step[j] = -t
            up_mask[j] = not up_mask[j]
            np.multiply(matrix[j], 2.0 * t, out=product)
            grad += product
        else:
            flips = np.flatnonzero(score == np.inf)
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
        proxy += change
        committed.append(proxy)
        flips_committed += picks
    if flips_committed:
        delta = np.where(up_mask, state.delta_up, state.delta_down)
    refined = RoundingState(
        state.delta_down, state.delta_up, up_mask, state.code_down, state.code_up,
        delta, step, curvature, matrix, stop_reason, flips_committed,
    )
    return refined, committed


class LayerMomentCache:
    """The second moment of a layer's quantized batch, and its column splits.

    Built once from the quantized calibration activations and read-only
    afterwards. It depends on the batch alone, so aqer
    (`act_correct.solve_activation_correction`), every weight loop of the
    layer and every `RemainderRidge` of it share one cache.

    `batch` is the (N, D) batch. One with at least as many samples as
    columns (N >= D) is also reduced to its D x D Gram E[x x^T] once
    (`moments`), and every proxy block is a read-only view of it. A thinner
    batch forms no Gram (`moments` is None): `proxy_matrix` builds each
    block X_s^T X_s / N from the batch slice X_s each time it is called, so
    a caller that drops one split's block before asking for the next holds
    one block at a time, as `quantize_layer_weights` does.
    """

    def __init__(self, a_q: np.ndarray):
        self.batch = np.asarray(a_q, dtype=np.float64)
        self.n_samples, self.dim = self.batch.shape
        if self.n_samples < 2:
            raise InsufficientSamplesError(
                f"need at least 2 samples, got {self.n_samples}"
            )
        self.splits = halving_splits(self.dim)
        self._slices = {(lo, mid) for lo, mid, _ in self.splits}
        self.moments: np.ndarray | None = None
        if self.n_samples >= self.dim:
            self.moments = accumulate_moments(self.batch)

    def _moment(self, rows: slice, cols: slice) -> np.ndarray:
        """E[x_rows x_cols^T], a view of the Gram or a product of batch slices.

        The Gram is exactly symmetric, so its [cols, rows] view transposed
        holds [rows, cols] in the layout the remainder products round in.
        """
        if self.moments is not None:
            return self.moments[cols, rows].T
        return self.batch[:, rows].T @ self.batch[:, cols] / self.n_samples

    def proxy_matrix(self, lo: int, mid: int) -> np.ndarray:
        """E[x_s x_s^T] for columns lo:mid.

        A view of the Gram when N >= D; otherwise a new block on every call,
        the `gram` of the slice. Either is exactly symmetric whatever the
        batch layout. Raises KeyError for a (lo, mid) that is not one of
        `splits`.
        """
        if (lo, mid) not in self._slices:
            raise KeyError((lo, mid))
        if self.moments is not None:
            return self.moments[lo:mid, lo:mid]
        return gram(self.batch[:, lo:mid])

    def trace_mses(self, errs: np.ndarray) -> np.ndarray:
        """E[(e x)^2] = e E[x x^T] e^T for each row e of errs."""
        if self.moments is not None:
            return np.einsum("ij,ij->i", errs @ self.moments, errs)
        outputs = errs @ self.batch.T
        return np.einsum("ij,ij->i", outputs, outputs) / self.n_samples


class RemainderRidge:
    """The remainder ridge of step 3 at one lambda2, factored once per split.

    Built from a `LayerMomentCache` and shared by every channel. Each
    remainder system is factored in the smaller of its two spaces: one no
    wider than the batch in input space, E[x_r x_r^T] + lambda2 I with its
    blocks read off the cache (`_moment`); a wider one in sample space,
    X_r X_r^T + N lambda2 I, so no D x D matrix is formed.
    """

    def __init__(self, cache: LayerMomentCache, lambda2: float):
        require_strength("lambda2", lambda2)
        self.cache = cache
        self.lambda2 = lambda2
        self._remainder: dict[tuple[int, int], tuple] = {}
        a_q, n = cache.batch, cache.n_samples
        for lo, mid, hi in cache.splits[:-1]:
            s, r, width = slice(lo, mid), slice(mid, hi), hi - mid
            if n < width:  # sample space: X_r X_r^T + N lambda2 I
                require_regularized(n, width, lambda2)
                factor = spd_factor(a_q[:, r] @ a_q[:, r].T + n * lambda2 * np.eye(n))
                self._remainder[(lo, mid)] = (a_q[:, s], factor, a_q[:, r].T)
            else:  # input space: E[x_r x_r^T] + lambda2 I
                factor = spd_factor(cache._moment(r, r) + lambda2 * np.eye(width))
                self._remainder[(lo, mid)] = (cache._moment(r, s), factor, None)

    def remainder_update(self, lo: int, mid: int, delta_s: np.ndarray) -> np.ndarray:
        """Ridge-optimal update of columns mid:hi given the committed error delta_s.

        Minimizes E[(delta_s x_s + dW_r x_r)^2] + lambda2 ||dW_r||^2 over the
        remainder update dW_r. Raises KeyError for the final split, which
        leaves no remainder.
        """
        to_rhs, factor, from_samples = self._remainder[(lo, mid)]
        solution = solve_spd(factor, to_rhs @ delta_s)
        if from_samples is not None:
            solution = from_samples @ solution
        return -solution


def quantize_layer_weights(
    w: np.ndarray,
    channel_params: Sequence[UniformParams],
    cache: LayerMomentCache,
    ridge: RemainderRidge | None,
    cfg: WeightQuantConfig,
) -> LayerWeightResult:
    """Run the progressive loop for the rows of w, splits outside, rows inside.

    Row i is quantized on the fixed lattice `channel_params[i]`, against the
    layer's moment cache. Returns the codes, the dequantized rows and, per
    row, one trace row per iteration keyed by TRACE_FIELDS: the slice size,
    the proxy before and after refinement, why refinement stopped and how
    many coordinates it flipped, and the empirical squared output error of
    the partially quantized row, from one `cache.trace_mses` product per
    split. Refinement runs only for k > 0, the remainder update only when
    a `ridge` of the same cache is given; None turns it off. Rows never
    interact: a row's codes, dequantized values, proxies and stop reasons
    do not depend on which rows share the call, and its trace MSEs only
    through the last bits of the block product.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    if w.size == 0:
        raise ValueError(f"weight matrix of shape {w.shape} is empty")
    d_out, dim = w.shape
    if len(channel_params) != d_out:
        raise ValueError("need one UniformParams per output channel")
    if dim != cache.dim:
        raise ValueError(f"row dim {dim} does not match cache dim {cache.dim}")
    if ridge is not None and ridge.cache is not cache:
        raise ValueError("the ridge was built from another moment cache")
    lattice = row_lattice(channel_params)
    current = w.copy()
    codes = np.zeros((d_out, dim), dtype=np.int64)
    w_bar = np.zeros((d_out, dim), dtype=np.float64)
    err = np.zeros((d_out, dim), dtype=np.float64)
    trace = tuple([] for _ in range(d_out))

    for iteration, (lo, mid, hi) in enumerate(cache.splits):
        matrix = cache.proxy_matrix(lo, mid)
        block = init_rounding(current[:, lo:mid], lattice, matrix)
        codes[:, lo:mid] = block.codes
        stats, deltas = [], []
        for i, state in enumerate(block.rows()):
            if cfg.k > 0:
                state, committed = refine_rounding(state, cfg.k, cfg.max_iter)
                if state.flips_committed:
                    codes[i, lo:mid] = state.codes
                before, after = committed[0], committed[-1]
            else:
                before = after = proxy_value(state.delta, matrix)
            stats.append((before, after, state.stop_reason, state.flips_committed))
            deltas.append(state.delta)
        # drop this split's proxy block, which the states hold too, and the
        # rest of the block but the row errors, before the remainder solves
        # and the next split's block
        matrix = block = state = None
        w_bar[:, lo:mid] = dequantize_uniform(codes[:, lo:mid], lattice)
        err[:, lo:mid] = w_bar[:, lo:mid] - w[:, lo:mid]
        if ridge is not None and mid < hi:
            for i in range(d_out):
                current[i, mid:hi] += ridge.remainder_update(lo, mid, deltas[i])
            err[:, mid:hi] = current[:, mid:hi] - w[:, mid:hi]
        deltas = None
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
