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

  - the candidates of step 1 and refinement's start, one `init_rounding`
    call: the floor and ceil codes from one division, dequantized in one
    float buffer of two slots, with the nearest code rounded in the
    quotient's own buffer, kept as the choice `up_mask` and dequantized
    there for the start gradient and proxy; then the step to the other
    candidate and the curvature step^2 M_jj, one pass each, with each
    row's lattice broadcast as a column (the per-channel record of
    `quantizers.calibrate_scale`), so nothing depends on how many rows
    share a call; the start gradient 2 delta M of every row, one product
    (`proxy_gradient` of the block), so refinement reads the proxy block
    once per split, not once per row;
    every row's start proxy delta g / 2, one stacked product; and
    refinement's first scoring pass over the whole block, three passes.
    The state stores the choice once: its errors, ceil codes and codes are
    read off `up_mask`;
  - the codes, once after the row loop: the floor codes plus one where the
    rows' refined choices take the ceil side, then the dequantized
    weights, written over the slice's columns of the working weights
    (which the loop returns as w_bar once every split has run); the
    dequantized slice minus its values before is each row's committed
    error, the `delta` of its choice bit for bit, which the remainder
    solves read, so no select forms it;
  - the trace MSE of every channel, from a running output-error product
    P = err E[x x^T], or err X^T when N < D_in, with err the (d_out, D)
    error of the partly quantized rows. A split changes only columns
    lo:D, so P gains one product of the split's change: the dequantized
    slice minus its values before, and the ridge updates. A row's
    MSE is then the row dot product of P and err, or |P_i|^2 / N, and the
    layer's trace costs about two full products instead of one per split.
    P starts at 0 and takes its space from the first split's change: the
    cache picks the space and the formula (`output_change`, `row_mses`), so
    the loop holds no err block of its own.

Per row stay step 2, one `refine_rounding` call per (channel, split) on a
`RoundingState` of row views of the block (`RoundingState.rows`), which
reads the block's start, its first scoring pass and proxy included,
instead of rebuilding it and never writes into it, and the solve of
step 3, one `solve_spd` per (channel, non-final split), inside one
`RemainderRidge.updates` call per split: the split's (d_out, D_s)
committed errors in, its right-hand sides and, in sample space, the
mapping of its solutions back to the remainder's columns as stacked
products (one matrix-vector product per row, so each row's update is
its own solve's bit for bit), the updates written into the split's change
and added onto the remainder at once. At k = 0 the trace's proxies are
the block's start proxies, with no row state.
Each row's trace row is written once, its MSE filled in from the running
product.
Refinement picks and stops per row; batching it, and the per-row solves
into one right-hand side per split, would change the per-call structure
the benchmark's traced call counts pin.

Proxy blocks and ridge factorizations depend only on the column split,
and a split's remainder is always the rest of the row, so all channels
share them. They come from two products that the caller builds and
passes in, each depending on less than a run:

  - `LayerMomentCache`, built from the batch alone: the batch and the one
    second moment of the layer, the 1/N Gram E[x x^T]
    (`moments.accumulate_moments`), which the proxy, the trace MSE's
    running product (the batch itself when N < D_in), the ridge and aqer
    (`act_correct`) all read. `block` serves E[x_c x_c^T] of any column
    range, a view of it; a split's proxy matrix is its columns' block.
    When the batch has fewer samples N than columns, the cache forms no
    D_in x D_in matrix: a block is built from its batch slice when its
    split runs and released after it.
    `ridge_system` is the one ridge system of both ERQ steps, aqer's and
    the remainder's: in input space a block plus the ridge, the proxy's
    own block, for columns no wider than N; in sample space the N x N
    system X_c X_c^T / N plus the ridge (push-through identity) for wider
    ones;
  - `RemainderRidge`, built from a cache and lambda2: the remainder
    factorizations, computed once, and `updates`, the one implementation
    of step 3, which the loop calls per split and `quantred verify` checks.
    It holds the only lambda2, and passing no ridge is the one switch
    that turns step 3 off.

`pipeline.LayerRun` keeps one cache per layer and one ridge at a time, so
every weight loop of the layer shares them.

Refinement updates its state as it commits flips, O(k) for the flipped
steps and sides plus one rank-k gradient update, instead of rebuilding it
from the candidates every iteration. Every k runs the same loop: three
passes over the slice into one buffer (t g, plus the curvature, and that
sum's sign copied onto g) score every eligible flip -|g_j| < 0 and every
other coordinate >= 0, and repeated argmin takes up to k of them. The
first iteration's scores are the block's, copied from the start; a row
scores again only after it commits a step. A step of one flip (every
step at the default k = 1) is then scored and applied in scalar
arithmetic, with no index array or k x k block; a step of several flips
takes the k x k block of M.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .linalg import SingularSystemError, require_int, require_strength, solve_spd, spd_factor
from .moments import InsufficientSamplesError, accumulate_moments, gram
from .quantizers import (
    UniformParams,
    check_finite,
    clip_index,
    dequantize_index,
    dequantize_uniform,
    lattice_quotient,
)


class RoundingState(NamedTuple):
    """Floor/ceil rounding candidates and the choice between them.

    `init_rounding` builds one for a (D_s,) channel slice or a (d, D_s)
    block of rows; refinement takes the one-row state of a single slice,
    and `rows` gives a block's row states as views of its arrays (and its
    rows' proxies as scalars).
    It stores only what no other field determines: the candidates' errors
    `delta_down` and `delta_up`, the floor code `code_down`, `flippable`
    (two distinct candidates; the ceil code is then one more), and
    `up_mask`, the whole record of the choice (True picks the ceil
    candidate). `delta`, `code_up` and `codes` are read off them. Five
    fields hold refinement's start for that choice: `step`, the move to
    the other candidate; `curvature`, step^2 M_jj with M the proxy matrix;
    `gradient`, the proxy's gradient 2 delta M; `score`, refinement's
    first scoring pass copysign(g, step g + curvature); and `proxy`, the
    proxy delta g / 2, a scalar for a slice and one per row for a block.
    The curvature is gap^2 M_jj, gap = delta_up - delta_down, so no choice
    changes it.

    `stop_reason` and `flips_committed` describe the refinement that
    produced the choice: "off" and 0 until `refine_rounding` has run, then
    why it stopped ("no_eligible", "uphill" or "max_iter") and how many
    coordinates its committed steps flipped.

    A named tuple, so that building one per row and per refinement call
    costs little; `_replace` gives a copy with other fields. Its arrays
    are shared, not copied, and nothing writes into them.
    """

    delta_down: np.ndarray
    delta_up: np.ndarray
    up_mask: np.ndarray
    code_down: np.ndarray
    flippable: np.ndarray
    step: np.ndarray
    curvature: np.ndarray
    gradient: np.ndarray
    score: np.ndarray
    proxy: np.ndarray | float
    proxy_matrix: np.ndarray
    stop_reason: str = "off"
    flips_committed: int = 0

    @property
    def delta(self) -> np.ndarray:
        """The chosen candidate's error, a new array."""
        return np.where(self.up_mask, self.delta_up, self.delta_down)

    @property
    def code_up(self) -> np.ndarray:
        """The ceil codes, int64: the floor codes where there is no second candidate."""
        return np.add(self.code_down, self.flippable)

    @property
    def codes(self) -> np.ndarray:
        """The chosen codes, int64: one more than the floor code where the ceil side is taken."""
        return np.add(self.code_down, self.flippable & self.up_mask)

    def rows(self):
        """The one-row states of a block, each made of views of its rows and its row's proxy."""
        return map(RoundingState, *self[:10], repeat(self.proxy_matrix))


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


def _trace_row(iteration, slice_size, before, after, stop_reason, flips) -> dict:
    # keyed by TRACE_FIELDS; "mse" is set once the split has updated the running product
    return {
        "iteration": iteration,
        "slice_size": slice_size,
        "proxy_before": before,
        "proxy_after": after,
        "mse": None,
        "stop_reason": stop_reason,
        "flips_committed": flips,
    }


@dataclass(frozen=True)
class LayerWeightResult:
    """Codes and dequantized weights, plus `trace[i]`, the trace rows of channel i."""

    codes: np.ndarray
    w_bar: np.ndarray
    trace: tuple[list[dict], ...]


def halving_splits(dim: int) -> list[tuple[int, int]]:
    """(lo, mid) column splits; each takes ceil(remaining / 2) columns.

    Split (lo, mid) quantizes columns lo:mid, and its remainder is the rest
    of the row, mid:dim.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    splits = []
    lo = 0
    while lo < dim:
        mid = lo + (dim - lo + 1) // 2
        splits.append((lo, mid))
        lo = mid
    return splits


def proxy_value(delta: np.ndarray, matrix: np.ndarray) -> float:
    """delta M delta^T: expected squared slice error, O(D^2) regardless of N."""
    delta = np.asarray(delta, dtype=np.float64)
    return float(delta.dot(matrix @ delta))


def proxy_gradient(delta: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Gradient 2 delta M of the proxy (M symmetric), of a slice or of each block row.

    `delta` is a (D,) slice or a (d, D) block; both take the one product
    M delta^T, copied to rows. For a slice that is the matrix-vector
    product M delta (its transposes are the slice itself, and nothing is
    copied); a block's rows agree with their slices' to rounding, as the
    two products sum in different orders. The product delta M would skip
    the copy and is 25% faster at d = 32, D = 1024, but a 32 x 2048 layer
    read 0.1 MB more peak RSS with it (OpenBLAS 0.3.31, one thread, x86),
    as BLAS packs wider panels of M for that product.
    """
    delta = np.asarray(delta, dtype=np.float64)
    gradient = np.ascontiguousarray((matrix @ delta.T).T)
    gradient *= 2.0
    return gradient


def init_rounding(
    w: np.ndarray, params: UniformParams, proxy_matrix: np.ndarray
) -> RoundingState:
    """Floor/ceil candidates plus the round-to-nearest starting choice.

    `w` is a (D_s,) channel slice on one lattice, or a (d, D_s) block whose
    row i lies on row i of `params`, a record of (d, 1) columns such as
    per-channel `quantizers.calibrate_scale` returns; the state's arrays
    take the shape of `w`.
    Broadcasting gives row i the same elementwise operations, bit for bit,
    as its slice alone.

    The floor and ceil codes come from one division and are clipped and
    dequantized together in one float buffer of two slots, with the
    arithmetic of `uniform_codes` and `dequantize_uniform`; the nearest
    code is rounded, clipped and dequantized in the quotient's own buffer,
    and is the ceil code exactly where `up_mask` is set, so its error is
    the chosen one, `delta`, bit for bit. One int64 copy keeps the floor
    codes. The rest of refinement's start is built here too, for the whole
    array at once: the `proxy_gradient` of `delta`, one product for a
    block; the proxy delta g / 2 of each row, one stacked product that
    takes a dot product per row, read off the quotient's buffer before it
    becomes `step`, so no other delta is formed; `step`, `curvature`, and
    the first scoring pass `score`, three passes over the array. Each of
    a block row's `score` and `proxy` is what those operations give over
    the row's own slice of the block, bit for bit.
    """
    w = np.asarray(w, dtype=np.float64)
    quotient = lattice_quotient(w, params)
    # floor and ceil codes as floats, then in place their errors: delta_down, delta_up
    index = np.empty((2, *w.shape))
    np.floor(quotient, out=index[0])
    np.ceil(quotient, out=index[1])
    clip_index(index, params)
    nearest = clip_index(np.rint(quotient, out=quotient), params)
    up_mask = nearest == index[1]
    flippable = index[0] != index[1]
    code_down = index[0].astype(np.int64)
    errors = np.subtract(dequantize_index(index, params), w, out=index)
    # the nearest code's own error, the chosen candidate's (`RoundingState.delta`)
    # bit for bit, formed in place: the start gradient and proxy read it
    delta = np.subtract(dequantize_index(nearest, params), w, out=nearest)
    gradient = proxy_gradient(delta, proxy_matrix)
    # delta g / 2 of each row: a stacked matmul takes one ddot per row, so a
    # row's proxy equals its slice's bit for bit (np.einsum does not)
    proxy = np.matmul(delta[..., None, :], gradient[..., :, None])[..., 0, 0] * 0.5
    # step = other - chosen: the gap delta_up - delta_down, negated (exactly)
    # where the ceil side is chosen; adding 0 gives a zero gap's step the +0
    # that other - chosen gives it on either side (arithmetic, not a masked
    # subtract: that branches per element, 3.6x slower on a 32 x 1024 block)
    step = np.subtract(errors[1], errors[0], out=quotient)
    sign = np.multiply(up_mask, -2.0)
    sign += 1.0
    step *= sign
    step += 0.0
    curvature = np.multiply(step, step, out=sign)
    curvature *= np.asarray(proxy_matrix).diagonal()
    score = _score(step, gradient, curvature, np.empty_like(gradient))
    return RoundingState(
        errors[0], errors[1], up_mask, code_down, flippable, step, curvature, gradient,
        score, proxy, proxy_matrix,
    )


def _score(step, gradient, curvature, out):
    """Refinement's scoring pass into `out`: copysign(g, t g + t^2 M_jj), three passes."""
    np.multiply(step, gradient, out=out)
    np.add(out, curvature, out=out)
    return np.copysign(gradient, out, out=out)


def refine_rounding(
    state: RoundingState, k: int, max_iter: int
) -> tuple[RoundingState, list[float]]:
    """Greedy flip refinement; returns the state and committed proxy values.

    committed[0] is the proxy of the starting rounding and each later entry
    the proxy after one committed step. The returned state records why the
    loop stopped: "no_eligible" (no flip lowers the proxy on its own),
    "uphill" (the chosen flips together would raise it) or "max_iter".

    Flipping coordinate j moves it by t_j (the step to its other candidate)
    and changes the proxy by exactly t_j g_j + t_j^2 M_jj, with g = 2 M delta
    the state's `gradient`; the starting proxy is the state's `proxy`,
    delta g / 2.
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
    no delta is formed: the returned state's `delta` reads the final
    sides. The state's arrays are the start and are never written: its
    `score` is copied into the loop's buffer, up_mask, step and the
    gradient are copied when the first step commits (until then the
    returned state shares the start's arrays), and a row view of a block's
    state is read like a slice's own. The returned state's `score` and
    `proxy` are those of its choice, so refining it again continues the
    same sequence. This needs M to be a
    proxy matrix: symmetric, so the gradient update can read the flipped
    rows of M as its columns, with a nonnegative diagonal. A candidate pair
    brackets the weight (delta_down <= 0 <= delta_up), so a negative change
    t_j g_j + t_j^2 M_jj needs g_j of the sign of delta_j (or delta_j = 0):
    every eligible flip is sign-consistent. A coordinate without a second
    candidate has t_j = 0 and is never eligible.

    The first iteration reads the state's `score`; every later one, which
    follows a committed step, scores into the same buffer in three passes:
    t g, plus the curvature t^2 M_jj (the state's), and the sign of that
    sum copied onto g. With gradual underflow fl(a + c) < 0 exactly
    when a < -c, so the sign is the exact eligibility test. An eligible
    flip has t_j g_j < -t_j^2 M_jj <= 0, so g_j != 0 and it scores
    -|g_j| < 0; every other coordinate scores a zero or a positive value.
    argmin therefore takes the first largest eligible |g_j|, a minimum
    that is not negative means none is left, and each pick is marked +inf
    before the next, so the picks of a step of several flips are read back,
    sorted, as the infinite scores. This assumes finite values, which
    `quantize_layer_weights` and `LayerMomentCache` guarantee by rejecting
    NaN and Inf in weights and batches: a NaN would win argmin, and an
    infinite |g_j| would read as a pick.

    A step of one flip is scored and applied in scalar arithmetic, the
    one-term case of the k x k form: t_j g_j + t_j (M_jj t_j) and
    g += M_j (2 t_j), which is 2 (t_j M_j) since scaling by 2 is exact away
    from the subnormal range.
    """
    matrix, up_mask, step, curvature, grad = (
        state.proxy_matrix, state.up_mask, state.step, state.curvature, state.gradient,
    )
    proxy = float(state.proxy)
    committed = [proxy]
    score = state.score.copy()  # between passes, the gradient update's buffer too
    budget = min(operator.index(k), step.size)  # a float k is a TypeError
    stop_reason = "max_iter"
    flips_committed = 0
    for _ in range(max_iter):
        if flips_committed:
            _score(step, grad, curvature, score)
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
            change = t * float(grad[j]) + t * (float(matrix[j, j]) * t)
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
        if not flips_committed:  # the start stays the caller's
            up_mask, step, grad = up_mask.copy(), step.copy(), grad.copy()
        if picks == 1:
            step[j] = -t
            up_mask[j] = not up_mask[j]
            np.multiply(matrix[j], 2.0 * t, out=score)
            grad += score
        else:
            step[flips] = -t
            up_mask[flips] = ~up_mask[flips]
            grad += 2.0 * np.dot(t, m_rows)
        proxy += change
        committed.append(proxy)
        flips_committed += picks
    if not flips_committed:
        score, proxy = state.score, state.proxy
    elif stop_reason != "no_eligible":  # the picks or the gradient update wrote into it
        _score(step, grad, curvature, score)
    refined = RoundingState(
        state.delta_down, state.delta_up, up_mask, state.code_down, state.flippable,
        step, curvature, grad, score, proxy, matrix, stop_reason, flips_committed,
    )
    return refined, committed


class LayerMomentCache:
    """The second moment of a layer's quantized batch, and the blocks read from it.

    Built once from the quantized calibration activations and read-only
    afterwards. It depends on the batch alone, so aqer
    (`act_correct.solve_activation_correction`), every weight loop of the
    layer and every `RemainderRidge` of it share one cache.

    `batch` is the (N, D) batch, with at least two samples, all finite
    (InsufficientSamplesError, NonFiniteInputError). One with at least as
    many samples as columns (N >= D) is also reduced to its D x D Gram
    E[x x^T] once (`moments`), and every `block` is a read-only view of it.
    A thinner batch forms no Gram (`moments` is None): `block` builds
    X_c^T X_c / N from the batch slice X_c each time it is called, so a caller
    that drops one split's block before asking for the next holds one block
    at a time, as `quantize_layer_weights` does. `ridge_system` reads the
    same blocks, and decides for every ridge system of the layer its space,
    its 1/N normalization and whether it is singular. In the same way
    `output_change` and `row_mses` decide the space of the weight loop's
    running trace product: the Gram's or the batch's.
    """

    def __init__(self, a_q: np.ndarray):
        self.batch = np.asarray(a_q, dtype=np.float64)
        self.n_samples, self.dim = self.batch.shape
        if self.n_samples < 2:
            raise InsufficientSamplesError(
                f"need at least 2 samples, got {self.n_samples}"
            )
        check_finite(self.batch)
        self.splits = halving_splits(self.dim)
        self.moments: np.ndarray | None = None
        if self.n_samples >= self.dim:
            self.moments = accumulate_moments(self.batch)

    def block(self, cols: slice) -> np.ndarray:
        """E[x_c x_c^T] for the batch columns `cols`, any column range.

        A view of the Gram when N >= D; otherwise a new block on every call,
        the `gram` of the batch slice. Either is exactly symmetric whatever
        the batch layout. A split's proxy matrix is the block of its columns.
        """
        if self.moments is not None:
            return self.moments[cols, cols]
        return gram(self.batch[:, cols])

    def _cross_moment(self, rows: slice, cols: slice) -> np.ndarray:
        """E[x_rows x_cols^T], a view of the Gram or a product of batch slices.

        The Gram is exactly symmetric, so its [cols, rows] view transposed
        holds [rows, cols] in the layout the remainder products round in.
        """
        if self.moments is not None:
            return self.moments[cols, rows].T
        return self.batch[:, rows].T @ self.batch[:, cols] / self.n_samples

    def ridge_system(self, cols: slice, strength: float) -> tuple[np.ndarray, bool]:
        """The ridge system of a regression onto the batch columns `cols`, and its space.

        Returns (system, sample_space), in the smaller of the two spaces: for
        columns no wider than the batch E[x_c x_c^T] + strength I, from
        `block`; for wider ones X_c X_c^T / N + strength I, X_c the N x D_c
        batch slice, whose solutions map back through X_c^T (push-through
        identity). Raises SingularSystemError for strength 0 on columns
        wider than the batch: their input-space system has rank at most N,
        and the sample-space one would give the minimum-norm solution
        instead.
        """
        samples = self.batch[:, cols]
        n, width = samples.shape
        if width <= n:
            return self.block(cols) + strength * np.eye(width), False
        if strength == 0:
            raise SingularSystemError(
                f"ridge system over {width} columns of a {n}-sample batch is "
                "singular; use a regularization strength > 0"
            )
        return samples @ samples.T / n + strength * np.eye(n), True

    def output_change(self, change: np.ndarray, lo: int, end: int) -> np.ndarray:
        """What an error change over columns lo:end adds to an output-error product.

        change E[x_c x^T] with the Gram's rows c = lo:end, or change X_c^T
        with the batch columns c when the cache holds no Gram.
        """
        if self.moments is not None:
            return change @ self.moments[lo:end]
        return change @ self.batch[:, lo:end].T

    def row_mses(self, outputs: np.ndarray, current: np.ndarray, w: np.ndarray) -> np.ndarray:
        """E[(e x)^2] of each error row e = current_i - w_i, from its output-error product.

        `outputs` is e E[x x^T], and the MSE its row dot product with e; or,
        with no Gram, e X^T, and the MSE |outputs_i|^2 / N, which reads
        neither `current` nor `w`.
        """
        if self.moments is not None:
            return np.einsum("ij,ij->i", outputs, current - w)
        return np.einsum("ij,ij->i", outputs, outputs) / self.n_samples


class RemainderRidge:
    """The remainder ridge of step 3 at one lambda2, factored once per split.

    Built from a `LayerMomentCache` and shared by every channel. The
    remainder of split (lo, mid) is the rest of the row, columns mid:, and
    its system comes from `LayerMomentCache.ridge_system`, in the smaller
    of its two spaces; this class keeps only the right-hand sides:
    E[x_r x_s^T] delta_s in input space, X_s delta_s / N in sample space.
    """

    def __init__(self, cache: LayerMomentCache, lambda2: float):
        require_strength("lambda2", lambda2)
        self.cache = cache
        self.lambda2 = lambda2
        self._remainder: dict[tuple[int, int], tuple] = {}
        for lo, mid in cache.splits[:-1]:
            s, r = slice(lo, mid), slice(mid, None)
            system, sample_space = cache.ridge_system(r, lambda2)
            if sample_space:
                to_rhs, from_samples = cache.batch[:, s], cache.batch[:, r].T
            else:
                to_rhs, from_samples = cache._cross_moment(r, s), None
            self._remainder[(lo, mid)] = (to_rhs, spd_factor(system), from_samples)

    def updates(self, lo: int, mid: int, deltas: np.ndarray, out=None) -> np.ndarray:
        """dW_r* of split (lo, mid) for each row of the (d, D_s) committed errors.

        Row i of the (d, D_r) result minimizes E[(delta_i x_s + dW_r x_r)^2]
        + lambda2 ||dW_r||^2, the ridge-optimal update of columns mid:
        given the committed error delta_i = deltas[i]; `out`, if given,
        receives it. The right-hand sides and the sample-space mapping are
        stacked products, one matrix-vector product per row, so each row's
        update is the one its own solve gives, bit for bit, whatever the
        other rows; the solves stay one `solve_spd` per row. Raises KeyError
        for the final split, which leaves no remainder.
        """
        to_rhs, factor, from_samples = self._remainder[(lo, mid)]
        rhs = np.matmul(to_rhs, deltas[:, :, None])[:, :, 0]
        if from_samples is not None:
            rhs /= self.cache.n_samples
        for row in rhs:
            row[:] = solve_spd(factor, row)
        if from_samples is None:
            return np.negative(rhs, out=out)
        if out is None:
            out = np.empty((len(rhs), from_samples.shape[0]))
        np.matmul(from_samples, rhs[:, :, None], out=out[:, :, None])
        return np.negative(out, out=out)


def quantize_layer_weights(
    w: np.ndarray,
    lattice: UniformParams,
    cache: LayerMomentCache,
    ridge: RemainderRidge | None,
    *,
    k: int,
    max_iter: int,
) -> LayerWeightResult:
    """Run the progressive loop for the rows of w, splits outside, rows inside.

    Row i is quantized on the fixed lattice of row i of `lattice`, a record
    of (d_out, 1) columns as per-channel `quantizers.calibrate_scale`
    returns it, against the layer's moment cache. Returns the codes, the
    dequantized rows and, per row, one trace row per iteration keyed by
    TRACE_FIELDS: the slice size, the proxy before and after refinement, why
    refinement stopped and how many coordinates it flipped, and the
    empirical squared output error of the partially quantized row, from the
    loop's running output-error product. Refinement runs only for k > 0 (k
    and max_iter, integers >= 0, are checked before any work, and so is
    every weight, per row, for NaN/Inf: NonFiniteInputError), the remainder
    update only when a `ridge` of the same cache is given; None turns it
    off. Rows interact only through rounding: a row's start gradient is a
    row of one block product, so it, the proxies and the trace MSEs can
    move in the last bits with the rows that share the call (within 1e-13 of the row's largest
    gradient entry, and 1e-12 relative for proxies and MSEs, in the tests),
    and only a flip decided by those bits could change a row's codes,
    dequantized values or stop reason.
    """
    k = require_int("k", k, 0)
    max_iter = require_int("max_iter", max_iter, 0)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    if w.size == 0:
        raise ValueError(f"weight matrix of shape {w.shape} is empty")
    d_out, dim = w.shape
    if np.shape(lattice.scale) != (d_out, 1):
        raise ValueError(f"need a lattice of ({d_out}, 1) columns, one row per output channel")
    if dim != cache.dim:
        raise ValueError(f"row dim {dim} does not match cache dim {cache.dim}")
    if ridge is not None and ridge.cache is not cache:
        raise ValueError("the ridge was built from another moment cache")
    check_finite(w, per_row=True)
    current = w.copy()
    codes = np.zeros((d_out, dim), dtype=np.int64)
    # the running output-error product of current - w (`LayerMomentCache.row_mses`),
    # (d_out, D) or (d_out, N) from the first split's `output_change` on
    outputs = 0.0
    trace = tuple([] for _ in range(d_out))

    for iteration, (lo, mid) in enumerate(cache.splits):
        matrix = cache.block(slice(lo, mid))
        block = init_rounding(current[:, lo:mid], lattice, matrix)
        up_mask = block.up_mask
        if k > 0:
            # the rows' refined choices; the block keeps the nearest start
            up_mask = up_mask.copy()
            for i, (rows, state) in enumerate(zip(trace, block.rows())):
                state, committed = refine_rounding(state, k, max_iter)
                if state.flips_committed:
                    up_mask[i] = state.up_mask
                rows.append(_trace_row(
                    iteration, mid - lo, committed[0], committed[-1],
                    state.stop_reason, state.flips_committed,
                ))
        else:
            for rows, proxy in zip(trace, block.proxy.tolist()):
                rows.append(_trace_row(iteration, mid - lo, proxy, proxy, "off", 0))
        # drop the score and the gradient, which the last row state shares,
        # before the codes are formed, the split's highest point
        block = block._replace(up_mask=up_mask, score=None, gradient=None)
        state = None
        codes[:, lo:mid] = block.codes
        # drop this split's proxy block, which the block holds too, and the
        # rest of the block before the remainder solves and the next split's
        # block
        matrix = block = up_mask = None
        # the split's change of the error over the columns it moves: the
        # dequantized slice minus its values before, which are the chosen
        # candidates' errors (`RoundingState.delta`) bit for bit, then the
        # ridge updates of the remainder, added onto it
        end = dim if ridge is not None else mid
        change = np.empty((d_out, end - lo))
        quantized = dequantize_uniform(codes[:, lo:mid], lattice)
        deltas = np.subtract(quantized, current[:, lo:mid], out=change[:, : mid - lo])
        current[:, lo:mid] = quantized
        quantized = None
        if end > mid:
            ridge.updates(lo, mid, deltas, out=change[:, mid - lo :])
            current[:, mid:end] += change[:, mid - lo :]
        outputs += cache.output_change(change, lo, end)
        for rows, mse in zip(trace, cache.row_mses(outputs, current, w).tolist()):
            rows[-1]["mse"] = mse
    return LayerWeightResult(codes=codes, w_bar=current, trace=trace)
