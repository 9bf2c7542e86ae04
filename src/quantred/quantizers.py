"""Uniform affine and log-sqrt2 quantizers with MSE grid calibration.

Uniform codes are clip(round(x / s) + z, 0, 2^b - 1) with dequantization
s * (codes - z); rounding is always half-to-even. The log-sqrt2 quantizer
covers post-softmax activations: codes are clip(round(-2 * log2(x / s)),
0, 2^b - 1) and dequantize to s * 2^floor(-q / 2) * ((sqrt(2) - 1) * odd(q)
+ 1), so even codes land on powers of two and odd codes halfway between
them in log space.

Calibration (`calibrate_scale`, one entry for both families and both
granularities) picks, from 141 candidate scales, the one whose lattice
minimizes reconstruction MSE, and returns the lattice record `quantize`
takes: params with scalar fields per tensor, and per channel one
`UniformParams` whose scale, zero point and degenerate flag are (d, 1)
columns, row i's lattice in row i, which broadcast against a (d, D)
block (`row_params` unstacks them into one scalar params per row). The
candidates of either family form one grid (`_candidate_grid`): the same
record with a (rows, 141, 1) scale and zero point, from which the scan
also builds its bin edges and levels. Calibration runs a block of rows
at a time (per-tensor input is one row; per-channel weights give as many
rows per block as fit a fixed byte budget), and each row's choice equals
the brute-force grid's (oracle.grid_calibrate), ties included, and
calibrating that row alone.

One exact evaluator (`_exact_mse`) scores candidates: it quantizes the
rows under them in one (rows, k, n) pass through `quantize(...,
codes=False)` and takes the mean squared error over each row, bit for
bit the oracle's MSE, and `_last_minimum` keeps the oracle's last
minimum. A row of at most `direct_cutoff(b)` values is scored under all
141 candidates that way, with no sort: 4 * 2^b up to 8 bits, 32 * 2^b
past that. On 16 and 64 Gaussian rows (2-core x86 VM, numpy 2.4, best of
5) the direct path takes 0.35-0.57 of the scan's time at 4 values per
level at 2, 4 and 8 bits, and the two break even near 10, 8 and over 16
values per level; its (141, n) errors are no larger than four of the
scan's (141, 2^b) arrays. Past 8 bits the scan takes its candidates in
chunks, so its cost per level grows: on one Gaussian row (same host,
best of 3) the direct path takes 0.28, 0.24, 0.17, 0.29 and 0.21 of the
scan's time at 4 values per level at 9, 10, 12, 14 and 16 bits, and the
two break even at 32 values per level within 8% (direct / scan 1.01,
0.97, 0.93, 1.08 and 1.03 there), so past 8 bits the cutoff sits at that
crossover.

A longer row is scanned. Codes are monotone in x, so each candidate
splits the sorted values into 2^b contiguous bins, bin k at level L_k,
and the levels ascend with x in both families. Summed by parts over the
bins, a candidate's squared error telescopes over its 2^b - 1 edges:

    SSE = sum x^2 - 2 (L_top sum x - sum_k dL_k P1_k)
                  + (L_top^2 n - sum_k d(L^2)_k C_k),

with C_k and P1_k the count and the sum of the values below edge k's
window, dL_k = L_k - L_(k-1) and d(L^2)_k = L_k^2 - L_(k-1)^2 (formed as
dL_k (L_k + L_(k-1))). So a row needs one sort and one prefix sum of x;
every candidate's levels and scores are (rows, 141, 2^b) arrays (in
chunks of candidates within a byte budget past 8 bits), and each row's
edges go to one binary search, edge-major: ordered by edge, then by
candidate, the keys rise through the 141 scales in runs instead of
falling back at every candidate (on 64 rows of 256 values at 4 bits the
searches take 2.8 against 5.0 ms in candidate order). Against the scan
it replaced (prefix sums of x and x^2, both gathered at every bin bound,
edges searched in candidate order), `calibrate_scale` at 4 bits took,
over 25 interleaved repetitions in one process (2-core x86 VM, numpy
2.4, one BLAS thread, medians): per tensor 14.6 -> 8.7 ms on 2048 x 256
activations, 6.2 -> 4.5 ms on 128 x 2048 and 39.4 -> 27.6 ms on
4096 x 384; per channel 12.7 -> 9.2 ms on 64 x 256 weights, 10.0 ->
6.9 ms on 32 x 2048, 321 -> 229 ms on 1536 x 384 and 106 -> 74 ms on
384 x 1536.

Only the candidates whose scan SSE lies within its slack of the best go
to the exact evaluator, which keeps the choice the oracle's. For a row
of n values, with B >= |x| and |level| over all candidates, eps = 2^-52
and Q = sum x^2 + n B^2, the slack

    16 n eps Q + 16 n tiny + 2 unplaced

bounds |scan SSE - n * exact MSE| wherever both are finite (an overflow
makes the row keep every candidate). The derivation rests on three
facts: levels are monotone, so sum_k |dL_k| = L_top - L_0 <= 2B; L^2
falls and then rises along them, so sum_k |d(L^2)_k| <= L_0^2 + L_top^2
<= 2B^2; and the counts C_k are exact. Also |x| B <= (x^2 + B^2) / 2, so
B sum |x| <= Q / 2, and the scan's levels are bit for bit the values the
exact evaluator forms. To first order in eps:
- sum x^2 is off by at most (n + 1) eps Q, and every prefix sum by n eps
  sum |x| in any order of summation.
- The first bracket: its prefix sums weigh sum_k |dL_k| + |L_top| <= 3B,
  so they add 1.5 n eps Q; rounding dL_k, the products and the sum over
  2^b terms add (2^b + 2) eps 2B sum |x|, and the product L_top sum x and
  the subtraction add 2 eps Q. Doubled: (3n + 2^(b+1) + 8) eps Q.
- The second bracket: d(L^2)_k is within 3 eps of its value, the exact
  counts are at most n, and the products and the sum add (2^b + 2) eps,
  all on sum_k |d(L^2)_k| n <= 2 n B^2; L_top^2 n and the subtraction add
  5 eps n B^2: (2^(b+1) + 15) eps Q.
- The two outer operations: 2 eps (sum x^2 + 2 * 1.5 Q + 3 Q) <= 14 eps Q.
- The exact evaluator rounds each (x - L)^2 within 3 eps, sums n of them
  and divides by n: (n + 4) eps sum (x - L)^2 <= (2n + 8) eps Q.
Scanned rows hold n > 4 * 2^b >= 16 values, so the total,
(6n + 2^(b+2) + 46) eps Q, is below 10 n eps Q; the factor 16 leaves room
for the rounding of the slack and of the comparison. Gradual underflow
loses at most tiny * eps per operation, inside 16 n tiny (or, weighted
by a level, inside the eps Q term). A value within the edge window
(_EDGE_WINDOW) belongs to either adjacent bin: the scan counts it in the
upper one, and `unplaced` charges each such value its largest swing in
squared error, doubled to cover the charge's own rounding. Outside the
windows the scan bins every value as the exact evaluator does.
`scan_report`, the scan's one self-check entry, gives a row's shortlist,
whether it holds windowed values and how much of its slack the scan
error uses, which tests and `quantred verify` check stays below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_int

SQRT2 = float(np.sqrt(2.0))

# scale candidates alpha * s_maxabs, alpha = 0.500 .. 1.200 step 0.005
ALPHA_GRID = np.arange(100, 241, dtype=np.float64) / 200.0

# widest bit width a manifest or run config may ask for: calibration builds
# (141, 2^b) candidate arrays, and code files hold int32
MAX_BITS = 16

FAMILIES = ("uniform", "log_sqrt2")


@dataclass(frozen=True)
class UniformParams:
    """A uniform lattice, whose fields may be arrays that broadcast against the values."""

    scale: float
    zero_point: int
    bits: int
    degenerate: bool = False


@dataclass(frozen=True)
class LogSqrt2Params:
    scale: float
    bits: int
    degenerate: bool = False


def lattice_quotient(x: np.ndarray, params: UniformParams) -> np.ndarray:
    """x / s as a new float64 buffer; a quotient past the float range is +/-inf."""
    with np.errstate(over="ignore"):
        return np.divide(np.asarray(x, dtype=np.float64), params.scale)


def clip_index(t: np.ndarray, params: UniformParams) -> np.ndarray:
    """In place: rounded quotients t plus z, clipped to [0, 2^b - 1]; returns t.

    t then holds the codes as floats. Clipping before any integer cast puts
    every quotient outside the lattice, infinite ones included, at 0 or
    2^b - 1; the float sum with z is exact below 2^53 in magnitude, and
    beyond that it clips to the same bound as the exact sum.
    """
    np.add(t, params.zero_point, out=t)
    np.maximum(t, 0.0, out=t)
    return np.minimum(t, 2.0**params.bits - 1.0, out=t)


def dequantize_index(t: np.ndarray, params: UniformParams) -> np.ndarray:
    """In place: codes held as floats to their lattice values s (t - z); returns t."""
    np.subtract(t, params.zero_point, out=t)
    return np.multiply(t, params.scale, out=t)


def dequantize_uniform(codes: np.ndarray, params: UniformParams) -> np.ndarray:
    return dequantize_index(np.asarray(codes, dtype=np.int64).astype(np.float64), params)


def quantize_uniform(x: np.ndarray, params: UniformParams, codes: bool = True):
    """Return (codes, dequantized values) on the lattice {s * (q - z)}.

    One float buffer: the quotient is rounded, shifted and clipped in place,
    cast once for the codes, then dequantized in place. With codes=False
    there is no integer cast and the codes come back as None.
    """
    t = lattice_quotient(x, params)
    t = clip_index(np.rint(t, out=t), params)
    q = t.astype(np.int64) if codes else None
    return q, dequantize_index(t, params)


def dequantize_log_sqrt2(codes: np.ndarray, params: LogSqrt2Params) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    exponent = np.floor_divide(-codes, 2)
    odd = (codes % 2).astype(np.float64)
    return params.scale * np.ldexp(1.0, exponent) * ((SQRT2 - 1.0) * odd + 1.0)


def quantize_log_sqrt2(x: np.ndarray, params: LogSqrt2Params):
    """Return (codes, dequantized values) of nonnegative x on the log-sqrt2 lattice."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(x.min()) < 0.0:
        raise ValueError("log_sqrt2 quantizer requires nonnegative inputs")
    # zero and underflowing inputs have log2 = -inf: clipped to the largest
    # code before the integer cast
    with np.errstate(divide="ignore"):
        codes = np.rint(-2.0 * np.log2(x / params.scale))
    codes = np.clip(codes, 0, (1 << params.bits) - 1).astype(np.int64)
    return codes, dequantize_log_sqrt2(codes, params)


def quantize(x: np.ndarray, params, codes: bool = True):
    """(codes, dequantized values) of x under uniform or log-sqrt2 params.

    Params fields may be arrays that broadcast against x, as per-channel
    calibration and `_candidate_grid` build them. With codes=False the
    codes come back as None and the values are bit for bit the same;
    uniform values then take one float buffer and no integer cast.
    """
    if isinstance(params, LogSqrt2Params):
        q, values = quantize_log_sqrt2(x, params)
        return (q if codes else None), values
    return quantize_uniform(x, params, codes)


class NonFiniteInputError(ValueError):
    """An input array holds NaN or +/-Inf.

    Calibration input, tensors read from files and eval batches are checked
    alike. `index` locates the first bad element in the array as passed;
    `row` is the channel for per-channel calibration and None otherwise;
    `path` names where the array came from: the tensor file it was read
    from, or a name such as "eval batch", when known.
    """

    def __init__(self, value: float, index: tuple, row: int | None = None, path=None):
        self.index = index
        self.row = row
        self.path = path
        where = f"index {index}" if row is None else f"row {row}, column {index[-1]}"
        source = "" if path is None else f" in {path}"
        super().__init__(f"non-finite value {value} at {where}{source}")


def check_finite(x: np.ndarray, per_row: bool = False, path=None) -> None:
    """Raise NonFiniteInputError at the first NaN/Inf of x (row-major order)."""
    finite = np.isfinite(x)
    if not finite.all():
        index = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), x.shape))
        raise NonFiniteInputError(
            float(x[index]), index, index[0] if per_row else None, path
        )


# Relative half-width of the window around a bin edge inside which the fast
# scan does not trust its bin assignment. Float division and log2 move a
# value's position against an edge by a few ulps (2^-52 relative), far
# inside this window.
_EDGE_WINDOW = 2.0**-40
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# Bytes of one (rows, 141, 2^b) float64 array of the row-block scan: a block
# holds as many rows as fit, at least one (one row at 8 bits, three at 4).
_BLOCK_BYTES = 1 << 16
# Bytes of one (rows, chunk, 2^b) float64 array of the scan, which takes
# candidates in chunks that fit, one at least: all 141 up to 8 bits, 64 at
# 10 and one at 16, so about ten live arrays stay a few MB at any width.
_CHUNK_BYTES = 1 << 19

# Values per level (times 2^b) of the longest row scored directly under every
# candidate (module docstring): up to 8 bits the (141, n) float64 errors are
# then at most four of the scan's (141, 2^b) arrays, fewer than the scan
# holds live, well below the speed crossover; past 8 bits the scan takes
# its candidates in chunks and the direct evaluator one candidate at a time,
# and the cutoff is the measured crossover.
_DIRECT_PER_LEVEL = 4
_DIRECT_PER_LEVEL_PAST_8_BITS = 32
# Float64 bytes of one chunk of the exact evaluator: the direct path scores
# as many rows at once as fit, and a shortlist as many candidates.
_DIRECT_BYTES = 1 << 18


def direct_cutoff(bits: int) -> int:
    """The longest row that calibration scores directly, without the scan."""
    return (_DIRECT_PER_LEVEL if bits <= 8 else _DIRECT_PER_LEVEL_PAST_8_BITS) << bits


def _block_height(bits: int, n: int) -> int:
    """Rows per block of calibration at a bit width, for rows of n >= 1 values."""
    if n <= direct_cutoff(bits):
        return max(1, _DIRECT_BYTES // (8 * ALPHA_GRID.size * n))
    return max(1, _BLOCK_BYTES // (8 * ALPHA_GRID.size << bits))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a (rows, n) block ascending, then +inf, as (rows, n + 1)."""
    n = rows.shape[1]
    xs = np.empty((rows.shape[0], n + 1))
    xs[:, n] = np.inf
    xs[:, :n] = rows
    xs[:, :n].sort(axis=1)
    return xs


def _place_edges(xs, p1, edges, levels):
    """Where every candidate's bin edges fall among the sorted values of its row.

    Arguments as for _candidate_sse. Returns (count, below, unplaced,
    windowed), the first two edge-major (rows, 2^b - 1, candidates) arrays:
    count[r, k, c] is C_k of row r's candidate c, the number of
    values below edge k's window, and below[r, k, c] is P1_k, their sum.
    Each row's edges are searched edge-major, so that the keys rise
    through the candidates' scales in runs instead of falling back at
    every candidate.

    A value within _EDGE_WINDOW of an edge belongs to one of the two
    adjacent bins, and moving x from level a to level b changes its
    squared error by (b - a)(a + b - 2x). unplaced[r, c] sums that swing
    over the values in candidate c's windows. The value at a window's lower
    bound shows whether the window holds any; only the rows where one does
    (`windowed`) search the upper ends to count them.
    """
    rows, n = xs.shape[0], xs.shape[1] - 1
    cands, n_edges = edges.shape[1:]
    width = _EDGE_WINDOW * np.abs(edges)
    lower = (edges - width).transpose(0, 2, 1)
    upper = (edges + width).transpose(0, 2, 1)
    count = np.empty((rows, n_edges, cands), dtype=np.int64)
    for r in range(rows):
        count[r] = np.searchsorted(xs[r, :n], lower[r])
    at = count + (np.arange(rows) * (n + 1))[:, None, None]
    below = p1.ravel()[at]
    # xs ends each row with +inf, so a window past the row's last value holds none
    windowed = (xs.ravel()[at] <= upper).any(axis=(1, 2))
    unplaced = np.zeros((rows, cands))
    for r in np.flatnonzero(windowed):
        hi = np.searchsorted(xs[r, :n], upper[r], side="right")
        low, high = levels[r, :, :-1], levels[r, :, 1:]
        swing = np.abs(high - low) * (np.abs(low + high - 2.0 * edges[r]) + 2.0 * width[r])
        unplaced[r] = np.einsum("kc,ck->c", hi - count[r], swing)
    return count, below, unplaced, windowed


def _candidate_sse(xs, p1, total, edges, levels):
    """Approximate SSE of every candidate lattice of each row of a block.

    xs comes from _sorted_rows, p1 is the row-wise prefix sum of x with a
    leading zero and total the row-wise sum of x^2. edges[r, c] holds the
    ascending bin edges of row r's candidate c and levels[r, c] the
    dequantized value of each of its bins. Codes are monotone in x, so a
    candidate splits the sorted values into contiguous bins, and its SSE
    telescopes over its edges (module docstring):
    sum x^2 - 2 (L_top sum x - sum_k dL_k P1_k) + (L_top^2 n - sum_k d(L^2)_k C_k),
    with C_k and P1_k from _place_edges. Also returns `unplaced` and
    `windowed` of _place_edges.
    """
    n = xs.shape[1] - 1
    count, below, unplaced, windowed = _place_edges(xs, p1, edges, levels)
    top = levels[:, :, -1]
    step = levels[:, :, 1:] - levels[:, :, :-1]
    # d(L^2)_k as dL_k (L_k + L_(k-1)): within 3 eps of its value
    step_sq = step * (levels[:, :, 1:] + levels[:, :, :-1])
    first = top * p1[:, n, None] - np.einsum("rck,rkc->rc", step, below)
    second = top * top * n - np.einsum("rck,rkc->rc", step_sq, count)
    return total[:, None] - 2.0 * first + second, unplaced, windowed


def _scan_scores(xs: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate's scan SSE and its slack, for each row of a block.

    xs comes from _sorted_rows and grid holds the rows' candidates. Returns
    (sse, slack, windowed): (rows, 141) scan SSEs, each within its slack of
    n times the exact evaluator's MSE when both are finite (module
    docstring), and the rows that ran the upper edge search (see
    _place_edges). Candidates are scanned in chunks of _CHUNK_BYTES. B
    bounds |x| and |level| over all candidates; the slack's first term
    bounds the float rounding of the scan and of the exact evaluator, the
    second gradual underflow, the third the values the scan cannot place
    (doubled to cover its own rounding).
    """
    rows, n = xs.shape[0], xs.shape[1] - 1
    step = max(1, _CHUNK_BYTES // (8 * max(rows, 1) << grid.bits))
    sse = np.empty((rows, ALPHA_GRID.size))
    unplaced = np.empty((rows, ALPHA_GRID.size))
    windowed = np.zeros(rows, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        values = xs[:, :n]
        total = np.einsum("ij,ij->i", values, values)
        p1 = np.zeros((rows, n + 1))
        np.cumsum(values, axis=1, out=p1[:, 1:])
        # values and levels ascend, so the ends hold the largest magnitudes
        bound = np.abs(xs[:, : n : max(n - 1, 1)]).max(axis=1)
        for c in range(0, ALPHA_GRID.size, step):
            chunk = slice(c, c + step)
            edges, levels = _bins(_take(grid, chunk))
            sse[:, chunk], unplaced[:, chunk], hit = _candidate_sse(xs, p1, total, edges, levels)
            windowed |= hit
            ends = np.abs(levels[:, :, :: levels.shape[2] - 1]).max(axis=(1, 2))
            bound = np.maximum(bound, ends)
        slack = (16.0 * n * _EPS * (total + n * bound * bound) + 16.0 * n * _TINY)[
            :, None
        ] + 2.0 * unplaced
    return sse, slack, windowed


def _shortlist(sse: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Which candidates of each row can attain the row's smallest exact MSE.

    Takes the (rows, 141) scan SSEs and slacks of _scan_scores and returns
    a (rows, 141) mask. A candidate whose lower end (sse - slack) lies
    above the smallest upper end is strictly worse than the exact optimum,
    so a row's mask holds every candidate tied at it. A row whose scan
    overflows keeps every candidate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        keep = sse - slack <= (sse + slack).min(axis=1, keepdims=True)
    keep[~(np.isfinite(sse).all(axis=1) & np.isfinite(slack).all(axis=1))] = True
    return keep


def _last_minimum(mse: np.ndarray) -> np.ndarray:
    """The candidate oracle.grid_calibrate keeps for each row of a (rows, k) MSE array.

    The oracle scans the candidates in order and keeps a later one when its
    MSE is <= the kept one's: the last minimum, where a NaN MSE never wins
    and, first in its row, is never replaced.
    """
    nan = np.isnan(mse)
    least = np.where(nan, np.inf, mse).min(axis=1, keepdims=True)
    choice = mse.shape[1] - 1 - np.argmax((mse == least)[:, ::-1], axis=1)
    choice[nan[:, 0]] = 0
    return choice


def _candidate_grid(lo: np.ndarray, hi: np.ndarray, family: str, bits: int):
    """The candidate grid of the rows whose smallest and largest values are lo and hi.

    Returns (live, grid). `live` marks the rows whose smallest candidate
    scale is nonzero in float64; the others (constant uniform rows, all-zero
    log-sqrt2 rows) are degenerate and absent from the grid. The grid is
    the lattice record `quantize` takes, with a (rows, 141, 1) float64
    scale (and uniform zero point): [i, c] is the i-th live row's
    candidate c, and the record broadcasts against a (rows, 1, n) block, so
    each row meets each of its candidates with the elementwise arithmetic
    of `quantize`. Uniform candidates scale max - min over 2^b - 1, with
    zero point clip(rint(-min / s), 0, 2^b - 1); log-sqrt2 candidates scale
    the maximum.
    """
    qmax = (1 << bits) - 1
    with np.errstate(over="ignore"):
        span = (hi - lo) / qmax if family == "uniform" else hi
        live = ALPHA_GRID[0] * span != 0.0
        if not live.all():
            lo, span = lo[live], span[live]
        scale = ALPHA_GRID[:, None] * span[:, None, None]
    if family == "log_sqrt2":
        return live, LogSqrt2Params(scale=scale, bits=bits)
    zero = np.minimum(np.maximum(np.rint(-lo[:, None, None] / scale), 0.0), qmax)
    return live, UniformParams(scale=scale, zero_point=zero, bits=bits)


def _take(grid, cands, rows=slice(None)):
    """Candidates `cands` of a grid's rows `rows`, as a grid."""
    if isinstance(grid, LogSqrt2Params):
        return LogSqrt2Params(scale=grid.scale[rows, cands], bits=grid.bits)
    return UniformParams(
        scale=grid.scale[rows, cands], zero_point=grid.zero_point[rows, cands], bits=grid.bits
    )


def _bins(grid) -> tuple[np.ndarray, np.ndarray]:
    """(edges, levels) of a grid's candidates for the scan: edges[i, c]
    holds the ascending bin edges of row i's candidate c, levels[i, c]
    the dequantized value of each bin.

    Uniform code k holds x with x / s in [k - z - 1/2, k - z + 1/2), so
    the edges sit at (k - z - 1/2) s, and saturation is the first and
    last bin. Log-sqrt2 codes fall as x rises; code q holds
    -2 log2(x / s) in [q - 1/2, q + 1/2), so in ascending x the bins run
    from code 2^b - 1 (which also takes zero) down to code 0, with edges
    s 2^(-(q + 1/2) / 2).
    """
    qmax = (1 << grid.bits) - 1
    if isinstance(grid, UniformParams):
        steps = np.arange(qmax + 1.0) - grid.zero_point
        # near the float range an edge or level overflows to +/-inf, and
        # an infinite scale makes the level at step 0 NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return grid.scale * (steps[:, :, 1:] - 0.5), grid.scale * steps
    codes = np.arange(qmax, -1, -1)
    unit = dequantize_log_sqrt2(codes, LogSqrt2Params(scale=1.0, bits=grid.bits))
    return grid.scale * 2.0 ** (-(codes[1:] + 0.5) / 2.0), grid.scale * unit


def _exact_mse(rows: np.ndarray, grid) -> np.ndarray:
    """MSE of each row of a (rows, n) block under each candidate of its grid row.

    The one exact evaluator: the grid, a lattice record with (rows, k, 1)
    fields, broadcast against the (rows, 1, n) block through
    `quantize(..., codes=False)`, then the mean squared error over the last
    axis, each bit for bit what oracle.grid_calibrate computes for that row
    and candidate. Candidates go in chunks of at most _DIRECT_BYTES of
    float64 (one at least). Returns (rows, k).
    """
    m, n = rows.shape
    k = grid.scale.shape[1]
    step = max(1, _DIRECT_BYTES // (8 * max(m, 1) * n))
    values = rows[:, None, :]
    mse = np.empty((m, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, k, step):
            err = quantize(values, _take(grid, slice(c, c + step)), codes=False)[1]
            np.subtract(values, err, out=err)
            np.square(err, out=err)
            mse[:, c : c + step] = err.mean(axis=2)
    return mse


def _scan_choices(rows: np.ndarray, xs: np.ndarray, grid) -> np.ndarray:
    """Each row's choice among its grid's candidates, for rows too long to score directly.

    xs holds the rows sorted (_sorted_rows). The prefix-sum scan shortlists
    the candidates that can attain a row's smallest exact MSE; a shortlist
    of one is the choice, and only a longer one is scored by the exact
    evaluator.
    """
    sse, slack, _ = _scan_scores(xs, grid)
    keep = _shortlist(sse, slack)
    choices = keep.argmax(axis=1)
    for i in np.flatnonzero(keep.sum(axis=1) > 1):
        shortlist = np.flatnonzero(keep[i])
        row_grid = _take(grid, shortlist, slice(i, i + 1))
        choices[i] = shortlist[_last_minimum(_exact_mse(rows[i : i + 1], row_grid))[0]]
    return choices


def _calibrate_rows(x: np.ndarray, family: str, bits: int):
    """The calibrated lattice of each row of a finite 2-D array, in row blocks.

    Returns the record of (d, 1) columns that `calibrate_scale` returns per
    channel: each block's choices are gathered from its grid into the
    columns of its live rows, and every other row keeps degenerate
    unit-scale params. Rows of at most `direct_cutoff(bits)` values are
    scored directly under every candidate; longer rows are scanned. Values
    are finite, but a span or a squared error past the float range gives
    inf or NaN scores, which `_last_minimum` treats as the oracle does; the
    grid and the exact evaluator compute them without a warning.
    """
    d, n = x.shape
    scale, zero = np.ones((d, 1)), np.zeros((d, 1))
    degenerate = np.ones((d, 1), dtype=bool)
    direct = n <= direct_cutoff(bits)
    height = _block_height(bits, max(n, 1))
    # rows without values stay degenerate
    for start in range(0, d if n else 0, height):
        rows = x[start : start + height]
        if direct:
            lo, hi = rows.min(axis=1), rows.max(axis=1)
        else:
            xs = _sorted_rows(rows)
            lo, hi = xs[:, 0], xs[:, n - 1]
        live, grid = _candidate_grid(lo, hi, family, bits)
        if not live.any():
            continue
        if not live.all():
            rows = rows[live]
            if not direct:
                xs = xs[live]
        if direct:
            choices = _last_minimum(_exact_mse(rows, grid))
        else:
            choices = _scan_choices(rows, xs, grid)
        at = start + np.flatnonzero(live)
        chosen = np.arange(choices.size), choices
        scale[at], degenerate[at] = grid.scale[chosen], False
        if family == "uniform":
            zero[at] = grid.zero_point[chosen]
    if family == "log_sqrt2":
        return LogSqrt2Params(scale=scale, bits=bits, degenerate=degenerate)
    return UniformParams(scale=scale, zero_point=zero, bits=bits, degenerate=degenerate)


def row_params(lattice) -> list:
    """Params with scalar fields for each row of a record of (d, 1) columns.

    Row i's params quantize a row alone as row i of the record does in a
    block: the scale as a float, the zero point as an int, the degenerate
    flag as a bool. For writing rows out and comparing them; the record
    itself is what `quantize` and the weight loop take.
    """
    scales, flags = lattice.scale[:, 0].tolist(), lattice.degenerate[:, 0].tolist()
    if isinstance(lattice, LogSqrt2Params):
        return [LogSqrt2Params(s, lattice.bits, g) for s, g in zip(scales, flags)]
    zeros = lattice.zero_point[:, 0].tolist()
    return [UniformParams(s, int(z), lattice.bits, g) for s, z, g in zip(scales, zeros, flags)]


def _check_family_and_bits(family: str, bits: int) -> int:
    """The bit width as a plain int, after the family: calibration's first two checks."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return require_int("bits", bits, 2, MAX_BITS)


def _check_per_tensor(x: np.ndarray, family: str) -> None:
    """Finite values, and nonnegative ones for log-sqrt2, as per-tensor calibration needs."""
    check_finite(x)
    if family == "log_sqrt2" and x.size and float(x.min()) < 0.0:
        raise ValueError("log_sqrt2 calibration requires nonnegative inputs")


def scan_report(values: np.ndarray, family: str, bits: int) -> tuple[np.ndarray, bool, float]:
    """What the calibration scan sees of the values, as one row, and how well it bounds it.

    Returns (shortlist, windowed, bound_use): the indices into ALPHA_GRID
    that calibration re-scores exactly (a shortlist of one is the choice
    itself); whether some value lies within the edge window of some
    candidate, so that the scan searched the upper window ends; and the
    largest |scan SSE - n * exact MSE| / slack over the candidates whose
    three terms are finite (0.0 if none is), below 1 wherever the module
    docstring's bound holds, which keeps calibration's choice the oracle's.
    The row is checked, sorted and scanned once.

    The input is checked as `calibrate_scale` checks it per tensor, and
    must be non-empty and not degenerate (ValueError). Of any length, but
    calibration itself scans only rows longer than `direct_cutoff(bits)`,
    and only for those (n > 4 * 2^b) does the module docstring derive the
    slack.
    """
    bits = _check_family_and_bits(family, bits)
    values = np.asarray(values, dtype=np.float64)
    _check_per_tensor(values, family)
    if values.size == 0:
        raise ValueError("the calibration scan needs at least one value, got an empty array")
    row = values.reshape(1, -1)
    xs = _sorted_rows(row)
    live, grid = _candidate_grid(xs[:, 0], xs[:, -2], family, bits)
    if not live[0]:
        cause = "constant values" if family == "uniform" else "every value zero"
        raise ValueError(
            f"degenerate {family} input ({cause} or nearly so): every candidate scale "
            "is zero in float64, so there is nothing to scan"
        )
    sse, slack, windowed = _scan_scores(xs, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = row.shape[1] * _exact_mse(row, grid)
        use = np.abs(sse - exact) / slack
    finite = np.isfinite(sse) & np.isfinite(slack) & np.isfinite(exact)
    shortlist = np.flatnonzero(_shortlist(sse, slack)[0])
    return shortlist, bool(windowed[0]), float(use[finite].max(initial=0.0))


def calibrate_scale(x: np.ndarray, family: str, bits: int, granularity: str):
    """The lattice of `family` minimizing reconstruction MSE, per tensor or per channel.

    Per tensor, over all elements: `UniformParams` or `LogSqrt2Params` with
    scalar fields, equal, ties included, to quantizing the values under
    each of the 141 candidates and keeping the last minimum
    (oracle.grid_calibrate). Short input is scored under every candidate,
    longer input only under the candidates the prefix-sum scan cannot
    separate. Empty input, and input whose smallest candidate scale is zero
    in float64, give degenerate unit-scale params.

    Per channel, uniform only: one `UniformParams` whose scale, float64
    zero point and degenerate flag are (d, 1) columns and whose bits is an
    int; row i holds what per-tensor calibration gives for row i alone.
    The family, then the bit width, then the granularity, then finiteness
    are checked, and log-sqrt2 input must be nonnegative. Finite values
    whose range overflows float64 would give an infinite scale, and raise
    FloatingPointError instead, naming the row per channel.
    """
    bits = _check_family_and_bits(family, bits)
    x = np.asarray(x, dtype=np.float64)
    per_channel = granularity == "per_channel"
    if granularity == "per_tensor":
        _check_per_tensor(x, family)
    elif not per_channel:
        raise ValueError(f"unknown granularity {granularity!r}")
    elif family != "uniform":
        raise ValueError("per_channel calibration is uniform only")
    elif x.ndim != 2:
        raise ValueError("per_channel calibration expects a 2-D weight matrix")
    else:
        check_finite(x, per_row=True)
    lattice = _calibrate_rows(x if per_channel else x.reshape(1, -1), family, bits)
    overflow = np.flatnonzero(np.isinf(lattice.scale[:, 0]))
    if overflow.size:
        where = f"row {overflow[0]}: " if per_channel else ""
        raise FloatingPointError(
            f"{where}the values' range overflows float64, so the calibrated {family} scale is inf"
        )
    return lattice if per_channel else row_params(lattice)[0]


def quantize_with_scheme(x: np.ndarray, params, codes: bool = True):
    """Quantize x under calibrated params; returns (codes, dequantized).

    One call to `quantize`. Per-channel params (fields of (d, 1) columns)
    need a 2-D x of d rows. x must be finite (NonFiniteInputError, naming
    the row for per-channel params). With codes=False the codes are not
    formed and come back as None, and the dequantized values are bit for
    bit the same.
    """
    x = np.asarray(x, dtype=np.float64)
    per_channel = bool(np.ndim(params.scale))
    if per_channel and (x.ndim != 2 or x.shape[0] != len(params.scale)):
        raise ValueError(
            f"per_channel params with {len(params.scale)} channels cannot "
            f"quantize shape {x.shape}"
        )
    check_finite(x, per_row=per_channel)
    return quantize(x, params, codes)
