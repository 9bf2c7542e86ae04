"""Uniform affine and log-sqrt2 quantizers with MSE grid calibration.

Uniform codes are clip(round(x / s) + z, 0, 2^b - 1) with dequantization
s * (codes - z); rounding is always half-to-even. The log-sqrt2 quantizer
covers post-softmax activations: codes are clip(round(-2 * log2(x / s)),
0, 2^b - 1) and dequantize to s * 2^floor(-q / 2) * ((sqrt(2) - 1) * odd(q)
+ 1), so even codes land on powers of two and odd codes halfway between
them in log space.

Calibration (`calibrate`, one function for both families) picks, from 141
candidate scales, the one whose lattice minimizes reconstruction MSE. The
candidates of either family come from one grid (`_candidate_grid`): their
params, bin edges and levels. Codes are monotone in x, so each candidate
splits the sorted values into 2^b contiguous bins, and a bin's squared
error follows from its count, sum x and sum x^2. Calibration scans a
block of rows at a time (per-tensor input is one row; per-channel weights
give as many rows per block as fit a fixed byte budget): one sort and two
prefix sums per row, every candidate's grid, scores and error bounds as
(rows, 141, 2^b) arrays, and one binary search per row for the edges.
Only candidates whose approximate score is within a float error bound of
the best are quantized in full and compared, which keeps the choice equal
to the brute-force grid (oracle.grid_calibrate), ties included, and each
row's choice equal to calibrating that row alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# scale candidates alpha * s_maxabs, alpha = 0.500 .. 1.200 step 0.005
ALPHA_GRID = np.arange(100, 241, dtype=np.float64) / 200.0

# widest bit width a manifest or run config may ask for: calibration builds
# (141, 2^b) candidate arrays, and code files hold int32
MAX_BITS = 16

FAMILIES = ("uniform", "log_sqrt2")
GRANULARITIES = ("per_tensor", "per_channel")


@dataclass(frozen=True)
class UniformParams:
    scale: float
    zero_point: int
    bits: int
    degenerate: bool = False


@dataclass(frozen=True)
class LogSqrt2Params:
    scale: float
    bits: int
    degenerate: bool = False


@dataclass(frozen=True)
class QuantScheme:
    """Calibrated quantizer family plus one params entry per granule."""

    family: str
    granularity: str
    bits: int
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.family == "log_sqrt2" and self.granularity == "per_channel":
            raise ValueError("log_sqrt2 is only used per tensor")
        if self.granularity == "per_tensor" and len(self.params) != 1:
            raise ValueError("per_tensor scheme must hold exactly one params entry")


_ROUNDINGS = {"nearest": np.rint, "floor": np.floor, "ceil": np.ceil}


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


def uniform_codes(x: np.ndarray, params: UniformParams, rounding: str = "nearest") -> np.ndarray:
    """Integer codes of x. rounding selects nearest (half-to-even), floor, or ceil."""
    if rounding not in _ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    t = lattice_quotient(x, params)
    return clip_index(_ROUNDINGS[rounding](t, out=t), params).astype(np.int64)


def dequantize_uniform(codes: np.ndarray, params: UniformParams) -> np.ndarray:
    return dequantize_index(np.asarray(codes, dtype=np.int64).astype(np.float64), params)


def row_lattice(params: Sequence[UniformParams]) -> UniformParams:
    """The lattices of a (d, D) block's rows, as params whose fields are (d, 1) columns.

    `uniform_codes` and `dequantize_uniform` broadcast them: row i gets the
    same elementwise operations, bit for bit, as `params[i]` on that row alone.
    Zero points are float64, the type the lattice arithmetic runs in.
    """
    return UniformParams(
        scale=np.array([p.scale for p in params], dtype=np.float64)[:, None],
        zero_point=np.array([p.zero_point for p in params], dtype=np.float64)[:, None],
        bits=np.array([p.bits for p in params], dtype=np.int64)[:, None],
    )


def quantize_uniform(x: np.ndarray, params: UniformParams):
    """Return (codes, dequantized values) on the lattice {s * (q - z)}.

    One float buffer: the quotient is rounded, shifted and clipped in place,
    cast once for the codes, then dequantized in place.
    """
    t = lattice_quotient(x, params)
    t = clip_index(np.rint(t, out=t), params)
    return t.astype(np.int64), dequantize_index(t, params)


def log_sqrt2_codes(x: np.ndarray, params: LogSqrt2Params) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(x.min()) < 0.0:
        raise ValueError("log_sqrt2 quantizer requires nonnegative inputs")
    qmax = (1 << params.bits) - 1
    # zero and underflowing inputs have log2 = -inf: clipped to the largest
    # code before the integer cast
    with np.errstate(divide="ignore"):
        codes = np.rint(-2.0 * np.log2(x / params.scale))
    return np.clip(codes, 0, qmax).astype(np.int64)


def dequantize_log_sqrt2(codes: np.ndarray, params: LogSqrt2Params) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    exponent = np.floor_divide(-codes, 2)
    odd = (codes % 2).astype(np.float64)
    return params.scale * np.ldexp(1.0, exponent) * ((SQRT2 - 1.0) * odd + 1.0)


def quantize_log_sqrt2(x: np.ndarray, params: LogSqrt2Params):
    codes = log_sqrt2_codes(x, params)
    return codes, dequantize_log_sqrt2(codes, params)


def quantize(x: np.ndarray, params):
    """(codes, dequantized values) of x under uniform or log-sqrt2 params."""
    if isinstance(params, LogSqrt2Params):
        return quantize_log_sqrt2(x, params)
    return quantize_uniform(x, params)


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
# About ten such arrays are live at once, so the scan's working set stays
# under a megabyte below 8 bits whatever the number of rows.
_BLOCK_BYTES = 1 << 16


def _block_height(bits: int) -> int:
    """Rows per block of the calibration scan at a bit width."""
    return max(1, _BLOCK_BYTES // (8 * ALPHA_GRID.size << bits))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a (rows, n) block ascending, then +inf, as (rows, n + 1)."""
    n = rows.shape[1]
    xs = np.empty((rows.shape[0], n + 1))
    xs[:, n] = np.inf
    xs[:, :n] = rows
    xs[:, :n].sort(axis=1)
    return xs


def _place_edges(xs, edges, levels):
    """Where every candidate's bin edges fall among the sorted values of its row.

    Arguments as for _candidate_sse. Returns (at, unplaced, windowed):
    at[r, c] holds flat indices into xs, and into any other (rows, n + 1)
    array, of the bounds of row r's candidate c's bins: the row's start,
    the first value at or above each edge's window, and the row's end.

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
    at = np.empty((rows, cands, n_edges + 2), dtype=np.int64)
    at[:, :, 0] = 0
    at[:, :, -1] = n
    lo = at[:, :, 1:-1]
    for r in range(rows):
        lo[r] = np.searchsorted(xs[r, :n], edges[r] - width[r], side="left")
    start = np.arange(rows) * (n + 1)
    at += start[:, None, None]
    upper = edges + width
    # xs ends each row with +inf, so a window past the row's last value holds none
    windowed = (xs.ravel()[lo] <= upper).any(axis=(1, 2))
    unplaced = np.zeros((rows, cands))
    for r in np.flatnonzero(windowed):
        hi = np.searchsorted(xs[r, :n], upper[r], side="right") + start[r]
        below, above = levels[r, :, :-1], levels[r, :, 1:]
        swing = np.abs(above - below) * (
            np.abs(below + above - 2.0 * edges[r]) + 2.0 * width[r]
        )
        unplaced[r] = ((hi - lo[r]) * swing).sum(axis=1)
    return at, unplaced, windowed


def _candidate_sse(xs, p1, p2, edges, levels):
    """Approximate SSE of every candidate lattice of each row of a block.

    xs comes from _sorted_rows, p1 and p2 are the row-wise prefix sums of
    x and x^2 with a leading zero. edges[r, c] holds the ascending bin
    edges of row r's candidate c and levels[r, c] the dequantized value of
    each of its bins. Codes are monotone in x, so a candidate splits the
    sorted values into contiguous bins, and a bin's SSE is
    S2 - 2 d S1 + n d^2 from the prefix sums where one binary search per
    row puts the edges. Also returns `unplaced` and `windowed` of
    _place_edges.
    """
    at, unplaced, windowed = _place_edges(xs, edges, levels)
    count = at[:, :, 1:] - at[:, :, :-1]
    s1 = p1.ravel()[at]
    s1 = s1[:, :, 1:] - s1[:, :, :-1]
    s2 = p2.ravel()[at]
    s2 = s2[:, :, 1:] - s2[:, :, :-1]
    sse = (s2 - 2.0 * levels * s1 + count * levels * levels).sum(axis=2)
    return sse, unplaced, windowed


def _shortlists(
    xs: np.ndarray, edges: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which candidates of each row can attain the row's smallest exact MSE.

    Arguments as for _candidate_sse. Returns a (rows, 141) mask and the
    rows that ran the upper edge search (see _place_edges). Each fast
    SSE is within `slack` of n times the exact evaluator's MSE: the first
    term bounds the rounding of the prefix sums, the per-bin sums and the
    exact evaluator itself (B bounds |x| and |level|), the second gradual
    underflow, the third the values the scan cannot place (doubled to
    cover its own rounding). A candidate whose lower end lies above the
    smallest upper end is strictly worse than the exact optimum, so a row's
    mask holds every candidate tied at it. A row whose scan overflows keeps
    every candidate.
    """
    rows, n = xs.shape[0], xs.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        p1 = np.zeros((rows, n + 1))
        np.cumsum(xs[:, :n], axis=1, out=p1[:, 1:])
        p2 = np.zeros((rows, n + 1))
        np.square(xs[:, :n], out=p2[:, 1:])
        np.cumsum(p2[:, 1:], axis=1, out=p2[:, 1:])
        sse, unplaced, windowed = _candidate_sse(xs, p1, p2, edges, levels)
        # values and levels ascend, so the ends hold the largest magnitudes
        bound = np.maximum(
            np.abs(xs[:, : n : max(n - 1, 1)]).max(axis=1),
            np.abs(levels[:, :, :: levels.shape[2] - 1]).max(axis=(1, 2)),
        )
        slack = (16.0 * n * _EPS * (p2[:, -1] + n * bound * bound) + 16.0 * n * _TINY)[
            :, None
        ] + 2.0 * unplaced
        keep = sse - slack <= (sse + slack).min(axis=1, keepdims=True)
    keep[~(np.isfinite(sse).all(axis=1) & np.isfinite(slack).all(axis=1))] = True
    return keep, windowed


def _last_minimum(values: np.ndarray, shortlist: np.ndarray, params):
    """params(c) of the shortlisted candidate c that quantizes values with least MSE.

    The MSE is computed as oracle.grid_calibrate computes it, and ties go to
    the larger scale: ascending candidates with <= replacement.
    """
    if shortlist.size == 1:
        return params(int(shortlist[0]))
    best, best_mse = None, None
    for c in shortlist:
        _, deq = quantize(values, params(int(c)))
        mse = float(np.mean((values - deq) ** 2))
        if best_mse is None or mse <= best_mse:
            best, best_mse = int(c), mse
    return params(best)


def _candidate_grid(xs: np.ndarray, family: str, bits: int):
    """The 141 candidate lattices of one family for each row of xs.

    xs is (rows, n), n >= 1, each row ascending. Returns (live, params,
    edges, levels). `live` marks the rows whose smallest candidate scale is
    nonzero in float64; the others (constant uniform rows, all-zero
    log-sqrt2 rows) are degenerate and absent from the rest. params(i, c)
    builds candidate c of the i-th live row, edges[i, c] holds its
    ascending bin edges and levels[i, c] the dequantized value of each bin.

    Uniform candidates scale max - min over 2^b - 1. Code k holds x with
    x / s in [k - z - 1/2, k - z + 1/2), so the edges sit at (k - z - 1/2) s,
    and saturation is the first and last bin. Log-sqrt2 candidates scale
    the maximum. Their codes fall as x rises; code q holds -2 log2(x / s) in
    [q - 1/2, q + 1/2), so in ascending x the bins run from code 2^b - 1
    (which also takes zero) down to code 0, with edges s 2^(-(q + 1/2) / 2).
    """
    qmax = (1 << bits) - 1
    lo = xs[:, 0]
    span = (xs[:, -1] - lo) / qmax if family == "uniform" else xs[:, -1]
    live = ALPHA_GRID[0] * span != 0.0
    if not live.all():
        lo, span = lo[live], span[live]
    scales = ALPHA_GRID * span[:, None]
    if family == "uniform":
        zeros = np.minimum(np.maximum(np.rint(-lo[:, None] / scales), 0.0), qmax)
        steps = np.arange(qmax + 1.0) - zeros[:, :, None]

        def params(i, c):
            return UniformParams(
                scale=float(scales[i, c]), zero_point=int(zeros[i, c]), bits=bits
            )

        edges = scales[:, :, None] * (steps[:, :, 1:] - 0.5)
        return live, params, edges, scales[:, :, None] * steps
    codes = np.arange(qmax, -1, -1)
    unit = dequantize_log_sqrt2(codes, LogSqrt2Params(scale=1.0, bits=bits))
    edges = 2.0 ** (-(codes[1:] + 0.5) / 2.0)

    def params(i, c):
        return LogSqrt2Params(scale=float(scales[i, c]), bits=bits)

    return live, params, scales[:, :, None] * edges, scales[:, :, None] * unit


def _degenerate(family: str, bits: int) -> UniformParams | LogSqrt2Params:
    if family == "uniform":
        return UniformParams(scale=1.0, zero_point=0, bits=bits, degenerate=True)
    return LogSqrt2Params(scale=1.0, bits=bits, degenerate=True)


def _calibrate_rows(x: np.ndarray, family: str, bits: int) -> list:
    """Calibrated params of each row of a finite 2-D array, scanned in row blocks."""
    d, n = x.shape
    if n == 0:
        return [_degenerate(family, bits)] * d
    height = _block_height(bits)
    out = []
    for start in range(0, d, height):
        rows = x[start : start + height]
        xs = _sorted_rows(rows)
        live, params, edges, levels = _candidate_grid(xs[:, :n], family, bits)
        if not live.all():
            xs = xs[live]
        keep, _ = _shortlists(xs, edges, levels)
        block = [_degenerate(family, bits)] * rows.shape[0]
        for i, r in enumerate(np.flatnonzero(live)):
            block[r] = _last_minimum(rows[r], np.flatnonzero(keep[i]), partial(params, i))
        out += block
    return out


def calibration_scan(values: np.ndarray, family: str, bits: int) -> tuple[np.ndarray, bool]:
    """What the calibration scan sees of the values, as one row.

    Returns the indices into ALPHA_GRID that calibration re-scores exactly
    (a shortlist of one is the choice itself) and whether some value lies
    within the edge window of some candidate, so that the scan searched the
    upper window ends. For finite, non-degenerate input of either family.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    xs = _sorted_rows(values[None, :])
    _, _, edges, levels = _candidate_grid(xs[:, :-1], family, bits)
    keep, windowed = _shortlists(xs, edges, levels)
    return np.flatnonzero(keep[0]), bool(windowed[0])


def _check_bits(bits: int) -> None:
    if bits < 2:
        raise ValueError("bit width must be >= 2")


def calibrate(values: np.ndarray, family: str, bits: int) -> UniformParams | LogSqrt2Params:
    """Scale (and uniform zero-point) of `family` minimizing reconstruction MSE.

    Equal, ties included, to quantizing the values under each of the 141
    candidates and keeping the last minimum (oracle.grid_calibrate): only
    the candidates the prefix-sum scan cannot separate are quantized.
    Empty input, and input whose smallest candidate scale is zero in
    float64, give degenerate unit-scale params. Log-sqrt2 input must be
    nonnegative.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    values = np.asarray(values, dtype=np.float64)
    check_finite(values)
    values = values.ravel()
    _check_bits(bits)
    if family == "log_sqrt2" and values.size and float(values.min()) < 0.0:
        raise ValueError("log_sqrt2 calibration requires nonnegative inputs")
    return _calibrate_rows(values[None, :], family, bits)[0]


def calibrate_scale(x: np.ndarray, family: str, bits: int, granularity: str) -> QuantScheme:
    """Calibrate a scheme: per-tensor over all elements, per-channel over rows.

    Per-channel rows are calibrated independently, each to what `calibrate`
    gives for that row alone; they are scanned a block of rows at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    if granularity == "per_tensor":
        params = (calibrate(x, family, bits),)
    elif granularity == "per_channel":
        if family != "uniform":
            raise ValueError("per_channel calibration is uniform only")
        if x.ndim != 2:
            raise ValueError("per_channel calibration expects a 2-D weight matrix")
        check_finite(x, per_row=True)
        _check_bits(bits)
        params = tuple(_calibrate_rows(x, family, bits))
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    return QuantScheme(family=family, granularity=granularity, bits=bits, params=params)


def quantize_with_scheme(x: np.ndarray, scheme: QuantScheme):
    """Quantize x under a calibrated scheme; returns (codes, dequantized)."""
    x = np.asarray(x, dtype=np.float64)
    if scheme.granularity == "per_tensor":
        return quantize(x, scheme.params[0])
    if x.ndim != 2 or x.shape[0] != len(scheme.params):
        raise ValueError(
            f"per_channel scheme with {len(scheme.params)} channels cannot "
            f"quantize shape {x.shape}"
        )
    return quantize_uniform(x, row_lattice(scheme.params))
