"""Uniform affine and log-sqrt2 quantizers with MSE grid calibration.

Uniform codes are clip(round(x / s) + z, 0, 2^b - 1) with dequantization
s * (codes - z); rounding is always half-to-even. The log-sqrt2 quantizer
covers post-softmax activations: codes are clip(round(-2 * log2(x / s)),
0, 2^b - 1) and dequantize to s * 2^floor(-q / 2) * ((sqrt(2) - 1) * odd(q)
+ 1), so even codes land on powers of two and odd codes halfway between
them in log space.

Calibration picks, from 141 candidate scales, the one whose lattice
minimizes reconstruction MSE. Codes are monotone in x, so each candidate
splits the sorted values into 2^b contiguous bins, and a bin's squared
error follows from its count, sum x and sum x^2. One sort and two prefix
sums therefore score every candidate with (141, 2^b - 1) binary searches;
only candidates whose approximate score is within a float error bound of
the best are quantized in full and compared, which keeps the choice equal
to the brute-force grid (oracle.grid_calibrate), ties included.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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


def uniform_codes(x: np.ndarray, params: UniformParams, rounding: str = "nearest") -> np.ndarray:
    """Integer codes of x. rounding selects nearest (half-to-even), floor, or ceil."""
    x = np.asarray(x, dtype=np.float64)
    t = x / params.scale
    if rounding == "nearest":
        t = np.rint(t)
    elif rounding == "floor":
        t = np.floor(t)
    elif rounding == "ceil":
        t = np.ceil(t)
    else:
        raise ValueError(f"unknown rounding {rounding!r}")
    qmax = (1 << params.bits) - 1
    return np.clip(t.astype(np.int64) + params.zero_point, 0, qmax)


def dequantize_uniform(codes: np.ndarray, params: UniformParams) -> np.ndarray:
    return params.scale * (np.asarray(codes, dtype=np.int64) - params.zero_point).astype(np.float64)


def row_lattice(params: Sequence[UniformParams]) -> UniformParams:
    """The lattices of a (d, D) block's rows, as params whose fields are (d, 1) columns.

    `uniform_codes` and `dequantize_uniform` broadcast them: row i gets the
    same elementwise operations, bit for bit, as `params[i]` on that row alone.
    """
    return UniformParams(
        scale=np.array([p.scale for p in params], dtype=np.float64)[:, None],
        zero_point=np.array([p.zero_point for p in params], dtype=np.int64)[:, None],
        bits=np.array([p.bits for p in params], dtype=np.int64)[:, None],
    )


def quantize_uniform(x: np.ndarray, params: UniformParams):
    """Return (codes, dequantized values) on the lattice {s * (q - z)}."""
    codes = uniform_codes(x, params)
    return codes, dequantize_uniform(codes, params)


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


class NonFiniteInputError(ValueError):
    """Calibration input holds NaN or +/-Inf.

    `index` locates the first bad element in the array as passed; `row` is
    the channel for per-channel calibration and None otherwise; `path` is
    the tensor file the array was read from, when it came from one.
    """

    def __init__(self, value: float, index: tuple, row: int | None = None, path=None):
        self.index = index
        self.row = row
        self.path = path
        where = f"index {index}" if row is None else f"row {row}, column {index[-1]}"
        source = "" if path is None else f" in {path}"
        super().__init__(f"non-finite calibration value {value} at {where}{source}")


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


def _candidate_sse(xs, p1, p2, edges, levels):
    """Approximate SSE of every candidate lattice from sorted prefix sums.

    xs is sorted and p1/p2 are the prefix sums of x and x^2 with a leading
    zero. Row c of `edges` holds the ascending bin edges of candidate c and
    row c of `levels` the dequantized value of each of its bins, so a bin's
    SSE is S2 - 2 d S1 + n d^2. Also returns, per candidate, how far the
    values within _EDGE_WINDOW of an edge can move its SSE: such a value
    belongs to one of the two adjacent bins, and moving x from level a to
    level b changes its squared error by (b - a)(a + b - 2x).
    """
    n = xs.size
    width = _EDGE_WINDOW * np.abs(edges)
    lo = np.searchsorted(xs, edges - width, side="left")
    hi = np.searchsorted(xs, edges + width, side="right")
    rows = edges.shape[0]
    bounds = np.hstack(
        [np.zeros((rows, 1), dtype=np.int64), lo, np.full((rows, 1), n, dtype=np.int64)]
    )
    count = np.diff(bounds, axis=1)
    s1 = np.diff(p1[bounds], axis=1)
    s2 = np.diff(p2[bounds], axis=1)
    sse = (s2 - 2.0 * levels * s1 + count * levels * levels).sum(axis=1)
    below, above = levels[:, :-1], levels[:, 1:]
    swing = np.abs(above - below) * (np.abs(below + above - 2.0 * edges) + 2.0 * width)
    return sse, ((hi - lo) * swing).sum(axis=1)


def _shortlist(values: np.ndarray, edges: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Candidates that can attain the smallest exact MSE, ascending.

    Each fast SSE is within `slack` of n times the exact evaluator's MSE:
    the first term bounds the rounding of the prefix sums, the per-bin
    sums and the exact evaluator itself (B bounds |x| and |level|), the
    second gradual underflow, the third the values the scan cannot place
    (doubled to cover its own rounding). A candidate whose lower end lies
    above the smallest upper end is strictly worse than the exact optimum,
    so the shortlist holds every candidate tied at it. If the scan
    overflows, every candidate is kept.
    """
    n = values.size
    xs = np.sort(values)
    with np.errstate(over="ignore", invalid="ignore"):
        p1 = np.zeros(n + 1)
        np.cumsum(xs, out=p1[1:])
        p2 = np.zeros(n + 1)
        np.square(xs, out=p2[1:])
        np.cumsum(p2[1:], out=p2[1:])
        sse, unplaced = _candidate_sse(xs, p1, p2, edges, levels)
        bound = max(abs(float(xs[0])), abs(float(xs[-1])), float(np.abs(levels).max()))
        slack = (
            16.0 * n * _EPS * (p2[-1] + n * bound * bound)
            + 16.0 * n * _TINY
            + 2.0 * unplaced
        )
    if not (np.isfinite(sse).all() and np.isfinite(slack).all()):
        return np.arange(edges.shape[0])
    return np.flatnonzero(sse - slack <= (sse + slack).min())


def _last_minimum(shortlist: np.ndarray, exact_mse) -> int:
    # ties go to the larger scale: ascending candidates with <= replacement
    if shortlist.size == 1:
        return int(shortlist[0])
    best, best_mse = None, None
    for c in shortlist:
        mse = exact_mse(int(c))
        if best_mse is None or mse <= best_mse:
            best, best_mse = int(c), mse
    return best


def _exact_mse(x: np.ndarray, params) -> float:
    if isinstance(params, UniformParams):
        _, deq = quantize_uniform(x, params)
    else:
        _, deq = quantize_log_sqrt2(x, params)
    return float(np.mean((x - deq) ** 2))


def _uniform_candidates(values: np.ndarray, bits: int):
    """Scales, zero-points, bin edges and levels of the 141 uniform candidates.

    Code k holds x with x / s in [k - z - 1/2, k - z + 1/2), so the edges
    sit at (k - z - 1/2) s, and saturation is the first and last bin.
    """
    lo, hi = float(values.min()), float(values.max())
    qmax = (1 << bits) - 1
    scales = ALPHA_GRID * ((hi - lo) / qmax)
    zeros = np.clip(np.rint(-lo / scales), 0, qmax).astype(np.int64)
    steps = (np.arange(qmax + 1) - zeros[:, None]).astype(np.float64)
    return scales, zeros, scales[:, None] * (steps[:, 1:] - 0.5), scales[:, None] * steps


def _log_sqrt2_candidates(values: np.ndarray, bits: int):
    """Scales, bin edges and levels of the 141 log-sqrt2 candidates.

    Codes fall as x rises; code q holds -2 log2(x / s) in
    [q - 1/2, q + 1/2), so in ascending x the bins run from code 2^b - 1
    (which also takes zero) down to code 0, with edges s 2^(-(q + 1/2) / 2).
    """
    qmax = (1 << bits) - 1
    scales = ALPHA_GRID * float(values.max())
    codes = np.arange(qmax, -1, -1)
    unit = dequantize_log_sqrt2(codes, LogSqrt2Params(scale=1.0, bits=bits))
    edges = 2.0 ** (-(codes[1:] + 0.5) / 2.0)
    return scales, scales[:, None] * edges, scales[:, None] * unit


def calibration_shortlist(values: np.ndarray, family: str, bits: int) -> np.ndarray:
    """Indices into ALPHA_GRID that calibration re-scores exactly.

    For finite, non-degenerate input of either family; a shortlist of one
    is the choice itself.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if family == "uniform":
        _, _, edges, levels = _uniform_candidates(values, bits)
    else:
        _, edges, levels = _log_sqrt2_candidates(values, bits)
    return _shortlist(values, edges, levels)


def calibrate_uniform(values: np.ndarray, bits: int) -> UniformParams:
    """Uniform scale/zero-point minimizing reconstruction MSE over the grid.

    Equal, ties included, to quantizing the values under each of the 141
    candidates and keeping the last minimum (oracle.grid_calibrate): only
    the candidates the prefix-sum scan cannot separate are quantized.
    Empty input, and a range whose smallest candidate scale is zero in
    float64 (constant input included), give degenerate unit-scale params.
    """
    values = np.asarray(values, dtype=np.float64)
    check_finite(values)
    values = values.ravel()
    if bits < 2:
        raise ValueError("bit width must be >= 2")
    qmax = (1 << bits) - 1
    if values.size == 0 or ALPHA_GRID[0] * ((values.max() - values.min()) / qmax) == 0.0:
        return UniformParams(scale=1.0, zero_point=0, bits=bits, degenerate=True)
    scales, zeros, edges, levels = _uniform_candidates(values, bits)

    def candidate(c):
        return UniformParams(scale=float(scales[c]), zero_point=int(zeros[c]), bits=bits)

    best = _last_minimum(
        _shortlist(values, edges, levels), lambda c: _exact_mse(values, candidate(c))
    )
    return candidate(best)


def calibrate_log_sqrt2(values: np.ndarray, bits: int) -> LogSqrt2Params:
    """Log-sqrt2 scale minimizing reconstruction MSE over the grid (as uniform).

    Degenerate when the smallest candidate scale (half the maximum) is zero.
    """
    values = np.asarray(values, dtype=np.float64)
    check_finite(values)
    values = values.ravel()
    if bits < 2:
        raise ValueError("bit width must be >= 2")
    if values.size and float(values.min()) < 0.0:
        raise ValueError("log_sqrt2 calibration requires nonnegative inputs")
    if values.size == 0 or ALPHA_GRID[0] * values.max() == 0.0:
        return LogSqrt2Params(scale=1.0, bits=bits, degenerate=True)
    scales, edges, levels = _log_sqrt2_candidates(values, bits)

    def candidate(c):
        return LogSqrt2Params(scale=float(scales[c]), bits=bits)

    best = _last_minimum(
        _shortlist(values, edges, levels), lambda c: _exact_mse(values, candidate(c))
    )
    return candidate(best)


def calibrate_scale(x: np.ndarray, family: str, bits: int, granularity: str) -> QuantScheme:
    """Calibrate a scheme: per-tensor over all elements, per-channel over rows."""
    x = np.asarray(x, dtype=np.float64)
    if granularity == "per_tensor":
        if family == "uniform":
            params = (calibrate_uniform(x, bits),)
        elif family == "log_sqrt2":
            params = (calibrate_log_sqrt2(x, bits),)
        else:
            raise ValueError(f"unknown family {family!r}")
    elif granularity == "per_channel":
        if family != "uniform":
            raise ValueError("per_channel calibration is uniform only")
        if x.ndim != 2:
            raise ValueError("per_channel calibration expects a 2-D weight matrix")
        check_finite(x, per_row=True)
        params = tuple(calibrate_uniform(row, bits) for row in x)
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    return QuantScheme(family=family, granularity=granularity, bits=bits, params=params)


def quantize_with_scheme(x: np.ndarray, scheme: QuantScheme):
    """Quantize x under a calibrated scheme; returns (codes, dequantized)."""
    x = np.asarray(x, dtype=np.float64)
    if scheme.granularity == "per_tensor":
        p = scheme.params[0]
        if scheme.family == "uniform":
            return quantize_uniform(x, p)
        return quantize_log_sqrt2(x, p)
    if x.ndim != 2 or x.shape[0] != len(scheme.params):
        raise ValueError(
            f"per_channel scheme with {len(scheme.params)} channels cannot "
            f"quantize shape {x.shape}"
        )
    return quantize_uniform(x, row_lattice(scheme.params))
