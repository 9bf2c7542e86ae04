"""Self-check suites behind the `verify` subcommand.

Each suite exercises one invariant family against the oracle module:
the weight loop's start proxies against the Monte Carlo error over the
batch, refinement dominance versus exhaustive enumeration and every
single flip, analytic gradients versus finite differences, ridge
optimality of both closed forms, and calibration versus the brute-force
scale grid. Suites call through the module objects
(weight_quant.init_rounding, proxy_gradient, LayerMomentCache and
RemainderRidge, quantizers.calibrate_scale and friends), the same code
a run executes, so an injected fault in the engine is visible to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import act_correct, oracle, quantizers, weight_quant
from .quantizers import (
    LogSqrt2Params,
    UniformParams,
    calibrate_scale,
    dequantize_log_sqrt2,
    dequantize_uniform,
    quantize_with_scheme,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    metrics: dict


def _gaussian_batch(rng, dim, n):
    mu = rng.normal(0.0, 1.0, dim)
    a = rng.normal(0.0, 1.0, (dim, dim))
    sigma = a @ a.T / dim + 0.1 * np.eye(dim)
    chol = np.linalg.cholesky(sigma)
    batch = rng.standard_normal((n, dim)) @ chol.T + mu
    return mu, sigma, batch


def _random_psd(rng, dim):
    mu = rng.normal(0.0, 1.0, dim)
    a = rng.normal(0.0, 1.0, (dim, dim))
    return np.outer(mu, mu) + a @ a.T / dim + 0.05 * np.eye(dim)


def _rounding_block(rng, rows, dim, bits=4):
    """(w, lattice): `rows` weight rows of `dim` values, row i on the (rows, 1) lattice's row i."""
    qmax = (1 << bits) - 1
    scale = rng.uniform(0.05, 0.3, (rows, 1))
    zero = rng.integers(0, qmax + 1, (rows, 1)).astype(np.float64)
    w = scale * (rng.uniform(-0.5, qmax + 0.5, (rows, dim)) - zero)
    return w, UniformParams(scale=scale, zero_point=zero, bits=bits)


# rows of each block whose start proxies the proxy suite scores
_PROXY_ROWS = 4


def suite_proxy_fidelity(
    seed: int = 0, dim: int = 64, n: int = 10_000, draws: int = 100
) -> SuiteResult:
    """The weight loop's start proxies vs Monte Carlo, and exactness under exact moments.

    The proxies are the per-row start proxies `proxy` that
    `weight_quant.init_rounding` builds on a block of rows, the values
    refinement and the trace start from, on the blocks of
    `weight_quant.LayerMomentCache.block` of two batches of one
    distribution: N = n >= D (blocks viewed in the D x D Gram) and its
    first 3D/4 rows, N < D (blocks from the batch slices). Each batch
    takes `draws` rows, in blocks of `_PROXY_ROWS` random rows on lattices
    of their own, cycling through the cache's halving splits; a row's
    error delta is its round-to-nearest error. A proxy block is
    E[x_s x_s^T] over the batch, so each row's proxy must equal the Monte
    Carlo error E[(delta x_s)^2] over the same batch, up to rounding
    (1e-12 relative), and the same block started on the exact-moment
    matrix must give delta Sigma delta^T + (delta mu)^2 (1e-9 relative).
    """
    rng = np.random.default_rng([seed, 1])
    mu, sigma, batch = _gaussian_batch(rng, dim, n)
    exact_matrix = np.outer(mu, mu) + sigma
    thin_n = 3 * dim // 4
    pearson = {}
    mc_rel = 0.0
    exact_rel = 0.0
    for label, rows in (("full", n), ("thin", thin_n)):
        cache = weight_quant.LayerMomentCache(batch[:rows])
        proxies, mcs = [], []
        for i, first in enumerate(range(0, draws, _PROXY_ROWS)):
            lo, mid = cache.splits[i % len(cache.splits)]
            cols = slice(lo, mid)
            w, lattice = _rounding_block(rng, min(_PROXY_ROWS, draws - first), mid - lo)
            start = weight_quant.init_rounding(w, lattice, cache.block(cols))
            exact = weight_quant.init_rounding(w, lattice, exact_matrix[cols, cols])
            for delta, proxy, got in zip(start.delta, start.proxy, exact.proxy):
                mc = oracle.mc_output_error(delta, batch[:rows, cols])
                proxies.append(proxy)
                mcs.append(mc)
                mc_rel = max(mc_rel, float(abs(proxy - mc) / mc))
                analytic = float(delta @ sigma[cols, cols] @ delta + (delta @ mu[cols]) ** 2)
                exact_rel = max(exact_rel, float(abs(got - analytic)) / max(abs(analytic), 1e-30))
        pearson[label] = float(np.corrcoef(proxies, mcs)[0, 1])
    passed = min(pearson.values()) >= 0.9 and mc_rel <= 1e-12 and exact_rel <= 1e-9
    return SuiteResult(
        "proxy_fidelity",
        passed,
        {
            "pearson_r": pearson["full"],
            "pearson_r_thin": pearson["thin"],
            "mc_max_rel": mc_rel,
            "exact_moments_max_rel": exact_rel,
            "draws": draws,
            "thin_n": thin_n,
        },
    )


def _random_rounding_instance(rng, dim, bits=4):
    qmax = (1 << bits) - 1
    scale = float(rng.uniform(0.05, 0.3))
    zero = int(rng.integers(0, qmax + 1))
    params = UniformParams(scale=scale, zero_point=zero, bits=bits)
    w = scale * (rng.uniform(-0.5, qmax + 0.5, dim) - zero)
    matrix = _random_psd(rng, dim)
    return w, params, matrix


def suite_brute_force_dominance(
    seed: int = 0, instances: int = 8, dim: int = 12
) -> SuiteResult:
    """Refinement bracketed by enumeration and nearest, ending at a single-flip optimum."""
    rng = np.random.default_rng([seed, 2])
    ok = True
    gaps = []
    stalls = 0
    for _ in range(instances):
        w, params, matrix = _random_rounding_instance(rng, dim)
        state = weight_quant.init_rounding(w, params, matrix)
        nearest = weight_quant.proxy_value(state.delta, matrix)
        refined_state, committed = weight_quant.refine_rounding(state, k=1, max_iter=100)
        refined = committed[-1]
        brute = oracle.brute_force_rounding(
            state.delta_down, state.delta_up, matrix
        ).best_proxy
        final = weight_quant.proxy_value(refined_state.delta, matrix)
        flipped = oracle.single_flip_proxies(
            refined_state.delta,
            state.delta_down,
            state.delta_up,
            state.flippable,
            matrix,
        )
        stalled = bool(flipped.min() < final - 1e-12 * final)
        stalls += int(stalled)
        scale = max(abs(nearest), 1e-30)
        ok = (
            ok
            and refined <= nearest
            and brute <= refined + 1e-9 * scale
            and not stalled
        )
        gaps.append(refined / brute if brute > 0 else 1.0)
    return SuiteResult(
        "brute_force_dominance",
        ok,
        {
            "instances": instances,
            "dim": dim,
            "single_flip_stalls": stalls,
            "gap_ratio_median": float(np.median(gaps)),
            "gap_ratio_max": float(np.max(gaps)),
        },
    )


def suite_gradient_checks(seed: int = 0) -> SuiteResult:
    """Analytic gradients against central differences; correction optimality.

    `weight_quant.proxy_gradient` is the gradient refinement starts from,
    checked in both of its forms: a slice's (D,) delta, and a (d, D) block
    of rows, the one product per split that the weight loop's
    `init_rounding` forms, checked row by row. The rest of a block's start
    that refinement reads is checked row by row too, by exact equality:
    each row's first scoring pass `score` and start proxy `proxy` against
    the same pass and delta g / 2 over the row's own slice of the block
    (`start_row_mismatches` counts the rows that differ).
    """
    rng = np.random.default_rng([seed, 3])
    # a generator of its own for the block draws keeps a seed's slice and
    # correction draws independent of them
    block_rng = np.random.default_rng([seed, 3, 1])

    def proxy_err(analytic, delta, matrix):
        fd = oracle.finite_diff_gradient(
            lambda v: weight_quant.proxy_value(v, matrix), delta
        )
        return float(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))

    max_proxy_err = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        matrix = _random_psd(rng, dim)
        delta = rng.normal(0.0, 0.5, dim)
        analytic = weight_quant.proxy_gradient(delta, matrix)
        max_proxy_err = max(max_proxy_err, proxy_err(analytic, delta, matrix))
    max_block_err = 0.0
    for _ in range(5):
        dim = int(block_rng.integers(2, 12))
        matrix = _random_psd(block_rng, dim)
        block = block_rng.normal(0.0, 0.5, (int(block_rng.integers(2, 6)), dim))
        analytic = weight_quant.proxy_gradient(block, matrix)
        for row_grad, delta in zip(analytic, block):
            max_block_err = max(max_block_err, proxy_err(row_grad, delta, matrix))

    start_rng = np.random.default_rng([seed, 3, 2])
    start_mismatches = 0
    for _ in range(5):
        d, dim = int(start_rng.integers(2, 9)), int(start_rng.integers(1, 200))
        w, lattice = _rounding_block(start_rng, d, dim)
        block = weight_quant.init_rounding(w, lattice, _random_psd(start_rng, dim))
        for row in block.rows():
            score = np.copysign(row.gradient, row.step * row.gradient + row.curvature)
            proxy = 0.5 * float(row.delta.dot(row.gradient))
            start_mismatches += int(row.score.tobytes() != score.tobytes() or row.proxy != proxy)

    max_corr_err = 0.0
    improved = True
    thin = 0
    for i in range(6):
        if i % 2 == 0:
            d_out, d_in, n = 4, int(rng.integers(6, 24)), 96
        else:
            # fewer samples than inputs: the N x N sample-space solve
            d_out, d_in = 4, int(rng.integers(24, 48))
            n = int(rng.integers(2, d_in))
            thin += 1
        w = rng.normal(0.0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.0, 1.0, (n, d_in)) + rng.normal(0.0, 1.0, d_in)
        _, a_q = quantize_with_scheme(a_fp, calibrate_scale(a_fp, "uniform", 4, "per_tensor"))
        lam = 0.5
        rhs = act_correct.correction_rhs(w, a_fp, a_q)
        delta_w = act_correct.solve_activation_correction(
            rhs, weight_quant.LayerMomentCache(a_q), lam
        )
        fd = oracle.finite_diff_gradient(
            lambda dw: act_correct.activation_correction_objective(
                w, dw, a_fp, a_q, lam
            ),
            delta_w,
        )
        tol_scale = 1.0 + float(np.linalg.norm(w))
        max_corr_err = max(max_corr_err, float(np.max(np.abs(fd))) / tol_scale)
        at_solution = act_correct.activation_correction_objective(
            w, delta_w, a_fp, a_q, lam
        )
        at_zero = act_correct.activation_correction_objective(
            w, np.zeros_like(w), a_fp, a_q, lam
        )
        improved = improved and at_solution <= at_zero
    passed = (
        max(max_proxy_err, max_block_err, max_corr_err) < 1e-6
        and improved
        and start_mismatches == 0
    )
    return SuiteResult(
        "gradient_checks",
        passed,
        {
            "proxy_gradient_max_rel": max_proxy_err,
            "proxy_gradient_block_max_rel": max_block_err,
            "start_row_mismatches": start_mismatches,
            "correction_fd_max_rel": max_corr_err,
            "correction_improves": improved,
            "correction_thin_batches": thin,
        },
    )


def suite_ridge_optimality(seed: int = 0, splits: int = 20) -> SuiteResult:
    """FD gradient of the remainder objective vanishes at the ridge's update.

    Each draw builds the production moment cache and remainder ridge on a
    fresh batch and checks the update of one of its halving splits, from
    the `RemainderRidge.updates` that the weight loop calls. Draws cycle
    through the two forms of the remainder system
    (`LayerMomentCache.ridge_system`): the
    D_r x D_r one read from the D x D Gram (N >= D) or from the slices of a
    thin batch (D_r <= N < D), and the N x N sample-space one of a remainder
    wider than a thin batch (N < D_r). Four more draws take
    near-collinear batches (a rank-4 signal plus 1e-3 noise) at lambda2 =
    1e-2 and 1e-4, once in sample space and once from the moments, so the
    factored systems are ill conditioned; `max_system_cond` is the largest
    condition number of a factored system.
    """
    rng = np.random.default_rng([seed, 4])
    sample_space = 0

    def check(batch, lo, mid, lam):
        """(FD residual, condition number of the factored system) of one draw."""
        ridge = weight_quant.RemainderRidge(weight_quant.LayerMomentCache(batch), lam)
        delta_s = rng.normal(0.0, 0.2, mid - lo)
        delta_r = ridge.updates(lo, mid, delta_s[None])[0]
        xs = batch[:, lo:mid]
        xr = batch[:, mid:]

        def objective(dr):
            resid = xs @ delta_s + xr @ dr
            return float(np.mean(resid**2) + lam * np.sum(dr**2))

        fd = oracle.finite_diff_gradient(objective, delta_r)
        err = float(np.max(np.abs(fd))) / (1.0 + float(np.linalg.norm(delta_s)))
        # either form of the system has eigenvalues s^2/N + lambda over the
        # min(N, D_r) singular values s of the remainder slice
        eig = np.linalg.svd(xr, compute_uv=False) ** 2 / len(batch) + lam
        return err, float(eig.max() / eig.min())

    checks = []
    for i in range(splits):
        if i % 3 == 0:
            dim, n = int(rng.integers(4, 24)), 128
            nonfinal = weight_quant.halving_splits(dim)[:-1]
            lo, mid = nonfinal[int(rng.integers(0, len(nonfinal)))]
        elif i % 3 == 1:
            dim = int(rng.integers(24, 64))
            lo, mid = weight_quant.halving_splits(dim)[0]
            n = int(rng.integers(2, dim - mid))
            sample_space += 1
        else:
            dim = int(rng.integers(24, 64))
            nonfinal = weight_quant.halving_splits(dim)[:-1]
            lo, mid = nonfinal[int(rng.integers(0, len(nonfinal)))]
            n = int(rng.integers(dim - mid, dim))
        _, _, batch = _gaussian_batch(rng, dim, n)
        checks.append(check(batch, lo, mid, 0.5))
    for lam in (1e-2, 1e-4):
        for thin in (True, False):
            if thin:
                dim = int(rng.integers(24, 64))
                lo, mid = weight_quant.halving_splits(dim)[0]
                n = int(rng.integers(8, dim - mid))
                sample_space += 1
            else:
                dim, n = int(rng.integers(8, 24)), 128
                lo, mid = weight_quant.halving_splits(dim)[0]
            signal = rng.normal(0.0, 1.0, (n, 4)) @ rng.normal(0.0, 1.0, (4, dim))
            checks.append(check(signal + rng.normal(0.0, 1e-3, (n, dim)), lo, mid, lam))
    max_err = max(err for err, _ in checks)
    passed = max_err < 1e-6
    return SuiteResult(
        "ridge_optimality",
        passed,
        {
            "fd_max_rel": max_err,
            "splits": len(checks),
            "sample_space_splits": sample_space,
            "max_system_cond": max(cond for _, cond in checks),
        },
    )


CALIBRATION_KINDS = (
    "gaussian",
    "float32",
    "relu",
    "lattice",
    "half_step",
    "softmax",
    "log_lattice",
    "per_channel",
)


def calibration_instance(rng, kind: str, max_n: int = 4096):
    """Seeded (values, family, bits, granularity) of one calibration kind.

    Lattice kinds lie exactly on a 2^b-level lattice, which the grid can
    reach at MSE 0; half-step values sit on the rounding edges of some
    candidates; float32 values repeat; ReLU output is about half zeros;
    n runs log-uniformly from 1 to max_n. Per-channel instances hold 1 to
    48 rows of up to twice `quantizers.direct_cutoff(bits)` values, so
    that rows are drawn on both sides of the cutoff, in several row blocks,
    at every bit width; they mix Gaussian rows with lattice, half-step and
    constant (degenerate) rows.
    """
    bits = int(rng.choice([2, 3, 4, 8]))
    qmax = (1 << bits) - 1
    n = int(np.exp(rng.uniform(0.0, np.log(max_n))))
    if kind == "per_channel":
        shape = (int(rng.integers(1, 49)), n % (2 * quantizers.direct_cutoff(bits)) + 1)
        x = rng.normal(0.0, rng.uniform(0.01, 2.0), shape)
        lattice = UniformParams(
            scale=rng.uniform(0.01, 1.0, (shape[0], 1)),
            zero_point=rng.integers(0, qmax + 1, (shape[0], 1)),
            bits=bits,
        )
        on_lattice = dequantize_uniform(rng.integers(0, qmax + 1, shape), lattice)
        row_kind = rng.integers(0, 4, (shape[0], 1))
        x = np.where(row_kind == 1, on_lattice, x)
        x = np.where(row_kind == 2, on_lattice + 0.5 * lattice.scale, x)
        x = np.where(row_kind == 3, x[:, :1], x)
        return x, "uniform", bits, "per_channel"
    if kind == "softmax":
        logits = rng.normal(0.0, rng.uniform(0.5, 4.0), (max(n // 16, 1), 16))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True), "log_sqrt2", bits, "per_tensor"
    if kind == "log_lattice":
        scale = float(rng.uniform(0.1, 2.0))
        codes = rng.integers(0, qmax + 1, n)
        x = dequantize_log_sqrt2(codes, LogSqrt2Params(scale=scale, bits=bits))
        return x, "log_sqrt2", bits, "per_tensor"
    if kind in ("lattice", "half_step"):
        p = UniformParams(
            scale=float(rng.uniform(0.01, 1.0)),
            zero_point=int(rng.integers(0, qmax + 1)),
            bits=bits,
        )
        x = dequantize_uniform(rng.integers(0, qmax + 1, n), p)
        if kind == "half_step":
            x = x + 0.5 * p.scale
        return x, "uniform", bits, "per_tensor"
    x = rng.normal(rng.normal(0.0, 1.0), rng.uniform(0.01, 3.0), n)
    if kind == "float32":
        x = x.astype(np.float32).astype(np.float64)
    elif kind == "relu":
        x = np.maximum(x, 0.0)
    return x, "uniform", bits, "per_tensor"


def suite_calibration(seed: int = 0, instances: int = 64) -> SuiteResult:
    """Shipped calibration equals the brute-force 141-point grid, ties included.

    Also reports how many rows calibration scored directly and how many it
    scanned (rows of at most and of more than `quantizers.direct_cutoff`
    values), and of the scanned rows the longest shortlist left to exact
    re-scoring, how many held a value within an edge window, so that the
    scan searched the upper window ends, and `max_bound_use`: the largest
    |scan SSE - n * exact MSE| / slack over their candidates, all three
    from one `quantizers.scan_report` call per scanned row. The shortlists
    keep the oracle's choice only while that stays below 1, so the suite
    fails if it reaches 1.
    """
    rng = np.random.default_rng([seed, 5])
    mismatches = 0
    direct_rows = 0
    scan_rows = 0
    max_shortlist = 0
    window_rows = 0
    max_bound_use = 0.0
    for i in range(instances):
        x, family, bits, granularity = calibration_instance(
            rng, CALIBRATION_KINDS[i % len(CALIBRATION_KINDS)]
        )
        lattice = quantizers.calibrate_scale(x, family, bits, granularity)
        rows = x if granularity == "per_channel" else [x]
        got = quantizers.row_params(lattice) if granularity == "per_channel" else [lattice]
        want = [oracle.grid_calibrate(row, family, bits) for row in rows]
        mismatches += int(got != want)
        for row, params in zip(rows, want):
            if np.size(row) <= quantizers.direct_cutoff(bits):
                direct_rows += 1
                continue
            scan_rows += 1
            if not params.degenerate:
                shortlist, windowed, bound_use = quantizers.scan_report(row, family, bits)
                max_shortlist = max(max_shortlist, shortlist.size)
                window_rows += int(windowed)
                max_bound_use = max(max_bound_use, bound_use)
    return SuiteResult(
        "calibration",
        mismatches == 0 and max_bound_use < 1.0,
        {
            "instances": instances,
            "mismatches": mismatches,
            "direct_rows": direct_rows,
            "scan_rows": scan_rows,
            "max_shortlist": max_shortlist,
            "window_rows": window_rows,
            "max_bound_use": max_bound_use,
        },
    )


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [
        suite_proxy_fidelity(seed),
        suite_brute_force_dominance(seed),
        suite_gradient_checks(seed),
        suite_ridge_optimality(seed),
        suite_calibration(seed),
    ]
