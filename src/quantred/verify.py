"""Self-check suites behind the `verify` subcommand.

Each suite exercises one invariant family against the oracle module:
proxy equality with the Monte Carlo error over the batch, refinement
dominance versus exhaustive enumeration and every single flip, analytic
gradients versus finite differences, ridge optimality of both closed
forms, and calibration versus the brute-force scale grid. Suites call
through the module objects (weight_quant.proxy_gradient,
weight_quant.LayerMomentCache, quantizers.calibrate_scale and friends),
the same code a run executes, so an injected fault in the engine is
visible to them.
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


def suite_proxy_fidelity(
    seed: int = 0, dim: int = 64, n: int = 10_000, draws: int = 100
) -> SuiteResult:
    """Production proxy blocks vs Monte Carlo, and exactness under exact moments.

    The proxy matrices come from `weight_quant.LayerMomentCache.proxy_matrix`
    on two batches of one distribution: N = n >= D (blocks viewed in the
    D x D Gram) and its first 3D/4 rows, N < D (blocks from the batch
    slices). Each batch takes `draws` error vectors, cycling through the
    cache's halving splits. A proxy block is E[x_s x_s^T] over the batch,
    so its proxy must equal the Monte Carlo error E[(delta x_s)^2] over the
    same batch draw by draw, up to rounding (1e-12 relative).
    """
    rng = np.random.default_rng([seed, 1])
    mu, sigma, batch = _gaussian_batch(rng, dim, n)
    exact_matrix = np.outer(mu, mu) + sigma
    thin_n = 3 * dim // 4
    pearson = {}
    mc_rel = 0.0
    exact_rel = 0.0
    for label, rows in (("full", n), ("thin", thin_n)):
        cache = weight_quant.LayerMomentCache(batch[:rows], None)
        proxies = np.empty(draws)
        mcs = np.empty(draws)
        for i in range(draws):
            lo, mid, _ = cache.splits[i % len(cache.splits)]
            delta = rng.normal(0.0, 0.1, mid - lo)
            proxies[i] = weight_quant.proxy_value(delta, cache.proxy_matrix(lo, mid))
            mcs[i] = oracle.mc_output_error(delta, batch[:rows, lo:mid])
            mc_rel = max(mc_rel, float(abs(proxies[i] - mcs[i]) / mcs[i]))
            analytic = float(
                delta @ sigma[lo:mid, lo:mid] @ delta + (delta @ mu[lo:mid]) ** 2
            )
            got = weight_quant.proxy_value(delta, exact_matrix[lo:mid, lo:mid])
            exact_rel = max(exact_rel, abs(got - analytic) / max(abs(analytic), 1e-30))
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

    `weight_quant.proxy_gradient` is the gradient refinement starts from.
    """
    rng = np.random.default_rng([seed, 3])
    max_proxy_err = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        matrix = _random_psd(rng, dim)
        delta = rng.normal(0.0, 0.5, dim)
        analytic = weight_quant.proxy_gradient(delta, matrix)
        fd = oracle.finite_diff_gradient(
            lambda v: weight_quant.proxy_value(v, matrix), delta
        )
        err = float(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
        max_proxy_err = max(max_proxy_err, err)

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
        scheme = calibrate_scale(a_fp, "uniform", 4, "per_tensor")
        _, a_q = quantize_with_scheme(a_fp, scheme)
        lam = 0.5
        delta_w = act_correct.solve_activation_correction(w, a_fp, a_q, lam)
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
    passed = max_proxy_err < 1e-6 and max_corr_err < 1e-6 and improved
    return SuiteResult(
        "gradient_checks",
        passed,
        {
            "proxy_gradient_max_rel": max_proxy_err,
            "correction_fd_max_rel": max_corr_err,
            "correction_improves": improved,
            "correction_thin_batches": thin,
        },
    )


def suite_ridge_optimality(seed: int = 0, splits: int = 20) -> SuiteResult:
    """FD gradient of the remainder objective vanishes at the cache's update.

    Each draw builds the production moment cache on a fresh batch and
    checks `remainder_update` on one of its halving splits. Draws cycle
    through the cache's two forms of the remainder system: the D_r x D_r
    one read from the D x D Gram (N >= D) or from the slices of a thin
    batch (D_r <= N < D), and the N x N sample-space one of a remainder
    wider than a thin batch (N < D_r). Four more draws take
    near-collinear batches (a rank-4 signal plus 1e-3 noise) at lambda2 =
    1e-2 and 1e-4, once in sample space and once from the moments, so the
    factored systems are ill conditioned; `max_system_cond` is the largest
    condition number of a factored system.
    """
    rng = np.random.default_rng([seed, 4])
    sample_space = 0

    def check(batch, lo, mid, hi, lam):
        """(FD residual, condition number of the factored system) of one draw."""
        cache = weight_quant.LayerMomentCache(batch, lam)
        delta_s = rng.normal(0.0, 0.2, mid - lo)
        delta_r = cache.remainder_update(lo, mid, delta_s)
        xs = batch[:, lo:mid]
        xr = batch[:, mid:hi]

        def objective(dr):
            resid = xs @ delta_s + xr @ dr
            return float(np.mean(resid**2) + lam * np.sum(dr**2))

        fd = oracle.finite_diff_gradient(objective, delta_r)
        err = float(np.max(np.abs(fd))) / (1.0 + float(np.linalg.norm(delta_s)))
        # either form of the system has eigenvalues s^2/N + lambda over the
        # min(N, D_r) singular values s of the remainder slice (times N in
        # sample space)
        eig = np.linalg.svd(xr, compute_uv=False) ** 2 / len(batch) + lam
        return err, float(eig.max() / eig.min())

    checks = []
    for i in range(splits):
        if i % 3 == 0:
            dim, n = int(rng.integers(4, 24)), 128
            nonfinal = weight_quant.halving_splits(dim)[:-1]
            lo, mid, hi = nonfinal[int(rng.integers(0, len(nonfinal)))]
        elif i % 3 == 1:
            dim = int(rng.integers(24, 64))
            lo, mid, hi = weight_quant.halving_splits(dim)[0]
            n = int(rng.integers(2, hi - mid))
            sample_space += 1
        else:
            dim = int(rng.integers(24, 64))
            nonfinal = weight_quant.halving_splits(dim)[:-1]
            lo, mid, hi = nonfinal[int(rng.integers(0, len(nonfinal)))]
            n = int(rng.integers(hi - mid, dim))
        _, _, batch = _gaussian_batch(rng, dim, n)
        checks.append(check(batch, lo, mid, hi, 0.5))
    for lam in (1e-2, 1e-4):
        for thin in (True, False):
            if thin:
                dim = int(rng.integers(24, 64))
                lo, mid, hi = weight_quant.halving_splits(dim)[0]
                n = int(rng.integers(8, hi - mid))
                sample_space += 1
            else:
                dim, n = int(rng.integers(8, 24)), 128
                lo, mid, hi = weight_quant.halving_splits(dim)[0]
            signal = rng.normal(0.0, 1.0, (n, 4)) @ rng.normal(0.0, 1.0, (4, dim))
            checks.append(check(signal + rng.normal(0.0, 1e-3, (n, dim)), lo, mid, hi, lam))
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
    48 rows of up to 64 values, enough to span several of calibration's
    row blocks at every bit width, and mix Gaussian rows with lattice,
    half-step and constant (degenerate) rows.
    """
    bits = int(rng.choice([2, 3, 4, 8]))
    qmax = (1 << bits) - 1
    n = int(np.exp(rng.uniform(0.0, np.log(max_n))))
    if kind == "per_channel":
        shape = (int(rng.integers(1, 49)), n % 64 + 1)
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

    Also reports the longest shortlist the scan left to exact re-scoring
    and how many rows held a value within an edge window, so that the scan
    searched the upper window ends.
    """
    rng = np.random.default_rng([seed, 5])
    mismatches = 0
    max_shortlist = 0
    window_rows = 0
    for i in range(instances):
        x, family, bits, granularity = calibration_instance(
            rng, CALIBRATION_KINDS[i % len(CALIBRATION_KINDS)]
        )
        got = quantizers.calibrate_scale(x, family, bits, granularity).params
        rows = x if granularity == "per_channel" else [x]
        want = tuple(oracle.grid_calibrate(row, family, bits) for row in rows)
        mismatches += int(got != want)
        for row, params in zip(rows, want):
            if not params.degenerate:
                shortlist, windowed = quantizers.calibration_scan(row, family, bits)
                max_shortlist = max(max_shortlist, shortlist.size)
                window_rows += int(windowed)
    return SuiteResult(
        "calibration",
        mismatches == 0,
        {
            "instances": instances,
            "mismatches": mismatches,
            "max_shortlist": max_shortlist,
            "window_rows": window_rows,
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
