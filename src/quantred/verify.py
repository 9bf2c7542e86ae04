"""Self-check suites behind the `verify` subcommand.

Each suite exercises one invariant family against the oracle module:
proxy fidelity versus Monte Carlo, refinement dominance versus exhaustive
enumeration and every single flip, analytic gradients versus finite
differences, and ridge optimality of both closed forms. Suites call
through the module objects (weight_quant.proxy_gradient,
weight_quant.LayerMomentCache and friends), the same code a run executes,
so an injected fault in the engine is visible to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import act_correct, oracle, weight_quant
from .moments import accumulate_moments
from .quantizers import UniformParams, calibrate_scale, quantize_with_scheme


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
    """Proxy vs Monte Carlo correlation, and exactness under exact moments."""
    rng = np.random.default_rng([seed, 1])
    mu, sigma, batch = _gaussian_batch(rng, dim, n)
    ms = accumulate_moments(batch)
    proxy_matrix = np.outer(ms.mu, ms.mu) + ms.sigma
    exact_matrix = np.outer(mu, mu) + sigma
    proxies = np.empty(draws)
    mcs = np.empty(draws)
    exact_rel = 0.0
    for i in range(draws):
        delta = rng.normal(0.0, 0.1, dim)
        proxies[i] = weight_quant.proxy_value(delta, proxy_matrix)
        mcs[i] = oracle.mc_output_error(delta, batch)
        analytic = float(delta @ sigma @ delta + (delta @ mu) ** 2)
        got = weight_quant.proxy_value(delta, exact_matrix)
        exact_rel = max(exact_rel, abs(got - analytic) / max(abs(analytic), 1e-30))
    pearson = float(np.corrcoef(proxies, mcs)[0, 1])
    passed = pearson >= 0.9 and exact_rel <= 1e-9
    return SuiteResult(
        "proxy_fidelity",
        passed,
        {"pearson_r": pearson, "exact_moments_max_rel": exact_rel, "draws": draws},
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
    """Analytic gradients against central differences; correction optimality."""
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
    for _ in range(5):
        d_out, d_in, n = 4, int(rng.integers(6, 24)), 96
        w = rng.normal(0.0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.0, 1.0, (n, d_in)) + rng.normal(0.0, 1.0, d_in)
        scheme = calibrate_scale(a_fp, "uniform", 4, "per_tensor")
        _, a_q = quantize_with_scheme(a_fp, scheme)
        lam = 0.5
        corr = act_correct.solve_activation_correction(w, a_fp, a_q, lam)
        fd = oracle.finite_diff_gradient(
            lambda dw: act_correct.activation_correction_objective(
                w, dw, a_fp, a_q, lam
            ),
            corr.delta_w,
        )
        tol_scale = 1.0 + float(np.linalg.norm(w))
        max_corr_err = max(max_corr_err, float(np.max(np.abs(fd))) / tol_scale)
        at_solution = act_correct.activation_correction_objective(
            w, corr.delta_w, a_fp, a_q, lam
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
        },
    )


def suite_ridge_optimality(seed: int = 0, splits: int = 20) -> SuiteResult:
    """FD gradient of the remainder objective vanishes at the cache's update.

    Each draw builds the production moment cache on a fresh batch and
    checks `remainder_update` on one of its halving splits.
    """
    rng = np.random.default_rng([seed, 4])
    max_err = 0.0
    for _ in range(splits):
        dim = int(rng.integers(4, 24))
        n = 128
        _, _, batch = _gaussian_batch(rng, dim, n)
        lam = 0.5
        cache = weight_quant.LayerMomentCache(batch, lam)
        lo, mid, hi = cache.splits[int(rng.integers(0, len(cache.splits) - 1))]
        delta_s = rng.normal(0.0, 0.2, mid - lo)
        delta_r = cache.remainder_update(lo, mid, delta_s)
        xs = batch[:, lo:mid]
        xr = batch[:, mid:hi]

        def objective(dr):
            resid = xs @ delta_s + xr @ dr
            return float(np.mean(resid**2) + lam * np.sum(dr**2))

        fd = oracle.finite_diff_gradient(objective, delta_r)
        err = float(np.max(np.abs(fd))) / (1.0 + float(np.linalg.norm(delta_s)))
        max_err = max(max_err, err)
    passed = max_err < 1e-6
    return SuiteResult(
        "ridge_optimality", passed, {"fd_max_rel": max_err, "splits": splits}
    )


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [
        suite_proxy_fidelity(seed),
        suite_brute_force_dominance(seed),
        suite_gradient_checks(seed),
        suite_ridge_optimality(seed),
    ]
