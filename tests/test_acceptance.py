"""Acceptance gate: one test per criterion, each a single pass/fail line.

Every test asserts its criterion at the stated tolerance and stays inside
the stated runtime budget. Statistical criteria fix their seeds so reruns
are deterministic.
"""

import json
import time
from statistics import median

import numpy as np
import pytest
from click.testing import CliRunner

from quantred.act_correct import (
    activation_correction_objective,
    solve_activation_correction,
)
from quantred.cli import main as cli_main
from quantred.oracle import (
    brute_force_rounding,
    finite_diff_gradient,
    mc_output_error,
    single_flip_proxies,
)
from quantred.pipeline import RunConfig, quantize_layer, run_ablation
from quantred.quantizers import (
    LogSqrt2Params,
    UniformParams,
    calibrate_scale,
    dequantize_log_sqrt2,
    quantize_log_sqrt2,
    quantize_uniform,
    quantize_with_scheme,
)
from quantred.synth import SynthSpec, generate_layer, write_manifest_files
from quantred.verify import suite_proxy_fidelity, suite_ridge_optimality
from quantred.weight_quant import (
    init_rounding,
    proxy_value,
    refine_rounding,
)


def _elapsed_ok(t0: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"


def test_criterion_01_quantizer_bit_exactness():
    t0 = time.perf_counter()

    p = UniformParams(scale=1.0, zero_point=0, bits=2)
    codes, deq = quantize_uniform([-0.4, 0.6, 2.7, 5.0], p)
    assert codes.tolist() == [0, 1, 3, 3]
    assert deq.tolist() == [0.0, 1.0, 3.0, 3.0]

    lp = LogSqrt2Params(scale=1.0, bits=4)
    for x, expect_code in ((1.0, 0), (0.5, 2), (2.0 ** -0.5, 1)):
        codes, deq = quantize_log_sqrt2([x], lp)
        assert codes[0] == expect_code
        assert deq[0] == x  # bit-exact round trip

    for bits in (3, 4, 8):
        lp = LogSqrt2Params(scale=1.0, bits=bits)
        all_codes = np.arange(1 << bits)
        deq = dequantize_log_sqrt2(all_codes, lp)
        again, deq2 = quantize_log_sqrt2(deq, lp)
        assert (again == all_codes).all(), f"fixed point broken at bits={bits}"
        assert (deq2 == deq).all()

    _elapsed_ok(t0, 1.0)


def test_criterion_02_proxy_fidelity():
    t0 = time.perf_counter()
    suite = suite_proxy_fidelity(seed=0, dim=64, n=10_000, draws=100)
    r = suite.metrics["pearson_r"]
    exact = suite.metrics["exact_moments_max_rel"]
    assert r >= 0.9, f"Pearson r {r:.6f} < 0.9 against Monte Carlo"
    assert exact <= 1e-9, f"exact-moment mismatch {exact:.3e} > 1e-9"
    assert suite.passed
    _elapsed_ok(t0, 30.0)


def test_criterion_03_activation_correction_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    lam = 0.5
    for _ in range(20):
        d_in = int(rng.integers(6, 65))
        d_out = int(rng.integers(2, 7))
        n = 96
        w = rng.normal(0.0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.0, 1.0, (n, d_in)) + rng.normal(0.0, 1.0, d_in)
        scheme = calibrate_scale(a_fp, "uniform", 4, "per_tensor")
        _, a_q = quantize_with_scheme(a_fp, scheme)
        delta_w = solve_activation_correction(w, a_fp, a_q, lam)

        fd = finite_diff_gradient(
            lambda dw: activation_correction_objective(w, dw, a_fp, a_q, lam),
            delta_w,
        )
        bound = 1e-6 * (1.0 + float(np.linalg.norm(w)))
        assert float(np.max(np.abs(fd))) < bound, (
            f"gradient max-norm {np.max(np.abs(fd)):.3e} >= {bound:.3e}"
        )
        at_solution = activation_correction_objective(w, delta_w, a_fp, a_q, lam)
        at_zero = activation_correction_objective(
            w, np.zeros_like(w), a_fp, a_q, lam
        )
        assert at_solution <= at_zero
    _elapsed_ok(t0, 30.0)


def test_criterion_04_rounding_refinement_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    instances = 100
    equality_count = 0
    violations = []
    gap_ratios = []
    for i in range(instances):
        dim = int(rng.integers(4, 13))
        qmax = 15
        scale = float(rng.uniform(0.05, 0.3))
        zero = int(rng.integers(0, qmax + 1))
        params = UniformParams(scale=scale, zero_point=zero, bits=4)
        w = scale * (rng.uniform(-0.5, qmax + 0.5, dim) - zero)
        mu = rng.normal(0.0, 1.0, dim)
        a = rng.normal(0.0, 1.0, (dim, dim))
        matrix = np.outer(mu, mu) + a @ a.T / dim + 0.05 * np.eye(dim)

        state = init_rounding(w, params, matrix)
        nearest = proxy_value(state.delta, matrix)
        final, committed = refine_rounding(state, k=1, max_iter=100)
        refined = committed[-1]

        # non-increasing committed sequence, on every instance
        assert all(
            b <= a_ + 1e-15 for a_, b in zip(committed, committed[1:])
        ), f"instance {i}: committed proxy sequence increased"
        # refined never above nearest rounding
        tol = 1e-12 * max(nearest, 1.0)
        assert refined <= nearest + tol, f"instance {i}: refined {refined} > nearest {nearest}"

        brute = brute_force_rounding(state.delta_down, state.delta_up, matrix).best_proxy
        assert brute <= refined + 1e-9 * max(refined, 1.0), (
            f"instance {i}: refined {refined} below the exhaustive optimum {brute}"
        )
        if brute > 0:
            gap_ratios.append(refined / brute)
        if abs(refined - nearest) <= tol:
            equality_count += 1
        # the stopping point, evaluated directly: no single flip lowers it
        final_value = proxy_value(final.delta, matrix)
        flipped = single_flip_proxies(
            final.delta, state.delta_down, state.delta_up, state.flippable, matrix
        )
        if flipped.min() < final_value - 1e-12 * final_value:
            violations.append((i, dim, final_value, float(flipped.min())))

    report = (
        f"equality held on {equality_count}/{instances} instances; "
        f"gap ratio median {median(gap_ratios):.4f}, max {max(gap_ratios):.4f}"
    )
    print(report)
    _elapsed_ok(t0, 60.0)
    # Refinement must not stop while a move it can make would help: its
    # final rounding is a single-flip optimum. Global optimality over all
    # 2^D roundings is a closest-vector problem that no polynomial
    # refinement can promise, so it is reported as the gap ratio above,
    # not asserted.
    assert not violations, (
        f"{len(violations)}/{instances} refined roundings admit a lowering single "
        f"flip (first: instance {violations[0][0]}, dim {violations[0][1]}, "
        f"proxy {violations[0][2]:.6f}, after flip {violations[0][3]:.6f}); {report}"
    )


def test_criterion_05_ridge_remainder_optimality():
    t0 = time.perf_counter()
    suite = suite_ridge_optimality(seed=0, splits=20)
    err = suite.metrics["fd_max_rel"]
    assert err < 1e-6, f"finite-difference residual {err:.3e} >= 1e-6"
    assert suite.passed
    _elapsed_ok(t0, 10.0)


def test_criterion_06_end_to_end_error_reduction():
    t0 = time.perf_counter()
    cfg = RunConfig(lambda1=0.1, lambda2=0.1, k=1)
    reductions = []
    for seed in range(20):
        spec = SynthSpec(seed=seed, dims=((64, 128),), n_samples=2048)
        w, a_fp = generate_layer(spec, 0)
        result = quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        assert result.mse["final"] < result.mse["baseline"], (
            f"seed {seed}: no strict decrease "
            f"({result.mse['final']} vs {result.mse['baseline']})"
        )
        reductions.append(result.reduction["cumulative"])
    med = median(reductions)
    assert med >= 0.15, f"median reduction {med:.4f} < 0.15 over 20 seeds"
    _elapsed_ok(t0, 300.0)


def test_criterion_07_ablation_ordering():
    t0 = time.perf_counter()
    cfg = RunConfig(lambda1=10.0, lambda2=10.0, k=1)
    finals = {}
    for seed in range(20):
        spec = SynthSpec(seed=seed, dims=((32, 64),), n_samples=1024)
        w, a_fp = generate_layer(spec, 0)
        rows = run_ablation([(f"s{seed}", w, a_fp, "uniform", 4, 4)], cfg)
        for row in rows:
            finals.setdefault(row["combination"], []).append(row["mse_final"])
    med = {name: median(values) for name, values in finals.items()}
    all_on = med["aqer+rounding+ridge"]
    others = {name: m for name, m in med.items() if name != "aqer+rounding+ridge"}
    assert all_on <= min(others.values()), (
        f"all-on median {all_on:.6f} not minimal; best other "
        f"{min(others, key=others.get)} at {min(others.values()):.6f}"
    )
    for single in ("aqer", "rounding", "ridge"):
        assert med[single] < med["baseline"], (
            f"{single} median {med[single]:.6f} does not improve on "
            f"baseline {med['baseline']:.6f}"
        )
    _elapsed_ok(t0, 600.0)


def test_criterion_08_proxy_complexity_scaling():
    t0 = time.perf_counter()
    dim = 64
    rng = np.random.default_rng(8)
    mu = rng.normal(0.0, 1.0, dim)
    a = rng.normal(0.0, 1.0, (dim, dim))
    sigma = a @ a.T / dim + 0.1 * np.eye(dim)
    chol = np.linalg.cholesky(sigma)
    batch_small = rng.standard_normal((1_000, dim)) @ chol.T + mu
    batch_large = rng.standard_normal((100_000, dim)) @ chol.T + mu
    delta = rng.normal(0.0, 0.1, dim)

    def proxy_matrix(batch):
        m = batch.mean(axis=0)
        c = np.cov(batch.T, ddof=1)
        return np.outer(m, m) + c

    mat_small = proxy_matrix(batch_small)
    mat_large = proxy_matrix(batch_large)

    def best_time(fn, calls, trials):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - start) / calls)
        return best

    # warm-up
    proxy_value(delta, mat_small)
    proxy_value(delta, mat_large)
    mc_output_error(delta, batch_small)
    mc_output_error(delta, batch_large)

    t_proxy_small = best_time(lambda: proxy_value(delta, mat_small), 500, 7)
    t_proxy_large = best_time(lambda: proxy_value(delta, mat_large), 500, 7)
    proxy_ratio = t_proxy_large / t_proxy_small
    assert proxy_ratio < 2.0, (
        f"proxy wall time grew {proxy_ratio:.2f}x from N=1e3 to N=1e5 moments"
    )

    t_mc_small = best_time(lambda: mc_output_error(delta, batch_small), 20, 5)
    t_mc_large = best_time(lambda: mc_output_error(delta, batch_large), 2, 3)
    mc_ratio = t_mc_large / t_mc_small
    assert mc_ratio >= 50.0, (
        f"Monte Carlo wall time grew only {mc_ratio:.1f}x over a 100x sample range"
    )
    _elapsed_ok(t0, 60.0)


def _quantize_run(runner, manifest, out_dir, extra):
    args = [
        "quantize",
        "--manifest", str(manifest),
        "--out", str(out_dir),
        "--lambda1", "1.0",
        "--lambda2", "1.0",
    ] + extra
    result = runner.invoke(cli_main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return out_dir


_DETERMINISTIC_ARTIFACTS = (
    "report.json",
    "traces.csv",
    "layer0_codes.npy",
    "layer1_codes.npy",
)


def test_criterion_09_run_determinism(tmp_path):
    spec = SynthSpec(
        seed=71, dims=((8, 12), (6, 8)), nonlinearities=("gelu",), n_samples=96
    )
    manifest = write_manifest_files(spec, tmp_path / "data")
    runner = CliRunner()
    out_j1 = _quantize_run(runner, manifest, tmp_path / "j1", ["--jobs", "1"])
    out_j8 = _quantize_run(runner, manifest, tmp_path / "j8", ["--jobs", "8"])
    out_re = _quantize_run(runner, manifest, tmp_path / "rerun", ["--jobs", "1"])
    for name in _DETERMINISTIC_ARTIFACTS:
        b1 = (out_j1 / name).read_bytes()
        assert b1 == (out_j8 / name).read_bytes(), f"{name} differs between job counts"
        assert b1 == (out_re / name).read_bytes(), f"{name} differs across reruns"
    report = json.loads((out_j1 / "report.json").read_text())
    assert all(entry["error"] is None for entry in report["layers"])


def test_criterion_10_k_zero_equals_rounding_disabled(tmp_path):
    spec = SynthSpec(
        seed=73, dims=((8, 12), (6, 8)), nonlinearities=("gelu",), n_samples=96
    )
    manifest = write_manifest_files(spec, tmp_path / "data")
    runner = CliRunner()
    out_k0 = _quantize_run(runner, manifest, tmp_path / "k0", ["--k", "0"])
    out_off = _quantize_run(
        runner, manifest, tmp_path / "off", ["--stages", "aqer,wqer_ridge"]
    )
    for name in _DETERMINISTIC_ARTIFACTS:
        assert (out_k0 / name).read_bytes() == (out_off / name).read_bytes(), (
            f"{name} differs between k=0 and a disabled rounding stage"
        )
