"""Run configuration, per-layer pipeline, manifest runs, ablation, sweeps."""

import json
import weakref

import numpy as np
import pytest

from quantred import oracle, pipeline
from quantred.moments import InsufficientSamplesError
from quantred.pipeline import (
    ABLATION_COLUMNS,
    ABLATION_GRID,
    ALL_STAGES,
    NUMERICAL_ERRORS,
    STAGE_AQER,
    STAGE_RIDGE,
    STAGE_ROUNDING,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    ConfigError,
    RunConfig,
    _ratio,
    layer_report_entry,
    load_layers,
    quantize_layer,
    run_ablation,
    run_manifest,
    run_sweep,
    trace_rows,
    write_csv,
)
from quantred.quantizers import (
    MAX_BITS,
    NonFiniteInputError,
    calibrate_scale,
    quantize_with_scheme,
)
from quantred.synth import SynthSpec, write_manifest_files
from quantred.tensorfile import load_manifest, read_tensor, write_tensor


def _layer(rng, d_out=6, d_in=10, n=96):
    w = rng.normal(0, 0.5, (d_out, d_in))
    a_fp = rng.normal(0.2, 1.1, (n, d_in))
    return w, a_fp


def _reference_ablation(layers, cfg):
    """run_ablation as one quantize_layer per (combination, layer)."""
    rows = []
    for combo_name, stages in ABLATION_GRID:
        combo_cfg = cfg.replace(stages=stages)
        for layer_id, w, a_fp, act_family, bits_w, bits_a in layers:
            result = quantize_layer(
                w, a_fp, act_family, bits_w, bits_a, combo_cfg, layer_id=layer_id
            )
            rows.append(
                {
                    "combination": combo_name,
                    "aqer": int(STAGE_AQER in stages),
                    "rounding": int(STAGE_ROUNDING in stages),
                    "ridge": int(STAGE_RIDGE in stages),
                    "layer_id": layer_id,
                    "mse_baseline": result.mse["baseline"],
                    "mse_final": result.mse["final"],
                    "reduction_vs_baseline": result.reduction["cumulative"],
                }
            )
    return rows


def _reference_sweep(param, values, layers, cfg):
    """run_sweep as one fresh run per (value, layer).

    An `n_images` value below the layer's N scores the full batch as an
    eval batch; any other value is one quantize_layer.
    """
    rows = []
    for value in values:
        if param == "lambda":
            run_cfg = cfg.replace(lambda1=float(value), lambda2=float(value))
        elif param == "k":
            run_cfg = cfg.replace(k=int(value))
        else:
            run_cfg = cfg
        baselines, finals, reductions = [], [], []
        for layer_id, w, a_fp, act_family, bits_w, bits_a in layers:
            batch = a_fp[: int(value)] if param == "n_images" else a_fp
            if len(batch) < len(a_fp):
                run = pipeline.LayerRun(w, batch, act_family, bits_w, bits_a, a_fp)
                result = run.result(run_cfg, layer_id)
            else:
                result = quantize_layer(
                    w, batch, act_family, bits_w, bits_a, run_cfg, layer_id=layer_id
                )
            baselines.append(result.mse["baseline"])
            finals.append(result.mse["final"])
            reductions.append(result.reduction["cumulative"])
        rows.append(
            {
                "param": param,
                "value": float(value),
                "layers": len(layers),
                "mse_baseline_mean": float(np.mean(baselines)),
                "mse_final_mean": float(np.mean(finals)),
                "reduction_mean": float(np.mean(reductions)),
            }
        )
    return rows


def _error_form_mse(w, a_fp, a_q, w_bar, moment):
    """A layer MSE from the weight error E = W_bar - W, as pipeline scores it.

    With rhs = W (A_q - A_fp)^T / N: N ||rhs + E A_q^T / N||^2 in sample
    form; N ||rhs||^2 + 2 <E, rhs A_q> + <E M, E>, M = A_q^T A_q / N, in
    moment form.
    """
    n = a_q.shape[0]
    rhs = w @ (a_q - a_fp).T / n
    error = w_bar - w
    if not moment:
        diff = error @ a_q.T
        diff /= n
        diff += rhs
        return float(n * np.sum(diff * diff))
    offset = n * float(np.sum(rhs * rhs))
    cross = np.sum(error * (rhs @ a_q))
    return float(offset + 2.0 * cross + np.sum((error @ (a_q.T @ a_q / n)) * error))


def _chain(seed, n, act_family="uniform", d_in=12):
    """Two layers; log_sqrt2 layers get nonnegative activations."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, d_out in enumerate((5, 3)):
        w, a_fp = _layer(rng, d_out=d_out, d_in=d_in, n=n)
        if act_family == "log_sqrt2":
            a_fp = np.abs(a_fp)
        layers.append((f"l{i}", w, a_fp, act_family, 4, 4))
    return layers


@pytest.fixture()
def call_counts(monkeypatch):
    """Count calibrations by granularity and aqer solves at pipeline's lookup points."""
    counts = {"per_tensor": 0, "per_channel": 0, "aqer": 0}
    calibrate = pipeline.calibrate_scale
    solve = pipeline.solve_activation_correction

    def counted_calibrate(x, family, bits, granularity):
        counts[granularity] += 1
        return calibrate(x, family, bits, granularity)

    def counted_solve(*args, **kwargs):
        counts["aqer"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "calibrate_scale", counted_calibrate)
    monkeypatch.setattr(pipeline, "solve_activation_correction", counted_solve)
    return counts


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.stages == frozenset(ALL_STAGES)
        assert cfg.k == 1 and cfg.jobs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -1.0},
            {"lambda2": -0.5},
            {"lambda1": float("nan")},
            {"lambda2": float("nan")},
            {"lambda1": float("inf")},
            {"lambda2": float("inf")},
            {"k": -1},
            {"max_iter": -1},
            {"bits_w": 1},
            {"bits_a": 0},
            {"bits_w": MAX_BITS + 1},
            {"bits_a": MAX_BITS + 1},
            {"jobs": 0},
            {"stages": frozenset({"warp"})},
            {"k": 1.5},
            {"k": 1.0},
            {"k": True},
            {"k": "1"},
            {"max_iter": 100.0},
            {"max_iter": False},
            {"jobs": 2.0},
            {"jobs": True},
            {"bits_w": 4.0},
            {"bits_a": 8.5},
            {"bits_w": True},
            {"lambda1": True},
            {"lambda2": "10"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_parse_stages_forms(self):
        assert RunConfig(stages="all").stages == frozenset(ALL_STAGES)
        assert RunConfig(stages=" all ").stages == frozenset(ALL_STAGES)
        assert RunConfig(stages="none").stages == frozenset()
        assert RunConfig(stages="").stages == frozenset()
        assert RunConfig(stages="aqer").stages == frozenset({STAGE_AQER})
        assert RunConfig(stages=" aqer , wqer_ridge ").stages == frozenset(
            {STAGE_AQER, STAGE_RIDGE}
        )
        for text in ("aqer,warp", "all,aqer", "none,aqer"):
            with pytest.raises(ConfigError, match="unknown stages"):
                RunConfig(stages=text)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"lambda1": 1.0, "momentum": 0.9})
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_dict([1, 2])

    def test_from_dict_rejects_non_finite_json_literals(self):
        for text in ('{"lambda1": NaN}', '{"lambda2": Infinity}'):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig.from_dict(json.loads(text))

    def test_integer_lambda_beyond_float_range_rejected(self):
        # 10**400 has no float value: math.isfinite raises OverflowError on it
        huge = "1" + "0" * 400
        for name in ("lambda1", "lambda2"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                RunConfig.from_dict(json.loads(f'{{"{name}": {huge}}}'))

    def test_bare_string_stages_parsed(self):
        # a str is parsed as from_dict and --stages parse it, not split into
        # characters
        assert RunConfig(stages="aqer").stages == frozenset({STAGE_AQER})
        assert RunConfig(stages="aqer, wqer_ridge") == RunConfig(
            stages=frozenset({STAGE_AQER, STAGE_RIDGE})
        )
        assert RunConfig().replace(stages="none").stages == frozenset()
        with pytest.raises(ConfigError, match=r"unknown stages \['warp'\]"):
            RunConfig(stages="aqer,warp")

    @pytest.mark.parametrize("stages", [5, None, [["aqer"]], [1, "warp"]])
    def test_malformed_stages_rejected(self, stages):
        # a library caller's non-iterable, nested or non-string stages is a
        # ConfigError naming the field, not a TypeError from set() or sorted()
        with pytest.raises(ConfigError, match="stages must be a string or a collection"):
            RunConfig(stages=stages)
        with pytest.raises(ConfigError, match="stages must be"):
            RunConfig().replace(stages=stages)

    def test_json_integers_accepted_for_lambda(self):
        cfg = RunConfig.from_dict(json.loads('{"lambda1": 10, "lambda2": 0}'))
        assert (cfg.lambda1, cfg.lambda2) == (10, 0)

    def test_widest_bits_accepted(self):
        assert RunConfig(bits_w=MAX_BITS, bits_a=MAX_BITS).bits_w == MAX_BITS

    def test_from_dict_stage_spellings(self):
        as_string = RunConfig.from_dict({"stages": "aqer,wqer_rounding"})
        as_list = RunConfig.from_dict({"stages": ["aqer", "wqer_rounding"]})
        assert as_string == as_list
        with pytest.raises(ConfigError, match="stages"):
            RunConfig.from_dict({"stages": 7})

    @pytest.mark.parametrize("stages", [[1], ["aqer", None]])
    def test_from_dict_rejects_non_string_stages(self, stages):
        with pytest.raises(ConfigError, match="stages must be a string or a collection"):
            RunConfig.from_dict({"stages": stages})

    @pytest.mark.parametrize("stages", [["all"], ["none"], ["aqer,wqer_ridge"]])
    def test_config_file_list_parsed_as_the_constructor_parses_it(self, stages):
        # a list holds stage names only: "all", "none" and comma-joined
        # names are string forms, unknown as list items to both
        with pytest.raises(ConfigError, match="unknown stages"):
            RunConfig(stages=stages)
        with pytest.raises(ConfigError, match="unknown stages"):
            RunConfig.from_dict({"stages": stages})

    def test_to_dict_round_trip(self):
        cfg = RunConfig(
            lambda1=0.5, lambda2=3.0, k=2, bits_w=4, stages=frozenset({STAGE_AQER})
        )
        doc = cfg.to_dict()
        assert doc["stages"] == ["aqer"]
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable
        assert RunConfig.from_dict(doc) == cfg

    def test_ratio_semantics(self):
        assert _ratio(4.0, 1.0) == pytest.approx(0.75)
        assert _ratio(0.0, 1.0) == 0.0
        assert _ratio(-1.0, 0.5) == 0.0
        assert _ratio(2.0, 2.0) == 0.0


class TestQuantizeLayer:
    def test_no_stages_is_plain_calibrated_rounding(self):
        rng = np.random.default_rng(0)
        w, a_fp = _layer(rng)
        cfg = RunConfig(stages=frozenset())
        result = quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        lattice = calibrate_scale(w, "uniform", 4, "per_channel")
        codes, w_bar = quantize_with_scheme(w, lattice)
        np.testing.assert_array_equal(result.codes, codes)
        np.testing.assert_array_equal(result.w_bar, w_bar)
        assert result.mse["final"] == result.mse["baseline"]
        assert result.reduction["cumulative"] == 0.0
        assert result.trace == ()

    def test_mse_keys_track_enabled_stages(self):
        rng = np.random.default_rng(1)
        w, a_fp = _layer(rng)
        cases = {
            frozenset(): {"baseline", "final"},
            frozenset({STAGE_AQER}): {"baseline", "after_aqer", "final"},
            frozenset({STAGE_RIDGE}): {"baseline", "after_wqer", "final"},
            frozenset(ALL_STAGES): {"baseline", "after_aqer", "after_wqer", "final"},
        }
        for stages, expected in cases.items():
            cfg = RunConfig(lambda1=1.0, lambda2=1.0, stages=stages)
            result = quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
            assert set(result.mse) == expected

    def test_reductions_recomputable_from_mse(self):
        rng = np.random.default_rng(2)
        w, a_fp = _layer(rng)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        result = quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        m = result.mse
        assert result.reduction["cumulative"] == pytest.approx(
            1.0 - m["final"] / m["baseline"], abs=1e-15
        )
        assert result.reduction["aqer"] == pytest.approx(
            1.0 - m["after_aqer"] / m["baseline"], abs=1e-15
        )
        assert result.reduction["wqer"] == pytest.approx(
            1.0 - m["after_wqer"] / m["after_aqer"], abs=1e-15
        )

    def test_eval_batch_changes_reported_mse_only(self):
        rng = np.random.default_rng(3)
        w, a_fp = _layer(rng, n=128)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        in_sample = quantize_layer(w, a_fp[:16], "uniform", 4, 4, cfg)
        held_out = pipeline.LayerRun(w, a_fp[:16], "uniform", 4, 4, a_fp).result(cfg)
        # the quantization itself is identical; only the evaluation differs
        np.testing.assert_array_equal(in_sample.codes, held_out.codes)
        np.testing.assert_array_equal(in_sample.w_bar, held_out.w_bar)
        assert in_sample.mse["final"] != held_out.mse["final"]

    def test_eval_batch_shape_validated(self):
        rng = np.random.default_rng(4)
        w, a_fp = _layer(rng)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        with pytest.raises(ValueError, match="eval batch"):
            pipeline.LayerRun(w, a_fp, "uniform", 4, 4, np.zeros((8, 3))).result(cfg)

    def test_shape_mismatch_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ValueError, match="incompatible"):
            quantize_layer(np.zeros((2, 3)), np.zeros((8, 4)), "uniform", 4, 4, cfg)

    def test_one_activation_and_two_weight_calibrations(self, call_counts):
        rng = np.random.default_rng(14)
        w, a_fp = _layer(rng)
        quantize_layer(w, a_fp, "uniform", 4, 4, RunConfig(lambda1=1.0, lambda2=1.0))
        assert call_counts == {"per_tensor": 1, "per_channel": 2, "aqer": 1}

    def test_layer_run_result_equals_quantize_layer(self):
        rng = np.random.default_rng(15)
        w, a_fp = _layer(rng, n=48)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        run = pipeline.LayerRun(w, a_fp, "uniform", 4, 4)
        split = run.result(cfg, "x")
        whole = quantize_layer(w, a_fp, "uniform", 4, 4, cfg, layer_id="x")
        np.testing.assert_array_equal(split.codes, whole.codes)
        assert split.mse == whole.mse and split.reduction == whole.reduction
        assert set(split.timings) == set(whole.timings)

    def test_jobs_do_not_change_results(self):
        rng = np.random.default_rng(5)
        w, a_fp = _layer(rng, d_out=8, d_in=16)
        base = RunConfig(lambda1=1.0, lambda2=1.0)
        r1 = quantize_layer(w, a_fp, "uniform", 4, 4, base)
        r8 = quantize_layer(w, a_fp, "uniform", 4, 4, base.replace(jobs=8))
        np.testing.assert_array_equal(r1.codes, r8.codes)
        np.testing.assert_array_equal(r1.w_bar, r8.w_bar)
        assert r1.mse == r8.mse


@pytest.fixture()
def builds(monkeypatch):
    """Record every moment cache, aqer step and remainder ridge pipeline builds.

    Each entry is (lambda, weakref to the product, how many products of the
    same kind were still alive when it was built); a cache records None.
    """
    record = {"cache": [], "aqer": [], "ridge": []}
    real_cache = pipeline.LayerMomentCache
    real_step = pipeline.AqerStep
    real_ridge = pipeline.RemainderRidge

    def alive(kind):
        return sum(1 for _, ref, _ in record[kind] if ref() is not None)

    def built(kind, lam, product, before):
        record[kind].append((lam, weakref.ref(product), before))
        return product

    def cache(a_q):
        return built("cache", None, real_cache(a_q), alive("cache"))

    def step(**fields):
        return built("aqer", fields["lambda1"], real_step(**fields), alive("aqer"))

    def ridge(moment_cache, lambda2):
        product = real_ridge(moment_cache, lambda2)
        return built("ridge", lambda2, product, alive("ridge"))

    monkeypatch.setattr(pipeline, "LayerMomentCache", cache)
    monkeypatch.setattr(pipeline, "AqerStep", step)
    monkeypatch.setattr(pipeline, "RemainderRidge", ridge)
    return record


def _lambdas(record, kind):
    return [lam for lam, _, _ in record[kind]]


class TestLayerRun:
    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    @pytest.mark.parametrize("n", [64, 8], ids=["n_ge_d", "n_lt_d"])
    def test_result_after_the_other_combinations_equals_a_fresh_layer(self, n, order):
        # the products a run keeps must not depend on which results were
        # asked of it before: each combination, run after the other seven,
        # equals quantize_layer bit for bit
        rng = np.random.default_rng(23 + n)
        w, a_fp = _layer(rng, d_out=5, d_in=12, n=n)
        cfg = RunConfig(lambda1=0.5, lambda2=0.5)
        grid = [stages for _, stages in ABLATION_GRID][::order]
        for last, stages in enumerate(grid):
            run = pipeline.LayerRun(w, a_fp, "uniform", 4, 4)
            for i, other in enumerate(grid):
                if i != last:
                    run.result(cfg.replace(stages=other), "x")
            got = run.result(cfg.replace(stages=stages), "x")
            want = quantize_layer(
                w, a_fp, "uniform", 4, 4, cfg.replace(stages=stages), layer_id="x"
            )
            np.testing.assert_array_equal(got.codes, want.codes)
            np.testing.assert_array_equal(got.w_bar, want.w_bar)
            assert got.mse == want.mse and got.reduction == want.reduction
            assert got.trace == want.trace

    @pytest.mark.parametrize("act_family", ["uniform", "log_sqrt2"])
    def test_activations_are_quantized_without_codes(self, monkeypatch, act_family):
        # the run keeps only the dequantized activations, so they take the
        # values-only route, through pipeline's lookup point, and equal the
        # values quantize_with_scheme returns with the codes, bit for bit
        rng = np.random.default_rng(41)
        w, a_fp = _layer(rng, d_out=5, d_in=12, n=32)
        a_fp = np.abs(a_fp)
        eval_batch = np.abs(rng.normal(0.2, 1.1, (20, 12)))
        real = pipeline.quantize_with_scheme
        calls = []

        def recorded(x, params, **kwargs):
            calls.append(("per_channel" if np.ndim(params.scale) else "per_tensor", kwargs))
            return real(x, params, **kwargs)

        monkeypatch.setattr(pipeline, "quantize_with_scheme", recorded)
        run = pipeline.LayerRun(w, a_fp, act_family, 4, 4, eval_batch)
        run.result(RunConfig(lambda1=0.5, lambda2=0.5), "x")
        assert calls == [
            ("per_tensor", {"codes": False}),
            ("per_channel", {}),
            ("per_tensor", {"codes": False}),
            ("per_channel", {}),
        ]
        for batch, got in ((a_fp, run.a_q), (eval_batch, run.eval_q)):
            want = quantize_with_scheme(batch, run.act_params)[1]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eval_n", [None, 40], ids=["calib", "eval"])
    @pytest.mark.parametrize("n", [60, 9], ids=["n_ge_d", "n_lt_d"])
    def test_every_mse_is_the_oracle_layer_mse(self, monkeypatch, n, eval_n):
        # every reported MSE equals the error form bit for bit, in the form
        # the run picks for it, and oracle.layer_mse within 1e-12 relative;
        # each goes through pipeline.layer_mse with the terms its run
        # formed: the baseline, plus one with aqer, plus one with wqer. No
        # batch size is a power of two, whose divisions would be exact
        rng = np.random.default_rng(31 + n)
        w, a_fp = _layer(rng, d_out=5, d_in=12, n=n)
        eval_batch = None if eval_n is None else rng.normal(0.2, 1.1, (eval_n, 12))
        eval_fp = a_fp if eval_batch is None else eval_batch
        # stage MSEs take the moment form only on the calibration batch's Gram
        moment = eval_batch is None and n >= 12
        cfg = RunConfig(lambda1=0.5, lambda2=0.5)
        real = pipeline.layer_mse
        scored = []

        def recorded(error, terms):
            scored.append(terms)
            return real(error, terms)

        monkeypatch.setattr(pipeline, "layer_mse", recorded)
        shared = pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch)
        eval_q = quantize_with_scheme(eval_fp, shared.act_params)[1]
        want_rhs = w @ (eval_q - eval_fp).T / eval_fp.shape[0]
        assert shared.eval_terms.rhs.tobytes() == want_rhs.tobytes()
        for _, stages in ABLATION_GRID:
            combo = cfg.replace(stages=stages)
            aqer_on = STAGE_AQER in stages
            wqer_on = bool(stages - {STAGE_AQER})
            before = len(scored)
            run = pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch)
            result = run.result(combo)
            assert len(scored) - before == 1 + aqer_on + wqer_on
            assert scored[before] is run.eval_terms
            if stages:
                assert all(t is run.stage_terms for t in scored[before + 1:])
                assert (run.stage_terms.gram is not None) == moment
            assert shared.result(combo).mse == result.mse
            w_bars = {"baseline": (run.base_w_bar, False)}
            if aqer_on:
                w_bars["after_aqer"] = (run.aqer(cfg.lambda1).w_bar, moment)
            if wqer_on:
                w_bars["after_wqer"] = (result.w_bar, moment)
            w_bars["final"] = (result.w_bar, moment and bool(stages))
            want = {
                key: _error_form_mse(w, eval_fp, eval_q, w_bar, form)
                for key, (w_bar, form) in w_bars.items()
            }
            assert result.mse == want
            for key, (w_bar, _) in w_bars.items():
                assert result.mse[key] == pytest.approx(
                    oracle.layer_mse(w, eval_fp, w_bar, eval_q), rel=1e-12, abs=0.0
                )
        # one shared run evaluates each stage once per value it depends on:
        # the baseline once, aqer once, and each of the six weight loops
        terms = (shared.eval_terms, shared.stage_terms)
        assert sum(1 for t in scored if any(t is own for own in terms)) == 1 + 1 + 6

    @pytest.mark.parametrize("same_array", [True, False], ids=["same", "copy"])
    @pytest.mark.parametrize("n", [60, 9], ids=["n_ge_d", "n_lt_d"])
    def test_eval_batch_equal_to_calibration_batch_is_its_own_batch(self, n, same_array):
        # a given eval batch is scored as its own batch, in sample form, even
        # when it is the calibration batch: codes and weights are the plain
        # run's, every MSE the sample form bit for bit and within 1e-12
        # relative of the plain run's
        rng = np.random.default_rng(61 + n)
        w, a_fp = _layer(rng, d_out=5, d_in=12, n=n)
        cfg = RunConfig(lambda1=0.5, lambda2=0.5)
        plain = pipeline.LayerRun(w, a_fp, "uniform", 4, 4)
        given = pipeline.LayerRun(
            w, a_fp, "uniform", 4, 4, a_fp if same_array else a_fp.copy()
        )
        assert given.eval_q is not given.a_q
        for _, stages in ABLATION_GRID:
            combo = cfg.replace(stages=stages)
            want, got = plain.result(combo), given.result(combo)
            np.testing.assert_array_equal(got.codes, want.codes)
            np.testing.assert_array_equal(got.w_bar, want.w_bar)
            assert got.trace == want.trace
            w_bars = {"baseline": given.base_w_bar, "final": got.w_bar}
            if STAGE_AQER in stages:
                w_bars["after_aqer"] = given.aqer(cfg.lambda1).w_bar
            if stages - {STAGE_AQER}:
                w_bars["after_wqer"] = got.w_bar
            assert got.mse == {
                key: _error_form_mse(w, a_fp, given.eval_q, w_bar, False)
                for key, w_bar in w_bars.items()
            }
            assert got.mse.keys() == want.mse.keys()
            for key, value in got.mse.items():
                assert value == pytest.approx(want.mse[key], rel=1e-12, abs=0.0)
        assert given.stage_terms is given.eval_terms

    @pytest.mark.parametrize("n", [64, 8], ids=["n_ge_d", "n_lt_d"])
    def test_oracle_catches_a_fault_in_the_run_mse(self, monkeypatch, n):
        # oracle.layer_mse shares no code with pipeline.layer_mse, so a 1%
        # fault in the run's MSE shows as a reported final MSE that the
        # oracle's recomputation disagrees with
        rng = np.random.default_rng(53 + n)
        w, a_fp = _layer(rng, d_out=5, d_in=12, n=n)
        real = pipeline.layer_mse
        monkeypatch.setattr(pipeline, "layer_mse", lambda *args: 1.01 * real(*args))
        result = pipeline.quantize_layer(
            w, a_fp, "uniform", 4, 4, RunConfig(lambda1=0.5, lambda2=0.5)
        )
        a_q = quantize_with_scheme(a_fp, result.act_params)[1]
        want = oracle.layer_mse(w, a_fp, result.w_bar, a_q)
        assert result.mse["final"] == pytest.approx(1.01 * want, rel=1e-12)
        assert abs(result.mse["final"] - want) > 1e-3 * want

    @pytest.mark.parametrize("lam", [1e-6, 10.0])
    @pytest.mark.parametrize("n", [256, 24], ids=["n_ge_d", "n_lt_d"])
    @pytest.mark.parametrize("mean", [0.0, 3.0])
    @pytest.mark.parametrize("bits", [4, 8, 12, 16])
    def test_error_form_holds_oracle_accuracy_at_every_width(self, bits, mean, n, lam):
        # the MSE is scored from the errors, so it keeps its relative
        # accuracy when the quantized output is within 2^-16 of the
        # full-precision one; the output-space form
        # ||y||^2/N - 2<W_bar, Y^T A_q/N> + <W_bar M, W_bar> cancels there
        rng = np.random.default_rng(bits + 10 * n + int(mean))
        d_in = 32
        w = rng.normal(0, 0.5, (8, d_in))
        mix = rng.normal(0, 1, (d_in, d_in)) / np.sqrt(d_in)  # correlated inputs
        a_fp = rng.normal(mean, 1.0, (n, d_in)) @ mix + mean
        run = pipeline.LayerRun(w, a_fp, "uniform", bits, bits)
        result = run.result(RunConfig(lambda1=lam, lambda2=lam))
        w_bars = {
            "baseline": run.base_w_bar,
            "after_aqer": run.aqer(lam).w_bar,
            "after_wqer": result.w_bar,
        }
        y = a_fp @ w.T
        output_form_err = 0.0
        for key, w_bar in w_bars.items():
            want = oracle.layer_mse(w, a_fp, w_bar, run.a_q)
            assert abs(result.mse[key] - want) <= 1e-11 * want, key
            output_form = (
                np.sum(y * y) / n
                - 2.0 * np.sum(w_bar * (y.T @ run.a_q / n))
                + np.sum((w_bar @ (run.a_q.T @ run.a_q / n)) * w_bar)
            )
            output_form_err = max(output_form_err, abs(output_form - want) / want)
        if bits == 16 and mean == 3.0:
            assert output_form_err > 1e-9

    def test_ablation_builds_one_of_each_product_per_layer(self, builds):
        layers = _chain(5, 32) + _chain(6, 8)[:1]
        run_ablation(layers, RunConfig(lambda1=1.0, lambda2=2.0))
        assert len(builds["cache"]) == len(layers)
        assert _lambdas(builds, "aqer") == [1.0] * len(layers)
        assert _lambdas(builds, "ridge") == [2.0] * len(layers)

    def test_k_sweep_builds_one_of_each_product_per_layer(self, builds):
        layers = _chain(18, 32)
        run_sweep("k", [0, 1, 2], layers, RunConfig(lambda1=1.0, lambda2=2.0))
        assert len(builds["cache"]) == len(layers)
        assert _lambdas(builds, "aqer") == [1.0] * len(layers)
        assert _lambdas(builds, "ridge") == [2.0] * len(layers)

    def test_lambda_sweep_builds_each_product_per_value(self, builds):
        # the cache depends on the batch alone: one per layer for all values
        layers = _chain(19, 32)
        rows = run_sweep("lambda", [1.0, 10.0, 1.0], layers, RunConfig())
        per_layer = [1.0, 10.0, 1.0]
        assert len(builds["cache"]) == len(layers)
        assert _lambdas(builds, "aqer") == per_layer * len(layers)
        assert _lambdas(builds, "ridge") == per_layer * len(layers)
        assert rows[0] == rows[2]

    @pytest.mark.parametrize(
        "stages", [frozenset(), frozenset({STAGE_AQER}), frozenset({STAGE_ROUNDING})]
    )
    def test_cache_built_only_when_a_stage_needs_it(self, builds, stages):
        rng = np.random.default_rng(21)
        w, a_fp = _layer(rng, d_out=3, d_in=12, n=32)
        quantize_layer(w, a_fp, "uniform", 4, 4, RunConfig(stages=stages))
        assert len(builds["cache"]) == (1 if stages else 0)
        assert len(builds["aqer"]) == (1 if STAGE_AQER in stages else 0)
        assert builds["ridge"] == []

    @pytest.mark.parametrize("n", [64, 8], ids=["n_ge_d", "n_lt_d"])
    def test_stale_products_dropped_before_their_replacements(self, builds, n):
        # a run keeps one cache, one aqer step and one ridge, and drops the
        # stale step or ridge first: a lambda sweep never holds two of a kind
        layers = _chain(20, n)
        run_sweep("lambda", [1.0, 10.0, 1.0, 100.0], layers, RunConfig())
        run = pipeline.LayerRun(*layers[0][1:])
        for lam in (1.0, 2.0, 2.0, 1.0):
            run.ridge(lam)
            run.aqer(lam)
        assert len(builds["cache"]) == len(layers) + 1
        assert len(builds["aqer"]) == 4 * len(layers) + 3
        assert len(builds["ridge"]) == 4 * len(layers) + 3
        assert all(
            before == 0 for kind in builds.values() for _, _, before in kind
        )
        assert run.ridge(1.0).cache is run.cache

    def test_eval_batch_checked_before_calibration(self, call_counts):
        # a bad eval batch fails at the boundary, before any calibration:
        # an empty one by name, a non-finite one with its location
        rng = np.random.default_rng(22)
        w, a_fp = _layer(rng, d_out=3, d_in=12, n=32)
        with pytest.raises(ValueError, match=r"eval batch of shape \(0, 12\) is empty"):
            pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch=np.zeros((0, 12)))
        with pytest.raises(ValueError, match="incompatible eval batch shape"):
            pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch=np.zeros((5, 11)))
        for bad in (np.nan, np.inf):
            eval_batch = a_fp.copy()
            eval_batch[3, 7] = bad
            with pytest.raises(NonFiniteInputError, match="eval batch") as info:
                pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch=eval_batch)
            assert info.value.index == (3, 7)
        # a log-sqrt2 layer takes no negative value, and the message names
        # the eval batch
        eval_batch = np.abs(a_fp)
        eval_batch[5, 2] = -0.25
        message = "^log_sqrt2 activations require a nonnegative eval batch$"
        with pytest.raises(ValueError, match=message):
            pipeline.LayerRun(w, np.abs(a_fp), "log_sqrt2", 4, 4, eval_batch=eval_batch)
        assert call_counts == {"per_tensor": 0, "per_channel": 0, "aqer": 0}

    @pytest.mark.parametrize("stages", [frozenset(), frozenset(ALL_STAGES)], ids=["none", "all"])
    def test_empty_calibration_batch_checked_before_calibration(self, call_counts, stages):
        # an empty calibration batch fails by name, before any calibration,
        # with the stages off (no nan MSEs) and on (no late sample-count error)
        w, _ = _layer(np.random.default_rng(24), d_out=3, d_in=12, n=32)
        with pytest.raises(ValueError, match=r"calibration batch of shape \(0, 12\) is empty"):
            quantize_layer(w, np.zeros((0, 12)), "uniform", 4, 4, RunConfig(stages=stages))
        assert call_counts == {"per_tensor": 0, "per_channel": 0, "aqer": 0}

    @pytest.mark.parametrize(
        "stages", [frozenset({stage}) for stage in sorted(ALL_STAGES)] + [frozenset(ALL_STAGES)]
    )
    def test_one_sample_calibration_batch_is_named(self, stages):
        # every stage reads the moment cache, which needs two samples: the
        # error keeps its type (manifest runs record it per layer) and names
        # the calibration batch and its sample count
        w, a_fp = _layer(np.random.default_rng(25), d_out=3, d_in=8, n=1)
        message = r"^calibration batch of shape \(1, 8\) has 1 sample; .* need at least 2$"
        with pytest.raises(InsufficientSamplesError, match=message):
            quantize_layer(w, a_fp, "uniform", 4, 4, RunConfig(stages=stages))

    def test_one_sample_calibration_batch_runs_without_stages(self):
        w, a_fp = _layer(np.random.default_rng(25), d_out=3, d_in=8, n=1)
        result = quantize_layer(w, a_fp, "uniform", 4, 4, RunConfig(stages=frozenset()))
        assert result.mse["final"] == result.mse["baseline"]

    @pytest.mark.parametrize("stages", [frozenset(), frozenset(ALL_STAGES)], ids=["none", "all"])
    @pytest.mark.parametrize("tensor", ["calib", "weight"])
    def test_a_range_past_float64_fails_at_calibration(
        self, call_counts, monkeypatch, tensor, stages
    ):
        # float64 values whose max - min overflows used to calibrate to an
        # infinite scale: NaN MSEs with the stages off, a late non-finite
        # error from the moment cache with them on. Calibration raises one
        # of the numerical errors a manifest run records, before any stage
        def no_cache(*args):
            raise AssertionError("the moment cache was built")

        monkeypatch.setattr(pipeline, "LayerMomentCache", no_cache)
        rng = np.random.default_rng(26)
        w, a_fp = _layer(rng, d_out=3, d_in=8, n=16)
        if tensor == "calib":
            a_fp = rng.uniform(-1.0, 1.0, (16, 8)) * 1.7e308
            message, calibrations = "^the values' range", (1, 0)
        else:
            w[1, :4] = [1.7e308, -1.7e308, 0.5, 0.1]
            message, calibrations = "^row 1: the values' range", (1, 1)
        with pytest.raises(FloatingPointError, match=message + " overflows float64") as info:
            quantize_layer(w, a_fp, "uniform", 4, 4, RunConfig(stages=stages))
        assert isinstance(info.value, NUMERICAL_ERRORS)
        assert call_counts == dict(zip(("per_tensor", "per_channel", "aqer"), (*calibrations, 0)))

    def test_non_finite_eval_batch_message_names_no_calibration(self):
        # the eval batch is not calibration input: the message says what is
        # wrong, where, and in which array, and keeps the located fields
        rng = np.random.default_rng(23)
        w, a_fp = _layer(rng, d_out=3, d_in=12, n=32)
        eval_batch = a_fp.copy()
        eval_batch[3, 7] = np.nan
        with pytest.raises(NonFiniteInputError) as info:
            pipeline.LayerRun(w, a_fp, "uniform", 4, 4, eval_batch=eval_batch)
        assert str(info.value) == "non-finite value nan at index (3, 7) in eval batch"
        assert (info.value.index, info.value.row, info.value.path) == (
            (3, 7), None, "eval batch"
        )


class TestManifestRun:
    @staticmethod
    def _entries(tmp_path, seed=31):
        spec = SynthSpec(
            seed=seed, dims=((6, 8), (4, 6)), nonlinearities=("gelu",), n_samples=48
        )
        manifest = write_manifest_files(spec, tmp_path / "data")
        return load_manifest(manifest)

    def test_artifacts_written_and_self_consistent(self, tmp_path):
        entries = self._entries(tmp_path)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        out = tmp_path / "out"
        result = run_manifest(entries, cfg, out)
        assert result.failures == 0
        for name in ("report.json", "traces.csv", "timings.json", "run_config.json"):
            assert (out / name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert [e["layer_id"] for e in report["layers"]] == ["layer0", "layer1"]
        for entry in report["layers"]:
            assert entry["error"] is None
            assert (out / entry["codes_path"]).is_file()
            m = entry["mse"]
            assert entry["reduction"]["cumulative"] == pytest.approx(
                1.0 - m["final"] / m["baseline"], abs=1e-12
            )
        header = (out / "traces.csv").read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)
        echoed = json.loads((out / "run_config.json").read_text())
        assert RunConfig.from_dict(echoed) == cfg

    @pytest.mark.parametrize("stages", ["none", "all"])
    def test_report_calibration_is_the_oracle_grid(self, tmp_path, stages):
        # every calibration entry of report.json, field for field, is what
        # oracle.grid_calibrate gives: per tensor for the calibration batch
        # (uniform after gelu, log-sqrt2 after softmax), per weight row for
        # the channels, the aqer-corrected rows when aqer runs
        spec = SynthSpec(
            seed=8, dims=((6, 8), (5, 6), (4, 5)), nonlinearities=("gelu", "softmax"),
            n_samples=40,
        )
        entries = load_manifest(write_manifest_files(spec, tmp_path / "data"))
        cfg = RunConfig(lambda1=1.0, lambda2=1.0, stages=stages)
        run_manifest(entries, cfg, tmp_path / "out")
        report = json.loads((tmp_path / "out" / "report.json").read_text())["layers"]
        assert [e.act_quant for e in entries] == ["uniform", "uniform", "log_sqrt2"]
        for entry, layer in zip(report, entries, strict=True):
            w = np.asarray(read_tensor(layer.weight_path), dtype=np.float64)
            a_fp = np.asarray(read_tensor(layer.calib_path), dtype=np.float64)
            act = vars(oracle.grid_calibrate(a_fp, layer.act_quant, layer.bits_a))
            assert entry["act_quant"] == {"family": layer.act_quant, **act}
            if stages == "all":
                run = pipeline.LayerRun(w, a_fp, layer.act_quant, layer.bits_w, layer.bits_a)
                w = run.aqer(cfg.lambda1).updated_w
            channels = [vars(oracle.grid_calibrate(row, "uniform", layer.bits_w)) for row in w]
            for channel in channels:
                assert channel.pop("bits") == layer.bits_w
            assert entry["weight_quant"] == {
                "family": "uniform",
                "granularity": "per_channel",
                "bits": layer.bits_w,
                "channels": channels,
            }

    def test_rerun_is_byte_identical_excluding_timings(self, tmp_path):
        entries = self._entries(tmp_path)
        cfg = RunConfig(lambda1=2.0, lambda2=2.0, k=2)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_manifest(entries, cfg, out1)
        run_manifest(entries, cfg, out2)
        for name in ("report.json", "traces.csv", "layer0_codes.npy", "layer1_codes.npy"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_failing_layer_is_isolated(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(6)
        write_tensor(data / "good_w.npy", rng.normal(0, 1, (3, 6)).astype(np.float32))
        write_tensor(data / "good_c.npy", rng.normal(0, 1, (64, 6)).astype(np.float32))
        write_tensor(data / "bad_w.npy", rng.normal(0, 1, (2, 8)).astype(np.float32))
        # a single calibration row cannot support the correction stages
        write_tensor(data / "bad_c.npy", rng.normal(0, 1, (1, 8)).astype(np.float32))
        manifest = data / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "layers": [
                        {
                            "layer_id": "good",
                            "weight_path": "good_w.npy",
                            "calib_path": "good_c.npy",
                            "act_quant": "uniform",
                            "bits_w": 4,
                            "bits_a": 4,
                        },
                        {
                            "layer_id": "bad",
                            "weight_path": "bad_w.npy",
                            "calib_path": "bad_c.npy",
                            "act_quant": "uniform",
                            "bits_w": 4,
                            "bits_a": 4,
                        },
                    ]
                }
            )
        )
        entries = load_manifest(manifest)
        out = tmp_path / "out"
        result = run_manifest(entries, RunConfig(lambda1=1.0, lambda2=1.0), out)
        assert result.failures == 1
        report = json.loads((out / "report.json").read_text())
        by_id = {e["layer_id"]: e for e in report["layers"]}
        assert by_id["good"]["error"] is None
        assert (out / "good_codes.npy").is_file()
        assert "InsufficientSamplesError" in by_id["bad"]["error"]
        assert not (out / "bad_codes.npy").exists()

    @pytest.mark.parametrize(
        ("tensor", "bad"), [("weight", np.nan), ("calib", np.inf), ("calib", -np.inf)]
    )
    def test_non_finite_layer_is_a_per_layer_failure(self, tmp_path, tensor, bad):
        entries = self._entries(tmp_path)
        path = entries[1].weight_path if tensor == "weight" else entries[1].calib_path
        data = read_tensor(path).copy()
        data[1, 2] = bad
        write_tensor(path, data)
        out = tmp_path / "out"
        result = run_manifest(entries, RunConfig(lambda1=1.0, lambda2=1.0), out)
        assert result.failures == 1
        report = json.loads((out / "report.json").read_text())
        assert report["layers"][0]["error"] is None
        error = report["layers"][1]["error"]
        assert error.startswith("NonFiniteInputError: ")
        assert ("row 1, column 2" if tensor == "weight" else "index (1, 2)") in error

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only numerical failures are filed per layer; a bare ValueError is
        # a bug and must surface instead of becoming a layer failure
        entries = self._entries(tmp_path)

        def broken(*args, **kwargs):
            raise ValueError("broken invariant")

        monkeypatch.setattr(pipeline, "quantize_layer", broken)
        with pytest.raises(ValueError, match="broken invariant"):
            run_manifest(entries, RunConfig(lambda1=1.0, lambda2=1.0), tmp_path / "out")

    def test_timings_use_the_tracer_stage_names(self, tmp_path):
        entries = self._entries(tmp_path)
        for stages, keys in (
            (frozenset(ALL_STAGES), {"act_calib", "weight_calib", "aqer", "wqer", "total"}),
            (frozenset(), {"act_calib", "weight_calib", "total"}),
        ):
            out = tmp_path / f"out{len(stages)}"
            run_manifest(entries, RunConfig(stages=stages), out)
            timings = json.loads((out / "timings.json").read_text())["layers"]
            assert list(timings) == ["layer0", "layer1"]
            for layer in timings.values():
                assert set(layer) == keys

    @pytest.mark.parametrize(("tensor", "per_row"), [("weight", True), ("calib", False)])
    def test_non_finite_tensor_named_at_load(self, tmp_path, monkeypatch, tensor, per_row):
        entries = self._entries(tmp_path)
        path = entries[1].weight_path if tensor == "weight" else entries[1].calib_path
        data = read_tensor(path).copy()
        data[1, 2] = np.nan
        data[2, 0] = np.inf
        write_tensor(path, data)
        reads = []
        real_read = pipeline.read_tensor

        def counted_read(p):
            reads.append(p)
            return real_read(p)

        monkeypatch.setattr(pipeline, "read_tensor", counted_read)
        with pytest.raises(pipeline.NonFiniteInputError) as info:
            load_layers(entries, RunConfig())
        assert isinstance(info.value, NUMERICAL_ERRORS)
        assert info.value.path == path and str(path) in str(info.value)
        assert info.value.index == (1, 2)
        assert info.value.row == (1 if per_row else None)
        # each tensor is read once; the check reuses the loaded array
        loaded = [entries[0].weight_path, entries[0].calib_path, entries[1].weight_path]
        assert reads == loaded + ([] if per_row else [entries[1].calib_path])

    def test_trace_rows_match_columns(self, tmp_path):
        entries = self._entries(tmp_path)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        layers = load_layers(entries, cfg)
        layer_id, w, a_fp, fam, bw, ba = layers[0]
        result = quantize_layer(w, a_fp, fam, bw, ba, cfg, layer_id=layer_id)
        rows = trace_rows(result)
        assert rows, "stages were on, trace must be nonempty"
        for row in rows:
            assert tuple(row) == TRACE_COLUMNS
            assert row["layer_id"] == layer_id

    def test_trace_rows_say_why_refinement_stopped(self, tmp_path):
        entries = self._entries(tmp_path)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0, k=2)
        layers = load_layers(entries, cfg)
        refined = []
        for layer_id, w, a_fp, fam, bw, ba in layers:
            refined += trace_rows(quantize_layer(w, a_fp, fam, bw, ba, cfg))
        assert {r["stop_reason"] for r in refined} <= {"no_eligible", "uphill", "max_iter"}
        assert sum(r["flips_committed"] for r in refined) > 0
        for off_cfg in (cfg.replace(stages=frozenset({STAGE_RIDGE})), cfg.replace(k=0)):
            rows = trace_rows(quantize_layer(w, a_fp, fam, bw, ba, off_cfg))
            assert rows
            assert {(r["stop_reason"], r["flips_committed"]) for r in rows} == {("off", 0)}


class TestAblation:
    def test_grid_is_every_stage_subset_once(self):
        assert len(ABLATION_GRID) == 8
        seen = [stages for _, stages in ABLATION_GRID]
        assert len(set(seen)) == 8
        universe = set()
        for stages in seen:
            universe |= stages
        assert universe == set(ALL_STAGES)
        assert ABLATION_GRID[0] == ("baseline", frozenset())
        assert ABLATION_GRID[-1][1] == frozenset(ALL_STAGES)

    def test_rows_and_baseline_consistency(self, tmp_path):
        rng = np.random.default_rng(7)
        w, a_fp = _layer(rng, d_out=4, d_in=8, n=64)
        layers = [("lone", w, a_fp, "uniform", 4, 4)]
        rows = run_ablation(layers, RunConfig(lambda1=1.0, lambda2=1.0))
        assert len(rows) == 8
        assert [r["combination"] for r in rows] == [name for name, _ in ABLATION_GRID]
        baselines = {r["mse_baseline"] for r in rows}
        assert len(baselines) == 1  # every combination shares the RTN baseline
        base_row = rows[0]
        assert base_row["mse_final"] == base_row["mse_baseline"]
        assert base_row["reduction_vs_baseline"] == 0.0
        for r in rows:
            assert set(ABLATION_COLUMNS) == set(r)
            assert r["reduction_vs_baseline"] == pytest.approx(
                1.0 - r["mse_final"] / r["mse_baseline"], abs=1e-12
            )
            flags = (r["aqer"], r["rounding"], r["ridge"])
            stages = dict(ABLATION_GRID)[r["combination"]]
            assert flags == (
                int(STAGE_AQER in stages),
                int(STAGE_ROUNDING in stages),
                int(STAGE_RIDGE in stages),
            )


    @pytest.mark.parametrize("lam", [0.1, 10.0])
    @pytest.mark.parametrize("act_family", ["uniform", "log_sqrt2"])
    @pytest.mark.parametrize("n", [64, 8], ids=["n_ge_d", "n_lt_d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_per_combination_reference(self, seed, n, act_family, lam):
        layers = _chain(seed, n, act_family)
        cfg = RunConfig(lambda1=lam, lambda2=lam)
        assert run_ablation(layers, cfg) == _reference_ablation(layers, cfg)

    @pytest.mark.parametrize(
        ("n_bad", "lam"),
        [(1, 1.0), (3, 0.0)],
        ids=["one_sample", "unregularized_thin"],
    )
    def test_failing_layer_raises_as_reference(self, n_bad, lam):
        layers = _chain(3, 32)
        rng = np.random.default_rng(4)
        w, a_fp = _layer(rng, d_out=2, d_in=8, n=n_bad)
        layers.insert(1, ("bad", w, a_fp, "uniform", 4, 4))
        cfg = RunConfig(lambda1=lam, lambda2=lam)
        with pytest.raises(NUMERICAL_ERRORS) as reference:
            _reference_ablation(layers, cfg)
        with pytest.raises(NUMERICAL_ERRORS) as shared:
            run_ablation(layers, cfg)
        assert type(shared.value) is type(reference.value)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one layer"):
            run_ablation([], RunConfig())

    def test_prefix_and_aqer_once_per_layer(self, call_counts):
        layers = _chain(5, 32) + _chain(6, 16)[:1]
        run_ablation(layers, RunConfig(lambda1=1.0, lambda2=1.0))
        count = len(layers)
        assert call_counts == {"per_tensor": count, "per_channel": 2 * count, "aqer": count}


class TestSweep:
    @staticmethod
    def _layers(rng, n=256, d_in=12, d_out=6):
        w = rng.normal(0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.2, 1.1, (n, d_in))
        return [("lone", w, a_fp, "uniform", 4, 4)]

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="sweep param"):
            run_sweep("alpha", [1], [], RunConfig())

    def test_empty_values_or_layers_rejected(self):
        # an empty list would average nothing into a row of nan means
        layers = self._layers(np.random.default_rng(13), n=16)
        for param in pipeline.SWEEP_PARAMS:
            with pytest.raises(ConfigError, match="at least one value"):
                run_sweep(param, [], layers, RunConfig())
            with pytest.raises(ConfigError, match="at least one layer"):
                run_sweep(param, [2], [], RunConfig())

    @pytest.mark.parametrize("param,lo", [("k", 0), ("n_images", 2)])
    def test_non_integral_values_rejected(self, call_counts, param, lo):
        # truncating would run k = 1.5 as k = 1 and calibrate n_images = 20.9
        # on 20 rows, each reported under the value asked for; an integral
        # float is no integer either, as for RunConfig(k=2.0)
        layers = self._layers(np.random.default_rng(14), n=32)
        for bad in (20.9, 2.0):
            with pytest.raises(
                ConfigError, match=rf"^{param} must be an integer >= {lo}, got {bad}$"
            ):
                run_sweep(param, [2, bad], layers, RunConfig())
        with pytest.raises(ConfigError, match=r"^k must be an integer >= 0, got 2.0$"):
            RunConfig(k=2.0)
        assert call_counts == {"per_tensor": 0, "per_channel": 0, "aqer": 0}
        rows = run_sweep(param, [2, np.int64(3)], layers, RunConfig())
        assert [row["value"] for row in rows] == [2.0, 3.0]

    def test_lambda_rows_couple_both_strengths(self):
        rng = np.random.default_rng(8)
        layers = self._layers(rng)
        cfg = RunConfig(lambda1=999.0, lambda2=999.0)
        rows = run_sweep("lambda", [0.1, 100.0], layers, cfg)
        assert [r["value"] for r in rows] == [0.1, 100.0]
        for row in rows:
            manual_cfg = cfg.replace(lambda1=row["value"], lambda2=row["value"])
            _, w, a_fp, fam, bw, ba = layers[0]
            manual = quantize_layer(w, a_fp, fam, bw, ba, manual_cfg)
            assert row["mse_final_mean"] == manual.mse["final"]
            assert row["mse_baseline_mean"] == manual.mse["baseline"]

    def test_k_zero_row_matches_disabled_rounding(self):
        rng = np.random.default_rng(9)
        layers = self._layers(rng)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        rows = run_sweep("k", [0, 2], layers, cfg)
        _, w, a_fp, fam, bw, ba = layers[0]
        no_rounding = quantize_layer(
            w,
            a_fp,
            fam,
            bw,
            ba,
            cfg.replace(stages=frozenset({STAGE_AQER, STAGE_RIDGE})),
        )
        assert rows[0]["mse_final_mean"] == no_rounding.mse["final"]

    def test_n_images_calibrates_small_evaluates_full(self):
        rng = np.random.default_rng(10)
        layers = self._layers(rng, n=256)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        rows = run_sweep("n_images", [8, 256], layers, cfg)
        _, w, a_fp, fam, bw, ba = layers[0]
        manual = pipeline.LayerRun(w, a_fp[:8], fam, bw, ba, a_fp).result(cfg)
        assert rows[0]["mse_final_mean"] == manual.mse["final"]
        full = quantize_layer(w, a_fp, fam, bw, ba, cfg)
        assert rows[1]["mse_final_mean"] == full.mse["final"]

    def test_n_images_below_two_rejected(self):
        rng = np.random.default_rng(11)
        layers = self._layers(rng)
        with pytest.raises(ConfigError, match=r"^n_images must be an integer >= 2, got 1$"):
            run_sweep("n_images", [1], layers, RunConfig())

    @pytest.mark.parametrize(
        "stages", [frozenset(ALL_STAGES), frozenset({STAGE_ROUNDING, STAGE_RIDGE})]
    )
    @pytest.mark.parametrize(
        ("param", "values"),
        [("lambda", [0.1, 10.0, 1e3]), ("k", [0, 1, 2]), ("n_images", [4, 16, 64])],
    )
    @pytest.mark.parametrize("n", [64, 8], ids=["n_ge_d", "n_lt_d"])
    def test_rows_equal_per_value_reference(self, param, values, n, stages):
        layers = _chain(17, 64, "uniform", d_in=12 if n == 64 else 80)
        cfg = RunConfig(lambda1=2.0, lambda2=2.0, stages=stages)
        assert run_sweep(param, values, layers, cfg) == _reference_sweep(
            param, values, layers, cfg
        )

    @pytest.mark.parametrize("values", [[1], [2, 5, 7]])
    def test_k_sweep_shares_prefix_and_aqer(self, call_counts, values):
        layers = _chain(18, 32)
        run_sweep("k", values, layers, RunConfig(lambda1=1.0, lambda2=1.0))
        count = len(layers)
        assert call_counts == {"per_tensor": count, "per_channel": 2 * count, "aqer": count}

    def test_lambda_sweep_shares_prefix(self, call_counts):
        layers = _chain(19, 32)
        run_sweep("lambda", [0.5, 5.0, 50.0], layers, RunConfig())
        count = len(layers)
        assert call_counts == {
            "per_tensor": count,
            "per_channel": count + 3 * count,
            "aqer": 3 * count,
        }

    def test_n_images_above_layer_samples_rejected(self, call_counts):
        rng = np.random.default_rng(20)
        layers = self._layers(rng, n=256)
        w, a_fp = _layer(rng, d_out=3, d_in=12, n=64)
        layers.append(("small", w, a_fp, "uniform", 4, 4))
        with pytest.raises(ConfigError, match=r"200 exceeds the 64 .*'small'"):
            run_sweep("n_images", [64, 200], layers, RunConfig())
        assert call_counts["per_tensor"] == 0  # rejected before any layer ran
        run_sweep("n_images", [64], layers, RunConfig())

    def test_n_images_of_the_full_batch_is_a_plain_run(self, monkeypatch, call_counts):
        # a value equal to N passes no eval batch: one activation
        # quantization and one right-hand side per layer, and the row is
        # the plain run's, bit for bit
        layers = _chain(22, 48)
        rhs_calls, quantized = [], []
        real_rhs, real_quantize = pipeline.correction_rhs, pipeline.quantize_with_scheme

        def counted_rhs(*args):
            rhs_calls.append(args)
            return real_rhs(*args)

        def recorded(x, params, **kwargs):
            quantized.append(kwargs)
            return real_quantize(x, params, **kwargs)

        monkeypatch.setattr(pipeline, "correction_rhs", counted_rhs)
        monkeypatch.setattr(pipeline, "quantize_with_scheme", recorded)
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        rows = run_sweep("n_images", [48], layers, cfg)
        count = len(layers)
        assert len(rhs_calls) == count
        assert quantized.count({"codes": False}) == count
        assert call_counts["per_tensor"] == count
        plain = [
            quantize_layer(w, a_fp, fam, bw, ba, cfg, layer_id=layer_id)
            for layer_id, w, a_fp, fam, bw, ba in layers
        ]
        assert rows[0]["mse_final_mean"] == float(np.mean([r.mse["final"] for r in plain]))

    def test_n_images_checked_before_any_layer(self, call_counts):
        rng = np.random.default_rng(21)
        layers = self._layers(rng)
        with pytest.raises(ConfigError, match="n_images"):
            run_sweep("n_images", [8, 1], layers, RunConfig())
        assert call_counts == {"per_tensor": 0, "per_channel": 0, "aqer": 0}

    def test_row_schema(self):
        rng = np.random.default_rng(12)
        layers = self._layers(rng, n=64)
        rows = run_sweep("lambda", [1.0], layers, RunConfig())
        assert set(rows[0]) == set(SWEEP_COLUMNS)
        assert rows[0]["layers"] == 1


class TestCsv:
    def test_floats_written_with_full_precision(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [{"a": 0.1, "b": 3, "c": "x"}]
        write_csv(path, rows, ("a", "b", "c"))
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "0.1,3,x"
        value = float(lines[1].split(",")[0])
        assert value == 0.1  # repr round-trips exactly

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        # numpy 2's repr of np.float64(0.1) is "np.float64(0.1)", and str of a
        # float32 is its short form; every floating cell is repr(float(value))
        path = tmp_path / "rows.csv"
        rows = [{"a": np.float64(0.1), "b": np.float32(0.1), "c": np.int64(3)}]
        write_csv(path, rows, ("a", "b", "c"))
        line = path.read_text().splitlines()[1]
        assert line == f"0.1,{float(np.float32(0.1))!r},3"
        a, b, c = line.split(",")
        assert float(a) == 0.1 and float(b) == np.float32(0.1) and int(c) == 3

    def test_same_bytes_as_one_isinstance_per_cell(self, tmp_path):
        # the writer types each cell by its exact Python type first; every
        # kind of cell a row may hold is written as the tuple-isinstance
        # writer wrote it
        def reference(path, rows, columns):
            lines = [",".join(columns)]
            for row in rows:
                cells = []
                for col in columns:
                    value = row[col]
                    floating = isinstance(value, (float, np.floating))
                    cells.append(repr(float(value)) if floating else str(value))
                lines.append(",".join(cells))
            path.write_text("\n".join(lines) + "\n")

        values = [
            0.1, -2.5e-300, 1e22, float("inf"), float("-inf"), float("nan"), -0.0,
            np.float64(1 / 3), np.float64(np.inf), np.float64(np.nan),
            np.float32(0.1), np.float32(-np.inf), np.float32(np.nan),
            3, -7, 2**70, np.int64(-4), np.int32(9), np.uint8(255),
            True, False, np.bool_(True), "x", "no_eligible", "", None,
        ]
        columns = tuple(f"c{i}" for i in range(len(values)))
        rows = [dict(zip(columns, values)), dict(zip(columns, values[::-1]))]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, rows, columns)
        reference(want, rows, columns)
        assert got.read_bytes() == want.read_bytes()

    def test_report_entry_shape(self):
        rng = np.random.default_rng(13)
        w, a_fp = _layer(rng, d_out=2, d_in=4, n=32)
        result = quantize_layer(
            w, a_fp, "uniform", 4, 4, RunConfig(lambda1=1.0, lambda2=1.0)
        )
        entry = layer_report_entry(result, "x_codes.npy")
        assert entry["codes_path"] == "x_codes.npy"
        assert entry["error"] is None
        assert entry["weight_quant"]["granularity"] == "per_channel"
        assert len(entry["weight_quant"]["channels"]) == 2
        assert json.dumps(entry)  # JSON-serializable
