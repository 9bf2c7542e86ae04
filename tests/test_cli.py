"""End-to-end CLI behavior through an in-process runner."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from quantred import pipeline, weight_quant
from quantred import verify as verify_suites
from quantred.cli import main
from quantred.synth import SynthSpec, write_manifest_files
from quantred.tensorfile import read_tensor, write_tensor


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def manifest(tmp_path):
    spec = SynthSpec(
        seed=41, dims=((6, 8), (4, 6)), nonlinearities=("gelu",), n_samples=48
    )
    return write_manifest_files(spec, tmp_path / "data")


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestQuantize:
    def test_writes_artifacts_and_consistent_report(self, runner, manifest, tmp_path):
        out = tmp_path / "out"
        result = _run(
            runner,
            [
                "quantize",
                "--manifest", str(manifest),
                "--out", str(out),
                "--lambda1", "1.0",
                "--lambda2", "1.0",
            ],
        )
        assert result.exit_code == 0, result.output
        status = json.loads(result.output.strip().splitlines()[-1])
        assert status["layers"] == 2
        assert status["failures"] == 0
        for name in (
            "report.json",
            "traces.csv",
            "timings.json",
            "run_config.json",
            "layer0_codes.npy",
            "layer1_codes.npy",
        ):
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text())
        for entry in report["layers"]:
            m = entry["mse"]
            assert entry["reduction"]["cumulative"] == pytest.approx(
                1.0 - m["final"] / m["baseline"], abs=1e-12
            )
            assert m["final"] <= m["baseline"] * 1.0001

    def test_rerun_and_jobs_byte_identical(self, runner, manifest, tmp_path):
        outs = [tmp_path / f"out{i}" for i in range(3)]
        jobs = ["1", "8", "1"]
        for out, j in zip(outs, jobs):
            result = _run(
                runner,
                [
                    "quantize",
                    "--manifest", str(manifest),
                    "--out", str(out),
                    "--lambda1", "1.0",
                    "--lambda2", "1.0",
                    "--jobs", j,
                ],
            )
            assert result.exit_code == 0
        for name in ("report.json", "traces.csv", "layer0_codes.npy", "layer1_codes.npy"):
            blobs = [(out / name).read_bytes() for out in outs]
            assert blobs[0] == blobs[1] == blobs[2], name

    def test_stages_none_is_plain_rounding(self, runner, manifest, tmp_path):
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--stages", "none"],
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        for entry in report["layers"]:
            assert entry["mse"]["final"] == entry["mse"]["baseline"]
            assert entry["reduction"]["cumulative"] == 0.0
        assert (out / "traces.csv").read_text().count("\n") == 1  # header only

    def test_k_zero_matches_rounding_stage_disabled(self, runner, manifest, tmp_path):
        out_k0 = tmp_path / "k0"
        out_off = tmp_path / "off"
        base = ["quantize", "--manifest", str(manifest), "--lambda1", "1.0",
                "--lambda2", "1.0"]
        r1 = _run(runner, base + ["--out", str(out_k0), "--k", "0"])
        r2 = _run(runner, base + ["--out", str(out_off), "--stages",
                                  "aqer,wqer_ridge"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ("report.json", "layer0_codes.npy", "layer1_codes.npy"):
            assert (out_k0 / name).read_bytes() == (out_off / name).read_bytes(), name

    @staticmethod
    def _manifest_with_layer_b(tmp_path, n_b, dead_column=None):
        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(0)
        write_tensor(data / "a_w.npy", rng.normal(0, 1, (3, 6)).astype(np.float32))
        write_tensor(data / "a_c.npy", rng.normal(0, 1, (64, 6)).astype(np.float32))
        write_tensor(data / "b_w.npy", rng.normal(0, 1, (2, 8)).astype(np.float32))
        calib_b = rng.normal(0, 1, (n_b, 8)).astype(np.float32)
        if dead_column is not None:
            calib_b[:, dead_column] = 0.0
        write_tensor(data / "b_c.npy", calib_b)
        (data / "m.json").write_text(json.dumps({"layers": [
            {"layer_id": "a", "weight_path": "a_w.npy", "calib_path": "a_c.npy",
             "act_quant": "uniform", "bits_w": 4, "bits_a": 4},
            {"layer_id": "b", "weight_path": "b_w.npy", "calib_path": "b_c.npy",
             "act_quant": "uniform", "bits_w": 4, "bits_a": 4},
        ]}))
        return data / "m.json"

    @pytest.mark.parametrize("stages", ["wqer_rounding", "wqer_ridge"])
    def test_one_sample_layer_fails_with_exit_2(self, runner, tmp_path, stages):
        # one calibration sample has no covariance; the layer fails instead
        # of refining against a NaN proxy
        manifest = self._manifest_with_layer_b(tmp_path, 1)
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--stages", stages],
        )
        self._assert_only_b_failed(result, out, "InsufficientSamplesError")
        assert "nan" not in (out / "traces.csv").read_text()

    @staticmethod
    def _assert_only_b_failed(result, out, error="SingularSystemError"):
        assert result.exit_code == 2
        status = json.loads(result.output.strip().splitlines()[-1])
        assert status["failures"] == 1
        report = json.loads((out / "report.json").read_text())
        by_id = {e["layer_id"]: e for e in report["layers"]}
        assert by_id["a"]["error"] is None
        assert (out / "a_codes.npy").is_file()
        assert error in by_id["b"]["error"]
        assert not (out / "b_codes.npy").exists()

    def test_numerical_failure_isolated_with_exit_2(self, runner, tmp_path):
        # dead channel: singular without regularization
        manifest = self._manifest_with_layer_b(tmp_path, 16, dead_column=3)
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--lambda1", "0", "--stages", "aqer"],
        )
        self._assert_only_b_failed(result, out)

    @pytest.mark.parametrize(
        "flags",
        [["--lambda1", "0", "--stages", "aqer"],
         ["--lambda2", "0", "--stages", "wqer_ridge"]],
    )
    def test_thin_batch_failure_isolated_with_exit_2(self, runner, tmp_path, flags):
        # 3 samples for 8 inputs: the full-width systems have rank <= 3, so an
        # unregularized solve fails although its 3 x 3 sample-space form would not
        manifest = self._manifest_with_layer_b(tmp_path, 3)
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out), *flags],
        )
        self._assert_only_b_failed(result, out)

    def test_non_finite_weight_names_the_file(self, runner, tmp_path):
        manifest = self._manifest_with_layer_b(tmp_path, 16)
        bad = manifest.parent / "b_w.npy"
        data = read_tensor(bad).copy()
        data[1, 5] = np.nan
        write_tensor(bad, data)
        out = tmp_path / "out"
        result = _run(runner, ["quantize", "--manifest", str(manifest), "--out", str(out)])
        self._assert_only_b_failed(result, out, "NonFiniteInputError")
        error = json.loads((out / "report.json").read_text())["layers"][1]["error"]
        assert "at row 1, column 5" in error and str(bad) in error

    def test_validation_errors_exit_1(self, runner, manifest, tmp_path):
        missing = _run(
            runner,
            ["quantize", "--manifest", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o")],
        )
        assert missing.exit_code == 1
        assert "error:" in missing.output or "error:" in (missing.stderr or "")
        bad_flag = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--lambda1", "-3"],
        )
        assert bad_flag.exit_code == 1
        bad_stages = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--stages", "warp"],
        )
        assert bad_stages.exit_code == 1

    @pytest.mark.parametrize(("flag", "value"), [("--lambda2", "inf"), ("--lambda1", "nan")])
    def test_non_finite_lambda_flag_exit_1(self, runner, manifest, tmp_path, flag, value):
        out = tmp_path / "o"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out), flag, value],
        )
        assert result.exit_code == 1
        assert "must be finite" in result.stderr
        assert not out.exists()

    def test_bits_above_max_exit_1(self, runner, manifest, tmp_path):
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--bits-w", "17"],
        )
        assert result.exit_code == 1
        assert "error: bits_w must be an integer in [2, 16], got 17" in result.stderr

    @pytest.mark.parametrize("command", ["quantize", "ablate", "sweep"])
    def test_manifest_without_layers_exit_1(self, runner, tmp_path, command):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"layers": []}))
        out = tmp_path / "o"
        args = [command, "--manifest", str(manifest), "--out", str(out)]
        if command == "sweep":
            args += ["--param", "lambda", "--values", "1"]
        result = _run(runner, args)
        assert result.exit_code == 1
        assert "no layers" in result.stderr
        assert not out.exists()

    def test_zero_size_weight_exit_1(self, runner, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_tensor(data / "w.npy", np.zeros((4, 0), dtype=np.float32))
        write_tensor(data / "c.npy", np.zeros((8, 0), dtype=np.float32))
        (data / "m.json").write_text(json.dumps({"layers": [
            {"layer_id": "empty", "weight_path": "w.npy", "calib_path": "c.npy",
             "act_quant": "uniform", "bits_w": 4, "bits_a": 4},
        ]}))
        result = _run(
            runner,
            ["quantize", "--manifest", str(data / "m.json"), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert "'empty'): weight is empty, shape (4, 0)" in result.stderr

    def test_config_file_with_flag_precedence(self, runner, manifest, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"lambda1": 123.0, "lambda2": 5.0, "k": 2, "stages": "all"}
        ))
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--config", str(cfg_path), "--lambda1", "1.0"],
        )
        assert result.exit_code == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["lambda1"] == 1.0  # flag wins
        assert echoed["lambda2"] == 5.0  # file survives
        assert echoed["k"] == 2

    def test_malformed_config_file_exit_1(self, runner, manifest, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest),
             "--out", str(tmp_path / "o"), "--config", str(cfg_path)],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"k": 1.5}, "k must be an integer >= 0, got 1.5"),
            ({"k": True}, "k must be an integer >= 0, got True"),
            ({"max_iter": 100.0}, "max_iter must be an integer >= 0, got 100.0"),
            ({"bits_w": 4.0}, "bits_w must be an integer in [2, 16], got 4.0"),
            ({"jobs": 1.0}, "jobs must be an integer >= 1, got 1.0"),
        ],
    )
    def test_non_integer_count_in_config_exit_1(self, runner, manifest, tmp_path, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--config", str(cfg_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"error: {message}\n" in result.stderr
        assert not out.exists()

    def test_lambda_beyond_float_range_in_config_exit_1(self, runner, manifest, tmp_path):
        # a 401-digit JSON integer overflows math.isfinite
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"lambda1": 1' + "0" * 400 + "}")
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--config", str(cfg_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: lambda1 must be finite and >= 0" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("stages", [[1], ["aqer", None]])
    def test_non_string_stage_in_config_exit_1(self, runner, manifest, tmp_path, stages):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stages": stages}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--config", str(cfg_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: stages must be a string or a collection" in result.stderr
        assert not out.exists()

    def test_escaping_layer_id_exit_1_writes_nothing(self, runner, manifest, tmp_path):
        doc = json.loads(manifest.read_text())
        doc["layers"][1]["layer_id"] = "../escaped,id"
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "out" / "run")],
        )
        assert result.exit_code == 1
        assert "layers[1].layer_id" in result.stderr
        assert sorted(tmp_path.rglob("*")) == before

    def test_bits_come_from_manifest_unless_overridden(self, runner, tmp_path):
        spec = SynthSpec(seed=43, dims=((4, 6),), n_samples=32)
        manifest = write_manifest_files(spec, tmp_path / "d", bits_w=3, bits_a=5)
        out = tmp_path / "out"
        result = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out),
             "--lambda1", "1.0", "--lambda2", "1.0"],
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["layers"][0]["bits_w"] == 3
        assert report["layers"][0]["bits_a"] == 5
        out2 = tmp_path / "out2"
        result2 = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(out2),
             "--lambda1", "1.0", "--lambda2", "1.0", "--bits-w", "8"],
        )
        assert result2.exit_code == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert report2["layers"][0]["bits_w"] == 8
        assert report2["layers"][0]["bits_a"] == 5


class TestVerify:
    def test_all_suites_pass_with_one_line_each(self, runner, tmp_path):
        out = tmp_path / "v"
        result = _run(runner, ["verify", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [json.loads(l) for l in result.output.strip().splitlines()]
        suites = [l for l in lines if "suite" in l]
        assert [s["suite"] for s in suites] == [
            "proxy_fidelity",
            "brute_force_dominance",
            "gradient_checks",
            "ridge_optimality",
            "calibration",
        ]
        assert all(s["passed"] for s in suites)
        assert suites[-1]["metrics"]["mismatches"] == 0
        # calibration scored some rows directly and scanned others
        assert suites[-1]["metrics"]["direct_rows"] > 0
        assert suites[-1]["metrics"]["scan_rows"] > 0
        # the scan's error used part of its slack, never all of it
        assert 0.0 < suites[-1]["metrics"]["max_bound_use"] < 1.0
        assert lines[-1] == {"all_passed": True}
        saved = json.loads((out / "verify.json").read_text())
        assert saved["all_passed"] is True
        assert len(saved["suites"]) == 5

    def test_seed_is_a_verify_option_only(self, runner, manifest, tmp_path):
        result = _run(runner, ["verify", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output.strip().splitlines()[-1]) == {"all_passed": True}
        rejected = _run(
            runner,
            ["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--seed", "0"],
        )
        assert rejected.exit_code == 2
        assert "No such option" in rejected.output

    def test_negative_seed_exit_1(self, runner):
        result = runner.invoke(main, ["verify", "--seed", "-1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: --seed must be an integer >= 0, got -1\n" in result.stderr
        assert "suite" not in result.output

    @pytest.mark.parametrize(
        "flag", [["--lambda1", "5"], ["--jobs", "4"], ["--stages", "none"], ["--config", "c.json"]]
    )
    def test_run_flags_are_unknown_options(self, runner, flag):
        result = runner.invoke(main, ["verify", *flag])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_fault_injection_fails_with_exit_3(self, runner, monkeypatch):
        # breaking the gradient direction must be caught by the suites
        real = weight_quant.proxy_gradient
        monkeypatch.setattr(
            weight_quant, "proxy_gradient", lambda delta, m: -real(delta, m)
        )
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 3
        lines = [json.loads(l) for l in result.output.strip().splitlines()]
        assert lines[-1] == {"all_passed": False}
        failed = [l for l in lines if "suite" in l and not l["passed"]]
        assert failed


class TestAblate:
    def test_csv_has_all_combinations(self, runner, manifest, tmp_path):
        out = tmp_path / "out"
        result = _run(
            runner,
            ["ablate", "--manifest", str(manifest), "--out", str(out),
             "--lambda1", "1.0", "--lambda2", "1.0"],
        )
        assert result.exit_code == 0, result.output
        status = json.loads(result.output.strip().splitlines()[-1])
        assert status["rows"] == 16  # 8 combinations x 2 layers
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("combination,")
        assert len(lines) == 17
        combos = {line.split(",")[0] for line in lines[1:]}
        assert combos == {
            "baseline", "aqer", "rounding", "ridge", "rounding+ridge",
            "aqer+rounding", "aqer+ridge", "aqer+rounding+ridge",
        }


    def test_non_finite_calibration_names_the_file(self, runner, manifest, tmp_path):
        bad = manifest.parent / "layer1_calib.npy"
        assert bad.is_file()
        data = read_tensor(bad).copy()
        data[3, 2] = np.inf
        write_tensor(bad, data)
        out = tmp_path / "out"
        result = _run(runner, ["ablate", "--manifest", str(manifest), "--out", str(out)])
        assert result.exit_code == 2
        assert "non-finite value inf at index (3, 2)" in result.stderr
        assert str(bad) in result.stderr
        assert not (out / "ablation.csv").exists()


class TestSweep:
    def test_lambda_sweep_rows(self, runner, manifest, tmp_path):
        out = tmp_path / "out"
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(out),
             "--param", "lambda", "--values", "1e-1,1,1e1,1e2,1e3"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,layers,mse_baseline_mean,mse_final_mean,reduction_mean"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [0.1, 1.0, 10.0, 100.0, 1000.0]

    def test_bad_values_exit_1(self, runner, manifest, tmp_path):
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--param", "lambda", "--values", "abc"],
        )
        assert result.exit_code == 1
        empty = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--param", "lambda", "--values", " , "],
        )
        assert empty.exit_code == 1

    def test_non_finite_lambda_value_exit_1(self, runner, manifest, tmp_path):
        out = tmp_path / "o"
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(out),
             "--param", "lambda", "--values", "1,inf"],
        )
        assert result.exit_code == 1
        assert "must be finite" in result.stderr
        assert not (out / "sweep.csv").exists()

    def test_unknown_param_rejected_by_parser(self, runner, manifest, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--param", "alpha", "--values", "1"],
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("param,lo", [("k", 0), ("n_images", 2)])
    def test_non_integral_int_value_exit_1(self, runner, manifest, tmp_path, param, lo):
        # integer sweep values meet the integer flags' check, not a parse error
        out = tmp_path / "o"
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(out),
             "--param", param, "--values", "2,2.5"],
        )
        assert result.exit_code == 1
        assert f"error: {param} must be an integer >= {lo}, got 2.5" in result.stderr
        assert "cannot parse" not in result.stderr
        assert not (out / "sweep.csv").exists()
        text = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(out),
             "--param", param, "--values", "2,two"],
        )
        assert text.exit_code == 1
        assert "cannot parse --values" in text.stderr

    def test_n_images_value_below_two_exit_1(self, runner, manifest, tmp_path):
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
             "--param", "n_images", "--values", "1"],
        )
        assert result.exit_code == 1

    def test_n_images_above_layer_samples_exit_1(self, runner, manifest, tmp_path):
        out = tmp_path / "o"
        result = _run(
            runner,
            ["sweep", "--manifest", str(manifest), "--out", str(out),
             "--param", "n_images", "--values", "8,100"],
        )
        assert result.exit_code == 1
        assert "exceeds the 48 calibration samples of layer 'layer0'" in result.stderr
        assert not (out / "sweep.csv").exists()


class TestOutNotADirectory:
    @pytest.mark.parametrize(
        ("command", "work"),
        [("quantize", "run_manifest"), ("ablate", "load_layers"),
         ("sweep", "load_layers"), ("verify", "run_all")],
    )
    def test_out_file_exit_1_before_any_work(
        self, runner, manifest, tmp_path, monkeypatch, command, work
    ):
        # an --out naming a regular file cannot become the output directory:
        # a validation error before the run, not a traceback after it
        target = tmp_path / "taken"
        target.write_text("not a directory")

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        module = verify_suites if command == "verify" else pipeline
        monkeypatch.setattr(module, work, no_work)
        args = [command, "--out", str(target)]
        if command != "verify":
            args += ["--manifest", str(manifest)]
        if command == "sweep":
            args += ["--param", "lambda", "--values", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"error: cannot create output directory {target}" in result.stderr
        assert target.read_text() == "not a directory"
