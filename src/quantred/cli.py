"""Command-line interface.

Exit codes: 0 success, 1 validation error (manifest, config, flags),
2 numerical failure during a run, 3 verification suite failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import pipeline
from . import verify as verify_suites
from .pipeline import NUMERICAL_ERRORS, ConfigError, RunConfig
from .tensorfile import ManifestError, TensorFormatError, load_manifest


def _common_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON file with RunConfig fields; flags override it."),
        click.option("--jobs", type=int, default=None,
                     help="No effect: the weight loop runs all channels together. "
                          "Still accepted (>= 1) for existing configs; to be removed."),
        click.option("--stages", type=str, default=None,
                     help="Comma list from {aqer,wqer_rounding,wqer_ridge}, or all/none."),
        click.option("--bits-w", type=int, default=None, help="Weight bit width override."),
        click.option("--bits-a", type=int, default=None, help="Activation bit width override."),
        click.option("--lambda1", type=float, default=None,
                     help="Activation-correction ridge strength."),
        click.option("--lambda2", type=float, default=None,
                     help="Remainder-correction ridge strength."),
        click.option("--k", type=int, default=None, help="Flips per refinement step."),
        click.option("--max-iter", type=int, default=None,
                     help="Refinement iteration cap per slice."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _build_config(config_path, **flags) -> RunConfig:
    doc = {}
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
    cfg = RunConfig.from_dict(doc)
    overrides = {}
    for key in ("jobs", "bits_w", "bits_a", "lambda1", "lambda2", "k", "max_iter"):
        if flags.get(key) is not None:
            overrides[key] = flags[key]
    if flags.get("stages") is not None:
        overrides["stages"] = RunConfig.parse_stages(flags["stages"])
    return cfg.replace(**overrides) if overrides else cfg


def _fail_validation(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
def main():
    """Post-training quantization with two-step error reduction."""


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(), required=True,
              help="JSON manifest binding layers to tensor files.")
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Output directory for codes, report, and traces.")
@_common_options
def quantize(manifest_path, out_dir, config_path, **flags):
    """Quantize every manifest layer and write the run artifacts."""
    try:
        cfg = _build_config(config_path, **flags)
        entries = load_manifest(manifest_path)
    except (ConfigError, ManifestError, TensorFormatError) as exc:
        _fail_validation(exc)
    result = pipeline.run_manifest(entries, cfg, out_dir)
    click.echo(
        json.dumps(
            {
                "report": str(result.report_path),
                "layers": len(result.entries),
                "failures": result.failures,
            },
            sort_keys=True,
        )
    )
    if result.failures:
        sys.exit(2)


@main.command("verify")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Optional directory for the summary JSON.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the suites' random instances.")
def verify_command(out_dir, seed):
    """Run the internal consistency suites against the oracles."""
    if seed < 0:
        _fail_validation(f"--seed must be >= 0, got {seed}")
    results = verify_suites.run_all(seed)
    summary = []
    for suite in results:
        doc = {"suite": suite.name, "passed": suite.passed, "metrics": suite.metrics}
        summary.append(doc)
        click.echo(json.dumps(doc, sort_keys=True))
    all_passed = all(s.passed for s in results)
    click.echo(json.dumps({"all_passed": all_passed}, sort_keys=True))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.json").write_text(
            json.dumps({"suites": summary, "all_passed": all_passed},
                       indent=2, sort_keys=True) + "\n"
        )
    if not all_passed:
        sys.exit(3)


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_common_options
def ablate(manifest_path, out_dir, config_path, **flags):
    """Run all eight stage combinations and write ablation.csv."""
    try:
        cfg = _build_config(config_path, **flags)
        entries = load_manifest(manifest_path)
    except (ConfigError, ManifestError, TensorFormatError) as exc:
        _fail_validation(exc)
    try:
        layers = pipeline.load_layers(entries, cfg)
        rows = pipeline.run_ablation(layers, cfg)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "ablation.csv"
    pipeline.write_csv(path, rows, pipeline.ABLATION_COLUMNS)
    click.echo(json.dumps({"ablation": str(path), "rows": len(rows)}, sort_keys=True))


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--param", type=click.Choice(pipeline.SWEEP_PARAMS), required=True)
@click.option("--values", type=str, required=True,
              help="Comma-separated sweep values, e.g. 1e2,1e3,1e4.")
@_common_options
def sweep(manifest_path, out_dir, param, values, config_path, **flags):
    """Sweep one parameter over a value list and write sweep.csv."""
    try:
        cfg = _build_config(config_path, **flags)
        entries = load_manifest(manifest_path)
        parse = float if param == "lambda" else int
        try:
            parsed = [parse(v.strip()) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --values {values!r}") from None
        if not parsed:
            raise ConfigError("--values is empty")
    except (ConfigError, ManifestError, TensorFormatError) as exc:
        _fail_validation(exc)
    try:
        layers = pipeline.load_layers(entries, cfg)
        rows = pipeline.run_sweep(param, parsed, layers, cfg)
    except ConfigError as exc:
        _fail_validation(exc)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    pipeline.write_csv(path, rows, pipeline.SWEEP_COLUMNS)
    click.echo(json.dumps({"rows": len(rows), "sweep": str(path)}, sort_keys=True))


if __name__ == "__main__":
    main()
