"""Command-line interface.

Exit codes: 0 success, 1 validation error (manifest, config, flag
values), 2 numerical failure during a run, 3 verification suite failure.
Usage errors that click reports itself (an unknown option, a missing
required one, a --param outside its choices) also exit 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import pipeline
from .linalg import require_int
from .pipeline import NUMERICAL_ERRORS, ConfigError, RunConfig
from .tensorfile import ManifestError, TensorFormatError, load_manifest


def integer(text: str):
    """An integer flag's text as a number, an int or else a float, for RunConfig to check."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a number") from None


def _flag(parse):
    """A flag type: the text parsed, or the text itself where `parse` fails.

    RunConfig then rejects unparseable text with the message of a bad value
    (exit 1), where click would report a usage error (exit 2).
    """

    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            return text

    convert.__name__ = parse.__name__  # click's metavar
    return convert


def _common_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON file with RunConfig fields; flags override it."),
        click.option("--jobs", type=_flag(integer), default=None,
                     help="No effect: the weight loop runs all channels together. "
                          "Still accepted (>= 1) for existing configs; to be removed."),
        click.option("--stages", type=str, default=None,
                     help="Comma list from {aqer,wqer_rounding,wqer_ridge}, or all/none."),
        click.option("--bits-w", type=_flag(integer), default=None,
                     help="Weight bit width override."),
        click.option("--bits-a", type=_flag(integer), default=None,
                     help="Activation bit width override."),
        click.option("--lambda1", type=_flag(float), default=None,
                     help="Activation-correction ridge strength."),
        click.option("--lambda2", type=_flag(float), default=None,
                     help="Remainder-correction ridge strength."),
        click.option("--k", type=_flag(integer), default=None, help="Flips per refinement step."),
        click.option("--max-iter", type=_flag(integer), default=None,
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
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
    cfg = RunConfig.from_dict(doc)
    # flags are the RunConfig fields of _common_options; the ones given override
    overrides = {key: value for key, value in flags.items() if value is not None}
    return cfg.replace(**overrides) if overrides else cfg


def _fail_validation(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _make_out_dir(out_dir) -> Path:
    """Create the output directory before any work, so a bad --out fails fast."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail_validation(f"cannot create output directory {out_dir}: {exc}")
    return Path(out_dir)


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
    result = pipeline.run_manifest(entries, cfg, _make_out_dir(out_dir))
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
    try:
        require_int("--seed", seed, 0)
    except ValueError as exc:
        _fail_validation(exc)
    out = _make_out_dir(out_dir) if out_dir is not None else None
    from . import verify

    results = verify.run_all(seed)
    summary = []
    for suite in results:
        doc = {"suite": suite.name, "passed": suite.passed, "metrics": suite.metrics}
        summary.append(doc)
        click.echo(json.dumps(doc, sort_keys=True))
    all_passed = all(s.passed for s in results)
    click.echo(json.dumps({"all_passed": all_passed}, sort_keys=True))
    if out is not None:
        (out / "verify.json").write_text(
            json.dumps({"suites": summary, "all_passed": all_passed},
                       indent=2, sort_keys=True) + "\n"
        )
    if not all_passed:
        sys.exit(3)


def _table_command(name, columns, manifest_path, out_dir, config_path, flags, runner):
    """Validate, run over the manifest's layers and write `<name>.csv`.

    `runner()` checks the command's own options and returns the function
    of (layers, config) that makes the rows.
    """
    try:
        cfg = _build_config(config_path, **flags)
        entries = load_manifest(manifest_path)
        make_rows = runner()
    except (ConfigError, ManifestError, TensorFormatError) as exc:
        _fail_validation(exc)
    out = _make_out_dir(out_dir)
    try:
        rows = make_rows(pipeline.load_layers(entries, cfg), cfg)
    except ConfigError as exc:
        _fail_validation(exc)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    path = out / f"{name}.csv"
    pipeline.write_csv(path, rows, columns)
    click.echo(json.dumps({name: str(path), "rows": len(rows)}, sort_keys=True))


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_common_options
def ablate(manifest_path, out_dir, config_path, **flags):
    """Run all eight stage combinations and write ablation.csv."""
    _table_command("ablation", pipeline.ABLATION_COLUMNS, manifest_path, out_dir,
                   config_path, flags, lambda: pipeline.run_ablation)


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--param", type=click.Choice(pipeline.SWEEP_PARAMS), required=True)
@click.option("--values", type=str, required=True,
              help="Comma-separated sweep values, e.g. 1e2,1e3,1e4.")
@_common_options
def sweep(manifest_path, out_dir, param, values, config_path, **flags):
    """Sweep one parameter over a value list and write sweep.csv."""

    def runner():
        parse = float if param == "lambda" else integer  # run_sweep checks the integers
        try:
            parsed = [parse(v.strip()) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --values {values!r}") from None
        if not parsed:
            raise ConfigError("--values is empty")
        return lambda layers, cfg: pipeline.run_sweep(param, parsed, layers, cfg)

    _table_command("sweep", pipeline.SWEEP_COLUMNS, manifest_path, out_dir,
                   config_path, flags, runner)


if __name__ == "__main__":
    main()
