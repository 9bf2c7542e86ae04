"""quantred benchmark: seeded workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload tall-calib --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout the script sits in; without it the script exits with code 2.
Inputs are generated from ``--seed`` with ``quantred.synth`` under
``.bench_work/`` and removed at exit. Each repetition runs in a fresh
child process (``child.py``) and its artifacts are checked for
correctness and byte-identity with the first repetition.

The host's speed drifts by up to ~1.8x over minutes on shared machines, so
each child also times a fixed reference kernel (interpreter and small
numpy work, no quantred code) right before and right after its timed
region. Every reported time is scaled by ``REFERENCE_S / reference time``:
seconds on a host where the kernel takes ``REFERENCE_S``. The raw times
are in the details line.

``--trace 0`` prints the end-to-end metrics: medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over the repetitions, plus the
deterministic ``final_mse_ratio`` (mean over layers of final / baseline
MSE, i.e. one minus the cumulative reduction) and ``refine_gap_median``. ``--trace 1``
alternates untraced and traced repetitions and prints the per-module
metrics from the traced ones, plus ``trace.overhead_s``. The last stdout
line is the result object; the line before it holds the details (seed,
environment, sample counts, artifact SHA-256, failures).
"""

import os

# Pinned before numpy loads here or in any child; the same on every run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
STARTED = time.monotonic()

# Reported times are seconds on a host where child.reference_seconds() takes this long.
REFERENCE_S = 0.05
# Every child must finish before this many seconds from the start.
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    doc = {"median": statistics.median(ordered), "n": n, "tail": None, "values": samples}
    if n >= 11:
        doc["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return doc


def refine_gap_median() -> float:
    """Median refined / brute-force proxy over the criterion-04 instance generator."""
    import numpy as np

    from quantred import oracle, quantizers, weight_quant

    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(100):
        dim = int(rng.integers(4, 13))
        qmax = 15
        scale = float(rng.uniform(0.05, 0.3))
        zero = int(rng.integers(0, qmax + 1))
        params = quantizers.UniformParams(scale=scale, zero_point=zero, bits=4)
        w = scale * (rng.uniform(-0.5, qmax + 0.5, dim) - zero)
        mu = rng.normal(0.0, 1.0, dim)
        a = rng.normal(0.0, 1.0, (dim, dim))
        matrix = np.outer(mu, mu) + a @ a.T / dim + 0.05 * np.eye(dim)
        state = weight_quant.init_rounding(w, params, matrix)
        _, committed = weight_quant.refine_rounding(state, k=1, max_iter=100)
        brute = oracle.brute_force_rounding(state.delta_down, state.delta_up, matrix)
        if brute.best_proxy > 0:
            ratios.append(committed[-1] / brute.best_proxy)
    return float(statistics.median(ratios))


class Session:
    """One benchmark invocation: generated inputs plus the repetitions run on them."""

    def __init__(self, workload: str, seed: int, work: Path):
        import check
        import workloads

        self.check = check
        self.workload = workloads.WORKLOADS[workload]
        self.config = json.dumps(workloads.CONFIG)
        self.work = work
        self.manifest = workloads.generate(workload, seed, work / "inputs")
        self.start = STARTED
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        self.reps = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_hashes = None
        self.quality = None
        self.versions = None

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, tag: str, traced: bool):
        """Run one child process; returns (result dict, None) or (None, error message)."""
        out = self.work / tag
        out.mkdir(parents=True)
        result_path = out.parent / f"{tag}.result.json"
        spans_path = out.parent / f"{tag}.spans.json"
        argv = [
            sys.executable, str(CHILD), "--mode", self.workload.mode,
            "--manifest", str(self.manifest), "--out", str(out),
            "--config", self.config, "--result", str(result_path),
        ]
        if traced:
            argv += ["--spans", str(spans_path)]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - STARTED))
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                argv + ["--spawn", repr(spawn)], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"{tag}: timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"{tag}: exit {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
        result["ref_s"] = statistics.median(result["ref_s"])
        result["scale"] = REFERENCE_S / result["ref_s"]
        self.versions = result["versions"]
        if traced:
            result["spans"] = json.loads(spans_path.read_text())
        return result, None

    def repetition(self, traced: bool):
        """One full run, checked; returns the child's result, or None if the child failed.

        Correctness misses are recorded in ``failures`` but keep the timings.
        """
        tag = f"rep{self.reps}{'-traced' if traced else ''}"
        self.reps += 1
        result, error = self.child(tag, traced=traced)
        out = self.work / tag
        checked = self.check.CHECKS[self.workload.mode](self.manifest, out)
        self.attempted += checked.attempted
        if error is not None:
            self.failures += [error] * checked.attempted
            return None
        failures = [f"{tag}: {message}" for message in checked.failures]
        hashes = self.check.artifact_hashes(out)
        if self.quality is None:
            try:
                self.quality = self.check.quality(self.workload.mode, out)
            except (OSError, ValueError, KeyError, ZeroDivisionError):
                pass  # the checks above record what is wrong with these artifacts
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        elif hashes != self.reference_hashes:
            failures = [f"{tag}: artifacts differ from the first repetition"] * checked.attempted
        self.failures += failures
        shutil.rmtree(out)
        return result

    def run_until(self, seconds: float, kinds: list[bool]) -> dict[bool, list[dict]]:
        """Cycle through ``kinds`` (traced or not) while another cycle fits in ``seconds``.

        Every kind runs at least once.
        """
        results = {kind: [] for kind in kinds}
        longest = 0.0
        while True:
            for kind in kinds:
                t0 = time.monotonic()
                result = self.repetition(kind)
                longest = max(longest, time.monotonic() - t0)
                if result is not None:
                    results[kind].append(result)
            if self.elapsed() + longest * len(kinds) > seconds:
                return results


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    gap = refine_gap_median()
    session.start = time.monotonic()
    reps = session.run_until(seconds, [False])[False]
    if not reps or session.quality is None:
        return {}, {}
    samples = {
        "wall_s": [r["wall_s"] * r["scale"] for r in reps],
        "setup_s": [r["setup_s"] * r["scale"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "raw_wall_s": [r["wall_s"] for r in reps],
        "raw_setup_s": [r["setup_s"] for r in reps],
        "reference_s": [r["ref_s"] for r in reps],
    }
    metrics = {
        "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MB"},
        "final_mse_ratio": {"value": session.quality["final_mse_ratio"], "unit": "ratio"},
        "refine_gap_median": {"value": gap, "unit": "ratio"},
    }
    return metrics, {name: summarize(values) for name, values in samples.items()}


def per_module(session: Session, seconds: float) -> tuple[dict, dict]:
    import tracer

    session.start = time.monotonic()
    results = session.run_until(seconds, [False, True])
    plain, traced = results[False], results[True]
    if not plain or not traced:
        return {}, {}
    per_rep = []
    for r in traced:
        values = tracer.per_module_metrics(r["spans"])
        per_rep.append({
            name: value * r["scale"] if tracer.METRIC_UNITS[name] == "s" else value
            for name, value in values.items()
        })
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_rep), "unit": unit}
        for name, unit in tracer.METRIC_UNITS.items()
        if name != "trace.overhead_s"
    }
    samples = {
        "wall_s": [r["wall_s"] * r["scale"] for r in plain],
        "traced_wall_s": [r["wall_s"] * r["scale"] for r in traced],
        "raw_wall_s": [r["wall_s"] for r in plain],
        "raw_traced_wall_s": [r["wall_s"] for r in traced],
    }
    overhead = statistics.median(samples["traced_wall_s"]) - statistics.median(samples["wall_s"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, {name: summarize(values) for name, values in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "quantred" / "__init__.py").is_file():
        fail(f"no quantred package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import quantred
    import workloads

    if Path(quantred.__file__).resolve().parent != SRC / "quantred":
        fail(f"imported quantred from {quantred.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(args.workload, args.seed, work)
        measure = per_module if args.trace else end_to_end
        metrics, samples = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if not metrics:
        fail("no repetition produced readable results: " + "; ".join(session.failures[:5]))

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            **session.versions,
        },
        "repetitions": session.reps,
        "samples": samples,
        "artifact_sha256": session.check.combined_hash(session.reference_hashes),
        "quality": session.quality,
        "failures": session.failures[:20],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    failed = len(session.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": session.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
