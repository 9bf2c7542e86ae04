"""One benchmark repetition in a fresh process.

Makes the same public calls as ``quantred quantize`` / ``quantred ablate``:
``tensorfile.load_manifest`` then ``pipeline.run_manifest``, or
``load_manifest`` -> ``pipeline.load_layers`` -> ``pipeline.run_ablation``
-> ``pipeline.write_csv``. Writes a JSON result with ``setup_s`` (spawn
until ready for the first layer, measured against the parent's
CLOCK_MONOTONIC stamp), ``wall_s`` (first run call until the artifacts are
written), ``peak_rss_mb``, and ``ref_s``: timings of a fixed reference
kernel taken right after set-up and right after the timed region, which
the parent uses to scale times to a reference host speed. With ``--spans``
the public functions are wrapped by the tracer and the spans are written
to that file at exit.

    python3 perfbench/child.py --mode quantize --manifest M --out DIR \
        --config JSON --spawn T --result R [--spans S]
"""

import argparse
import json
import resource
import sys
import time

REFERENCE_REPEATS = 3


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and small-array numpy work.

    It runs no quantred code, so a change to the program cannot move it;
    only the speed the host gives this process at that moment can. Its
    arrays are small so that it leaves ``peak_rss_mb`` unchanged.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 1 << 13)
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i
    for _ in range(450):
        np.mean((x - np.rint(x * 1.7) / 1.7) ** 2)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("quantize", "ablate"), required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", required=True, help="RunConfig fields as JSON")
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from quantred import pipeline, tensorfile

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cfg = pipeline.RunConfig.from_dict(json.loads(args.config))
    entries = tensorfile.load_manifest(args.manifest)
    layers = pipeline.load_layers(entries, cfg) if args.mode == "ablate" else None
    result = {"setup_s": time.monotonic() - args.spawn}
    ref_s = [reference_seconds() for _ in range(REFERENCE_REPEATS)]

    t0 = time.perf_counter()
    if args.mode == "ablate":
        rows = pipeline.run_ablation(layers, cfg)
        pipeline.write_csv(f"{args.out}/ablation.csv", rows, pipeline.ABLATION_COLUMNS)
    else:
        pipeline.run_manifest(entries, cfg, args.out)
    result["wall_s"] = time.perf_counter() - t0
    ref_s += [reference_seconds() for _ in range(REFERENCE_REPEATS)]
    result["ref_s"] = ref_s

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
