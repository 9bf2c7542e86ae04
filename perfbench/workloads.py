"""Workload definitions: layer shapes, calibration size and entry point.

Every workload runs the same config: 4-bit weights and activations (from
the generated manifest), lambda1 = lambda2 = 10, k = 1, max_iter = 100,
jobs = 1. Only the seed changes the generated tensors; shapes and config
are fixed, so the work done per repetition is the same on every seed.
Shapes are small enough (2-5 s per repetition on a 2-core x86 VM) that a
run takes many repetitions, whose median resists the host's noise.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG = {"lambda1": 10.0, "lambda2": 10.0, "k": 1, "max_iter": 100, "jobs": 1}
BITS = 4


@dataclass(frozen=True)
class Workload:
    mode: str  # "quantize" (run_manifest) or "ablate" (run_ablation + write_csv)
    dims: tuple[tuple[int, int], ...]
    n_samples: int
    nonlinearities: tuple[str, ...] = ()


WORKLOADS = {
    # One uniform-activation layer with the largest calibration tensor:
    # the 141-point activation grid search over 0.5M values dominates.
    "tall-calib": Workload("quantize", ((64, 256),), 2048),
    # Wide input: 12 halving splits with 2048^2 moment blocks and ridge
    # factors, so the progressive weight loop dominates; N < D_in, so the
    # ridge terms keep the moment systems positive definite.
    "wide-in": Workload("quantize", ((32, 2048),), 128),
    # All 8 stage combinations on a 3-layer chain; the post-softmax layer
    # uses the log-sqrt2 activation quantizer. No code files are written.
    "ablate-chain": Workload(
        "ablate", ((16, 24), (24, 16), (12, 24)), 512, ("gelu", "softmax")
    ),
}


def generate(name: str, seed: int, out_dir):
    """Write the workload's seeded tensors and manifest; returns the manifest path."""
    from quantred import synth

    wl = WORKLOADS[name]
    spec = synth.SynthSpec(
        seed=seed,
        dims=wl.dims,
        n_samples=wl.n_samples,
        nonlinearities=wl.nonlinearities,
    )
    return synth.write_manifest_files(spec, out_dir, bits_w=BITS, bits_a=BITS)
