"""Post-training quantization for linear layers with two-step error reduction."""

from .act_correct import solve_activation_correction
from .linalg import SingularSystemError
from .moments import InsufficientSamplesError, accumulate_moments
from .pipeline import RunConfig, quantize_layer, run_manifest
from .quantizers import (
    LogSqrt2Params,
    NonFiniteInputError,
    QuantScheme,
    UniformParams,
    calibrate_scale,
    dequantize_log_sqrt2,
    dequantize_uniform,
    quantize_log_sqrt2,
    quantize_uniform,
)
from .tensorfile import (
    LayerManifestEntry,
    ManifestError,
    TensorFormatError,
    load_manifest,
    read_tensor,
    write_tensor,
)
from .weight_quant import (
    LayerMomentCache,
    LayerWeightResult,
    RemainderRidge,
    RoundingState,
    halving_splits,
    init_rounding,
    proxy_gradient,
    proxy_value,
    quantize_layer_weights,
    refine_rounding,
)

__version__ = "0.1.0"

# quantred.synth (synthetic layers and chains) and quantred.oracle (the
# reference evaluators) load on first use: the run path,
# `from quantred import pipeline, tensorfile`, needs neither
_LAZY = {
    **dict.fromkeys(("ChainReport", "SynthSpec", "generate_layer", "run_chain"), "synth"),
    **dict.fromkeys(
        ("BruteForceResult", "brute_force_rounding", "finite_diff_gradient", "layer_mse",
         "mc_output_error"),
        "oracle",
    ),
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_LAZY])
