"""Post-training quantization for linear layers with two-step error reduction."""

from .act_correct import solve_activation_correction
from .linalg import SingularSystemError
from .moments import InsufficientSamplesError, accumulate_moments
from .oracle import (
    BruteForceResult,
    brute_force_rounding,
    finite_diff_gradient,
    layer_mse,
    mc_output_error,
)
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
from .synth import ChainReport, SynthSpec, generate_layer, run_chain
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
    RoundingState,
    WeightQuantConfig,
    halving_splits,
    init_rounding,
    proxy_gradient,
    proxy_value,
    quantize_layer_weights,
    refine_rounding,
)

__version__ = "0.1.0"
