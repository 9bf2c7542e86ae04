"""Post-training quantization for linear layers with two-step error reduction.

The package root exports nothing: import each name from the module that
defines it, e.g. ``from quantred.pipeline import RunConfig``.
"""

__version__ = "0.1.0"
