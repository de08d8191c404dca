"""Trace statistics of tridiagonal random matrices.

Walk-class trace kernels, ensemble samplers with deterministic per-trial
seeding, Monte Carlo checks of Gaussian-fluctuation variances/covariances,
and moderate-deviation / Cramér-rate diagnostics, plus a batch CLI.
"""

__version__ = "0.1.0"

from .circuits import (
    CircuitType,
    TridiagonalMatrix,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
)
from .ensembles import EnsembleSpec, EntryLaw, sample_matrix
from .errors import (
    ConfigError,
    DegenerateRateError,
    DegenerateTargetError,
    InvalidArgumentError,
    NumericOverflowError,
    TriTraceError,
)

__all__ = [
    "CircuitType",
    "TridiagonalMatrix",
    "EnsembleSpec",
    "EntryLaw",
    "enumerate_types",
    "trace_power_expansion",
    "trace_power_direct",
    "sample_matrix",
    "TriTraceError",
    "InvalidArgumentError",
    "NumericOverflowError",
    "DegenerateTargetError",
    "DegenerateRateError",
    "ConfigError",
    "__version__",
]
