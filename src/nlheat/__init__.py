"""Pseudospectral toolkit for norm inflation in the nonlinear heat equation.

Band-limited Gaussian data on the d-torus, an adversarial correlation
construction that produces a deterministic zero-mode drift, and the
machinery to simulate and quantify it: spectral fields and transforms,
Gaussian samplers, Littlewood-Paley/Besov norms, nonlinearity presets, an
ETD-RK2 solver, exact drift formulas, and experiment drivers.
"""

from .besov import DyadicPartition, besov_norms
from .correlation import ParameterSet, compute_Zt, drift_scalar, expected_Zt
from .experiments import ConfigError, ExperimentConfig
from .field import (SpectralField, TorusGrid, analyze, pointwise_product,
                    synthesize_real)
from .gfsf import read_field, write_field
from .nonlinearity import (NonlinearitySpec, asymmetry_witness,
                           drift_direction, preset)
from .sampling import (GfsSpec, VarianceProfile, build_adversarial_pair,
                       sample_E_valued, sample_real_gfs, stream)
from .solver import SolveConfig, Trajectory, solve

__version__ = "0.1.0"

__all__ = [
    "DyadicPartition", "besov_norms",
    "ParameterSet", "compute_Zt", "drift_scalar", "expected_Zt",
    "ConfigError", "ExperimentConfig",
    "SpectralField", "TorusGrid", "analyze", "pointwise_product",
    "synthesize_real",
    "read_field", "write_field",
    "NonlinearitySpec", "asymmetry_witness", "drift_direction", "preset",
    "GfsSpec", "VarianceProfile", "build_adversarial_pair",
    "sample_E_valued", "sample_real_gfs", "stream",
    "SolveConfig", "Trajectory", "solve",
    "__version__",
]
