"""Gaussian-state simulator for the damped quantum harmonic oscillator
under Lindblad dynamics: closed-form moment evolution, phase-space
representations and entropy/purity diagnostics."""

from .model import (
    ConsistencyError,
    ConstraintReport,
    DiffusionSpec,
    InvalidStateError,
    LindbladOps,
    OscillatorSpec,
    ParameterError,
    UnitSystem,
    coefficients_from_ops,
    preset_gibbs,
    preset_pure_state,
    validate,
)
from .phasespace import CCSpec, CoherentWindow, PhaseSpaceGrid
from .propagator import (
    GaussianState,
    ScaledCovariances,
    evolve,
    evolve_covariances,
    evolve_means,
    ground_state,
    sample_trajectory,
    steady_covariances,
    steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "CCSpec",
    "CoherentWindow",
    "ConsistencyError",
    "ConstraintReport",
    "DiffusionSpec",
    "GaussianState",
    "InvalidStateError",
    "LindbladOps",
    "OscillatorSpec",
    "ParameterError",
    "PhaseSpaceGrid",
    "ScaledCovariances",
    "UnitSystem",
    "coefficients_from_ops",
    "evolve",
    "evolve_covariances",
    "evolve_means",
    "ground_state",
    "preset_gibbs",
    "preset_pure_state",
    "sample_trajectory",
    "steady_covariances",
    "steady_state",
    "validate",
]
