"""Feedback cooling of a macroscopic mirror by homodyne detection.

Derives the effective phase-sensitive bath seen by the mirror from
laboratory parameters, evaluates steady-state quadrature variances and
noise spectra in closed form, and cross-validates them against a
stochastic-trajectory oracle and a truncated number-basis
master-equation oracle.
"""

from .bath import (
    EffectiveBath,
    StabilityReport,
    bath_from_rates,
    build_bath,
    check_stability,
    with_gain,
)
from .errors import (
    InvalidSetupError,
    MirrorCoolError,
    NoiseModelError,
    NumericalError,
    StabilityBoundaryError,
    StabilityError,
    TruncationError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
)
from .fock import FockConfig, FockSolution, build_generator, evolve_to_steady
from .langevin import SimConfig, TrajectoryEnsembleStats, psd_vs_analytic, simulate
from .params import DerivedCoupling, PhysicalSetup, derive_coupling, thermal_occupation
from .spectrum import default_grid, eval_spectrum, sum_rule_check
from .steady_state import (
    SteadyMoments,
    closed_form_moments,
    diffusion_matrix,
    drift_matrix,
    high_gain_moments,
    lyapunov_moments,
    optimize_gain,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedCoupling",
    "EffectiveBath",
    "FockConfig",
    "FockSolution",
    "InvalidSetupError",
    "MirrorCoolError",
    "NoiseModelError",
    "NumericalError",
    "PhysicalSetup",
    "SimConfig",
    "StabilityBoundaryError",
    "StabilityError",
    "StabilityReport",
    "SteadyMoments",
    "TrajectoryEnsembleStats",
    "TruncationError",
    "UnstableBathError",
    "UnsupportedPhaseError",
    "ValidationError",
    "bath_from_rates",
    "build_bath",
    "build_generator",
    "check_stability",
    "closed_form_moments",
    "default_grid",
    "derive_coupling",
    "diffusion_matrix",
    "drift_matrix",
    "eval_spectrum",
    "evolve_to_steady",
    "high_gain_moments",
    "lyapunov_moments",
    "optimize_gain",
    "psd_vs_analytic",
    "simulate",
    "sum_rule_check",
    "thermal_occupation",
    "with_gain",
]
