"""Feedback cooling of a macroscopic mirror by homodyne detection.

Derives the effective phase-sensitive bath seen by the mirror from
laboratory parameters, evaluates steady-state quadrature variances and
noise spectra in closed form, and cross-validates them against a
stochastic-trajectory oracle and a truncated number-basis
master-equation oracle.

``import mirrorcool`` runs no submodule. Each one is registered in
``sys.modules`` and as a package attribute, and its body runs on its
first attribute access; a name re-exported here resolves through its
module on first use. So a CLI verb runs only the modules it calls, and
``derive`` loads no numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# each re-exported name -> the submodule that defines it
_EXPORTS = {
    "bath": ("EffectiveBath", "StabilityReport", "bath_from_rates", "build_bath",
             "check_stability", "with_gain"),
    "errors": ("InvalidSetupError", "MirrorCoolError", "NoiseModelError", "NumericalError",
               "StabilityBoundaryError", "StabilityError", "TruncationError",
               "UnstableBathError", "UnsupportedPhaseError", "ValidationError"),
    "fock": ("FockConfig", "FockSolution", "build_generator", "evolve_to_steady"),
    "langevin": ("SimConfig", "TrajectoryEnsembleStats", "psd_vs_analytic", "simulate"),
    "params": ("DerivedCoupling", "PhysicalSetup", "derive_coupling", "thermal_occupation"),
    "spectrum": ("default_grid", "eval_spectrum", "sum_rule_check"),
    "steady_state": ("SteadyMoments", "closed_form_moments", "diffusion_matrix", "drift_matrix",
                     "high_gain_moments", "lyapunov_moments", "optimize_gain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _register(name: str) -> None:
    """Put submodule ``name`` in ``sys.modules`` and on the package, unexecuted.

    On older CPython releases a lazy module's first access is not guarded
    against two threads. Every first access is made on the calling
    thread: a module runs the modules it imports names from as its own
    body runs, so all have run before ``langevin`` starts its worker
    threads, and ``langevin`` first touches the ``spectrum`` module it
    binds only after they have joined.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in _EXPORTS:
    _register(_name)
del _name


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
