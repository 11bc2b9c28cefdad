"""Every public entry point, at rates anywhere in the float range.

Each rate is drawn as zero (10%), log-uniform over 1e-310 to 1e300 (30%)
or at desk scale (60%), so squares and products under- and overflow on
the way. Every entry point of ``mirrorcool.__all__`` must then return
finite values or refuse with a :class:`MirrorCoolError`: a square past
the float range is inf, which the library refuses by name, and no
``OverflowError``, ``ZeroDivisionError`` or numpy warning escapes it.
The slow oracles run at small sizes only.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirrorcool
from mirrorcool.langevin import _slowest_rate
from mirrorcool import (
    FockConfig, MirrorCoolError, PhysicalSetup, SimConfig, bath_from_rates, build_bath,
    build_generator, check_stability, closed_form_moments, default_grid, derive_coupling,
    diffusion_matrix, drift_matrix, eval_spectrum, evolve_to_steady, high_gain_moments,
    lyapunov_moments, optimize_gain, psd_vs_analytic, simulate, sum_rule_check,
    thermal_occupation, with_gain,
)

# documented infinities: an undamped mirror's quality factor, T_eff where
# g > 0 squares to 0, and the positivity gap where (g/gamma)^2 leaves the range
MAY_BE_INF = {"Q_m", "t_eff", "positivity_gap"}
MAX_STEPS = 20_000  # a longer Monte Carlo run is left to the oracles' own tests
# the closed forms' phase half the time, or any of five
PHASE = st.one_of(st.just(-math.pi / 2),
                  st.sampled_from([-math.pi / 2, -1.0, 0.0, 0.6, math.pi / 2]))

# the names of mirrorcool.__all__ that are neither an error nor a result
ENTRY_POINTS = {
    "FockConfig", "PhysicalSetup", "SimConfig", "bath_from_rates", "build_bath",
    "build_generator", "check_stability", "closed_form_moments", "default_grid",
    "derive_coupling", "diffusion_matrix", "drift_matrix", "eval_spectrum", "evolve_to_steady",
    "high_gain_moments", "lyapunov_moments", "optimize_gain", "psd_vs_analytic", "simulate",
    "sum_rule_check", "thermal_occupation", "with_gain",
}
RESULTS = {"DerivedCoupling", "EffectiveBath", "FockSolution", "StabilityReport",
           "SteadyMoments", "TrajectoryEnsembleStats"}


def rate(lo: float, hi: float):
    """Zero, log-uniform over 1e-310 to 1e300, or uniform over [lo, hi]: 1, 3 and 6 in 10."""
    return st.integers(0, 9).flatmap(
        lambda k: st.just(0.0) if k == 0
        else st.floats(-310.0, 300.0).map(lambda e: 10.0**e) if k <= 3
        else st.floats(lo, hi))


def assert_finite(value, name: str) -> None:
    """Every number in ``value`` is finite; a field of MAY_BE_INF may be inf, not NaN."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            assert_finite(getattr(value, field.name), f"{name}.{field.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            assert_finite(item, f"{name}[{i}]")
    elif isinstance(value, (np.ndarray, complex, float)):
        values = np.asarray(value)
        parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
        for part in parts:
            ok = np.isfinite(part) | (np.isinf(part) if name.rsplit(".")[-1] in MAY_BE_INF
                                      else False)
            assert ok.all(), f"{name} is not finite: {value!r}"


def call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with its result checked finite, or None where it
    refuses with a MirrorCoolError."""
    try:
        result = fn(*args, **kwargs)
    except MirrorCoolError:
        return None
    assert_finite(result, fn.__name__)
    return result


def sim_config(bath) -> SimConfig:
    """The shortest run ``simulate`` accepts for a stable ``bath`` if it has at
    most MAX_STEPS steps, or else a desk-scale run, which it refuses."""
    dt = 0.09 / max(bath.omega_m, bath.gamma_m + bath.g)
    t_relax = 10 / _slowest_rate(drift_matrix(bath))
    if not (dt > 0 and t_relax / dt + 256 <= MAX_STEPS):
        dt, t_relax = 2e-3, 0.5
    return SimConfig(dt=dt, t_relax=t_relax, t_sample=256 * dt, n_traj=2, seed=3,
                     welch_segment=64)


def test_every_entry_point_is_in_the_gate():
    errors = {name for name in mirrorcool.__all__ if name.endswith("Error")}
    assert set(mirrorcool.__all__) == ENTRY_POINTS | RESULTS | errors


@pytest.mark.filterwarnings("ignore:negative eigenvalue")  # the Fock oracle on a non-CP bath
@settings(derandomize=True, deadline=None, max_examples=150)
# closed forms whose products overflow, but not their moments (var_p about 5.75e137)
@example(omega_m=55.3, gamma_m=1.0, Gamma=4.6e138, eta=1.0, n_bar=2.9, g=4.6e138,
         phi=-math.pi / 2, g_hi=1.0)
# a gain quartic whose double sum overflows below its root g = 0.187, past g_hi
@example(omega_m=6.495127618027929e76, gamma_m=1.0, Gamma=0.1, eta=1.0, n_bar=1.0, g=1.0,
         phi=-math.pi / 2, g_hi=0.15)
# Monte Carlo estimates past the float range: var_x_stderr = inf
@example(omega_m=22.25, gamma_m=0.0, Gamma=1e-187, eta=0.36, n_bar=1e-187, g=22.25,
         phi=-math.pi / 2, g_hi=1.0)
@given(omega_m=rate(1.0, 100.0), gamma_m=rate(0.1, 10.0), Gamma=rate(0.1, 1000.0),
       eta=rate(0.2, 1.0), n_bar=rate(0.0, 3.0), g=rate(0.1, 100.0), phi=PHASE,
       g_hi=rate(1.0, 1000.0))
def test_the_bath_routes_return_finite_values_or_refuse(omega_m, gamma_m, Gamma, eta, n_bar, g,
                                                       phi, g_hi):
    bath = call(bath_from_rates, omega_m=omega_m, gamma_m=gamma_m, Gamma=Gamma, eta=eta,
                n_bar=n_bar, g=g, phi=phi)
    if bath is None:
        return
    for fn in (check_stability, closed_form_moments, high_gain_moments, lyapunov_moments,
               drift_matrix, diffusion_matrix, sum_rule_check):
        call(fn, bath)
    grid = call(default_grid, bath)
    if grid is not None:
        call(eval_spectrum, bath, grid[::256])
    call(with_gain, bath, g_hi)
    optimum = call(optimize_gain, bath, (0.0, g_hi))
    if optimum is not None:  # no higher than the closed form at either end, where it evaluates
        for end in (call(with_gain, bath, 0.0), call(with_gain, bath, g_hi)):
            moments = end and call(closed_form_moments, end)
            assert moments is None or optimum[1] <= moments.var_x * (1 + 1e-12), end
    call(build_generator, bath, 6)
    call(evolve_to_steady, bath, FockConfig(dim=24))
    if not check_stability(bath).stable:  # simulate refuses it before its config
        return
    stats = call(simulate, bath, sim_config(bath))
    if stats is not None:
        call(psd_vs_analytic, stats)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(m=rate(1.0, 100.0), nu_m=rate(1.0, 100.0), gamma_m=rate(0.1, 10.0), L=rate(0.1, 10.0),
       nu_0=rate(1e14, 1e15), T_r=rate(1e-3, 1.0), P_in=rate(0.1, 100.0), T=rate(1.0, 1000.0),
       eta=rate(0.2, 1.0), g=rate(0.1, 100.0), phi=PHASE, Delta=rate(0.0, 1e6))
def test_the_setup_route_returns_finite_values_or_refuses(**fields):
    setup = call(PhysicalSetup, **fields)
    if setup is None:
        return
    coupling = call(derive_coupling, setup)
    call(thermal_occupation, setup.T, 2 * math.pi * setup.nu_m)
    if coupling is not None:
        call(build_bath, coupling, setup)


def test_a_gain_whose_square_underflows_cools_to_an_infinite_temperature():
    # g^2 = 1e-340 underflows to 0: T*(omega_m/g)^2 is past the float range
    bath = bath_from_rates(omega_m=1.0, gamma_m=1.0, Gamma=1.0, eta=1.0, n_bar=1.0, g=1e-170,
                           phi=-math.pi / 2)
    assert closed_form_moments(bath).t_eff == math.inf
