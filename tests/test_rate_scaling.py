"""Every route is invariant under a change of time unit.

Scaling ``omega_m``, ``gamma_m``, ``Gamma`` and ``g`` by lambda is the same
physics in a time unit 1/lambda as long: the dimensionless moments and the
number-basis state do not move, a spectral density S(omega) becomes
S(omega/lambda)/lambda, and a time step or duration divides by lambda. For
a power of two every product, quotient and square root rounds to the same
bits times a power of two, so each route must agree exactly; a rate that a
route drops or scales wrongly breaks the equality. For lambda = 3 the
analytic routes agree to roundoff.
"""

import math

import numpy as np
import pytest

from mirrorcool import (
    FockConfig,
    SimConfig,
    bath_from_rates,
    closed_form_moments,
    eval_spectrum,
    evolve_to_steady,
    lyapunov_moments,
    simulate,
    sum_rule_check,
)

RATES = {"omega_m": 10.0, "gamma_m": 1.0, "Gamma": 40.0, "g": 20.0}
OMEGA = np.linspace(0.0, 60.0, 241)
SIM = {"dt": 1e-3, "t_relax": 2.0, "t_sample": 4.0, "n_traj": 4, "seed": 7,
       "welch_segment": 512}


def scaled_bath(lam):
    return bath_from_rates(**{k: lam * v for k, v in RATES.items()},
                           eta=0.9, n_bar=0.5, phi=-math.pi / 2)


def analytic(lam):
    """The moments of both steady-state routes, with T_eff, and the spectrum and sum rule."""
    bath = scaled_bath(lam)
    moments = [(m.var_x, m.var_p, m.cov_xp_sym, m.t_eff)
               for m in (closed_form_moments(bath), lyapunov_moments(bath))]
    return moments, eval_spectrum(bath, lam * OMEGA) * lam, sum_rule_check(bath)


def unscaled(moments, lam):
    return [(vx, vp, c, t / lam) for vx, vp, c, t in moments]


@pytest.mark.parametrize("lam", [0.25, 8.0])
def test_a_power_of_two_leaves_the_analytic_routes_bit_identical(lam):
    moments, spectrum, sum_rule = analytic(1.0)
    got_moments, got_spectrum, got_sum_rule = analytic(lam)
    assert unscaled(got_moments, lam) == moments
    assert np.array_equal(got_spectrum, spectrum)
    assert got_sum_rule == sum_rule


@pytest.mark.parametrize("lam", [0.25, 8.0])
def test_a_power_of_two_leaves_the_number_basis_state_bit_identical(lam):
    cfg = FockConfig(dim=60)
    want = evolve_to_steady(scaled_bath(1.0), cfg).rho
    assert np.array_equal(evolve_to_steady(scaled_bath(lam), cfg).rho, want)


@pytest.mark.parametrize("lam", [0.25, 8.0])
def test_a_power_of_two_leaves_the_monte_carlo_bit_identical(lam):
    want = simulate(scaled_bath(1.0), SimConfig(**SIM))
    times = {k: SIM[k] / lam for k in ("dt", "t_relax", "t_sample")}
    got = simulate(scaled_bath(lam), SimConfig(**{**SIM, **times}))
    for name in ("var_x_hat", "var_p_hat", "cov_xp_hat", "psd_var_integral", "n_effective"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.psd_values * lam, want.psd_values)
    assert np.array_equal(got.psd_omega / lam, want.psd_omega)


def test_a_factor_of_three_moves_the_analytic_routes_at_roundoff():
    moments, spectrum, sum_rule = analytic(1.0)
    got_moments, got_spectrum, got_sum_rule = analytic(3.0)
    for got, want in zip(unscaled(got_moments, 3.0), moments):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    np.testing.assert_allclose(got_spectrum, spectrum, rtol=1e-12, atol=0)
    assert got_sum_rule[:2] == pytest.approx(sum_rule[:2], rel=1e-12, abs=0)
