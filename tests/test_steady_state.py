import math

import numpy as np
import pytest

from mirrorcool import (
    EffectiveBath,
    FockConfig,
    StabilityBoundaryError,
    StabilityError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
    bath_from_rates,
    build_bath,
    build_generator,
    check_stability,
    closed_form_moments,
    derive_coupling,
    diffusion_matrix,
    drift_matrix,
    evolve_to_steady,
    high_gain_moments,
    lyapunov_moments,
    optimize_gain,
    with_gain,
)
from mirrorcool.params import PhysicalConstants

from conftest import BOUNDARY_BATHS, random_stable_bath, reference_bath, reference_setup

# closed-form position variance at the reference chain with g = 1000,
# frozen from an independent straight-line evaluation (12 significant digits)
VAR_X_G1000 = 249131343.95228088


def desk_bath(g=0.0, Gamma=200.0, n_bar=100.0, gamma_m=1.0, eta=1.0, omega_m=62.8):
    return bath_from_rates(omega_m=omega_m, gamma_m=gamma_m, Gamma=Gamma,
                           eta=eta, n_bar=n_bar, g=g, phi=-math.pi / 2)


def test_zero_gain_variance_formula():
    b = desk_bath(g=0.0, Gamma=200.0, n_bar=100.0)
    m = closed_form_moments(b)
    assert m.var_x == pytest.approx(100.0 / 2 + 200.0 / 8, rel=1e-14)
    assert m.var_p == pytest.approx(m.var_x, rel=1e-14)
    assert m.cov_xp_sym == 0.0


def test_pure_thermal_equipartition():
    b = desk_bath(g=0.0, Gamma=0.0, n_bar=37.5)
    m = closed_form_moments(b)
    assert m.var_x == pytest.approx(37.5 / 2, rel=1e-14)
    assert m.var_p == pytest.approx(37.5 / 2, rel=1e-14)


def test_teff_equals_bath_temperature_without_feedback():
    setup = reference_setup()
    bath = build_bath(derive_coupling(setup), setup)
    m = closed_form_moments(bath)
    assert m.t_eff == pytest.approx(300.0, rel=1e-12)


def test_teff_identity_with_feedback():
    setup = reference_setup(g=1000.0)
    bath = build_bath(derive_coupling(setup), setup)
    m = closed_form_moments(bath)
    constants = PhysicalConstants()
    T = bath.n_bar * constants.hbar * bath.omega_m / constants.k_B
    assert m.t_eff * bath.g**2 == pytest.approx(T * bath.omega_m**2, rel=1e-14)


def test_reference_g1000_frozen_fixture():
    m = closed_form_moments(reference_bath(g=1000.0))
    assert m.var_x == pytest.approx(VAR_X_G1000, rel=1e-12)
    ly = lyapunov_moments(reference_bath(g=1000.0))
    assert ly.var_x == pytest.approx(VAR_X_G1000, rel=1e-12)


def test_drift_matrix_momentum_drive():
    b = desk_bath(g=50.0)
    np.testing.assert_allclose(
        drift_matrix(b), [[-50.0, 62.8], [-62.8, -1.0]], rtol=0, atol=1e-12
    )


def test_diffusion_matrix_entries():
    b = desk_bath(g=50.0)
    C = diffusion_matrix(b)
    assert C[0, 0] == pytest.approx(50.0**2 / 800.0, rel=1e-14)
    assert C[1, 1] == pytest.approx(100.0 + 50.0, rel=1e-14)
    assert abs(C[0, 1]) < 1e-14


def test_lyapunov_isotropic_synthetic_fixed_point():
    # drift -I and diffusion 2I give the identity covariance; assembled
    # through a hand-built coefficient record with omega_m = 0
    b = EffectiveBath(
        gamma=1.0, N=0.0, M=0j, squeeze_coeff=0.0, omega_m=0.0, gamma_m=1.0,
        g=1.0, phi=-math.pi / 2, Gamma=0.125, eta=1.0, n_bar=2.0 - 1.0 / 32.0,
    )
    np.testing.assert_allclose(drift_matrix(b), -np.eye(2), atol=1e-16)
    np.testing.assert_allclose(diffusion_matrix(b), 2 * np.eye(2), atol=1e-15)
    m = lyapunov_moments(b)
    assert m.var_x == pytest.approx(1.0, rel=1e-12)
    assert m.var_p == pytest.approx(1.0, rel=1e-12)
    assert m.cov_xp_sym == pytest.approx(0.0, abs=1e-12)


def test_closed_form_equals_lyapunov_over_random_draws(rng):
    worst = 0.0
    for _ in range(1000):
        b = random_stable_bath(rng)
        cf = closed_form_moments(b)
        ly = lyapunov_moments(b)
        worst = max(
            worst,
            abs(cf.var_x - ly.var_x) / cf.var_x,
            abs(cf.var_p - ly.var_p) / cf.var_p,
        )
        scale = max(cf.var_x, cf.var_p)
        assert cf.cov_xp_sym == pytest.approx(ly.cov_xp_sym, abs=1e-10 * scale)
        assert cf.var_x * cf.var_p >= 1.0 / 16.0
    assert worst < 1e-10
    # extreme rate ratios, where a general-purpose Lyapunov solver perturbed
    # the coefficients and returned a negative variance
    for b in (desk_bath(g=50.0, omega_m=1e20), desk_bath(g=1e-20, gamma_m=1e-300)):
        cf = closed_form_moments(b)
        ly = lyapunov_moments(b)
        assert ly.var_x == pytest.approx(cf.var_x, rel=1e-12)
        assert ly.var_p == pytest.approx(cf.var_p, rel=1e-12)
        assert ly.cov_xp_sym == pytest.approx(cf.cov_xp_sym, abs=1e-12 * max(cf.var_x, cf.var_p))


def test_cooling_derivative_negative_at_zero_gain():
    bath = reference_bath()
    eps = 1e-6
    v0 = closed_form_moments(bath).var_x
    v1 = closed_form_moments(with_gain(bath, eps)).var_x
    assert (v1 - v0) / eps < 0


def test_both_quadratures_cooled_at_moderate_gain():
    bath = reference_bath()
    m0 = closed_form_moments(bath)
    m10 = closed_form_moments(with_gain(bath, 10.0))
    assert m10.var_x < m0.var_x
    assert m10.var_p < m0.var_p


def test_high_gain_asymptote_linear_in_gain():
    b = desk_bath(g=1e9, Gamma=200.0, n_bar=100.0)
    m = high_gain_moments(b)
    assert m.var_x == pytest.approx(1e9 / (8 * 200.0), rel=1e-6)
    assert m.method == "high_gain"


def test_high_gain_validity_boundary_documented():
    # the approximation drops terms of order omega_m*Q_m/g: the relative
    # deviation from the exact variance is ~10% at g = 10*omega_m*Q_m and
    # enters the 5% band only just above 20x
    bath = reference_bath()
    om_qm = bath.omega_m**2 / bath.gamma_m

    def rel(mult):
        b = with_gain(bath, mult * om_qm)
        exact = closed_form_moments(b).var_x
        return abs(high_gain_moments(b).var_x - exact) / exact

    assert 0.08 < rel(10.0) < 0.12
    assert rel(21.0) < 0.05
    assert rel(30.0) < 0.035
    assert rel(100.0) < 0.01


def test_high_gain_not_valid_at_g1000():
    # g = 1000 is far below omega_m*Q_m ~ 3948 at the reference set: the
    # approximation visibly overshoots
    b = reference_bath(g=1000.0)
    exact = closed_form_moments(b).var_x
    approx = high_gain_moments(b).var_x
    assert abs(approx - exact) / exact > 1.0


def test_high_gain_requires_positive_gain():
    with pytest.raises(ValidationError):
        high_gain_moments(desk_bath(g=0.0))
    # the back-action term divides by gamma_m*g^2: an undamped mirror, or a
    # gain whose square underflows, is outside the form's domain
    for g, gamma_m in ((20.0, 0.0), (1e-20, 1e-300)):
        with pytest.raises(ValidationError) as err:
            high_gain_moments(desk_bath(g=g, gamma_m=gamma_m))
        assert err.value.field == "gamma_m"
    with pytest.raises(ValidationError) as err:
        high_gain_moments(desk_bath(g=1e-201))
    assert err.value.field == "g"


def test_optimize_gain_degenerate_range():
    bath = desk_bath(g=0.0, n_bar=100.0)
    g_opt, v = optimize_gain(bath, (7.0, 7.0))
    assert g_opt == 7.0
    assert v == closed_form_moments(with_gain(bath, 7.0)).var_x


def test_optimized_gain_beats_no_feedback():
    bath = reference_bath()
    g_opt, v_min = optimize_gain(bath, (0.0, 1e7))
    assert v_min <= closed_form_moments(bath).var_x
    assert 0 < g_opt < 1e7


def test_optimizer_matches_grid_scan_oracle():
    bath = desk_bath(g=0.0, Gamma=200.0, n_bar=1e4)
    grid = np.logspace(0, 5, 4000)
    values = [closed_form_moments(with_gain(bath, g)).var_x for g in grid]
    g_grid = grid[int(np.argmin(values))]
    g_opt, v_min = optimize_gain(bath, (1.0, 1e5))
    assert g_opt == pytest.approx(g_grid, rel=5e-3)
    assert v_min <= min(values)


def test_optimal_gain_grows_with_measurement_rate():
    g_opts = []
    for Gamma in (50.0, 200.0, 1000.0):
        bath = desk_bath(g=0.0, Gamma=Gamma, n_bar=1e4)
        g_opts.append(optimize_gain(bath, (0.0, 1e6))[0])
    assert g_opts[0] < g_opts[1] < g_opts[2]


def test_optimize_gain_invalid_range():
    bath = desk_bath(g=0.0)
    with pytest.raises(ValidationError):
        optimize_gain(bath, (5.0, 1.0))
    with pytest.raises(ValidationError):
        optimize_gain(bath, (-1.0, 2.0))


def test_closed_form_refuses_other_phases():
    b = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=50.0, eta=1.0,
                        n_bar=20.0, g=1.0, phi=0.0)
    with pytest.raises(UnsupportedPhaseError) as err:
        closed_form_moments(b)
    assert "lyapunov" in str(err.value)
    # the Lyapunov route handles the same bath
    m = lyapunov_moments(b)
    assert m.var_x > 0


def test_lyapunov_rejects_unstable_spring():
    b = bath_from_rates(omega_m=1.0, gamma_m=10.0, Gamma=50.0, eta=1.0,
                        n_bar=20.0, g=5.0, phi=math.pi / 2)
    with pytest.raises(StabilityError):
        lyapunov_moments(b)


@pytest.mark.parametrize("rates", BOUNDARY_BATHS.values(), ids=BOUNDARY_BATHS)
def test_lyapunov_boundary_is_a_distinct_error(rates):
    # a margin within rounding of zero is the boundary on every route,
    # whatever sign the rounding gives it
    b = bath_from_rates(**rates)
    assert not check_stability(b).stable
    with pytest.raises(StabilityBoundaryError):
        lyapunov_moments(b)
    with pytest.raises(StabilityBoundaryError, match="^no steady state exists"):
        evolve_to_steady(build_generator(b, 30), FockConfig(dim=30))


def test_variance_grows_unbounded_toward_damping_boundary():
    # phi = +pi/2, g -> gamma_m from below over a geometric sequence
    var = []
    for k in range(1, 13):
        g = 1.0 * (1 - 2.0**-k)
        b = bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                            n_bar=100.0, g=g, phi=math.pi / 2)
        var.append(lyapunov_moments(b).var_x)
    assert all(b > a for a, b in zip(var, var[1:]))
    assert var[-1] > 100 * var[0]
    with pytest.raises(UnstableBathError):
        bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                        n_bar=100.0, g=1.0, phi=math.pi / 2)
