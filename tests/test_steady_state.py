import math
import re

import numpy as np
import pytest
from scipy import constants as codata

from mirrorcool import (
    EffectiveBath,
    FockConfig,
    NumericalError,
    StabilityBoundaryError,
    StabilityError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
    bath_from_rates,
    build_bath,
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

from mirrorcool.steady_state import _closed_forms, _lyapunov_terms, _steady_covariance

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
    T = bath.n_bar * codata.hbar * bath.omega_m / codata.k
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
    # the coefficients and returned a negative variance; and rates whose
    # double-precision closed forms leave the range and are evaluated again
    # in long double: c_p*g*g overflows (Gamma = g = 4.6e138), rates 1e319
    # apart (omega_m 3.3e150, gamma_m = g = 3.3e-169), an overflowed
    # denominator turns var_x into 0 (Gamma 9.4e196), a subnormal denominator
    # of about 1e-323 keeps two significant bits (4.1% off in double), and
    # 200 random draws
    for b in (desk_bath(g=50.0, omega_m=1e20), desk_bath(g=1e-20, gamma_m=1e-300),
              desk_bath(g=4.6e138, Gamma=4.6e138, n_bar=2.9, omega_m=55.3),
              desk_bath(g=3.3e-169, gamma_m=3.3e-169, Gamma=6.7e7, n_bar=2.9, omega_m=3.3e150),
              desk_bath(g=1.2319506190576426e63, gamma_m=8.088074167768017e-49,
                        Gamma=9.407399166749923e196, eta=0.09577272571979892,
                        n_bar=0.280704938825995, omega_m=4.1111638296075316e-104),
              desk_bath(g=6.2605e-226, gamma_m=5.7762e-206, Gamma=1.7473e68, eta=0.0016559,
                        n_bar=2.2672, omega_m=9.4364e-60),
              *_past_the_double_range(np.random.default_rng(33), 200)):
        cf = closed_form_moments(b)
        ly = lyapunov_moments(b)
        assert ly.var_x == pytest.approx(cf.var_x, rel=1e-12)
        assert ly.var_p == pytest.approx(cf.var_p, rel=1e-12)
        assert ly.cov_xp_sym == pytest.approx(cf.cov_xp_sym, abs=1e-12 * max(cf.var_x, cf.var_p))


def _past_the_double_range(rng, count):
    """``count`` stable baths with finite Lyapunov moments, rates log-uniform
    over most of the float range, whose double-precision closed forms leave
    the range: a non-finite moment, or a variance that an overflowed
    denominator turned into 0."""
    while count:
        rates = dict(omega_m=10 ** rng.uniform(-150, 150), gamma_m=10 ** rng.uniform(-300, 300),
                     Gamma=10 ** rng.uniform(-300, 300), eta=10 ** rng.uniform(-3, 0),
                     n_bar=10 ** rng.uniform(-3, 3), g=10 ** rng.uniform(-300, 300))
        try:
            b = bath_from_rates(**rates, phi=-math.pi / 2)
            lyapunov_moments(b)
            (var_x, var_p, cov), _ = _closed_forms(b.g, b.gamma_m, b.omega_m, b.noise_xx,
                                                    b.noise_pp)
        except (NumericalError, StabilityError):
            continue
        if not (var_x > 0 and var_p > 0 and all(map(math.isfinite, (var_x, var_p, cov)))):
            yield b
            count -= 1


def test_lyapunov_closed_form_solves_the_equation_identically():
    # S = -(det(A) C + Abar C Abar^T)/(2 tr(A) det(A)), Abar = A - tr(A) I,
    # as the code expands it: A S + S A^T + C = 0 wherever tr(A) det(A) != 0
    import sympy as sp

    a, b, c, d, p, q, r = sp.symbols("a b c d p q r", real=True)
    A, C = sp.Matrix([[a, b], [c, d]]), sp.Matrix([[p, q], [q, r]])
    (x, y, z), denom = _lyapunov_terms(a, b, c, d, p, q, r)
    assert sp.expand(denom + 2 * A.trace() * A.det()) == 0
    N = sp.Matrix([[x, z], [z, y]])  # denom * S
    assert (A * N + N * A.T + denom * C).expand() == sp.zeros(2, 2)
    Abar = A - A.trace() * sp.eye(2)
    assert (N - A.det() * C - Abar * C * Abar.T).expand() == sp.zeros(2, 2)


def _exact_steady_covariance(A, C):
    """(var_x, var_p, cov) of the float A and C, solved in exact rationals."""
    import sympy as sp

    (a, b), (c, d) = [[sp.Rational(float(v)) for v in row] for row in A]
    rhs = sp.Matrix([-sp.Rational(float(C[0, 0])), -sp.Rational(float(C[1, 1])),
                     -sp.Rational(float(C[0, 1]))])
    system = sp.Matrix([[2 * a, 0, 2 * b], [0, 2 * d, 2 * c], [c, b, a + d]])
    return [float(v) for v in system.LUsolve(rhs)]


def _assert_exact_moments(m, exact, rel):
    x, y, z = exact
    assert m.var_x == pytest.approx(x, rel=rel)
    assert m.var_p == pytest.approx(y, rel=rel)
    assert m.cov_xp_sym == pytest.approx(z, rel=rel, abs=rel * max(x, y) if z == 0 else 0)


def test_lyapunov_moments_are_the_exact_solution_at_random_phases():
    # each moment within 2 ulp of the exact solution for the float drift and
    # diffusion (at most 1.1e-16 relative over 1500 draws; the 3x3 solve it
    # replaced reached 5.3e-14)
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 150:
        try:
            b = bath_from_rates(
                omega_m=10 ** rng.uniform(0, 2), gamma_m=10 ** rng.uniform(-1, 1),
                Gamma=10 ** rng.uniform(-1, 3), eta=rng.uniform(0.2, 1.0),
                n_bar=10 ** rng.uniform(0, 4), g=10 ** rng.uniform(-1, 3),
                phi=rng.uniform(-math.pi, math.pi))
            m = lyapunov_moments(b)
        except StabilityError:
            continue
        _assert_exact_moments(m, _exact_steady_covariance(drift_matrix(b), diffusion_matrix(b)),
                              rel=4.5e-16)
        checked += 1


EXTREME_RATES = {
    "omega_m_1e150": dict(omega_m=1e150),
    "gamma_m_1e-300": dict(gamma_m=1e-300),
    "gamma_m_1e-300_no_gain": dict(gamma_m=1e-300, g=0.0),
    "both": dict(omega_m=1e150, gamma_m=1e-300, g=0.0, Gamma=0.0),
}


@pytest.mark.parametrize("phi", [-math.pi / 2, -1.0, 0.0])
@pytest.mark.parametrize("rates", EXTREME_RATES.values(), ids=EXTREME_RATES)
def test_lyapunov_moments_at_the_ends_of_the_float_range(rates, phi):
    # omega_m = 1e150 is just inside the omega_m**2 guard of bath_from_rates;
    # the products of the closed form stay in the long-double range, so the
    # moments are finite and exact, also where a rescaled double form
    # underflows a rate (omega_m 1e150 with gamma_m 1e-300)
    b = bath_from_rates(**{"omega_m": 10.0, "gamma_m": 1.0, "Gamma": 40.0, "eta": 1.0,
                           "n_bar": 3.0, "g": 20.0, "phi": phi, **rates})
    m = lyapunov_moments(b)
    assert all(map(math.isfinite, (m.var_x, m.var_p, m.cov_xp_sym)))
    _assert_exact_moments(m, _exact_steady_covariance(drift_matrix(b), diffusion_matrix(b)),
                          rel=1e-12)
    if phi == -math.pi / 2:
        cf = closed_form_moments(b)
        _assert_exact_moments(m, (cf.var_x, cf.var_p, cf.cov_xp_sym), rel=1e-12)


def test_lyapunov_moments_past_the_float_range_are_refused():
    # a stable bath whose var_p is about 1e321: refused, never returned as inf
    b = bath_from_rates(omega_m=1e-160, gamma_m=0.0, Gamma=100.0, eta=1.0, n_bar=1.0, g=1.0,
                        phi=-1.0)
    with pytest.raises(NumericalError, match="leaves the float range"):
        lyapunov_moments(b)


@pytest.mark.parametrize("A", [np.zeros((2, 2)), np.array([[-1.0, 0.0], [0.0, 1.0]]),
                               np.array([[-1.0, 1.0], [-1.0, 1.0]])],
                         ids=["zero", "zero_trace", "zero_det"])
def test_singular_lyapunov_system_is_the_boundary(A):
    with pytest.raises(StabilityBoundaryError):
        _steady_covariance(A, np.eye(2))


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


def test_optimize_gain_refuses_an_unphysical_candidate():
    # stable but not Lindblad-positive (gap -0.244): the endpoints are
    # physical, the interior root g = 6.106 of the quartic is not
    bath = bath_from_rates(omega_m=1.6912741970237304, gamma_m=9.818063882683779,
                           Gamma=26.247014595419625, eta=0.9326890348129779,
                           n_bar=1.0075543273406091, g=1.0, phi=-math.pi / 2)
    report = check_stability(bath)
    assert report.stable and report.positivity_gap == pytest.approx(-0.24426, abs=1e-5)
    g_hi = 15.128434230207406
    for g in (0.0, g_hi):
        m = closed_form_moments(with_gain(bath, g))
        assert m.var_x * m.var_p >= 1 / 16
    with pytest.raises(StabilityError, match=r"Heisenberg bound violated: var_x\*var_p = 0.044349"):
        optimize_gain(bath, (0.0, g_hi))


@pytest.mark.parametrize("rates", [
    {"omega_m": 1e140, "gamma_m": 1.0, "Gamma": 1.0, "eta": 1.0, "n_bar": 1.0},
    {"omega_m": 8.43, "gamma_m": 5.55e47, "Gamma": 2.82e129, "eta": 0.899, "n_bar": 9.55},
], ids=["omega_m_squared_overflows", "quartic_coefficient_is_inf"])
def test_optimize_gain_refuses_a_quartic_past_the_float_range(rates):
    # squaring omega_m**2 overflows a float power, and an inf coefficient
    # leaves no sign to bisect on: each is refused as a numerical failure
    # naming the bath
    bath = bath_from_rates(**rates, g=1.0, phi=-math.pi / 2)
    with pytest.raises(NumericalError, match=re.escape(f"omega_m={rates['omega_m']!r}")):
        optimize_gain(bath, (0.0, 10.0))


def printed_moments():
    """Positive symbols and the printed var_x, var_p and cov_xp_sym at phi = -pi/2.

    The symbols are (g, gamma_m, omega_m, Gamma, eta, n_bar).
    """
    import sympy as sp

    symbols = sp.symbols("g gamma_m omega_m Gamma eta n_bar", positive=True)
    g, gm, om, Gamma, eta, n_bar = symbols
    c_x, c_p = g**2 / (4 * eta * Gamma), gm * n_bar + Gamma / 4
    denom = 2 * (gm + g) * (om**2 + gm * g)
    var_x = (c_x * (gm**2 + om**2 + gm * g) + c_p * om**2) / denom
    var_p = (c_p * (g**2 + gm * g + om**2) + om**2 * c_x) / denom
    cov = om * (c_p * g - c_x * gm) / denom
    return symbols, (var_x, var_p, cov)


SYMBOLIC_POINT = dict(g=40.0, gamma_m=1.3, omega_m=62.8, Gamma=200.0, eta=0.7, n_bar=100.0)


def at_point(expr, symbols):
    return float(expr.subs(dict(zip(symbols, SYMBOLIC_POINT.values()))))


def test_gain_quartic_is_the_stationarity_numerator():
    import sympy as sp
    from types import SimpleNamespace

    from mirrorcool.steady_state import _gain_quartic

    symbols, (var_x, _, _) = printed_moments()
    g, gm, om, Gamma, eta, n_bar = symbols
    exact = closed_form_moments(desk_bath(**SYMBOLIC_POINT)).var_x
    assert at_point(var_x, symbols) == pytest.approx(exact, rel=1e-14)

    numerator = sp.fraction(sp.together(sp.diff(var_x, g)))[0]
    symbols = SimpleNamespace(gamma_m=gm, omega_m=om, Gamma=Gamma, eta=eta, n_bar=n_bar)
    quartic = sum(c * g**(4 - k) for k, c in enumerate(_gain_quartic(symbols)))
    factor = sp.cancel(numerator / quartic)
    assert g not in factor.free_symbols
    assert factor.is_positive


def test_printed_moments_solve_the_lyapunov_equation():
    import sympy as sp

    symbols, printed = printed_moments()
    g, gm, om, Gamma, eta, n_bar = symbols
    phi = -sp.pi / 2
    A = sp.Matrix([[g * sp.sin(phi), om], [-om, -gm]])
    C = sp.Matrix([[g**2 / (4 * eta * Gamma), g * sp.cos(phi) / 4],
                   [g * sp.cos(phi) / 4, gm * n_bar + Gamma / 4]])
    x, y, z = sp.symbols("x y z")
    S = sp.Matrix([[x, z], [z, y]])
    solutions = sp.solve(list(A * S + S * A.T + C), [x, y, z], dict=True)
    assert len(solutions) == 1
    for unknown, form in zip((x, y, z), printed):
        assert sp.simplify(solutions[0][unknown] - form) == 0

    m = closed_form_moments(desk_bath(**SYMBOLIC_POINT))
    for value, form in zip((m.var_x, m.var_p, m.cov_xp_sym), printed):
        assert at_point(form, symbols) == pytest.approx(value, rel=1e-14)


def test_high_gain_error_bound_holds_for_every_positive_parameter_set():
    # criterion 7's 0 <= approx - exact <= B(g)*exact, over a common denominator
    import sympy as sp

    symbols, (exact, _, _) = printed_moments()
    g, gm, om, Gamma, eta, n_bar = symbols
    approx = n_bar * om**2 / (2 * g**2) + Gamma * om**2 / (8 * gm * g**2) + g / (8 * eta * Gamma)
    bound = (1 + gm / g) * (1 + om**2 / (gm * g)) - 1  # omega_m*Q_m = omega_m^2/gamma_m
    assert at_point(approx, symbols) == pytest.approx(
        high_gain_moments(desk_bath(**SYMBOLIC_POINT)).var_x, rel=1e-14)

    def positive_coefficients(poly):
        return all(c > 0 for c in sp.Poly(poly, *symbols).coeffs())

    for difference in (approx - exact, bound * exact - (approx - exact)):
        numerator, denominator = sp.fraction(sp.cancel(sp.together(difference)))
        assert positive_coefficients(numerator)
        # a positive constant times factors positive for positive symbols
        constant, factors = sp.factor_list(denominator)
        assert constant > 0
        assert all(positive_coefficients(factor) for factor, _ in factors)


def brent_oracle(bath, g_lo, g_hi):
    """(var_x_min, g) of the bounded Brent search over [g_lo, g_hi] plus its endpoints."""
    from scipy import optimize

    def var_x(g):
        return closed_form_moments(with_gain(bath, g)).var_x

    result = optimize.minimize_scalar(var_x, bounds=(g_lo, g_hi), method="bounded",
                                      options={"xatol": 1e-6 * max(1.0, g_hi)})
    return min((var_x(g_lo), g_lo), (var_x(g_hi), g_hi), (float(result.fun), float(result.x)))


def roots_oracle(bath, g_lo, g_hi):
    """(var_x_min, g) of the lowest closed-form var_x at g_lo, g_hi and the real
    roots of the gain quartic between them, found with np.roots."""
    from mirrorcool.steady_state import _gain_quartic

    gains = {g_lo, g_hi}
    gains.update(float(r.real) for r in np.roots(_gain_quartic(bath))
                 if r.imag == 0 and g_lo < r.real < g_hi)
    return min((closed_form_moments(with_gain(bath, g)).var_x, g) for g in gains)


def test_optimize_gain_never_above_the_brent_search(rng):
    cases = [(random_stable_bath(rng), (0.0, 10 ** rng.uniform(1, 3.5))) for _ in range(500)]
    cases.append((reference_bath(), (0.0, 1e7)))
    for bath, g_range in cases:
        g_opt, var_min = optimize_gain(bath, g_range)
        oracle, _ = brent_oracle(bath, *g_range)
        assert g_range[0] <= g_opt <= g_range[1]
        assert var_min == closed_form_moments(with_gain(bath, g_opt)).var_x
        assert var_min <= oracle * (1 + 1e-12)
        # the candidate minimum over the endpoints and the np.roots roots
        var_roots, g_roots = roots_oracle(bath, *g_range)
        assert g_opt == pytest.approx(g_roots, rel=1e-12)
        assert var_min == pytest.approx(var_roots, rel=1e-14)


def test_optimize_gain_as_gamma_m_vanishes():
    # the quartic's leading coefficient gamma_m^2/(2*eta*Gamma) goes to zero
    # (and underflows to exactly zero at 1e-200); at gamma_m = 0,
    # var_x = g/(8*eta*Gamma) + Gamma/(8*g), minimal at g = Gamma*sqrt(eta)
    eta, Gamma = 0.8, 40.0
    for gamma_m in (1e-3, 1e-6, 1e-9, 1e-12, 1e-200, 0.0):
        bath = desk_bath(g=1.0, Gamma=Gamma, gamma_m=gamma_m, eta=eta, omega_m=10.0)
        g_opt, var_min = optimize_gain(bath, (1e-3, 1e3))
        assert var_min <= brent_oracle(bath, 1e-3, 1e3)[0] * (1 + 1e-12)
        if gamma_m <= 1e-200:
            assert g_opt == pytest.approx(Gamma * math.sqrt(eta), rel=1e-9)
            assert var_min == pytest.approx(1 / (4 * math.sqrt(eta)), rel=1e-12)


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
        evolve_to_steady(b, FockConfig(dim=30))


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
