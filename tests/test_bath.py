import math
from types import SimpleNamespace

import numpy as np
import pytest

from mirrorcool import (
    UnstableBathError,
    ValidationError,
    bath_from_rates,
    build_bath,
    check_stability,
    derive_coupling,
    with_gain,
)

from mirrorcool import bath as bath_module
from mirrorcool.bath import _positivity_gap

from conftest import random_stable_bath, reference_bath, reference_setup

OMEGA_M = 2 * math.pi * 10.0
NBAR_300K = 625098573699.8271  # k_B*300K/(hbar*omega_m) at nu_m = 10 Hz

# coefficient table at Gamma = 200, the room-temperature n_bar above,
# gamma_m = 1, eta = 1, phi = -pi/2; frozen from a separately coded
# evaluation of the coefficient block
COEFF_TABLE = {
    1.0: (2.0, 312549286874.4142, -312549286874.91296),
    10.0: (11.0, 56827143067.67747, -56827143068.15474),
    100.0: (101.0, 6189094789.226011, -6189094789.478487),
    1000.0: (1001.0, 624474100.3989282, -624474098.4014257),
}


def desk_bath(g, Gamma=200.0, n_bar=NBAR_300K, gamma_m=1.0, eta=1.0,
              phi=-math.pi / 2, omega_m=OMEGA_M):
    return bath_from_rates(omega_m=omega_m, gamma_m=gamma_m, Gamma=Gamma,
                           eta=eta, n_bar=n_bar, g=g, phi=phi)


def test_thermal_limit_coefficients():
    b = desk_bath(g=0.0, Gamma=0.0, n_bar=7.0)
    assert b.gamma == 1.0
    assert b.N == pytest.approx(6.5, abs=1e-12)
    assert b.M.real == pytest.approx(-7.0, abs=1e-12)
    assert b.M.imag == 0.0
    assert b.squeeze_coeff == 0.25


def test_thermal_limit_positivity_gap_is_minus_quarter():
    b = desk_bath(g=0.0, Gamma=0.0, n_bar=7.0)
    gap = b.N * (b.N + 1) - abs(b.M) ** 2
    assert gap == pytest.approx(-0.25, abs=1e-12)
    assert check_stability(b).positivity_gap == -0.25


def test_gap_at_zero_gain_is_gamma_independent(rng):
    # the Gamma/4 terms shift N and -M equally, leaving the gap at -1/4
    for _ in range(200):
        b = bath_from_rates(
            omega_m=10 ** rng.uniform(0, 2),
            gamma_m=10 ** rng.uniform(-1, 1),
            Gamma=float(rng.choice([0.0, 10 ** rng.uniform(-1, 4)])),
            eta=rng.uniform(0.2, 1),
            n_bar=10 ** rng.uniform(0, 12),
            g=0.0,
            phi=rng.uniform(-math.pi, math.pi),
        )
        assert check_stability(b).positivity_gap == pytest.approx(-0.25, abs=1e-12)


def test_coefficient_table_against_independent_evaluation():
    for g, (gamma_ref, n_ref, m_ref) in COEFF_TABLE.items():
        b = desk_bath(g)
        # independent evaluation: numerators assembled with fsum
        gamma = 1.0 + g
        num_n = math.fsum([NBAR_300K - 0.5, 50.0, g * g / 800.0, -g / 2])
        num_m = -math.fsum([NBAR_300K, 50.0, -g * g / 800.0])
        assert b.gamma == gamma == gamma_ref
        assert b.N == pytest.approx(num_n / gamma, rel=1e-13, abs=0)
        assert b.M.real == pytest.approx(num_m / gamma, rel=1e-13, abs=0)
        assert b.N == pytest.approx(n_ref, rel=1e-12, abs=0)
        assert b.M.real == pytest.approx(m_ref, rel=1e-12, abs=0)
        assert b.M.imag == pytest.approx(0.0, abs=1e-15)


def test_rederivation_is_idempotent():
    b = desk_bath(g=50.0, Gamma=123.0, n_bar=42.0)
    again = bath_from_rates(
        omega_m=b.omega_m, gamma_m=b.gamma_m, Gamma=b.Gamma, eta=b.eta,
        n_bar=b.n_bar, g=b.g, phi=b.phi,
    )
    assert again == b
    assert with_gain(b, b.g) == b


def test_build_bath_from_reference_setup():
    setup = reference_setup(g=100.0)
    bath = build_bath(derive_coupling(setup), setup)
    assert bath.gamma == pytest.approx(101.0, rel=1e-12, abs=0)
    assert bath.Gamma == pytest.approx(207.21994643942588, rel=1e-12, abs=0)
    assert bath.n_bar == pytest.approx(NBAR_300K, rel=1e-12, abs=0)


def test_gamma_increases_with_gain_at_momentum_drive_phase():
    gammas = [desk_bath(g).gamma for g in (0.0, 1.0, 10.0, 100.0)]
    assert gammas == sorted(gammas)
    assert gammas == [1.0, 2.0, 11.0, 101.0]


def test_m_is_real_iff_cos_phi_vanishes(rng):
    for _ in range(50):
        phi = rng.uniform(-math.pi, math.pi)
        try:
            b = desk_bath(g=5.0, n_bar=20.0, phi=phi)
        except UnstableBathError:
            continue
        if abs(math.cos(phi)) > 1e-10:
            assert b.M.imag != 0.0
        else:
            assert b.M.imag == pytest.approx(0.0, abs=1e-12)


def test_stability_margins_momentum_drive():
    report = check_stability(desk_bath(g=100.0, n_bar=10.0))
    assert report.stable
    assert report.margin_damping == pytest.approx(101.0)
    assert report.margin_spring == pytest.approx(OMEGA_M**2 + 100.0)


def test_stability_flip_at_positive_phase():
    # gamma = gamma_m - g = -1 -> the bath itself is ill-defined
    with pytest.raises(UnstableBathError) as err:
        bath_from_rates(omega_m=OMEGA_M, gamma_m=1.0, Gamma=200.0, eta=1.0,
                        n_bar=10.0, g=2.0, phi=math.pi / 2)
    assert err.value.gamma == pytest.approx(-1.0)


def test_margin_reported_below_boundary():
    report = check_stability(desk_bath(g=0.5, n_bar=10.0, phi=math.pi / 2))
    assert report.stable
    assert report.margin_damping == pytest.approx(0.5)


def test_first_lindblad_positive_gain_is_21():
    # scan at Gamma = 200, n_bar scaled down to 5: fixture for the
    # number-basis oracle regime
    gaps = {g: check_stability(desk_bath(float(g), n_bar=5.0)).positivity_gap
            for g in range(1, 31)}
    first = min(g for g, gap in gaps.items() if gap > 0)
    assert first == 21
    assert gaps[20] < 0 < gaps[21]


def test_fock_fixture_bath_is_lindblad_positive():
    b = desk_bath(g=20.0, Gamma=40.0, n_bar=3.0, omega_m=10.0)
    report = check_stability(b)
    assert report.lindblad_positive
    assert report.positivity_gap == pytest.approx(0.04478458049886622, rel=1e-12, abs=0)
    assert b.N == pytest.approx(5.0 / 21.0, rel=1e-14, abs=0)
    assert b.M.real == pytest.approx(-0.5, rel=1e-14, abs=0)


def test_noise_intensities_match_literal_combinations(rng):
    # reduced closed forms against gamma*(2N+1 +/- 2ReM)/4 and gamma*ImM/2;
    # tolerance covers the literal side's own cancellation error
    for _ in range(200):
        b = random_stable_bath(rng)
        scale = max(1.0, b.gamma * b.n_bar) * 1e-12
        lit_xx = b.gamma * (2 * b.N + 1 + 2 * b.M.real) / 4
        lit_pp = b.gamma * (2 * b.N + 1 - 2 * b.M.real) / 4
        assert b.noise_xx == pytest.approx(lit_xx, abs=scale, rel=1e-9)
        assert b.noise_pp == pytest.approx(lit_pp, abs=scale, rel=1e-9)
        assert b.noise_xp == pytest.approx(b.gamma * b.M.imag / 2, abs=1e-12)


def test_gap_matches_literal_products_at_moderate_occupation(rng):
    for _ in range(200):
        b = bath_from_rates(
            omega_m=10 ** rng.uniform(0, 2), gamma_m=10 ** rng.uniform(-1, 1),
            Gamma=10 ** rng.uniform(-1, 3), eta=rng.uniform(0.2, 1),
            n_bar=10 ** rng.uniform(0, 2), g=10 ** rng.uniform(-1, 2),
            phi=-math.pi / 2,
        )
        naive = b.N * (b.N + 1) - abs(b.M) ** 2
        assert check_stability(b).positivity_gap == pytest.approx(
            naive, rel=1e-8, abs=1e-8
        )


def _raw_forms_at_50_digits(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma):
    """gamma*(2N+1 +- 2Re M)/4, gamma*Im M/2 and N(N+1) - |M|^2 of the raw
    coefficient block, by mpmath at 50 digits on the reductions' double operands.

    g*sin(phi) is read off the damping gamma = gamma_m - g*sin(phi) the
    reductions are given, so the raw block is that of the same operands.
    """
    import mpmath

    with mpmath.workdps(50):
        gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma = map(
            mpmath.mpf, (gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma))
        fb_noise = g * g / (4 * eta * Gamma)
        N = (gamma_m * (n_bar - 0.5) + Gamma / 4 + fb_noise + (gamma_m - gamma) / 2) / gamma
        m_re, m_im = -(gamma_m * n_bar + Gamma / 4 - fb_noise) / gamma, g * cos_phi / (2 * gamma)
        return (gamma * (2 * N + 1 + 2 * m_re) / 4, gamma * (2 * N + 1 - 2 * m_re) / 4,
                gamma * m_im / 2, N * (N + 1) - (m_re * m_re + m_im * m_im))


def test_reductions_match_the_raw_block_at_50_digits():
    # the float reductions, whose raw forms cancel to ~eps*n_bar^2 at room
    # temperature, against those raw forms at 50 digits, with no absolute
    # floor: room-temperature chains (n_bar 6.25e11) at four gains and three
    # phases, and random stable baths at occupations up to 6.3e11 and any
    # phase. The noise intensities take 3, 2 and 1 roundings, so 3, 2 and
    # 0.5 ulp. The gap -1/4 + (g/gamma)^2*(thermal + (1/eta - cos^2)/4) is
    # checked where it is at least half the magnitude of its terms, so that
    # neither difference cancels (921 of the 1,000 baths, every chain among
    # them); its worst there is 3.5 ulp
    import mpmath

    rng = np.random.default_rng(50)
    operands = []
    for g in (1.0, 10.0, 100.0, 1000.0):
        for phi in (-math.pi / 2, -1.0, 0.0):
            b = reference_bath(g=g, phi=phi)
            operands.append((b.gamma_m, b.Gamma, b.eta, b.n_bar, b.g, math.cos(b.phi), b.gamma))
    while len(operands) < 1000:
        gamma_m, g, phi = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 3), rng.uniform(-3, 3)
        gamma = gamma_m - g * math.sin(phi)
        if gamma > 0:
            operands.append((gamma_m, 10 ** rng.uniform(-1, 3), 10 ** rng.uniform(-3, 0),
                             10 ** rng.uniform(-3, math.log10(6.3e11)), g, math.cos(phi), gamma))
    bounds = (3, 2, 0.5, 4)
    worst, gaps = [0.0] * 4, []
    for gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma in operands:
        reduced = (bath_module._noise_xx(g, eta, Gamma),
                   bath_module._noise_pp(gamma_m, n_bar, Gamma), bath_module._noise_xp(g, cos_phi),
                   _positivity_gap(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma))
        raw = _raw_forms_at_50_digits(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma)
        terms = 0.25 + (g / gamma) ** 2 * (gamma_m * n_bar / (eta * Gamma)
                                           + (1 / eta + cos_phi * cos_phi) / 4)
        conditioned = raw[3] >= terms / 2
        gaps.append(conditioned)
        for k, (value, exact) in enumerate(zip(reduced, raw)):
            if k < 3 or conditioned:
                error = abs(mpmath.mpf(value) - exact) / math.ulp(float(exact))
                worst[k] = max(worst[k], float(error))
    assert all(gaps[:12]) and sum(gaps) == 921
    assert all(0 < w <= bound for w, bound in zip(worst, bounds)), worst


def test_gain_without_measurement_channel_rejected():
    with pytest.raises(ValidationError) as err:
        desk_bath(g=1.0, Gamma=0.0)
    assert err.value.field == "Gamma"


def test_zero_gain_zero_gamma_allowed():
    b = desk_bath(g=0.0, Gamma=0.0, n_bar=5.0)
    assert b.noise_xx == 0.0


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(omega_m=0.0), "omega_m"),
        (dict(gamma_m=-1.0), "gamma_m"),
        (dict(Gamma=-1.0), "Gamma"),
        (dict(eta=0.0), "eta"),
        (dict(eta=2.0), "eta"),
        (dict(n_bar=-1.0), "n_bar"),
        (dict(g=-1.0), "g"),
        (dict(omega_m=math.inf), "omega_m"),
        (dict(gamma_m=math.inf), "gamma_m"),
        (dict(Gamma=math.inf), "Gamma"),
        (dict(n_bar=math.inf), "n_bar"),
        (dict(g=math.inf), "g"),
        (dict(phi=-math.inf), "phi"),
    ],
)
def test_rate_validation_names_field(kwargs, field):
    base = dict(omega_m=OMEGA_M, gamma_m=1.0, Gamma=200.0, eta=1.0,
                n_bar=10.0, g=0.0, phi=-math.pi / 2)
    with pytest.raises(ValidationError) as err:
        bath_from_rates(**{**base, **kwargs})
    assert err.value.field == field


def test_gap_continuous_in_gain(rng):
    b0 = desk_bath(g=10.0, n_bar=50.0)
    eps = 1e-7
    g1 = check_stability(with_gain(b0, 10.0 * (1 + eps))).positivity_gap
    g2 = check_stability(b0).positivity_gap
    assert abs(g1 - g2) < 1e-4


def test_unstable_bath_error_carries_gamma_sign():
    with pytest.raises(UnstableBathError) as err:
        bath_from_rates(omega_m=10.0, gamma_m=0.5, Gamma=10.0, eta=1.0,
                        n_bar=5.0, g=3.0, phi=math.pi / 2)
    assert err.value.gamma < 0


def symbolic_block():
    """The raw coefficient block gamma, N, M of bath_from_rates at a symbolic
    phase: sin(phi) and cos(phi) are the free real symbols s and c."""
    import sympy as sp

    gm, Gamma, eta, n_bar, g = sp.symbols("gamma_m Gamma eta n_bar g", positive=True)
    s, c = sp.symbols("s c", real=True)
    gamma = gm - g * s
    fb_noise = g**2 / (4 * eta * Gamma)
    N = (gm * (n_bar - sp.Rational(1, 2)) + Gamma / 4 + fb_noise + g * s / 2) / gamma
    M = -(gm * n_bar + Gamma / 4 - fb_noise - sp.I * g * c / 2) / gamma
    return SimpleNamespace(gamma=gamma, N=N, M=M, gamma_m=gm, Gamma=Gamma, eta=eta,
                           n_bar=n_bar, g=g, s=s, c=c)


def vanishes_on_the_unit_circle(expr, s, c) -> bool:
    """Whether the rational expression ``expr`` is 0 wherever s**2 + c**2 = 1.

    The code's float constants (0.5, 0.25) are exact binary fractions and
    are read as the rationals they are.
    """
    import sympy as sp

    numerator = sp.numer(sp.together(sp.nsimplify(expr, rational=True)))
    return sp.expand(sp.rem(sp.expand(numerator), c**2 + s**2 - 1, c)) == 0


def test_symbolic_block_is_the_one_bath_from_rates_builds():
    import sympy as sp

    sym = symbolic_block()
    rates = dict(gamma_m=1.3, Gamma=200.0, eta=0.7, n_bar=100.0, g=40.0)
    phi = -1.1
    b = bath_from_rates(omega_m=62.8, phi=phi, **rates)
    point = {getattr(sym, name): value for name, value in rates.items()}
    point.update({sym.s: math.sin(phi), sym.c: math.cos(phi)})
    assert float(sym.gamma.subs(point)) == pytest.approx(b.gamma, rel=1e-14, abs=0)
    assert float(sym.N.subs(point)) == pytest.approx(b.N, rel=1e-13, abs=0)
    assert complex(sym.M.subs(point)) == pytest.approx(b.M, rel=1e-13, abs=0)
    # and the shared coefficient function builds the same block on symbols
    N, m_re, m_im = bath_module._coefficients(sym.gamma_m, sym.Gamma, sym.eta, sym.n_bar,
                                              sym.g, sym.s, sym.c, sym.gamma)
    assert sp.simplify(sp.nsimplify(N - sym.N, rational=True)) == 0
    M = -(m_re - sp.I * m_im) / sym.gamma
    assert sp.simplify(sp.nsimplify(M - sym.M, rational=True)) == 0


def test_reduced_noise_and_gap_equal_their_raw_forms_at_every_phase():
    # the reductions of gamma(2N+1 +- 2Re M)/4, gamma*Im M/2 and
    # N(N+1) - |M|^2 that the one-point route and the sweep's arrays share,
    # checked on symbols: sin(phi) and cos(phi) are free on the unit
    # circle, and the gain and the rates are free, so the identities hold
    # at every phase, not only at -pi/2
    import sympy as sp

    sym = symbolic_block()
    gamma, N, M, s, c = sym.gamma, sym.N, sym.M, sym.s, sym.c
    raw = {
        "noise_xx": (bath_module._noise_xx(sym.g, sym.eta, sym.Gamma),
                     gamma * (2 * N + 1 + 2 * sp.re(M)) / 4),
        "noise_pp": (bath_module._noise_pp(sym.gamma_m, sym.n_bar, sym.Gamma),
                     gamma * (2 * N + 1 - 2 * sp.re(M)) / 4),
        "noise_xp": (bath_module._noise_xp(sym.g, c), gamma * sp.im(M) / 2),
        "positivity_gap": (_positivity_gap(sym.gamma_m, sym.Gamma, sym.eta, sym.n_bar, sym.g, c,
                                           gamma),
                           N * (N + 1) - M * sp.conjugate(M)),
    }
    for name, (reduced, form) in raw.items():
        assert vanishes_on_the_unit_circle(reduced - form, s, c), name
    # a wrong reduction is caught: the circle does not make cos^2 vanish
    assert not vanishes_on_the_unit_circle(raw["positivity_gap"][0] - raw["positivity_gap"][1]
                                           + c**2, s, c)
    # the g = 0 branches return the raw forms' values there
    assert bath_module._noise_xx(0.0, sym.eta, sym.Gamma) == 0
    assert _positivity_gap(sym.gamma_m, sym.Gamma, sym.eta, sym.n_bar, 0.0, c, sym.gamma_m) == -0.25
    assert sp.simplify(raw["noise_xx"][1].subs(sym.g, 0)) == 0
    assert sp.simplify(raw["positivity_gap"][1].subs(sym.g, 0)) == sp.Rational(-1, 4)
