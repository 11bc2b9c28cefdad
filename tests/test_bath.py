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
from mirrorcool.bath import EffectiveBath, _positivity_gap

from conftest import random_stable_bath, reference_setup

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
        assert b.N == pytest.approx(num_n / gamma, rel=1e-13)
        assert b.M.real == pytest.approx(num_m / gamma, rel=1e-13)
        assert b.N == pytest.approx(n_ref, rel=1e-12)
        assert b.M.real == pytest.approx(m_ref, rel=1e-12)
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
    assert bath.gamma == pytest.approx(101.0, rel=1e-12)
    assert bath.Gamma == pytest.approx(207.21994643942588, rel=1e-12)
    assert bath.n_bar == pytest.approx(NBAR_300K, rel=1e-12)


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
    assert report.positivity_gap == pytest.approx(0.04478458049886622, rel=1e-12)
    assert b.N == pytest.approx(5.0 / 21.0, rel=1e-14)
    assert b.M.real == pytest.approx(-0.5, rel=1e-14)


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
    """The raw coefficient block gamma, N, M of bath_from_rates at a symbolic phase."""
    import sympy as sp

    gm, Gamma, eta, n_bar, g = sp.symbols("gamma_m Gamma eta n_bar g", positive=True)
    phi = sp.Symbol("phi", real=True)
    gamma = gm - g * sp.sin(phi)
    fb_noise = g**2 / (4 * eta * Gamma)
    N = (gm * (n_bar - sp.Rational(1, 2)) + Gamma / 4 + fb_noise + g * sp.sin(phi) / 2) / gamma
    M = -(gm * n_bar + Gamma / 4 - fb_noise - sp.I * g * sp.cos(phi) / 2) / gamma
    return SimpleNamespace(gamma=gamma, N=N, M=M, gamma_m=gm, Gamma=Gamma, eta=eta,
                           n_bar=n_bar, g=g, phi=phi)


def test_symbolic_block_is_the_one_bath_from_rates_builds():
    sym = symbolic_block()
    rates = dict(gamma_m=1.3, Gamma=200.0, eta=0.7, n_bar=100.0, g=40.0, phi=-1.1)
    b = bath_from_rates(omega_m=62.8, **rates)
    point = {getattr(sym, name): value for name, value in rates.items()}
    assert float(sym.gamma.subs(point)) == pytest.approx(b.gamma, rel=1e-14)
    assert float(sym.N.subs(point)) == pytest.approx(b.N, rel=1e-13)
    assert complex(sym.M.subs(point)) == pytest.approx(b.M, rel=1e-13)


def test_reduced_noise_and_gap_equal_their_raw_forms_at_every_phase(monkeypatch):
    # the reductions of gamma(2N+1 +- 2Re M)/4, gamma*Im M/2 and
    # N(N+1) - |M|^2, checked on symbols: phi, the gain and the rates are
    # all free, so the identities hold at every phase, not only at -pi/2
    import sympy as sp

    sym = symbolic_block()
    monkeypatch.setattr(bath_module, "math", SimpleNamespace(cos=sp.cos))
    gamma, N, M = sym.gamma, sym.N, sym.M
    raw = {
        "noise_xx": gamma * (2 * N + 1 + 2 * sp.re(M)) / 4,
        "noise_pp": gamma * (2 * N + 1 - 2 * sp.re(M)) / 4,
        "noise_xp": gamma * sp.im(M) / 2,
    }
    for name, form in raw.items():
        assert sp.simplify(getattr(EffectiveBath, name).fget(sym) - form) == 0, name
    raw_gap = N * (N + 1) - M * sp.conjugate(M)
    assert sp.simplify(_positivity_gap(sym) - raw_gap) == 0
    # the g = 0 branches return the raw forms' values there
    assert sp.simplify(raw["noise_xx"].subs(sym.g, 0)) == 0
    assert sp.simplify(raw_gap.subs(sym.g, 0)) == sp.Rational(-1, 4)
