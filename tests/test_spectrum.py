import math

import numpy as np
import pytest

from mirrorcool import (
    NumericalError,
    ValidationError,
    bath_from_rates,
    default_grid,
    eval_spectrum,
    sum_rule_check,
    with_gain,
)
from mirrorcool import spectrum
from mirrorcool.errors import StabilityError, UnsupportedPhaseError

from conftest import random_stable_bath, reference_bath


def desk_bath(g=0.0, Gamma=200.0, n_bar=100.0, gamma_m=1.0, omega_m=62.8):
    return bath_from_rates(omega_m=omega_m, gamma_m=gamma_m, Gamma=Gamma,
                           eta=1.0, n_bar=n_bar, g=g, phi=-math.pi / 2)


def test_zero_gain_peak_value():
    # at g = 0 the spectrum at the mechanical frequency is (2N+1)/(2*gamma_m)
    for gamma_m in (1.0, 0.5, 3.0):
        b = desk_bath(gamma_m=gamma_m)
        peak = eval_spectrum(b, np.array([b.omega_m]))[0]
        assert peak == pytest.approx(
            (2 * b.N + 1) / (2 * gamma_m), rel=1e-12, abs=0
        )


def test_matches_literal_printed_form(rng):
    # regrouped evaluation == gamma/4*[(gm^2+w^2+om^2)(2N+1)
    # + (gm^2+w^2-om^2)*2ReM]/|Xi|^2 at desk-scale occupations
    for _ in range(50):
        b = random_stable_bath(rng)
        w = np.linspace(-5 * (b.omega_m + b.g), 5 * (b.omega_m + b.g), 101)
        got = eval_spectrum(b, w)
        xi_sq = (b.omega_m**2 + b.gamma_m * b.g - w**2) ** 2 + w**2 * (
            b.gamma_m + b.g
        ) ** 2
        literal = (b.gamma / 4) * (
            (b.gamma_m**2 + w**2 + b.omega_m**2) * (2 * b.N + 1)
            + (b.gamma_m**2 + w**2 - b.omega_m**2) * 2 * b.M.real
        ) / xi_sq
        # atol covers the literal form's own cancellation (~eps*gamma*n_bar)
        atol = 1e-12 * b.gamma * b.n_bar + 1e-12 * got.max()
        np.testing.assert_allclose(got, literal, rtol=1e-8, atol=atol)


def test_expanded_xi_matches_complex_modulus(rng):
    for _ in range(50):
        b = random_stable_bath(rng)
        w = np.linspace(0, 5 * (b.omega_m + b.g), 64)
        expanded = (b.omega_m**2 + b.gamma_m * b.g - w**2) ** 2 + w**2 * (
            b.gamma_m + b.g
        ) ** 2
        direct = np.abs(
            (1j * w + b.g) * (1j * w + b.gamma_m) + b.omega_m**2
        ) ** 2
        np.testing.assert_allclose(expanded, direct, rtol=5e-14)


def test_even_in_frequency():
    b = desk_bath(g=10.0)
    w = np.linspace(-400, 400, 801)
    s = eval_spectrum(b, w)
    np.testing.assert_allclose(s, s[::-1], rtol=1e-14)


def test_nonnegative_on_default_grid(rng):
    for _ in range(50):
        b = random_stable_bath(rng)
        assert eval_spectrum(b, default_grid(b)).min() >= 0


def test_large_frequency_tail():
    b = desk_bath(g=100.0, n_bar=50.0)
    w = np.array([1e5, 2e5, 4e5])
    s = eval_spectrum(b, w)
    np.testing.assert_allclose(s * w**2, b.noise_xx, rtol=1e-2)
    assert s[-1] < 1e-6 * eval_spectrum(b, np.array([b.omega_m]))[0]


def test_default_grid_span():
    b = desk_bath(g=100.0)
    grid = default_grid(b)
    assert grid.size == 4096
    assert grid[0] == -5 * (b.omega_m + 100.0)
    assert grid[-1] == +5 * (b.omega_m + 100.0)


def test_sum_rule_zero_gain_closed_form():
    # (1/2pi) integral == (2N+1)/4 == var_x exactly at g = 0
    b = desk_bath(g=0.0, Gamma=200.0, n_bar=100.0)
    integral, var_x, rel = sum_rule_check(b)
    assert var_x == pytest.approx((2 * b.N + 1) / 4, rel=1e-13, abs=0)
    assert rel < 1e-9


def test_sum_rule_pure_thermal():
    b = desk_bath(g=0.0, Gamma=0.0, n_bar=80.0)
    integral, var_x, rel = sum_rule_check(b)
    assert var_x == pytest.approx(40.0, rel=1e-13, abs=0)
    assert integral == pytest.approx(40.0, rel=1e-8, abs=0)


def test_sum_rule_random_sets(rng):
    worst = 0.0
    for _ in range(100):
        _, _, rel = sum_rule_check(random_stable_bath(rng))
        worst = max(worst, rel)
    assert worst < 1e-13


def test_sum_rule_at_reference_chain():
    for g in (0.0, 1.0, 1000.0):
        _, _, rel = sum_rule_check(reference_bath(g=g))
        assert rel < 1e-13


def test_gauss_kronrod_matches_quadpack_on_the_mapped_line(rng):
    from scipy import integrate

    baths = [random_stable_bath(rng) for _ in range(200)]
    baths += [reference_bath(g=g) for g in (0.0, 1.0, 1000.0)]
    for b in baths:
        _, edges, f = spectrum._mapped_sum_rule(b)
        value, err = spectrum._integrate(f, edges)
        oracle, _ = integrate.quad(f, 0.0, 1.0, points=edges[1:-1].tolist() or None,
                                   limit=400, epsabs=0.0, epsrel=1e-11)
        assert value == pytest.approx(oracle, rel=1e-12, abs=0)
        assert err <= 1e-11 * value


def test_mapped_integrand_is_finite_towards_the_end_of_the_line():
    # t -> 1 is w -> inf: S*c/(1-t)^2 tends to c_xx/c, and the edges sit in [0, 1]
    b = desk_bath(g=50.0)
    scale, edges, f = spectrum._mapped_sum_rule(b)
    assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0)
    assert f(np.array([1 - 1e-9]))[0] == pytest.approx(b.noise_xx / scale, rel=1e-6, abs=0)


def test_sum_rule_refuses_an_integrand_that_does_not_converge(monkeypatch):
    # unbounded oscillations over the whole line: 400 subintervals cannot resolve them
    monkeypatch.setattr(spectrum, "_x_spectrum", lambda bath: lambda w: 1.0 + np.cos(1e6 * w))
    with pytest.raises(NumericalError, match="within 400 subintervals"):
        sum_rule_check(desk_bath(g=50.0))
    monkeypatch.setattr(spectrum, "_x_spectrum", lambda bath: lambda w: np.where(w > 1, np.nan, 1.0))
    with pytest.raises(NumericalError, match="did not converge"):
        sum_rule_check(desk_bath(g=50.0))


@pytest.mark.parametrize("omega_m", [1e101, 1e150])
def test_sum_rule_near_the_float_range_returns_or_refuses(omega_m):
    # a value or a NumericalError; an OverflowError would escape both
    for g in (0.0, 5.0, 50.0):
        try:
            sum_rule_check(desk_bath(g=g, omega_m=omega_m))
        except NumericalError:
            pass


def test_scaled_zero_gain_curve_integrates_to_one():
    b = desk_bath(g=0.0, n_bar=300.0)
    integral, var_x, _ = sum_rule_check(b)
    # dividing S by 2*pi*var_x makes the plain integral equal one
    assert (integral * 2 * math.pi) / (2 * math.pi * var_x) == pytest.approx(
        1.0, abs=1e-6
    )


def test_zero_series_scales_to_zero_series():
    b = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=0.0, eta=1.0,
                        n_bar=0.0, g=0.0, phi=-math.pi / 2)
    assert np.all(eval_spectrum(b, np.linspace(-50, 50, 11)) == 0.0)


def test_peak_position_tracks_gain():
    grid = np.linspace(0.0, 500.0, 4096)
    bath = reference_bath()
    peaks = {}
    for g in (0.0, 1.0, 10.0, 1000.0):
        s = eval_spectrum(with_gain(bath, g), grid)
        peaks[g] = grid[int(np.argmax(s))]
    om = bath.omega_m
    for g in (0.0, 1.0, 10.0):
        assert abs(peaks[g] - om) / om < 0.05
    assert peaks[1000.0] == 0.0


def test_resonance_amplitude_decreases_with_gain():
    bath = reference_bath()
    om = np.array([bath.omega_m])
    values = [eval_spectrum(with_gain(bath, g), om)[0]
              for g in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        eval_spectrum(desk_bath(), np.array([]))


def test_wrong_phase_rejected():
    b = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=50.0, eta=1.0,
                        n_bar=20.0, g=1.0, phi=0.3)
    with pytest.raises(UnsupportedPhaseError):
        eval_spectrum(b, np.linspace(-10, 10, 5))
    with pytest.raises(UnsupportedPhaseError):
        sum_rule_check(b)


def test_eval_spectrum_refuses_negative_and_non_finite_values(monkeypatch):
    for bad in (-1e-3, np.nan):
        monkeypatch.setattr(spectrum, "_x_spectrum",
                            lambda bath, bad=bad: lambda w: np.where(w > 0, bad, 1.0))
        with pytest.raises(NumericalError):
            eval_spectrum(desk_bath(), np.array([0.0, 1.0]))
