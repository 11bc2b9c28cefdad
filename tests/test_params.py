import math

import pytest
from scipy import constants as codata

from mirrorcool import (
    InvalidSetupError,
    PhysicalSetup,
    ValidationError,
    build_bath,
    derive_coupling,
    params,
)

from conftest import REFERENCE_SETUP, reference_setup

# regression fixtures: straight-line evaluation of the coupling chain with
# CODATA constants (exact SI values, stable across library versions)
FROZEN = {
    "omega_m": 62.83185307179586,
    "gamma_b": 749481.145,
    "G": 0.00026483538433623015,
    "beta_in": 5092259100.143305,
    "beta_s": 11764138.607790403,
    "chi": -12462.24067831542,
    "Gamma": 207.21994643942588,
    "x_s": 3.37971089460622e-10,
    "Q_m": 62.83185307179586,
    "n_bar": 625098573699.8271,
}


def test_reference_chain_matches_frozen_values():
    c = derive_coupling(reference_setup())
    assert c.omega_m == pytest.approx(FROZEN["omega_m"], rel=1e-13, abs=0)
    assert c.gamma_b == pytest.approx(FROZEN["gamma_b"], rel=1e-13, abs=0)
    assert c.G == pytest.approx(FROZEN["G"], rel=1e-12, abs=0)
    assert c.beta_in == pytest.approx(FROZEN["beta_in"], rel=1e-12, abs=0)
    assert abs(c.beta_s) == pytest.approx(FROZEN["beta_s"], rel=1e-12, abs=0)
    assert c.chi == pytest.approx(FROZEN["chi"], rel=1e-12, abs=0)
    assert c.Gamma == pytest.approx(FROZEN["Gamma"], rel=1e-12, abs=0)
    assert c.x_s == pytest.approx(FROZEN["x_s"], rel=1e-12, abs=0)
    assert c.Q_m == pytest.approx(FROZEN["Q_m"], rel=1e-13, abs=0)
    assert c.n_bar == pytest.approx(FROZEN["n_bar"], rel=1e-12, abs=0)


def test_reference_chain_against_independent_evaluation():
    # independent straight-line recomputation, no shared code with the package
    hbar, k_B, c_light = codata.hbar, codata.k, codata.c
    p = REFERENCE_SETUP
    omega_m = 2 * math.pi * p["nu_m"]
    omega_0 = 2 * math.pi * p["nu_0"]
    gamma_b = c_light * p["T_r"] / (2 * p["L"])
    G = math.sqrt(hbar * omega_0**2 / (2 * p["m"] * omega_m * p["L"] ** 2))
    beta_in = math.sqrt(p["P_in"] / (hbar * omega_0))
    beta_s = math.sqrt(gamma_b) * beta_in / (gamma_b / 2)
    chi = -4 * G * beta_s
    got = derive_coupling(reference_setup())
    assert got.gamma_b == pytest.approx(gamma_b, rel=1e-14, abs=0)
    assert abs(got.beta_s) == pytest.approx(beta_s, rel=1e-13, abs=0)
    assert got.chi == pytest.approx(chi, rel=1e-13, abs=0)
    assert got.Gamma == pytest.approx(chi**2 / gamma_b, rel=1e-13, abs=0)
    assert got.n_bar == pytest.approx(k_B * p["T"] / (hbar * omega_m), rel=1e-14, abs=0)


def test_reported_magnitudes_for_reference_set():
    c = derive_coupling(reference_setup())
    assert 180 <= c.Gamma <= 230
    assert 1.0e4 <= abs(c.chi) <= 1.4e4
    # gamma_b = c*T_r/(2L); approx 3e8*0.02/8 with the rounded speed of light
    assert c.gamma_b == pytest.approx(7.5e5, rel=1e-3, abs=0)
    assert c.gamma_b == codata.c * 0.02 / 8.0
    assert c.Q_m == pytest.approx(62.8, rel=1e-3, abs=0)


def test_adiabatic_flag_ok_for_reference_set():
    c = derive_coupling(reference_setup())
    assert c.gamma_b > 10 * abs(c.chi)
    assert c.adiabatic_ok


def test_adiabatic_flag_trips_when_cavity_slow():
    # hundredfold longer cavity shrinks gamma_b below 10*|chi|
    c = derive_coupling(reference_setup(L=400.0, P_in=1e4))
    assert not c.adiabatic_ok


def test_zero_drive_gives_zero_coupling():
    c = derive_coupling(reference_setup(P_in=0.0))
    assert c.beta_s == 0
    assert c.chi == 0.0
    assert c.Gamma == 0.0


def test_power_scaling():
    c1 = derive_coupling(reference_setup())
    c2 = derive_coupling(reference_setup(P_in=20.0))
    assert abs(c2.beta_s) ** 2 == pytest.approx(2 * abs(c1.beta_s) ** 2, rel=1e-12, abs=0)
    assert c2.Gamma == pytest.approx(2 * c1.Gamma, rel=1e-12, abs=0)


def test_detuning_rotates_steady_amplitude():
    gamma_b = derive_coupling(reference_setup()).gamma_b
    c = derive_coupling(reference_setup(Delta=gamma_b / 2))
    assert c.varphi == pytest.approx(math.pi / 4, rel=1e-12, abs=0)
    # |beta_s| shrinks by sqrt(2) at Delta = gamma_b/2
    c0 = derive_coupling(reference_setup())
    assert abs(c.beta_s) == pytest.approx(abs(c0.beta_s) / math.sqrt(2), rel=1e-12, abs=0)
    assert derive_coupling(reference_setup()).varphi == 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("m", 0.0), ("m", -1.0), ("nu_m", 0.0), ("L", -4.0), ("nu_0", 0.0),
        ("T", 0.0), ("P_in", -1.0), ("gamma_m", -0.5), ("g", -2.0),
        ("eta", 0.0), ("eta", 1.5), ("T_r", 0.0), ("T_r", 1.2),
        ("m", math.inf), ("T", math.inf), ("P_in", math.inf), ("g", math.inf),
        ("phi", math.nan), ("Delta", -math.inf),
    ],
)
def test_validation_names_offending_field(field, value):
    with pytest.raises(ValidationError) as err:
        reference_setup(**{field: value})
    assert err.value.field == field
    assert field in str(err.value)


def test_overflowing_setup_raises_invalid_setup():
    with pytest.raises(InvalidSetupError):
        derive_coupling(reference_setup(P_in=1e308, nu_0=1e-300))
    # g**2 of the feedback noise overflows in the bath coefficient block
    setup = reference_setup(g=1e200)
    with pytest.raises(InvalidSetupError):
        build_bath(derive_coupling(setup), setup)


def test_constants_are_the_exact_si_values():
    # bit for bit: scipy.constants is the oracle, not a dependency
    assert params.HBAR == codata.hbar
    assert params.K_B == codata.k
    assert params.C == codata.c


def test_outputs_smooth_in_each_input():
    # finite-difference continuity spot check at the reference point
    base = derive_coupling(reference_setup())
    for field in ("m", "nu_m", "L", "nu_0", "T_r", "P_in", "T"):
        bumped = derive_coupling(
            reference_setup(**{field: REFERENCE_SETUP[field] * (1 + 1e-6)})
        )
        for attr in ("gamma_b", "G", "beta_in", "chi", "Gamma", "x_s", "n_bar"):
            a, b = getattr(base, attr), getattr(bumped, attr)
            if a == 0.0:
                assert b == 0.0
            else:
                assert abs(b - a) / abs(a) < 1e-5, (field, attr)
