import math

import numpy as np
import pytest

from mirrorcool import PhysicalSetup, bath_from_rates, build_bath, derive_coupling

# laboratory parameter set used throughout: 10 kg mirror, 10 Hz mode,
# 4 m cavity, 10 W drive at 5.82e14 Hz, room temperature
REFERENCE_SETUP = dict(
    m=10.0, nu_m=10.0, gamma_m=1.0, L=4.0, nu_0=5.82e14,
    T_r=0.02, P_in=10.0, T=300.0, eta=1.0,
)

# baths within rounding of the stability boundary, at phi = +pi/2: the
# spring margin omega_m^2 - gamma_m*g rounds to 7.1e-15 instead of 0, and
# the damping margin gamma_m - g is 1e-14 of gamma_m
BOUNDARY_BATHS = {
    "spring": dict(omega_m=math.sqrt(50.0), gamma_m=10.0, Gamma=50.0, eta=1.0,
                   n_bar=20.0, g=5.0, phi=math.pi / 2),
    "damping": dict(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                    n_bar=100.0, g=1.0 - 1e-14, phi=math.pi / 2),
}


def reference_setup(**overrides) -> PhysicalSetup:
    return PhysicalSetup(**{**REFERENCE_SETUP, **overrides})


def reference_bath(g: float = 0.0, phi: float = -math.pi / 2):
    setup = reference_setup(g=g, phi=phi)
    return build_bath(derive_coupling(setup), setup)


def random_stable_bath(rng: np.random.Generator, allow_zero_gain: bool = True):
    """Random stable phi = -pi/2 parameter draw, desk-scale magnitudes."""
    g = 0.0 if (allow_zero_gain and rng.uniform() < 0.1) else 10 ** rng.uniform(-1, 3)
    return bath_from_rates(
        omega_m=10 ** rng.uniform(0, 2),
        gamma_m=10 ** rng.uniform(-1, 1),
        Gamma=10 ** rng.uniform(-1, 3),
        eta=rng.uniform(0.2, 1.0),
        n_bar=10 ** rng.uniform(0, 4),
        g=g,
        phi=-math.pi / 2,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
