"""Reference physics the benchmark checks mirrorcool's outputs against.

Written from the model's definitions, not imported from ``mirrorcool``:

- drift ``A = [[g*sin(phi), omega_m], [-omega_m, -gamma_m]]`` and the
  symmetrized diffusion ``C`` documented in ``mirrorcool/bath.py``
  (``C_xx = g^2/(4*eta*Gamma)``, ``C_pp = gamma_m*n_bar + Gamma/4``,
  ``C_xp = (g/4)*cos(phi)``);
- the steady covariance from ``A S + S A^T + C = 0``, solved as a linear
  system in the three unknowns ``(S_xx, S_xp, S_pp)``;
- Routh-Hurwitz stability of the 2x2 drift: ``tr A < 0`` and ``det A > 0``;
- the X spectrum ``[H C H^dag]_xx`` with ``H = (i*w - A)^-1``;
- the coupling chain ``Gamma = chi^2/gamma_b`` and ``n_bar = k_B*T/(hbar*omega_m)``
  from the exact SI constants;
- the Lindblad positivity gap ``N(N+1) - |M|^2`` in exact rational arithmetic.

Every function takes numpy arrays (or scalars) of parameters and broadcasts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# exact SI values (2019 redefinition)
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2 * math.pi)
K_B = 1.380649e-23
C_LIGHT = 299792458.0


def drift(omega_m, gamma_m, g, phi):
    """Entries (a11, a12, a21, a22) of the quadrature drift matrix."""
    omega_m, gamma_m, g, phi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega_m, gamma_m, g, phi))
    )
    return g * np.sin(phi), omega_m, -omega_m, -gamma_m


def diffusion(gamma_m, Gamma, eta, n_bar, g, phi):
    """Symmetrized noise intensities (C_xx, C_xp, C_pp)."""
    gamma_m, Gamma, eta, n_bar, g, phi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (gamma_m, Gamma, eta, n_bar, g, phi))
    )
    safe_gamma = np.where(g > 0, Gamma, 1.0)
    c_xx = np.where(g > 0, g**2 / (4 * eta * safe_gamma), 0.0)
    c_pp = gamma_m * n_bar + Gamma / 4
    c_xp = 0.25 * g * np.cos(phi)
    return c_xx, c_xp, c_pp


def routh_hurwitz_stable(omega_m, gamma_m, g, phi):
    """True where the drift's trace is negative and its determinant positive."""
    a11, a12, a21, a22 = drift(omega_m, gamma_m, g, phi)
    return (a11 + a22 < 0) & (a11 * a22 - a12 * a21 > 0)


def covariance(omega_m, gamma_m, Gamma, eta, n_bar, g, phi):
    """Steady (var_x, cov_xp, var_p) from the Lyapunov equation.

    Writing S = [[x, y], [y, p]], the three independent entries of
    A S + S A^T = -C are

        2*a11*x + 2*a12*y               = -C_xx
        a21*x + (a11 + a22)*y + a12*p   = -C_xp
        2*a21*y + 2*a22*p               = -C_pp
    """
    a11, a12, a21, a22 = drift(omega_m, gamma_m, g, phi)
    c_xx, c_xp, c_pp = diffusion(gamma_m, Gamma, eta, n_bar, g, phi)
    shape = a11.shape
    zero = np.zeros(shape)
    lhs = np.stack(
        [
            np.stack([2 * a11, 2 * a12, zero], axis=-1),
            np.stack([a21, a11 + a22, a12], axis=-1),
            np.stack([zero, 2 * a21, 2 * a22], axis=-1),
        ],
        axis=-2,
    )
    rhs = -np.stack([c_xx, c_xp, c_pp], axis=-1)[..., None]
    sol = np.linalg.solve(lhs, rhs)[..., 0]
    return sol[..., 0], sol[..., 1], sol[..., 2]


def spectrum_x(omega, omega_m, gamma_m, Gamma, eta, n_bar, g, phi):
    """S(w) = [H C H^dag]_xx with H = (i*w*I - A)^-1, on the grid ``omega``."""
    w = np.asarray(omega, dtype=float)
    a11, a12, a21, a22 = (float(v) for v in drift(omega_m, gamma_m, g, phi))
    c_xx, c_xp, c_pp = (float(v) for v in diffusion(gamma_m, Gamma, eta, n_bar, g, phi))
    iw = 1j * w
    det = (iw - a11) * (iw - a22) - a12 * a21
    # first row of the inverse of [[iw - a11, -a12], [-a21, iw - a22]]
    h_x = (iw - a22) / det
    h_p = a12 / det
    return (
        c_xx * np.abs(h_x) ** 2
        + 2 * c_xp * (h_x * np.conj(h_p)).real
        + c_pp * np.abs(h_p) ** 2
    )


def n_bar_of(T, omega_m):
    """Thermal occupation k_B*T/(hbar*omega_m)."""
    return K_B * np.asarray(T, dtype=float) / (HBAR * np.asarray(omega_m, dtype=float))


def temperature_of(n_bar, omega_m):
    """Bath temperature whose occupation at omega_m is n_bar."""
    return n_bar * HBAR * omega_m / K_B


def t_eff(n_bar, omega_m, g):
    """Effective temperature T*(omega_m/g)^2, or T itself at zero gain."""
    T = temperature_of(n_bar, omega_m)
    return T * omega_m**2 / g**2 if g > 0 else T


def coupling(setup: dict) -> dict:
    """Coupling chain of the linearized cavity model from laboratory inputs."""
    omega_m = 2 * math.pi * setup["nu_m"]
    omega_0 = 2 * math.pi * setup["nu_0"]
    gamma_b = C_LIGHT * setup["T_r"] / (2 * setup["L"])
    G = math.sqrt(HBAR * omega_0**2 / (2 * setup["m"] * omega_m * setup["L"] ** 2))
    beta_in = math.sqrt(setup["P_in"] / (HBAR * omega_0))
    beta_s = abs(math.sqrt(gamma_b) * beta_in / complex(gamma_b / 2, -setup.get("Delta", 0.0)))
    chi = -4 * G * beta_s
    return {
        "omega_m": omega_m,
        "gamma_b": gamma_b,
        "G": G,
        "chi": chi,
        "Gamma": chi**2 / gamma_b,
        "n_bar": float(n_bar_of(setup["T"], omega_m)),
    }


def positivity_gap(gamma_m, Gamma, eta, n_bar, g, phi) -> float:
    """N(N+1) - |M|^2 from the coefficient definitions, in exact rationals.

    N = [gamma_m*(n_bar - 1/2) + Gamma/4 + F + (g/2)*sin(phi)]/gamma and
    M = -[gamma_m*n_bar + Gamma/4 - F - (i*g/2)*cos(phi)]/gamma with
    F = g^2/(4*eta*Gamma) and gamma = gamma_m - g*sin(phi). The floats are
    taken as exact rationals, so no cancellation error enters.
    """
    gm, Gm, et, nb, gg = (Fraction(float(v)) for v in (gamma_m, Gamma, eta, n_bar, g))
    s, c = Fraction(math.sin(phi)), Fraction(math.cos(phi))
    gamma = gm - gg * s
    F = gg**2 / (4 * et * Gm) if gg > 0 else Fraction(0)
    N = (gm * (nb - Fraction(1, 2)) + Gm / 4 + F + gg * s / 2) / gamma
    re_m = -(gm * nb + Gm / 4 - F) / gamma
    im_m = (gg * c / 2) / gamma
    return float(N * (N + 1) - re_m**2 - im_m**2)


def positivity_scale(gamma_m, Gamma, eta, n_bar, g, phi) -> float:
    """Magnitude of the terms that make up the positivity gap."""
    gamma = gamma_m - g * math.sin(phi)
    boost = (gamma_m * n_bar / (eta * Gamma) if g > 0 else 0.0) + 0.25 / eta + 0.25
    return 0.25 + (g / gamma) ** 2 * boost
