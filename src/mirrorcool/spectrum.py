"""Noise power spectrum of the mirror position quadrature.

The symmetrized spectrum S_g(w) follows from the Fourier-domain Langevin
equations of the cooled mirror. Its normalization is pinned by the sum
rule (1/2pi) * integral S_g(w) dw = <X^2>, which this module also checks
by independent adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .bath import EffectiveBath, require_stable
from .errors import NumericalError, ValidationError
from .steady_state import closed_form_moments, _require_phase

__all__ = ["default_grid", "eval_spectrum", "sum_rule_check"]


def default_grid(bath: EffectiveBath) -> np.ndarray:
    """Uniform 4096-point grid over [-5*(omega_m+g), +5*(omega_m+g)].

    Wide enough to resolve both the mechanical resonance and the
    feedback-broadened width.
    """
    span = 5 * (bath.omega_m + bath.g)
    return np.linspace(-span, span, 4096)


def _x_spectrum(bath: EffectiveBath):
    """S_X(w) of ``bath`` at phi = -pi/2, for a float or an array of w.

    The numerator gamma/4*[(gamma_m^2+w^2+omega_m^2)(2N+1)
    + (gamma_m^2+w^2-omega_m^2)*2ReM] is evaluated in the regrouped form
    (gamma_m^2+w^2)*c_xx + omega_m^2*c_pp with the cancellation-free
    noise intensities, which stays nonnegative in floating point; the
    denominator is |(i w + g)(i w + gamma_m) + omega_m^2|^2 expanded.
    """
    c_x, c_p = bath.noise_xx, bath.noise_pp
    gm2, om2 = bath.gamma_m**2, bath.omega_m**2
    a2 = (bath.gamma_m + bath.g) ** 2
    b = bath.omega_m**2 + bath.gamma_m * bath.g

    def spectrum(w):
        w2 = w**2
        return (c_x * (gm2 + w2) + c_p * om2) / ((b - w2) ** 2 + w2 * a2)

    return spectrum


def eval_spectrum(bath: EffectiveBath, omega_grid: np.ndarray) -> np.ndarray:
    """Pointwise spectrum of X at phi = -pi/2 (see :func:`_x_spectrum`).

    The values carry units of time (dimensionless quadrature squared per
    angular frequency). A non-finite value (a grid or bath that overflows
    the evaluation) or a negative one raises :class:`NumericalError`.
    """
    _require_phase(bath)
    require_stable(bath)
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise ValidationError("omega_grid", "empty frequency grid")

    with np.errstate(over="ignore", invalid="ignore"):
        values = _x_spectrum(bath)(omega_grid)
    if not np.isfinite(values).all():
        raise NumericalError(
            "non-finite spectrum value: the grid or the bath overflows "
            "the evaluation"
        )
    if values.min() < 0:
        raise NumericalError(
            "negative spectrum value: S_g is a symmetrized spectrum and "
            "must be nonnegative; this is an evaluation defect"
        )
    return values


def sum_rule_check(bath: EffectiveBath) -> tuple[float, float, float]:
    """Compare (1/2pi) * integral of S_g against the closed-form <X^2>.

    Adaptive quadrature over (-Omega, Omega) plus the analytic tail
    integral of the c_xx/w^2 + D/w^4 expansion beyond Omega. Returns
    (integral, var_x, relative error).
    """
    _require_phase(bath)
    require_stable(bath)

    a = bath.gamma_m + bath.g
    b = bath.omega_m**2 + bath.gamma_m * bath.g
    c_x, c_p = bath.noise_xx, bath.noise_pp

    cut = 100.0 * max(a, math.sqrt(b), bath.omega_m)
    resonance = math.sqrt(max(b - a * a / 2, 0.0))
    points = sorted({p for p in (resonance, bath.omega_m) if 0 < p < cut})
    body, err = integrate.quad(
        _x_spectrum(bath), 0.0, cut, points=points or None, limit=400,
        epsabs=0.0, epsrel=1e-11,
    )
    if not math.isfinite(body):
        raise NumericalError("spectrum quadrature did not converge")

    # S = c_x/w^2 + D/w^4 + O(w^-6) for w >> sqrt(b), a
    tail_d = c_x * (bath.gamma_m**2 - a**2 + 2 * b) + c_p * bath.omega_m**2
    tail = c_x / cut + tail_d / (3 * cut**3)

    integral = (body + tail) / math.pi  # even integrand: (1/2pi) * 2 * [0, inf)
    var_x = closed_form_moments(bath).var_x
    rel_err = abs(integral - var_x) / var_x
    if err / math.pi > max(1e-9 * integral, 1e-300):
        raise NumericalError(
            f"quadrature error estimate {err:g} too large for sum rule"
        )
    return integral, var_x, rel_err
