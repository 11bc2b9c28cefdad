"""Effective phase-sensitive bath produced by measurement plus feedback.

The continuous homodyne measurement of the mirror position and the
Markovian feedback drive combine into a single effective reservoir for
the mechanical mode, characterized by a damping rate ``gamma``, an
occupation-like coefficient ``N``, an anomalous complex coefficient
``M``, and a squeeze-commutator coefficient. This module builds those
coefficients from the coupling/feedback parameters and evaluates the
stability and complete-positivity conditions.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import (
    InvalidSetupError, StabilityBoundaryError, StabilityError, UnstableBathError, ValidationError,
)
from .params import DerivedCoupling, PhysicalSetup

__all__ = [
    "EffectiveBath",
    "RATES",
    "StabilityReport",
    "build_bath",
    "bath_from_rates",
    "check_stability",
    "require_stable",
    "with_gain",
]

_BAND = 1e-12  # relative band within which a stability margin counts as zero
RATES = ("omega_m", "gamma_m", "Gamma", "eta", "n_bar", "g", "phi")  # bath_from_rates inputs


@dataclass(frozen=True)
class EffectiveBath:
    """Generator coefficients of the effective mechanical bath.

    ``gamma``, ``N``, ``M`` and ``squeeze_coeff`` are derived; the
    remaining fields are copies of the inputs they derive from, so the
    coefficient block can be re-derived (bit-for-bit) or re-built at a
    different gain.
    """

    gamma: float            # effective damping gamma_m - g*sin(phi) (1/s)
    N: float                # effective occupation (dimensionless)
    M: complex              # phase-sensitive coefficient (dimensionless)
    squeeze_coeff: float    # (g*sin(phi) + gamma_m)/4 (1/s)
    omega_m: float          # mechanical angular frequency (rad/s)
    gamma_m: float
    g: float
    phi: float
    Gamma: float
    eta: float
    n_bar: float

    # symmetrized input-noise intensities (see _noise_xx)

    @property
    def noise_xx(self) -> float:
        return _noise_xx(self.g, self.eta, self.Gamma)

    @property
    def noise_pp(self) -> float:
        return _noise_pp(self.gamma_m, self.n_bar, self.Gamma)

    @property
    def noise_xp(self) -> float:
        return _noise_xp(self.g, math.cos(self.phi))


@dataclass(frozen=True)
class StabilityReport:
    """Stability margins and Lindblad-positivity diagnosis of a bath."""

    stable: bool            # both margins above their boundary band
    lindblad_positive: bool
    margin_damping: float   # gamma_m - g*sin(phi) (1/s)
    margin_spring: float    # omega_m^2 - gamma_m*g*sin(phi) (1/s^2)
    positivity_gap: float   # N(N+1) - |M|^2


# ---------------------------------------------------------------------------
# the coefficient algebra, written once for a float, an array or a symbol
#
# Each function below takes sin(phi) and cos(phi) already computed, so a
# sweep computes them with math once per phi value. One point's route
# (bath_from_rates, check_stability) passes floats and stays on math; the
# sweep passes arrays laid along its axes, which broadcast over its grid.
# Every square is a product, x * x: correctly rounded, and inf past the
# float range, for a float as for an array, so both routes give the same
# bits.

def _where(condition, compute, otherwise, *args):
    """``compute(*args)`` where ``condition`` holds, ``otherwise`` elsewhere.

    A scalar condition calls ``compute`` only if it holds, so a float never
    meets the division by zero of the branch not taken; an array condition
    computes every element, with numpy's warnings off, and selects.
    """
    if type(condition) is bool or not getattr(condition, "ndim", 0):
        return compute(*args) if condition else otherwise
    np = sys.modules["numpy"]
    with np.errstate(all="ignore"):
        return np.where(condition, compute(*args), otherwise)


# The combinations gamma*(2N+1 +/- 2 Re M)/4 and gamma*Im M/2 reduce
# algebraically to the three forms below. The reduced forms are used because
# the direct combination cancels catastrophically at large n_bar
# (absolute error ~ eps*n_bar, i.e. ~1e-4 at room temperature).

def _noise_xx(g, eta, Gamma):
    """gamma*(2N+1+2Re M)/4 == g^2/(4*eta*Gamma); feedback-injected, 0 at g = 0."""
    return _where(g != 0, operator.truediv, 0.0, g * g, 4 * eta * Gamma)


def _noise_pp(gamma_m, n_bar, Gamma):
    """gamma*(2N+1-2Re M)/4 == gamma_m*n_bar + Gamma/4; thermal + backaction."""
    return gamma_m * n_bar + Gamma / 4


def _noise_xp(g, cos_phi):
    """gamma*Im M/2 == (g/4)*cos(phi); vanishes at phi = -pi/2."""
    return 0.25 * g * cos_phi


# the constraints on the rates, in the order bath_from_rates checks them
_CONSTRAINTS = (
    ("omega_m", "must be strictly positive"),
    ("gamma_m", "must be nonnegative"),
    ("Gamma", "must be nonnegative"),
    ("eta", "must lie in (0, 1]"),
    ("n_bar", "must be nonnegative"),
    ("g", "must be nonnegative"),
    ("Gamma", "feedback gain g > 0 requires a measurement rate Gamma > 0"),
)


def _constraints_hold(omega_m, gamma_m, Gamma, eta, n_bar, g):
    """Whether each of ``_CONSTRAINTS`` holds: bools for floats, point by
    point for arrays."""
    return (omega_m > 0, gamma_m >= 0, Gamma >= 0, (0 < eta) & (eta <= 1), n_bar >= 0, g >= 0,
            (g <= 0) | (Gamma != 0))


def _coefficients(gamma_m, Gamma, eta, n_bar, g, sin_phi, cos_phi, gamma):
    """N and the real and imaginary numerators of M at the damping gamma > 0:
    M = -(m_re - 1j*m_im)/gamma."""
    # g = 0 makes the feedback-noise term vanish identically (no 0/0 at Gamma = 0)
    fb_noise = _noise_xx(g, eta, Gamma)
    N = (gamma_m * (n_bar - 0.5) + Gamma / 4 + fb_noise + 0.5 * g * sin_phi) / gamma
    return N, gamma_m * n_bar + Gamma / 4 - fb_noise, 0.5 * g * cos_phi


def _must_be_finite(omega_m, gamma_m, g, gamma, N, M_re, M_im):
    """gamma, N and the parts of M, and the squares of omega_m and gamma_m + g,
    which the moments, margins and spectra take: the coefficient block is
    refused unless all of them are finite."""
    a = gamma_m + g
    return gamma, N, M_re, M_im, omega_m * omega_m, a * a


def build_bath(coupling: DerivedCoupling, setup: PhysicalSetup) -> EffectiveBath:
    """Assemble the effective-bath coefficients for a physical setup.

    ``phi`` is the only phase the mechanical dynamics sees; it bundles the
    local-oscillator phase with the steady intracavity phase, so the
    experimental local-oscillator setting is phi - coupling.varphi.

    Raises
    ------
    UnstableBathError
        if gamma = gamma_m - g*sin(phi) <= 0 (N and M carry 1/gamma).
    ValidationError
        if g > 0 with Gamma = 0 (feedback needs a measurement channel).
    """
    return bath_from_rates(
        omega_m=coupling.omega_m,
        gamma_m=setup.gamma_m,
        Gamma=coupling.Gamma,
        eta=setup.eta,
        n_bar=coupling.n_bar,
        g=setup.g,
        phi=setup.phi,
    )


def bath_from_rates(
    *,
    omega_m: float,
    gamma_m: float,
    Gamma: float,
    eta: float,
    n_bar: float,
    g: float,
    phi: float,
) -> EffectiveBath:
    """Build an :class:`EffectiveBath` directly from rate-level inputs.

    Same coefficient block as :func:`build_bath` but without the cavity
    derivation; used for desk-scale parameter sets and CLI overrides.

    Raises
    ------
    ValidationError
        if an input is non-finite or violates its constraints.
    UnstableBathError
        if gamma = gamma_m - g*sin(phi) <= 0; its ``report`` holds the
        margins of these rates.
    InvalidSetupError
        if the coefficient block, omega_m**2 or (gamma_m + g)**2 is not
        finite, or 4*eta*Gamma underflows to 0 under a gain.
    """
    for name, value in zip(RATES, (omega_m, gamma_m, Gamma, eta, n_bar, g, phi)):
        if not math.isfinite(value):
            raise ValidationError(name, "must be finite")
    holds = _constraints_hold(omega_m, gamma_m, Gamma, eta, n_bar, g)
    if not all(holds):
        raise ValidationError(*_CONSTRAINTS[holds.index(False)])

    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    gamma = gamma_m - g * sin_phi
    if not gamma > 0:
        # the positivity gap carries 1/gamma: NaN, not positive
        raise UnstableBathError(gamma, _report(omega_m, gamma_m, g, sin_phi, math.nan))

    try:
        N, m_re, m_im = _coefficients(gamma_m, Gamma, eta, n_bar, g, sin_phi, cos_phi, gamma)
    except ZeroDivisionError as exc:  # 4*eta*Gamma may underflow to 0
        raise InvalidSetupError(f"bath coefficients overflowed: {exc}") from exc
    M = -(m_re - 1j * m_im) / gamma
    if not all(map(math.isfinite, _must_be_finite(omega_m, gamma_m, g, gamma, N, M.real, M.imag))):
        raise InvalidSetupError(
            f"bath coefficients overflowed: gamma={gamma!r}, N={N!r}, M={M!r}"
        )

    # by position, in the field order: keyword matching costs about a tenth of this call
    return EffectiveBath(gamma, N, M, (g * sin_phi + gamma_m) / 4,
                         omega_m, gamma_m, g, phi, Gamma, eta, n_bar)


def with_gain(bath: EffectiveBath, g: float) -> EffectiveBath:
    """Re-derive the coefficient block of ``bath`` at a different gain."""
    rates = {key: getattr(bath, key) for key in RATES}
    return bath_from_rates(**{**rates, "g": g})


def _positivity_gap(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma):
    """N(N+1) - |M|^2, evaluated through its exact algebraic reduction.

    Substituting the coefficient block and simplifying collapses the
    raw products (which lose eps*n_bar^2 in floating point, ~1e-4 at room
    temperature) to

        gap = -1/4 + (g/gamma)^2 * [gamma_m*n_bar/(eta*Gamma)
                                    + (1/eta - cos(phi)^2)/4]

    so the -1/4 thermal deficit at g = 0 is exact to the last bit. Where
    (g/gamma)^2 or the thermal term leaves the float range it is inf, for
    a float as for an array.
    """
    return _where(g != 0, _gained_gap, -0.25, gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma)


def _gained_gap(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma):
    # eta*Gamma > 0 below the float range: the thermal term is past it
    eta_Gamma = eta * Gamma
    thermal = _where(eta_Gamma > 0, operator.truediv, math.inf, gamma_m * n_bar, eta_Gamma)
    boost = thermal + (1 / eta - cos_phi * cos_phi) / 4
    ratio = g / gamma
    return -0.25 + ratio * ratio * boost


def _stability_margins(omega_m, gamma_m, g, sin_phi):
    """The damping and spring margins, -trace(A) and det(A), and their verdict.

    Within 1e-12 of the magnitudes of its two terms a margin is rounding
    noise: the drift is "stable" with both margins above that band, on
    the "boundary" with neither below minus it, and "unstable" otherwise.
    The verdict is returned as ``stable`` and ``bounded`` (stable or on the
    boundary): bools for floats, point by point for arrays.
    """
    omega2 = omega_m * omega_m
    damping, spring = gamma_m - g * sin_phi, omega2 - gamma_m * g * sin_phi
    band_damping = _BAND * (abs(g * sin_phi) + gamma_m)
    band_spring = _BAND * (abs(gamma_m * g * sin_phi) + omega2)
    stable = (damping > band_damping) & (spring > band_spring)
    bounded = (damping >= -band_damping) & (spring >= -band_spring)
    return damping, spring, stable, bounded


def require_stable(bath: EffectiveBath) -> None:
    """Raise StabilityBoundaryError on the stability boundary, StabilityError beyond it."""
    damping, spring, stable, bounded = _stability_margins(
        bath.omega_m, bath.gamma_m, bath.g, math.sin(bath.phi))
    if not stable:
        error, drift = ((StabilityBoundaryError, "drift on the stability boundary")
                        if bounded else (StabilityError, "unstable drift"))
        raise error(f"no steady state exists: {drift} "
                    f"(margin_damping={damping:g}, margin_spring={spring:g})")


def _report(omega_m: float, gamma_m: float, g: float, sin_phi: float,
            gap: float) -> StabilityReport:
    damping, spring, stable, _ = _stability_margins(omega_m, gamma_m, g, sin_phi)
    return StabilityReport(stable=bool(stable), lindblad_positive=gap > 0,
                           margin_damping=damping, margin_spring=spring, positivity_gap=gap)


def check_stability(bath: EffectiveBath) -> StabilityReport:
    """Evaluate the stability margins and the Lindblad positivity gap."""
    gap = _positivity_gap(bath.gamma_m, bath.Gamma, bath.eta, bath.n_bar, bath.g,
                          math.cos(bath.phi), bath.gamma)
    return _report(bath.omega_m, bath.gamma_m, bath.g, math.sin(bath.phi), gap)
