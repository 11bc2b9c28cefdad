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

    # -- symmetrized input-noise intensities -------------------------------
    #
    # The combinations gamma*(2N+1 +/- 2 Re M)/4 and gamma*Im M/2 reduce
    # algebraically to the forms below. The reduced forms are used because
    # the direct combination cancels catastrophically at large n_bar
    # (absolute error ~ eps*n_bar, i.e. ~1e-4 at room temperature).

    @property
    def noise_xx(self) -> float:
        """gamma*(2N+1+2Re M)/4 == g^2/(4*eta*Gamma); feedback-injected."""
        if self.g == 0.0:
            return 0.0
        return self.g**2 / (4 * self.eta * self.Gamma)

    @property
    def noise_pp(self) -> float:
        """gamma*(2N+1-2Re M)/4 == gamma_m*n_bar + Gamma/4; thermal + backaction."""
        return self.gamma_m * self.n_bar + self.Gamma / 4

    @property
    def noise_xp(self) -> float:
        """gamma*Im M/2 == (g/4)*cos(phi); vanishes at phi = -pi/2."""
        return 0.25 * self.g * math.cos(self.phi)


@dataclass(frozen=True)
class StabilityReport:
    """Stability margins and Lindblad-positivity diagnosis of a bath."""

    stable: bool            # both margins above their boundary band
    lindblad_positive: bool
    margin_damping: float   # gamma_m - g*sin(phi) (1/s)
    margin_spring: float    # omega_m^2 - gamma_m*g*sin(phi) (1/s^2)
    positivity_gap: float   # N(N+1) - |M|^2


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
        if the coefficient block, omega_m**2 or (gamma_m + g)**2 overflows.
    """
    for name, value in zip(RATES, (omega_m, gamma_m, Gamma, eta, n_bar, g, phi)):
        if not math.isfinite(value):
            raise ValidationError(name, "must be finite")
    if not omega_m > 0:
        raise ValidationError("omega_m", "must be strictly positive")
    if not gamma_m >= 0:
        raise ValidationError("gamma_m", "must be nonnegative")
    if not Gamma >= 0:
        raise ValidationError("Gamma", "must be nonnegative")
    if not 0 < eta <= 1:
        raise ValidationError("eta", "must lie in (0, 1]")
    if not n_bar >= 0:
        raise ValidationError("n_bar", "must be nonnegative")
    if not g >= 0:
        raise ValidationError("g", "must be nonnegative")
    if g > 0 and Gamma == 0:
        raise ValidationError(
            "Gamma", "feedback gain g > 0 requires a measurement rate Gamma > 0"
        )

    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    gamma = gamma_m - g * sin_phi
    if not gamma > 0:
        # the positivity gap carries 1/gamma: NaN, not positive
        raise UnstableBathError(gamma, _report(omega_m, gamma_m, g, phi, math.nan))

    try:
        # g = 0 makes the feedback-noise term vanish identically (no 0/0 at Gamma = 0)
        fb_noise = g**2 / (4 * eta * Gamma) if g > 0 else 0.0
        N = (gamma_m * (n_bar - 0.5) + Gamma / 4 + fb_noise + 0.5 * g * sin_phi) / gamma
        M = -(gamma_m * n_bar + Gamma / 4 - fb_noise - 0.5j * g * cos_phi) / gamma
        # the moments, margins and spectra square omega_m and gamma_m + g
        squares = (omega_m**2, (gamma_m + g) ** 2)
        finite = all(map(math.isfinite, (gamma, N, M.real, M.imag, *squares)))
    except OverflowError as exc:
        raise InvalidSetupError(f"bath coefficients overflowed: {exc}") from exc
    if not finite:
        raise InvalidSetupError(
            f"non-finite bath coefficients: gamma={gamma!r}, N={N!r}, M={M!r}"
        )

    return EffectiveBath(
        gamma=gamma,
        N=N,
        M=M,
        squeeze_coeff=(g * sin_phi + gamma_m) / 4,
        omega_m=omega_m,
        gamma_m=gamma_m,
        g=g,
        phi=phi,
        Gamma=Gamma,
        eta=eta,
        n_bar=n_bar,
    )


def with_gain(bath: EffectiveBath, g: float) -> EffectiveBath:
    """Re-derive the coefficient block of ``bath`` at a different gain."""
    rates = {key: getattr(bath, key) for key in RATES}
    return bath_from_rates(**{**rates, "g": g})


def _positivity_gap(bath: EffectiveBath) -> float:
    """N(N+1) - |M|^2, evaluated through its exact algebraic reduction.

    Substituting the coefficient block and simplifying collapses the
    raw products (which lose eps*n_bar^2 in floating point, ~1e-4 at room
    temperature) to

        gap = -1/4 + (g/gamma)^2 * [gamma_m*n_bar/(eta*Gamma)
                                    + (1/eta - cos(phi)^2)/4]

    so the -1/4 thermal deficit at g = 0 is exact to the last bit.
    """
    if bath.g == 0.0:
        return -0.25
    gamma_m, g, phi, Gamma, eta = bath.gamma_m, bath.g, bath.phi, bath.Gamma, bath.eta
    boost = gamma_m * bath.n_bar / (eta * Gamma) + (1 / eta - math.cos(phi) ** 2) / 4
    return -0.25 + (g / bath.gamma) ** 2 * boost


def _stability_margins(omega_m: float, gamma_m: float, g: float,
                       phi: float) -> tuple[float, float, str]:
    """The damping and spring margins, -trace(A) and det(A), and their verdict.

    Within 1e-12 of the magnitudes of its two terms a margin is rounding
    noise: the drift is "stable" with both margins above that band, on
    the "boundary" with neither below minus it, and "unstable" otherwise.
    """
    sin_phi = math.sin(phi)
    try:
        omega2 = omega_m**2
    except OverflowError:  # a refused bath's report still has its margins
        omega2 = math.inf
    damping, spring = gamma_m - g * sin_phi, omega2 - gamma_m * g * sin_phi
    band_damping = _BAND * (abs(g * sin_phi) + gamma_m)
    band_spring = _BAND * (abs(gamma_m * g * sin_phi) + omega2)
    if damping > band_damping and spring > band_spring:
        return damping, spring, "stable"
    if damping >= -band_damping and spring >= -band_spring:
        return damping, spring, "boundary"
    return damping, spring, "unstable"


def require_stable(bath: EffectiveBath) -> None:
    """Raise StabilityBoundaryError on the stability boundary, StabilityError beyond it."""
    damping, spring, verdict = _stability_margins(bath.omega_m, bath.gamma_m, bath.g, bath.phi)
    if verdict != "stable":
        error, drift = ((StabilityBoundaryError, "drift on the stability boundary")
                        if verdict == "boundary" else (StabilityError, "unstable drift"))
        raise error(f"no steady state exists: {drift} "
                    f"(margin_damping={damping:g}, margin_spring={spring:g})")


def _report(omega_m: float, gamma_m: float, g: float, phi: float,
            gap: float) -> StabilityReport:
    damping, spring, verdict = _stability_margins(omega_m, gamma_m, g, phi)
    return StabilityReport(stable=verdict == "stable", lindblad_positive=gap > 0,
                           margin_damping=damping, margin_spring=spring, positivity_gap=gap)


def check_stability(bath: EffectiveBath) -> StabilityReport:
    """Evaluate the stability margins and the Lindblad positivity gap."""
    return _report(bath.omega_m, bath.gamma_m, bath.g, bath.phi, _positivity_gap(bath))
