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

from .errors import InvalidSetupError, UnstableBathError, ValidationError
from .params import DerivedCoupling, PhysicalSetup

__all__ = [
    "EffectiveBath",
    "StabilityReport",
    "build_bath",
    "bath_from_rates",
    "check_stability",
    "with_gain",
]


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

    stable: bool
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
        if gamma = gamma_m - g*sin(phi) <= 0.
    InvalidSetupError
        if the coefficient block, omega_m**2 or (gamma_m + g)**2 overflows.
    """
    inputs = dict(omega_m=omega_m, gamma_m=gamma_m, Gamma=Gamma, eta=eta,
                  n_bar=n_bar, g=g, phi=phi)
    for name, value in inputs.items():
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
        raise UnstableBathError(gamma)

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
    return bath_from_rates(
        omega_m=bath.omega_m,
        gamma_m=bath.gamma_m,
        Gamma=bath.Gamma,
        eta=bath.eta,
        n_bar=bath.n_bar,
        g=g,
        phi=bath.phi,
    )


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
                       phi: float) -> tuple[float, float]:
    """The damping and spring margins; both positive means a stable drift."""
    sin_phi = math.sin(phi)
    return gamma_m - g * sin_phi, omega_m**2 - gamma_m * g * sin_phi


def check_stability(bath: EffectiveBath) -> StabilityReport:
    """Evaluate the stability margins and the Lindblad positivity gap."""
    margin_damping, margin_spring = _stability_margins(
        bath.omega_m, bath.gamma_m, bath.g, bath.phi
    )
    gap = _positivity_gap(bath)
    return StabilityReport(
        stable=margin_damping > 0 and margin_spring > 0,
        lindblad_positive=gap > 0,
        margin_damping=margin_damping,
        margin_spring=margin_spring,
        positivity_gap=gap,
    )
