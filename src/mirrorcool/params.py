"""Physical constants, laboratory inputs, and derived coupling parameters.

All rates are kept in angular units (rad/s, written 1/s); frequencies are
entered in Hz and converted exactly once, here. The physical constants are
the exact SI-2019 values, and :func:`thermal_occupation` is the one
place they turn a temperature into a mechanical occupation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import InvalidSetupError, ValidationError

__all__ = ["PhysicalSetup", "DerivedCoupling", "derive_coupling", "thermal_occupation"]

HBAR = 6.62607015e-34 / (2 * math.pi)  # J*s
K_B = 1.380649e-23                      # J/K
C = 299792458.0                         # m/s


def thermal_occupation(T: float, omega_m: float) -> float:
    """k_B*T/(hbar*omega_m); InvalidSetupError where hbar*omega_m underflows."""
    quantum = HBAR * omega_m
    if not quantum > 0:
        raise InvalidSetupError("hbar*omega_m underflows: the T axis has no n_bar")
    return K_B * T / quantum


def _require_finite(instance) -> None:
    for f in fields(instance):
        if not math.isfinite(getattr(instance, f.name)):
            raise ValidationError(f.name, "must be finite")


@dataclass(frozen=True)
class PhysicalSetup:
    """Experimenter-facing inputs for the cavity/mirror/feedback system.

    Attributes
    ----------
    m : mirror mass (kg)
    nu_m : mechanical frequency (Hz)
    gamma_m : mechanical damping rate (1/s)
    L : equilibrium cavity length (m)
    nu_0 : impinging laser frequency (Hz)
    T_r : transmittivity of the fixed mirror, 0 < T_r <= 1
    P_in : input laser power (W); 0 allowed (zero-drive case)
    T : bath temperature (K)
    eta : homodyne detector efficiency, 0 < eta <= 1
    g : feedback gain (1/s)
    phi : feedback phase (rad); -pi/2 drives the momentum quadrature
    Delta : cavity detuning (1/s), 0 in the standard working point
    """

    m: float
    nu_m: float
    gamma_m: float
    L: float
    nu_0: float
    T_r: float
    P_in: float
    T: float
    eta: float = 1.0
    g: float = 0.0
    phi: float = -math.pi / 2
    Delta: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("m", "nu_m", "L", "nu_0", "T"):
            if not getattr(self, name) > 0:
                raise ValidationError(name, "must be strictly positive")
        # P_in = 0 is a meaningful zero-drive configuration
        if not self.P_in >= 0:
            raise ValidationError("P_in", "must be nonnegative")
        if not self.gamma_m >= 0:
            raise ValidationError("gamma_m", "must be nonnegative")
        if not self.g >= 0:
            raise ValidationError("g", "must be nonnegative")
        if not 0 < self.eta <= 1:
            raise ValidationError("eta", "must lie in (0, 1]")
        if not 0 < self.T_r <= 1:
            raise ValidationError("T_r", "must lie in (0, 1]")


@dataclass(frozen=True)
class DerivedCoupling:
    """Coupling constants of the linearized cavity/mirror model."""

    omega_m: float        # mechanical angular frequency (rad/s)
    omega_0: float        # laser angular frequency (rad/s)
    gamma_b: float        # cavity field decay rate (1/s)
    G: float              # single-photon coupling (1/s)
    beta_in: float        # input field amplitude (s^-1/2)
    beta_s: complex       # intracavity steady amplitude (dimensionless)
    varphi: float         # arg(beta_s) (rad)
    chi: float            # effective bilinear coupling, signed (1/s)
    Gamma: float          # measurement rate chi^2/gamma_b (1/s)
    x_s: float            # static mirror displacement (m)
    Q_m: float            # mechanical quality factor omega_m/gamma_m
    n_bar: float          # thermal occupation k_B*T/(hbar*omega_m)
    adiabatic_ok: bool = field(default=True)  # gamma_b > 10*|chi|


def derive_coupling(setup: PhysicalSetup) -> DerivedCoupling:
    """Derive all coupling parameters of the linearized model.

    The cavity resonance is evaluated at the laser frequency (the working
    point absorbs the residual detuning into ``Delta``), so the
    single-photon coupling and the input amplitude use ``omega_0``.

    Raises
    ------
    ValidationError
        if a setup field violates its constraints (checked at construction).
    InvalidSetupError
        if any derived quantity is non-finite.
    """
    try:
        omega_m = 2 * math.pi * setup.nu_m
        omega_0 = 2 * math.pi * setup.nu_0
        gamma_b = C * setup.T_r / (2 * setup.L)

        G = math.sqrt(HBAR * omega_0**2 / (2 * setup.m * omega_m * setup.L**2))
        beta_in = math.sqrt(setup.P_in / (HBAR * omega_0))
        beta_s = math.sqrt(gamma_b) * beta_in / (gamma_b / 2 - 1j * setup.Delta)
        varphi = math.atan2(beta_s.imag, beta_s.real)

        chi = -4 * G * abs(beta_s)
        Gamma = chi**2 / gamma_b
        x_s = HBAR * omega_0 * abs(beta_s) ** 2 / (setup.m * omega_m**2 * setup.L)
        # tau_m = 1/gamma_m; an undamped mirror has unbounded quality factor
        Q_m = omega_m / setup.gamma_m if setup.gamma_m > 0 else math.inf
        n_bar = thermal_occupation(setup.T, omega_m)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise InvalidSetupError(f"derivation overflowed/underflowed: {exc}") from exc

    finite_fields = {
        "omega_m": omega_m, "omega_0": omega_0, "gamma_b": gamma_b, "G": G,
        "beta_in": beta_in, "chi": chi, "Gamma": Gamma, "x_s": x_s,
        "n_bar": n_bar,
    }
    for name, value in finite_fields.items():
        if not math.isfinite(value):
            raise InvalidSetupError(f"derived {name} is non-finite ({value!r})")
    if not (math.isfinite(beta_s.real) and math.isfinite(beta_s.imag)):
        raise InvalidSetupError(f"derived beta_s is non-finite ({beta_s!r})")

    return DerivedCoupling(
        omega_m=omega_m,
        omega_0=omega_0,
        gamma_b=gamma_b,
        G=G,
        beta_in=beta_in,
        beta_s=beta_s,
        varphi=varphi,
        chi=chi,
        Gamma=Gamma,
        x_s=x_s,
        Q_m=Q_m,
        n_bar=n_bar,
        adiabatic_ok=gamma_b > 10 * abs(chi),
    )
