"""Exception hierarchy shared by all mirrorcool modules.

The hierarchy is the CLI's exit-code map: a :class:`ValidationError`
exits 2, a :class:`StabilityError` exits 3 and every other
:class:`MirrorCoolError` (the :class:`NumericalError` family) exits 4.
"""

from __future__ import annotations


class MirrorCoolError(Exception):
    """Base class for all mirrorcool errors."""


class ValidationError(MirrorCoolError):
    """A configuration or parameter field violates its constraints.

    Carries the offending field name so callers (and the CLI) can point
    at the exact input.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class UnsupportedPhaseError(ValidationError):
    """Closed forms are only available at phi = -pi/2."""

    def __init__(self, message: str):
        super().__init__("phi", message)


class StabilityError(MirrorCoolError):
    """Requested quantity diverges because the drift is not stable."""


class StabilityBoundaryError(StabilityError):
    """Steady-state solve hit the stability boundary (singular system)."""


class UnstableBathError(StabilityError):
    """Effective damping gamma = gamma_m - g*sin(phi) is not positive.

    The bath coefficients N and M are defined with a 1/gamma prefactor,
    so the generator itself is ill-defined here, not merely unstable.
    ``report`` is the refused rates' ``StabilityReport``: both margins,
    ``stable`` and ``lindblad_positive`` false and a NaN positivity gap.
    """

    def __init__(self, gamma: float, report=None):
        self.gamma = gamma
        self.report = report
        super().__init__(
            f"effective damping gamma = {gamma:g} <= 0; bath coefficients are ill-defined"
        )


class NumericalError(MirrorCoolError):
    """A numerical procedure failed to converge or overflowed."""


class InvalidSetupError(NumericalError):
    """A derivation produced a non-finite result (overflow/underflow)."""


class NoiseModelError(NumericalError):
    """The symmetrized input-noise covariance is not positive semidefinite.

    Marks the edge of the classical embedding of the quantum noise model;
    carries the offending eigenvalue for diagnosis.
    """

    def __init__(self, min_eigenvalue: float, params: str):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"symmetrized noise covariance has negative eigenvalue "
            f"{min_eigenvalue:g} for {params}"
        )


class TruncationError(NumericalError):
    """Number-basis truncation too small (tail population above guard)."""
