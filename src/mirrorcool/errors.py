"""Exception hierarchy shared by all mirrorcool modules."""

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


class InvalidSetupError(MirrorCoolError):
    """A derivation produced a non-finite result (overflow/underflow)."""


class UnstableBathError(MirrorCoolError):
    """Effective damping gamma = gamma_m - g*sin(phi) is not positive.

    The bath coefficients N and M are defined with a 1/gamma prefactor,
    so the generator itself is ill-defined here, not merely unstable.
    """

    def __init__(self, gamma: float):
        self.gamma = gamma
        super().__init__(
            f"effective damping gamma = {gamma:g} <= 0; bath coefficients are ill-defined"
        )


class StabilityError(MirrorCoolError):
    """Requested quantity diverges because the drift is not stable."""


class StabilityBoundaryError(StabilityError):
    """Steady-state solve hit the stability boundary (singular system)."""


class UnsupportedPhaseError(MirrorCoolError):
    """Closed forms are only available at phi = -pi/2."""


class NumericalError(MirrorCoolError):
    """A numerical procedure failed to converge or overflowed."""


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
