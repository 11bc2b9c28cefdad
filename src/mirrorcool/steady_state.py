"""Steady-state quadrature moments: closed forms, Lyapunov oracle, gain tuning.

The closed-form variances are stated for the feedback phase phi = -pi/2
(position measured, momentum driven). The Lyapunov route solves the 2x2
steady-state covariance equation A*S + S*A^T + C = 0 for the drift and
diffusion read off the quadrature Langevin equations; it extends to any
phase and serves as the independent oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import EffectiveBath, require_stable, with_gain
from .errors import (
    NumericalError, StabilityBoundaryError, StabilityError, UnsupportedPhaseError, ValidationError,
)
from .params import HBAR, K_B

__all__ = [
    "SteadyMoments",
    "closed_form_moments",
    "high_gain_moments",
    "lyapunov_moments",
    "optimize_gain",
    "drift_matrix",
    "diffusion_matrix",
]

_PHASE_TOL = 1e-9  # |phi + pi/2| below this counts as the closed-form phase


@dataclass(frozen=True)
class SteadyMoments:
    """Steady-state second moments of the mirror quadratures.

    Quadratures are dimensionless with [X, P] = i/2, so any physical state
    satisfies var_x * var_p >= 1/16.
    """

    var_x: float
    var_p: float
    cov_xp_sym: float
    t_eff: float          # effective temperature (K)
    method: str           # "closed_form" | "lyapunov" | "high_gain"

    def __post_init__(self):
        if not (self.var_x > 0 and self.var_p > 0):
            raise StabilityError(
                f"non-positive variance (var_x={self.var_x:g}, var_p={self.var_p:g})"
            )
        if self.var_x * self.var_p < 1.0 / 16.0 - 1e-12:
            raise StabilityError(
                "Heisenberg bound violated: var_x*var_p = "
                f"{self.var_x * self.var_p:g} < 1/16"
            )


def _require_phase(bath: EffectiveBath) -> None:
    if abs(bath.phi + math.pi / 2) > _PHASE_TOL:
        raise UnsupportedPhaseError(
            f"closed forms hold only at phi = -pi/2 (got phi = {bath.phi:g}); "
            "use lyapunov_moments for other phases"
        )


def _t_eff(bath: EffectiveBath) -> float:
    # bath temperature reconstructed from n_bar = k_B*T/(hbar*omega_m)
    T = bath.n_bar * HBAR * bath.omega_m / K_B
    if bath.g > 0:
        # T*(omega_m/g)^2 leaves the float range as g -> 0, where g**2 underflows
        g2 = bath.g**2
        return T * bath.omega_m**2 / g2 if g2 > 0 else math.inf
    return T


def drift_matrix(bath: EffectiveBath) -> np.ndarray:
    """Drift of the quadrature means, d<(X,P)>/dt = A <(X,P)>.

    At phi = -pi/2 this is [[-g, omega_m], [-omega_m, -gamma_m]]; the
    general-phase form [[g*sin(phi), omega_m], [-omega_m, -gamma_m]]
    follows from the moment flow of the full generator and reduces to it.
    """
    return np.array(
        [
            [bath.g * math.sin(bath.phi), bath.omega_m],
            [-bath.omega_m, -bath.gamma_m],
        ]
    )


def diffusion_matrix(bath: EffectiveBath) -> np.ndarray:
    """Symmetrized noise intensity C = gamma*[[(2N+1+2ReM)/4, ImM/2], ...].

    Only the symmetric part of the input correlations enters second
    moments; the antisymmetric i/4 cross term is a commutator artifact and
    is deliberately dropped. Entries come from the cancellation-free
    reductions on :class:`EffectiveBath`.
    """
    return np.array(
        [
            [bath.noise_xx, bath.noise_xp],
            [bath.noise_xp, bath.noise_pp],
        ]
    )


def _lyapunov_terms(a, b, c, d, p, q, r):
    """Numerators of (x, y, z) and their common denominator -2*tr(A)*det(A).

    For A = [[a, b], [c, d]] and C = [[p, q], [q, r]], the solution
    S = [[x, z], [z, y]] of A*S + S*A^T + C = 0 is
    S = -(det(A) C + Abar C Abar^T)/(2 tr(A) det(A)) with
    Abar = A - tr(A) I = [[-d, b], [c, -a]]. Its entries are expanded
    here into sums of products of the inputs: the product form, evaluated
    as written, cancels when one rate dwarfs the others (b^2 q against
    b^2 q in z when b is omega_m). Plain arithmetic, so it runs on floats
    and symbols alike.
    """
    det = a * d - b * c
    numerators = (
        det * p + d * d * p - 2 * b * d * q + b * b * r,
        det * r + c * c * p - 2 * a * c * q + a * a * r,
        2 * a * d * q - c * d * p - a * b * r,
    )
    return numerators, -2 * (a + d) * det


def _steady_covariance(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Symmetric S solving A*S + S*A^T + C = 0, C symmetric, in closed form.

    The closed form (:func:`_lyapunov_terms`) is regular for every
    stable drift (tr A < 0 < det A). It is evaluated in long double,
    whose range holds every product of three double inputs, so no product
    over- or underflows at any scale of the rates, and rounded once. A
    singular system (tr(A)*det(A) = 0) is refused as the stability
    boundary, and a solution past the double range with NumericalError.
    """
    (a, b), (c, d) = A.tolist()
    (p, q), (_, r) = C.tolist()
    (x, y, z), denom = _lyapunov_terms(*map(np.longdouble, (a, b, c, d, p, q, r)))
    if denom == 0:
        raise StabilityBoundaryError("Lyapunov system is singular: trace(A)*det(A) = 0")
    x, y, z = (float(v / denom) for v in (x, y, z))
    if not all(map(math.isfinite, (x, y, z))):
        raise NumericalError(
            f"steady covariance leaves the float range: var_x = {x:g}, var_p = {y:g}"
        )
    return np.array([[x, z], [z, y]])


def closed_form_moments(bath: EffectiveBath) -> SteadyMoments:
    """Exact steady-state variances at phi = -pi/2.

    ``var_x`` and ``var_p`` are the printed closed-form expressions; the
    symmetrized cross moment, which has no printed form, is the closed-form
    solution of the same covariance equation, sharing no Lyapunov code.
    """
    _require_phase(bath)
    require_stable(bath)

    g, gm, om = bath.g, bath.gamma_m, bath.omega_m
    c_x, c_p = bath.noise_xx, bath.noise_pp
    denom = 2 * (gm + g) * (om**2 + gm * g)
    if denom == 0:  # positive for a stable drift, so it has underflowed
        raise NumericalError(
            "closed-form denominator 2*(gamma_m + g)*(omega_m^2 + gamma_m*g) underflows to 0 "
            f"(omega_m = {om:g}, gamma_m = {gm:g}, g = {g:g})"
        )
    # identical to the textbook form with the thermal bracket
    # (n_bar/2 + Gamma/(8*gamma_m)) multiplied through by gamma_m, which
    # keeps the gamma_m -> 0 limit finite
    var_x = (c_x * (gm**2 + om**2 + gm * g) + c_p * om**2) / denom
    var_p = (c_p * (g**2 + gm * g + om**2) + om**2 * c_x) / denom
    cov = om * (c_p * g - c_x * gm) / denom

    return SteadyMoments(
        var_x=var_x,
        var_p=var_p,
        cov_xp_sym=cov,
        t_eff=_t_eff(bath),
        method="closed_form",
    )


def high_gain_moments(bath: EffectiveBath) -> SteadyMoments:
    """High-gain approximation of var_x, valid for g >> omega_m*Q_m.

    var_x = k_B*T_eff/(2*hbar*omega_m) + Gamma*omega_m^2/(8*gamma_m*g^2)
          + g/(8*eta*Gamma) with T_eff = T*omega_m^2/g^2. The orthogonal
    quadrature has no printed high-gain form; ``var_p`` is filled with the
    exact value so the returned object stays physically valid.

    The approximation never undershoots the exact variance, and it
    overshoots it by at most (1 + gamma_m/g)*(1 + omega_m*Q_m/g) - 1
    relative: about 10% at g = 10*omega_m*Q_m, below 5% from just above
    20x. The thermal and back-action terms overshoot their exact
    counterparts by exactly that factor; the shot-noise term overshoots
    its counterpart by at most gamma_m/g relative.
    """
    _require_phase(bath)
    require_stable(bath)
    if not bath.g**2 > 0:
        raise ValidationError("g", "high-gain approximation requires g > 0 (g**2 > 0)")
    if not bath.gamma_m * bath.g**2 > 0:
        raise ValidationError("gamma_m", "high-gain approximation divides by gamma_m*g^2")

    g, gm, om = bath.g, bath.gamma_m, bath.omega_m
    # thermal term k_B*T_eff/(2 hbar omega_m) = (n_bar/2) * omega_m^2/g^2
    var_x = (
        0.5 * bath.n_bar * om**2 / g**2
        + bath.Gamma * om**2 / (8 * gm * g**2)
        + g / (8 * bath.eta * bath.Gamma)
    )
    exact = closed_form_moments(bath)
    return SteadyMoments(
        var_x=var_x,
        var_p=exact.var_p,
        cov_xp_sym=exact.cov_xp_sym,
        t_eff=_t_eff(bath),
        method="high_gain",
    )


def lyapunov_moments(bath: EffectiveBath) -> SteadyMoments:
    """Steady covariance from A*S + S*A^T + C = 0 (independent oracle).

    Works at any phase for which the drift is stable; on the stability
    boundary, where the Lyapunov system is singular, it refuses the bath.
    """
    require_stable(bath)
    A = drift_matrix(bath)
    (var_x, cov), (_, var_p) = _steady_covariance(A, diffusion_matrix(bath)).tolist()
    return SteadyMoments(
        var_x=var_x,
        var_p=var_p,
        cov_xp_sym=cov,
        t_eff=_t_eff(bath),
        method="lyapunov",
    )


def _gain_quartic(bath: EffectiveBath) -> np.ndarray:
    """Coefficients, highest power first, of the quartic in g whose roots
    are the stationary points of var_x at phi = -pi/2.

    It is the numerator of d var_x/dg divided by 2*eta*Gamma (Gamma > 0).
    Its three leading coefficients are nonnegative and its constant one
    is negative, so by Descartes' rule it has exactly one positive root.
    """
    gm, om2, n_bar = bath.gamma_m, bath.omega_m**2, bath.n_bar
    eg = bath.eta * bath.Gamma
    return np.array([
        gm**2 / (2 * eg),
        gm * (gm**2 + om2) / eg,
        (gm**4 + 5 * gm**2 * om2 + om2**2) / (2 * eg),
        -gm * om2 * (eg * bath.Gamma + 4 * eg * gm * n_bar - gm**2 - om2) / eg,
        -om2 * (bath.Gamma + 4 * gm * n_bar) * (gm**2 + om2) / 2,
    ])


def optimize_gain(
    bath_template: EffectiveBath,
    g_range: tuple[float, float],
) -> tuple[float, float]:
    """Gain minimizing the position variance over ``g_range`` at phi = -pi/2.

    Returns (g_opt, var_x_min). The minimum over the closed interval is
    the lowest variance among its two endpoints and the real roots of
    the stationary-point quartic (:func:`_gain_quartic`, solved with
    ``np.roots``) inside it; every candidate gain is re-derived through
    the coefficient block, so the returned variance is exact.

    Raises StabilityError when a candidate's moments break the Heisenberg
    bound var_x*var_p >= 1/16. That can happen on a bath whose coefficient
    block is not Lindblad-positive (``check_stability(...).positivity_gap``
    < 0): for ``omega_m`` 1.6913, ``gamma_m`` 9.8181, ``Gamma`` 26.247,
    ``eta`` 0.93269, ``n_bar`` 1.00755 over (0, 15.128), the interior root
    g = 6.106 gives var_x*var_p = 0.0443. Such a bath has no physical
    optimum to report, so the bound is enforced, not skipped.
    """
    _require_phase(bath_template)
    g_lo, g_hi = g_range
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo > g_hi or g_lo < 0:
        raise ValidationError("g_range", f"invalid gain interval ({g_lo!r}, {g_hi!r})")
    if g_hi > 0 and bath_template.Gamma == 0:
        raise ValidationError("g_range", "positive gains need Gamma > 0")

    gains = {g_lo, g_hi}
    if g_lo < g_hi:
        roots = np.roots(_gain_quartic(bath_template))
        gains.update(r.real for r in roots if r.imag == 0 and g_lo < r.real < g_hi)
    var_min, g_opt = min(
        (closed_form_moments(with_gain(bath_template, g)).var_x, g) for g in gains
    )
    return float(g_opt), float(var_min)
