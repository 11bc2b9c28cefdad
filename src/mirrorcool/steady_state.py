"""Steady-state quadrature moments: closed forms, Lyapunov oracle, gain tuning.

The closed-form variances are stated for the feedback phase phi = -pi/2
(position measured, momentum driven). The Lyapunov route solves the 2x2
steady-state covariance equation A*S + S*A^T + C = 0 for the drift and
diffusion read off the quadrature Langevin equations; it extends to any
phase and serves as the independent oracle for the closed forms.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import bath as bath_module
from .bath import (
    RATES, EffectiveBath, _coefficients, _constraints_hold, _must_be_finite, _noise_pp, _noise_xp,
    _noise_xx, _positivity_gap, _stability_margins, _where, require_stable, with_gain,
)
from .errors import (
    NumericalError, StabilityBoundaryError, StabilityError, UnstableBathError,
    UnsupportedPhaseError, ValidationError,
)
from .params import HBAR, K_B, thermal_occupation

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


def _physical(var_x, var_p):
    """Whether both variances are positive and var_x*var_p >= 1/16 holds to
    1e-12; floats or arrays."""
    return (var_x > 0) & (var_p > 0) & (var_x * var_p >= 1.0 / 16.0 - 1e-12)


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
        if not _physical(self.var_x, self.var_p):
            raise StabilityError(
                "Heisenberg bound violated: var_x*var_p = "
                f"{self.var_x * self.var_p:g} < 1/16"
            )
        if not all(map(math.isfinite, (self.var_x, self.var_p, self.cov_xp_sym))):
            # a product of the closed forms past the float range
            raise NumericalError(
                f"{self.method} moments leave the float range: var_x = {self.var_x:g}, "
                f"var_p = {self.var_p:g}, cov_xp_sym = {self.cov_xp_sym:g}"
            )


def _require_phase(bath: EffectiveBath) -> None:
    if abs(bath.phi + math.pi / 2) > _PHASE_TOL:
        raise UnsupportedPhaseError(
            f"closed forms hold only at phi = -pi/2 (got phi = {bath.phi:g}); "
            "use lyapunov_moments for other phases"
        )


def _t_eff(n_bar, omega_m, g):
    """Effective temperature T*(omega_m/g)^2 (K), T at g = 0; floats or arrays."""
    # bath temperature reconstructed from n_bar = k_B*T/(hbar*omega_m)
    T = n_bar * HBAR * omega_m / K_B
    return _where(g > 0, _cooled, T, T, omega_m, g)


def _cooled(T, omega_m, g):
    # T*(omega_m/g)^2 leaves the float range as g -> 0, where g*g underflows to 0
    g2 = g * g
    return _where(g2 > 0, operator.truediv, math.inf, T * (omega_m * omega_m), g2)


def _drift(omega_m, gamma_m, g, sin_phi):
    """Entries ((a, b), (c, d)) of the drift A; floats or arrays."""
    return (g * sin_phi, omega_m), (-omega_m, -gamma_m)


def drift_matrix(bath: EffectiveBath) -> np.ndarray:
    """Drift of the quadrature means, d<(X,P)>/dt = A <(X,P)>.

    At phi = -pi/2 this is [[-g, omega_m], [-omega_m, -gamma_m]]; the
    general-phase form [[g*sin(phi), omega_m], [-omega_m, -gamma_m]]
    follows from the moment flow of the full generator and reduces to it.
    """
    return np.array(_drift(bath.omega_m, bath.gamma_m, bath.g, math.sin(bath.phi)))


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


def _long_double_terms(a, b, c, d, p, q, r):
    """:func:`_lyapunov_terms` of A = [[a, b], [c, d]] and C = [[p, q], [q, r]]
    in long double; floats or arrays.

    The closed form is regular for every stable drift (tr A < 0 < det A).
    Long double's range holds every product of three double inputs, so no
    product over- or underflows at any scale of the rates; each quotient
    is then rounded once to double.
    """
    return _lyapunov_terms(*map(np.longdouble, (a, b, c, d, p, q, r)))


def _steady_covariance(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Symmetric S solving A*S + S*A^T + C = 0, C symmetric, in closed form
    (:func:`_long_double_terms`).

    A singular system (tr(A)*det(A) = 0) is refused as the stability
    boundary, and a solution past the double range with NumericalError.
    """
    (a, b), (c, d) = A.tolist()
    (p, q), (_, r) = C.tolist()
    (x, y, z), denom = _long_double_terms(a, b, c, d, p, q, r)
    if denom == 0:
        raise StabilityBoundaryError("Lyapunov system is singular: trace(A)*det(A) = 0")
    x, y, z = (float(v / denom) for v in (x, y, z))
    if not all(map(math.isfinite, (x, y, z))):
        raise NumericalError(
            f"steady covariance leaves the float range: var_x = {x:g}, var_p = {y:g}"
        )
    return np.array([[x, z], [z, y]])


# The closed forms and the gain quartic's Horner sum decide their precision
# from their operands, before they evaluate: double when every nonzero operand
# lies in the window (low, high), where no product of operands can leave the
# normal double range (the proofs are in closed_form_moments and _falling),
# long double otherwise. The Lyapunov route keeps its own long double, so the oracle
# shares none of this.
_CLOSED_FORM_WINDOW = (2.0 ** -330, 2.0 ** 330)
_HORNER_WINDOW = (2.0 ** -200, 2.0 ** 200)


def _in_precision(operands, window):
    """``operands`` as they are if each nonzero one lies in ``window``, else in long double."""
    low, high = window
    for v in operands:
        if not (low <= abs(v) <= high or v == 0):
            return tuple(map(np.longdouble, operands))
    return operands


def _closed_forms(g, gm, om, c_x, c_p):
    """(var_x, var_p, cov_xp_sym) at phi = -pi/2 from the rates and the noise
    intensities c_x = noise_xx and c_p = noise_pp, in the operands' precision.

    Every product has at most three operand factors, and every sum in the
    variances and the denominator adds nonnegative terms.
    """
    om2 = om * om
    denom = 2 * (gm + g) * (om2 + gm * g)
    # identical to the textbook form with the thermal bracket
    # (n_bar/2 + Gamma/(8*gamma_m)) multiplied through by gamma_m, which
    # keeps the gamma_m -> 0 limit finite
    return ((c_x * (gm * gm + om2 + gm * g) + c_p * om2) / denom,
            (c_p * (g * g + gm * g + om2) + om2 * c_x) / denom,
            om * (c_p * g - c_x * gm) / denom)


def closed_form_moments(bath: EffectiveBath) -> SteadyMoments:
    """Exact steady-state variances at phi = -pi/2.

    ``var_x`` and ``var_p`` are the printed closed-form expressions; the
    symmetrized cross moment, which has no printed form, is the closed-form
    solution of the same covariance equation, sharing no Lyapunov code.

    The precision is decided once, from the five operands ``g``,
    ``gamma_m``, ``omega_m``, ``noise_xx`` and ``noise_pp`` (all
    nonnegative; ``gamma_m + g > 0`` on a stable bath). If each nonzero
    operand lies in [2**-330, 2**330], the closed forms run in double. Each
    nonzero product of up to three operands then lies in [2**-990, 2**990],
    the variances' numerators, sums of such products, below 2**993, and the
    denominator in [2**-989, 2**993]: no intermediate of the variances
    leaves the normal double range, so each carries rounding errors only.
    At most nine roundings lie on any path to a variance, so it is within
    9 ulp of the formula's exact value; only the final quotient can leave
    the range. Otherwise they run in long double, whose range holds every
    product of three doubles, subnormal ones included (exponents -16382 to
    16383, 64-bit significands), and each moment is rounded once to
    double. A moment past the double range is refused as NumericalError
    (exit 4), a zero or Heisenberg-breaking one as StabilityError (exit 3).
    """
    _require_phase(bath)
    require_stable(bath)
    operands = (bath.g, bath.gamma_m, bath.omega_m, bath.noise_xx, bath.noise_pp)
    moments = _closed_forms(*_in_precision(operands, _CLOSED_FORM_WINDOW))
    return SteadyMoments(*map(float, moments), t_eff=_t_eff(bath.n_bar, bath.omega_m, bath.g),
                         method="closed_form")


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
    g, gm, om = bath.g, bath.gamma_m, bath.omega_m
    g2, om2 = g * g, om * om
    if not g2 > 0:
        raise ValidationError("g", "high-gain approximation requires g > 0 (g*g > 0)")
    if not gm * g2 > 0:
        raise ValidationError("gamma_m", "high-gain approximation divides by gamma_m*g^2")

    # thermal term k_B*T_eff/(2 hbar omega_m) = (n_bar/2) * omega_m^2/g^2
    var_x = (
        0.5 * bath.n_bar * om2 / g2
        + bath.Gamma * om2 / (8 * gm * g2)
        + g / (8 * bath.eta * bath.Gamma)
    )
    return replace(closed_form_moments(bath), var_x=var_x, method="high_gain")


def lyapunov_moments(bath: EffectiveBath) -> SteadyMoments:
    """Steady covariance from A*S + S*A^T + C = 0 (independent oracle).

    Works at any phase for which the drift is stable; on the stability
    boundary, where the Lyapunov system is singular, it refuses the bath.
    """
    require_stable(bath)
    (var_x, cov), (_, var_p) = _steady_covariance(drift_matrix(bath),
                                                  diffusion_matrix(bath)).tolist()
    return SteadyMoments(var_x, var_p, cov, t_eff=_t_eff(bath.n_bar, bath.omega_m, bath.g),
                         method="lyapunov")


def _gain_quartic(bath: EffectiveBath) -> tuple:
    """Coefficients, highest power first, of the quartic in g that has the
    sign of d var_x/dg at phi = -pi/2.

    It is the numerator of d var_x/dg divided by 2*eta*Gamma (Gamma > 0).
    Its three leading coefficients are nonnegative and its constant one
    is negative, so by Descartes' rule it has exactly one positive root.
    """
    gm, n_bar = bath.gamma_m, bath.n_bar
    gm2, om2 = gm * gm, bath.omega_m * bath.omega_m
    eg = bath.eta * bath.Gamma
    return (
        gm2 / (2 * eg),
        gm * (gm2 + om2) / eg,
        (gm2 * gm2 + 5 * gm2 * om2 + om2 * om2) / (2 * eg),
        -gm * om2 * (eg * bath.Gamma + 4 * eg * gm * n_bar - gm2 - om2) / eg,
        -om2 * (bath.Gamma + 4 * gm * n_bar) * (gm2 + om2) / 2,
    )


def _falling(quartic, g) -> bool:
    """Whether the quartic, highest power first, is negative at g.

    The coefficients come through :func:`_in_precision` once per bisection
    and g here, so the Horner sum runs in double only if each nonzero one
    of the six lies in [2**-200, 2**200]. Its partial sums then stay below
    2**1004 and each product of nonzero operands, up to the five factors
    of the leading term, is at least 2**-1000, so nothing overflows and
    only a partial sum that cancelled below 2**-1022 can underflow, by at
    most 2**-1075. Its sign is then wrong only within rounding of the root,
    where the bisection stops. In long double the range holds every term.
    """
    a, b, c, d, e = quartic
    (g,) = _in_precision((g,), _HORNER_WINDOW)
    return (((a * g + b) * g + c) * g + d) * g + e < 0


def optimize_gain(
    bath_template: EffectiveBath,
    g_range: tuple[float, float],
) -> tuple[float, float]:
    """Gain minimizing the position variance over ``g_range`` at phi = -pi/2.

    Returns (g_opt, var_x_min). var_x falls, then rises, on g > 0, so its
    minimum over the closed interval is the one positive root of
    :func:`_gain_quartic` clamped to it, found to the float spacing by
    bisection on the quartic's sign; var_x_min is the closed form there.

    Raises StabilityError when the optimum's moments break the Heisenberg
    bound var_x*var_p >= 1/16. That can happen on a bath whose coefficient
    block is not Lindblad-positive (``check_stability(...).positivity_gap``
    < 0): for ``omega_m`` 1.6913, ``gamma_m`` 9.8181, ``Gamma`` 26.247,
    ``eta`` 0.93269, ``n_bar`` 1.00755 over (0, 15.128), the interior root
    g = 6.106 gives var_x*var_p = 0.0443. Such a bath has no physical
    optimum to report, so the bound is enforced, not skipped.

    Raises NumericalError, naming the bath, when a coefficient of the
    quartic is not finite.
    """
    _require_phase(bath_template)
    g_lo, g_hi = g_range
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo > g_hi or g_lo < 0:
        raise ValidationError("g_range", f"invalid gain interval ({g_lo!r}, {g_hi!r})")
    if g_hi > 0 and bath_template.Gamma == 0:
        raise ValidationError("g_range", "positive gains need Gamma > 0")

    g_opt = g_lo
    if g_lo < g_hi:
        quartic = _gain_quartic(bath_template)
        if not all(map(math.isfinite, quartic)):
            rates = ", ".join(f"{key}={getattr(bath_template, key)!r}" for key in RATES[:5])
            raise NumericalError(f"the gain quartic leaves the float range for the bath {rates}")
        quartic = _in_precision(quartic, _HORNER_WINDOW)
        lo, hi = g_lo, g_hi
        while lo < (mid := lo + (hi - lo) / 2) < hi:
            lo, hi = (mid, hi) if _falling(quartic, mid) else (lo, mid)
        g_opt = hi if _falling(quartic, lo) else lo
    var_min = closed_form_moments(with_gain(bath_template, g_opt)).var_x
    return float(g_opt), float(var_min)


def sweep_grid(bath: EffectiveBath, axes: list[tuple[str, list[float]]]) -> dict:
    """The rows of a sweep of ``bath`` over the Cartesian product of ``axes``.

    ``axes`` pairs each swept field (``g``, ``phi``, ``Gamma``, ``eta``, or
    the temperature ``T``, which sets ``n_bar``) with its values. The
    result maps each axis and each of ``gamma``, ``var_x``, ``var_p``,
    ``cov_xp_sym``, ``t_eff``, ``stable``, ``lindblad_positive`` and
    ``positivity_gap`` to an array over the points, in row order (the
    last axis fastest). A point that is not stable has NaN in all but
    its axes and ``stable``/``lindblad_positive``, both false; a stable
    point whose moments break the Heisenberg bound has NaN moments.

    Each axis lies along its own dimension, so the coefficient algebra
    broadcasts over the grid in one pass, and every cell equals what
    ``bath_from_rates``, ``check_stability`` and ``lyapunov_moments`` give
    for its point alone. A point that route refuses refuses the sweep:
    the first such point in row order is run through it, and so raises
    the route's own error.
    """
    shape = tuple(len(values) for _, values in axes)

    def along(k, values):  # the values of axis k, laid along dimension k
        return np.reshape(values, [-1 if i == k else 1 for i in range(len(shape))]).astype(float)

    def flat(values):
        return np.broadcast_to(values, shape).ravel()

    def finite(*values):
        return functools.reduce(np.logical_and, map(np.isfinite, values))

    # the rate each axis sets, with its values: T sets n_bar, and is refused
    # here, as at the first point, when hbar*omega_m underflows
    fields = [("n_bar", [thermal_occupation(T, bath.omega_m) for T in values]) if name == "T"
              else (name, values) for name, values in axes]
    rates = {key: getattr(bath, key) for key in RATES}
    point = dict(rates)  # each rate a float, or an array along its axis
    sin_phi, cos_phi = math.sin(bath.phi), math.cos(bath.phi)
    for k, (name, values) in enumerate(fields):
        if name == "phi":
            sin_phi = along(k, list(map(math.sin, values)))
            cos_phi = along(k, list(map(math.cos, values)))
        point[name] = along(k, values)
    omega_m, gamma_m, Gamma, eta, n_bar, g, _ = point.values()

    with np.errstate(all="ignore"):  # points outside a formula's domain are masked
        valid = functools.reduce(np.logical_and, _constraints_hold(
            omega_m, gamma_m, Gamma, eta, n_bar, g), finite(*point.values()))
        # the damping margin is the effective damping gamma = gamma_m - g*sin(phi);
        # stable implies gamma > 0
        gamma, _, stable, _ = _stability_margins(omega_m, gamma_m, g, sin_phi)
        N, m_re, m_im = _coefficients(gamma_m, Gamma, eta, n_bar, g, sin_phi, cos_phi, gamma)
        # M = -(m_re - 1j*m_im)/gamma: its parts are finite where these quotients are
        block_finite = finite(*_must_be_finite(omega_m, gamma_m, g, gamma, N, m_re / gamma,
                                               m_im / gamma))
        gap = _positivity_gap(gamma_m, Gamma, eta, n_bar, g, cos_phi, gamma)
        (a, b), (c, d) = _drift(omega_m, gamma_m, g, sin_phi)
        p, q, r = _noise_xx(g, eta, Gamma), _noise_xp(g, cos_phi), _noise_pp(gamma_m, n_bar, Gamma)
        (x, y, z), denom = _long_double_terms(a, b, c, d, p, q, r)
        x, y, z = ((v / denom).astype(float) for v in (x, y, z))
        solved = np.asarray(stable) & (denom != 0)  # a singular system is the boundary
        moments = solved & _physical(x, y)
        t_eff = _t_eff(n_bar, omega_m, g)

    # bath_from_rates refuses invalid rates, then a non-finite block where
    # gamma > 0; lyapunov_moments refuses a stable point's moments past the
    # double range
    refused = np.broadcast_to(~valid | (gamma > 0) & ~block_finite | solved & ~finite(x, y, z),
                              shape)
    if refused.any():
        index = np.unravel_index(np.flatnonzero(refused)[0], shape)
        _one_point({**rates, **{name: values[i] for (name, values), i in zip(fields, index)}})
        raise AssertionError(f"sweep point {index} refused by the grid, not by its bath")

    stable, moments = flat(stable), flat(moments)
    return {
        **{name: flat(along(k, values)) for k, (name, values) in enumerate(axes)},
        "gamma": np.where(stable, flat(gamma), math.nan),
        "var_x": np.where(moments, flat(x), math.nan),
        "var_p": np.where(moments, flat(y), math.nan),
        "cov_xp_sym": np.where(moments, flat(z), math.nan),
        "t_eff": np.where(moments, flat(t_eff), math.nan),
        "stable": stable,
        "lindblad_positive": stable & flat(gap > 0),
        "positivity_gap": np.where(stable, flat(gap), math.nan),
    }


def _one_point(rates: dict) -> None:
    """One sweep point through bath_from_rates, check_stability and
    lyapunov_moments: raises where that route refuses the point."""
    try:
        bath = bath_module.bath_from_rates(**rates)
    except UnstableBathError:
        return
    if bath_module.check_stability(bath).stable:
        try:
            lyapunov_moments(bath)
        except StabilityError:  # the Heisenberg refusal: NaN moments, not a refused sweep
            pass
