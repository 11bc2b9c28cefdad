"""Noise power spectrum of the mirror position quadrature.

The symmetrized spectrum S_g(w) follows from the Fourier-domain Langevin
equations of the cooled mirror. Its normalization is pinned by the sum
rule (1/2pi) * integral S_g(w) dw = <X^2>, which this module also checks
by independent adaptive quadrature of the same evaluator over the whole
frequency line, mapped onto [0, 1): a vectorised numpy Gauss-Kronrod 10/21
rule, so the analytic verbs load no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import EffectiveBath, require_stable
from .errors import NumericalError, ValidationError
from .steady_state import closed_form_moments, _require_phase

__all__ = ["default_grid", "eval_spectrum", "sum_rule_check"]

# Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK qk21): the Kronrod nodes
# from the outermost in, their weights, and the 10-point Gauss weights of
# the odd-indexed nodes; the centre node is 0
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980244196, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_NODES = np.array([*(-x for x in _XGK), 0.0, *_XGK[::-1]])
_RULES = np.zeros((21, 2))  # columns: Kronrod weights, Gauss weights
_RULES[:, 0] = [*_WGK, *_WGK[-2::-1]]
_RULES[1:10:2, 1] = _WG
_RULES[11:20:2, 1] = _WG[::-1]

_EPSREL = 1e-11   # relative accuracy the sum-rule integral is refined to
_LIMIT = 400      # most subintervals the refinement may use
_SPLIT = 4        # pieces a refined subinterval is cut into


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

    with np.errstate(all="ignore"):
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


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimates of the integrals of ``f`` over [lo, hi], and their errors.

    The error estimate is QUADPACK's: the Gauss-Kronrod difference,
    scaled by the integrand's spread about its mean and floored at
    50 ulp of the integral of |f|.
    """
    half = 0.5 * (hi - lo)
    fx = f((0.5 * (hi + lo))[:, None] + half[:, None] * _NODES)
    kronrod, gauss = (fx @ _RULES).T
    err = np.abs(kronrod - gauss) * half
    spread = np.abs(fx - 0.5 * kronrod[:, None]) @ _RULES[:, 0] * half
    # a constant integrand (no spread) has only the rounding floor
    ratio = np.divide(200.0 * err, spread, out=np.zeros_like(err), where=spread > 0)
    err = spread * np.minimum(1.0, ratio**1.5)
    floor = 50 * np.finfo(float).eps * (np.abs(fx) @ _RULES[:, 0] * half)
    return kronrod * half, np.maximum(err, floor)


def _integrate(f, edges: np.ndarray) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod 10/21 integral of ``f`` over [edges[0], edges[-1]].

    Starts from the pieces between consecutive ``edges``. Each round
    splits the pieces with the largest error estimates, each in
    ``_SPLIT``, until what is left unsplit is within half the tolerance;
    it stops when the summed estimate is within ``_EPSREL`` of the
    integral. Returns (integral, error estimate); raises
    :class:`NumericalError` on a non-finite value or when ``_LIMIT``
    pieces do not reach that accuracy.
    """
    lo, hi = edges[:-1], edges[1:]
    pieces = np.column_stack([lo, hi, *_gk21(f, lo, hi)])  # lo, hi, value, error
    while True:
        total, err_total = pieces[:, 2:].sum(axis=0).tolist()
        if not (math.isfinite(total) and math.isfinite(err_total)):
            raise NumericalError("spectrum quadrature did not converge")
        tol = _EPSREL * abs(total)
        if err_total <= tol:
            return total, err_total
        order = np.argsort(pieces[:, 3])[::-1]
        unsplit = err_total - np.cumsum(pieces[order, 3])
        n_split = min(np.count_nonzero(unsplit > 0.5 * tol) + 1,
                      (_LIMIT - len(pieces)) // (_SPLIT - 1))
        if n_split == 0:
            raise NumericalError(
                f"spectrum quadrature did not converge within {_LIMIT} "
                f"subintervals (error estimate {err_total:g})"
            )
        split = pieces[order[:n_split]]
        cuts = split[:, :1] + (split[:, 1:2] - split[:, :1]) * np.linspace(0.0, 1.0, _SPLIT + 1)
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        pieces = np.concatenate(
            [pieces[order[n_split:]], np.column_stack([lo, hi, *_gk21(f, lo, hi)])]
        )


def _mapped_sum_rule(bath: EffectiveBath):
    """Scale c, t-breakpoints and integrand of the sum rule on t in [0, 1].

    w = c*t/(1-t) maps [0, inf) onto [0, 1) (QUADPACK's QAGI does the
    same), with c the largest rate and each resonance p moved to p/(c+p).
    As S ~ c_xx/w^2, the mapped integrand S(w(t))*c/(1-t)^2 stays finite
    at t = 1, which the Gauss-Kronrod rule never evaluates.
    """
    a = bath.gamma_m + bath.g
    b = bath.omega_m**2 + bath.gamma_m * bath.g
    scale = max(a, math.sqrt(b), bath.omega_m)
    resonance = math.sqrt(max(b - a * a / 2, 0.0))
    points = sorted({p / (scale + p) for p in (resonance, bath.omega_m)} - {0.0})
    spectrum = _x_spectrum(bath)

    def mapped(t):
        s = 1.0 - t
        return spectrum(scale * t / s) * (scale / s**2)

    return scale, np.array([0.0, *points, 1.0]), mapped


def sum_rule_check(bath: EffectiveBath) -> tuple[float, float, float]:
    """Compare (1/2pi) * integral of S_g against the closed-form <X^2>.

    Adaptive Gauss-Kronrod 10/21 quadrature of the even integrand over
    [0, inf), mapped onto [0, 1) (see :func:`_mapped_sum_rule`) and split
    at the resonances, to 1e-11 relative within 400 subintervals. Returns
    (integral, var_x, relative error); raises :class:`NumericalError`
    when the quadrature does not converge.
    """
    _require_phase(bath)
    require_stable(bath)

    _, edges, mapped = _mapped_sum_rule(bath)
    with np.errstate(all="ignore"):
        half_line, _ = _integrate(mapped, edges)

    integral = half_line / math.pi  # even integrand: (1/2pi) * 2 * [0, inf)
    var_x = closed_form_moments(bath).var_x
    return integral, var_x, abs(integral - var_x) / var_x
