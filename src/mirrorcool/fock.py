"""Truncated number-basis steady state of the full feedback master equation.

Independent quantum oracle: the generator L is assembled term by term from
the effective-bath coefficients (the two thermal-like dissipators, the two
anomalous M dissipator blocks, the oscillator commutator, and the
squeeze-commutator feedback term) as a nine-point stencil on the density
matrix, ``(L rho)[m, n] = sum_k C[k, m, n] * rho[m + dm_k, n + dn_k]``.
Every term keeps the parity of m - n and moves m + n by 0 or 2, so L
couples the anti-diagonal m + n = s of rho only to itself and to s +- 2,
and the even and the odd anti-diagonals form two separate chains. The
steady state is found by the matrix continued fraction (Risken, *The
Fokker-Planck Equation*, ch. 9): with <0|rho|0> pinned, the even chain is
eliminated block by block from the top anti-diagonal down and then
back-substituted; the odd chain has no source, so its entries are exactly
0, and it is eliminated only to refuse a singular sector. The solved
state is checked for residual, trace, Hermiticity and truncation tail,
and never repaired. The solve uses only the generator, never the closed
forms or the Lyapunov route.

The module is numpy only, so the ``fock`` verb loads no scipy.

``evolve_to_steady`` picks, grows and caps the truncation itself.
Room-temperature occupations (~1e11) are out of numerical reach by
construction; desk-scale occupations validate the same coefficient
algebra, which is parameter-generic.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import EffectiveBath, check_stability, require_stable
from .errors import NumericalError, TruncationError, ValidationError

__all__ = [
    "FockConfig",
    "FockSolution",
    "build_generator",
    "evolve_to_steady",
    "ladder",
    "required_dim",
]

TAIL_GUARD = 1e-10   # population allowed in the last retained number state
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
# allowed normwise backward error max|L v| / (||L||_inf * max|v|) of the
# solve; measured 0.6e-19 to 3.4e-18 on desk, thermal and non-positive
# baths at dim 30 to 250, and at most 2.5e-17 with a complex M
RESIDUAL_RTOL = 1e-12
MAX_DIM = 400  # refusal ceiling: n_bar above about 19.95 needs more levels

# source offsets (dm, dn) of the generator stencil, in the order of its
# first axis: (L rho)[m, n] = sum_k C[k, m, n] * rho[m + dm_k, n + dn_k]
SHIFTS = (
    (0, 0), (1, -1), (-1, 1),    # the same anti-diagonal m + n
    (1, 1), (0, 2), (2, 0),      # the anti-diagonal above, m + n + 2
    (-1, -1), (-2, 0), (0, -2),  # the anti-diagonal below, m + n - 2
)
_SAME, _ABOVE, _BELOW = slice(0, 3), slice(3, 6), slice(6, 9)


@dataclass(frozen=True)
class FockConfig:
    """Number-basis truncation: levels |0> .. |dim-1> are retained; None picks it."""

    dim: int | None = None


@dataclass(frozen=True)
class FockSolution:
    """Steady state of the truncated master equation plus diagnostics.

    Every diagnostic describes the raw solved state.
    """

    rho: np.ndarray
    mean_a: complex
    mean_a2: complex
    mean_n: float
    var_x: float
    var_p: float
    residual: float          # max |L vec(rho)| with the full generator
    residual_bound: float    # RESIDUAL_RTOL * ||L||_inf * max |rho_ij|
    trace_error: float       # |Tr rho - 1|, real and imaginary parts summed
    hermiticity_error: float  # max |rho - rho^dag|
    min_eigenvalue: float    # smallest eigenvalue of the Hermitian part
    tail_population: float   # <dim-1|rho|dim-1>
    dim: int                 # levels retained


def ladder(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def required_dim(n_bar: float) -> int:
    """Smallest truncation whose thermal tail population stays below TAIL_GUARD.

    Nondecreasing in ``n_bar``: that dimension peaks where every level holds
    under ``e*TAIL_GUARD`` (n_bar ~ 3.7e9), and from there on is ``sys.maxsize``.
    """
    ratio = math.exp(-1.0 / n_bar) if n_bar > 0 else 0.0
    if ratio == 0.0:  # exp underflows for n_bar below about 1.4e-3
        return 4
    if 1 - ratio <= math.e * TAIL_GUARD:
        return sys.maxsize
    # (1-r) r^(d-1) <= TAIL_GUARD
    d = 1 + math.log(TAIL_GUARD / (1 - ratio)) / math.log(ratio)
    return max(4, math.ceil(d))


def build_generator(bath: EffectiveBath, dim: int) -> np.ndarray:
    """Assemble the five term-groups of the feedback master equation.

    The result is the ``(9, dim, dim)`` complex stencil ``C`` of the
    Liouvillian, ``(L rho)[m, n] = sum_k C[k, m, n] * rho[m + dm_k, n + dn_k]``
    with ``(dm_k, dn_k) = SHIFTS[k]``; a coefficient whose source lies
    outside the retained levels is zero. Signs follow the printed
    generator: the M and M* blocks enter with a minus sign, and the
    squeeze commutator carries the coefficient (g*sin(phi) + gamma_m)/4.
    """
    if dim < 4:
        raise ValidationError("dim", "truncation dimension must be >= 4")
    gamma, N, M = bath.gamma, bath.N, bath.M
    s = bath.squeeze_coeff
    k = np.arange(dim, dtype=float)
    # ladder amplitudes onto level k from the levels below and above it,
    # <k|a^dag|k-1> = sqrt(k), <k|a^dag 2|k-2> = sqrt(k(k-1)), <k|a|k+1> =
    # sqrt(k+1) and <k|a^2|k+2> = sqrt((k+1)(k+2)), zero where the source
    # level is not retained
    down1, down2 = np.sqrt(k), np.sqrt(k * (k - 1))
    up1, up2 = np.sqrt(k + 1), np.sqrt((k + 1) * (k + 2))
    up1[-1] = 0
    up2[-2:] = 0
    aad = k + 1  # diagonal of the truncated a a^dag
    aad[-1] = 0
    m, n = k[:, None], k[None, :]

    C = np.empty((9, dim, dim), complex)
    C[0] = (-(gamma / 2) * ((N + 1) * (m + n) + N * (aad[:, None] + aad[None, :]))
            - 1j * bath.omega_m * (m - n))
    C[1] = -gamma * np.conj(M) * np.outer(up1, down1)     # a rho a
    C[2] = -gamma * M * np.outer(down1, up1)              # a^dag rho a^dag
    C[3] = gamma * (N + 1) * np.outer(up1, up1)           # a rho a^dag
    C[4] = (gamma / 2 * M - s) * up2[None, :]             # rho a^dag 2
    C[5] = (gamma / 2 * np.conj(M) - s) * up2[:, None]    # a^2 rho
    C[6] = gamma * N * np.outer(down1, down1)             # a^dag rho a
    C[7] = (gamma / 2 * M + s) * down2[:, None]           # a^dag 2 rho
    C[8] = (gamma / 2 * np.conj(M) + s) * down2[None, :]  # rho a^2
    return C


def evolve_to_steady(bath: EffectiveBath, cfg: FockConfig = FockConfig()) -> FockSolution:
    """Steady state of the truncated master equation of a stable bath.

    Before any solve it refuses an unstable bath, an ``n_bar`` whose
    ``required_dim`` exceeds ``MAX_DIM`` and an explicit ``dim`` above it.
    An explicit ``dim`` is solved as given. Otherwise the solve starts at
    ``required_dim``, which counts only the thermal tail; feedback heating
    and squeezing widen the solved state's, so the dimension grows by a
    quarter per try until the tail guard holds, up to ``MAX_DIM``.
    """
    require_stable(bath)
    dim = required_dim(bath.n_bar)
    if dim > MAX_DIM:
        raise ValidationError("n_bar", f"thermal occupation {bath.n_bar:g} needs more than "
                              f"the Fock ceiling of {MAX_DIM} levels; this oracle is for "
                              "desk-scale parameters")
    if cfg.dim is not None:
        if cfg.dim > MAX_DIM:
            raise ValidationError(
                "dim", f"required dimension {cfg.dim} exceeds ceiling {MAX_DIM}"
            )
        return _solve(bath, build_generator(bath, cfg.dim))
    while True:
        try:
            return _solve(bath, build_generator(bath, dim))
        except TruncationError:
            if dim == MAX_DIM:
                raise ValidationError(
                    "dim", f"tail guard not met at the ceiling {MAX_DIM}"
                ) from None
            dim = min(dim + max(4, dim // 4), MAX_DIM)


def _solve(bath: EffectiveBath, C: np.ndarray) -> FockSolution:
    """Solve for the steady state of the generator stencil ``C`` of ``bath``.

    ``_sweep`` solves ``L v = 0`` without the <0|rho|0> row and normalizes
    the trace. The raw solution is then checked, never repaired: it must
    be finite (an exactly singular sector counts as non-finite), its
    residual ``max|L v|`` with the full stencil, the dropped row included,
    must stay within ``RESIDUAL_RTOL * ||L||_inf * max|v|`` (the dropped
    row is implied by the others only if ``L`` preserves the trace), its
    trace and Hermiticity errors within ``TRACE_TOL`` and ``HERM_TOL``
    (NumericalError otherwise), and the magnitude of its last-state
    population within the 1e-10 tail guard (TruncationError: the caller
    must raise ``dim``; a negative tail is truncation error too).
    """
    dim = C.shape[1]
    # a failed solve comes back singular or non-finite and is refused below
    with np.errstate(all="ignore"):
        try:
            rho = _sweep(C)
        except np.linalg.LinAlgError:
            rho = np.full((dim, dim), np.nan)
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(rho))):
        raise NumericalError(
            "steady-state solve is singular or non-finite: generator bug or "
            "no unique steady state"
        )

    residual = float(np.max(np.abs(_apply(C, rho))))
    l_norm = float(np.abs(C).sum(axis=0).max())
    residual_bound = RESIDUAL_RTOL * l_norm * float(np.max(np.abs(rho)))
    if not residual <= residual_bound:
        raise NumericalError(
            f"steady-state residual {residual:g} exceeds {residual_bound:g}: "
            "generator not trace-preserving or solve inaccurate"
        )
    trace = complex(np.trace(rho))
    trace_err = abs(trace.real - 1.0) + abs(trace.imag)
    if trace_err > TRACE_TOL:
        raise NumericalError(
            f"trace error {trace_err:g} exceeds {TRACE_TOL:g}: generator or solve bug"
        )
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_err > HERM_TOL:
        raise NumericalError(
            f"hermiticity error {herm_err:g} exceeds {HERM_TOL:g}: generator or solve bug"
        )
    tail = float(rho[dim - 1, dim - 1].real)
    if abs(tail) > TAIL_GUARD:
        raise TruncationError(
            f"tail population {tail:g} exceeds {TAIL_GUARD:g} at dim={dim}; raise dim"
        )

    # (<a>, <a^2>, <a^dag a>): Tr(O X) = vec(O^T) . vec(X) for row-major vec
    a = ladder(dim)
    v = rho.ravel()
    mean_a, mean_a2, mean_n_c = np.stack([op.T.ravel() for op in (a, a @ a, a.T @ a)]) @ v
    mean_n = float(mean_n_c.real)
    # centered variances; <a> = 0 in the steady state, and keeping the
    # subtraction keeps the variances honest whatever the solve returns
    var_x = (2 * mean_n + 1 + 2 * mean_a2.real) / 4 - mean_a.real**2
    var_p = (2 * mean_n + 1 - 2 * mean_a2.real) / 4 - mean_a.imag**2

    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < -1e-8:
        why = (" despite Lindblad-positive coefficients; inspect truncation/solve"
               if check_stability(bath).lindblad_positive else
               ": expected physics, the coefficient block is not completely positive "
               "here (moment-level results remain exact)")
        # stacklevel 3: the caller of evolve_to_steady
        warnings.warn(f"negative eigenvalue {min_eig:g}{why}", stacklevel=3)

    return FockSolution(
        rho=rho,
        mean_a=complex(mean_a),
        mean_a2=complex(mean_a2),
        mean_n=mean_n,
        var_x=float(var_x),
        var_p=float(var_p),
        residual=residual,
        residual_bound=residual_bound,
        trace_error=trace_err,
        hermiticity_error=herm_err,
        min_eigenvalue=min_eig,
        tail_population=tail,
        dim=dim,
    )


def _sweep(C: np.ndarray) -> np.ndarray:
    """Steady state of the stencil ``C``, normalized to unit trace.

    Writing rho_s for the anti-diagonal m + n = s, row s of ``L v = 0``
    reads ``D_s rho_s + U_s rho_{s+2} + Lo_s rho_{s-2} = 0``. With
    <0|rho|0> = 1 pinned and its row dropped, the even chain is eliminated
    from the top, s = 2*dim - 2, down: ``X_s = S_s^-1 Lo_s`` and
    ``S_{s-2} = D_{s-2} - U_{s-2} X_s``, starting from ``S = D``. Then
    ``rho_s = -X_s rho_{s-2}`` upward from rho_0. The odd chain has a zero
    right-hand side: its elimination ends in ``S_1 rho_1 = 0``, which is
    solved only so that a singular sector raises ``LinAlgError``; every
    odd entry is exactly 0.
    """
    dim = C.shape[1]
    rho = np.zeros((dim, dim), complex)
    top = 2 * dim - 2
    S1, _ = _eliminate(C, top - 1, 1, keep=False)
    rho[[0, 1], [1, 0]] = np.linalg.solve(S1, np.zeros(2))
    _, xs = _eliminate(C, top, 0, keep=True)
    v = np.ones(1, complex)
    for s, X in zip(range(2, top + 1, 2), reversed(xs)):
        v = -(X @ v)
        m = _diagonal_rows(s, dim)
        rho[m, s - m] = v
    rho[0, 0] = 1.0
    return rho / np.trace(rho)


def _diagonal_rows(s: int, dim: int) -> np.ndarray:
    """Row indices m of the anti-diagonal m + n = s of a ``dim`` x ``dim`` matrix."""
    return np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)


def _eliminate(C: np.ndarray, top: int, bottom: int, keep: bool):
    """Eliminate anti-diagonals ``top``, ``top - 2``, .. ``bottom + 2`` of ``C``.

    Returns ``S_bottom`` and, if ``keep``, the list of ``X_s`` from the
    top down.
    """
    dim = C.shape[1]
    xs = []
    m = _diagonal_rows(top, dim)
    coef = C[:, m, top - m]
    S = _band(coef[_SAME], SHIFTS[_SAME], 0, len(m))
    for s in range(top, bottom, -2):
        below = _diagonal_rows(s - 2, dim)
        below_coef = C[:, below, s - 2 - below]
        X = np.linalg.solve(S, _band(coef[_BELOW], SHIFTS[_BELOW], m[0] - below[0], len(below)))
        if keep:
            xs.append(X)
        # U_{s-2} X_s as one row-scaled slice of X_s per band: row i of the
        # band reads row i + shift of X_s, and holds 0 where that is outside
        S = _band(below_coef[_SAME], SHIFTS[_SAME], 0, len(below))
        for c, (dm, _) in zip(below_coef[_ABOVE], SHIFTS[_ABOVE]):
            shift = below[0] - m[0] + dm
            lo, hi = max(0, -shift), min(len(below), len(m) - shift)
            S[lo:hi] -= c[lo:hi, None] * X[lo + shift:hi + shift]
        m, coef = below, below_coef
    return S, xs


def _band(coef: np.ndarray, shifts, offset: int, n_cols: int) -> np.ndarray:
    """Dense block with ``coef[k, i]`` in row i, column ``i + offset + dm_k``.

    Coefficients whose column falls outside ``n_cols`` are dropped: the
    stencil holds 0 there.
    """
    rows = np.arange(coef.shape[1])
    block = np.zeros((len(rows), n_cols + 4), complex)
    for c, (dm, _) in zip(coef, shifts):
        block[rows, rows + offset + dm + 2] = c
    return block[:, 2:-2]


def _apply(C: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``L rho`` with the stencil ``C``."""
    dim = rho.shape[0]
    padded = np.zeros((dim + 4, dim + 4), complex)
    padded[2:-2, 2:-2] = rho
    out = np.zeros_like(rho)
    for c, (dm, dn) in zip(C, SHIFTS):
        out += c * padded[2 + dm:2 + dm + dim, 2 + dn:2 + dn + dim]
    return out
