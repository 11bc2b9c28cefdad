"""Truncated number-basis steady state of the full feedback master equation.

Independent quantum oracle: the generator L is assembled term by term from
the effective-bath coefficients (the two thermal-like dissipators, the two
anomalous M dissipator blocks, the oscillator commutator, and the
squeeze-commutator feedback term) as a sparse superoperator over
row-major-vectorized density matrices. The steady state is its null
vector, found by one sparse LU solve with one equation swapped for the
trace constraint; the solved state is checked for residual, trace,
Hermiticity and truncation tail, and never repaired. The solve uses only
the generator, never the closed forms or the Lyapunov route.

``scipy.sparse`` is imported by the functions that build and solve the
generator, so importing this module loads no scipy.

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
from typing import TYPE_CHECKING

import numpy as np

from .bath import EffectiveBath, check_stability, require_stable
from .errors import NumericalError, TruncationError, ValidationError

if TYPE_CHECKING:
    from scipy import sparse

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
# solve; measured 0.6e-18 to 3e-18 on desk baths at dim 30 to 250
RESIDUAL_RTOL = 1e-12
MAX_DIM = 400  # refusal ceiling: n_bar above about 19.95 needs more levels


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


def build_generator(bath: EffectiveBath, dim: int) -> sparse.csr_matrix:
    """Assemble the five term-groups of the feedback master equation.

    The result is the sparse Liouvillian over row-major vec(rho). Signs
    follow the printed generator: the M and M* blocks enter with a minus
    sign, and the squeeze commutator carries the coefficient
    (g*sin(phi) + gamma_m)/4.
    """
    if dim < 4:
        raise ValidationError("dim", "truncation dimension must be >= 4")
    from scipy import sparse

    a = sparse.csr_matrix(ladder(dim))
    ad = a.conj().T.tocsr()
    eye = sparse.identity(dim, format="csr")

    def pre(op):
        return sparse.kron(op, eye, format="csr")

    def post(op):
        return sparse.kron(eye, op.T, format="csr")

    def sandwich(left, right):
        return sparse.kron(left, right.T, format="csr")

    def dissipator(lind):
        ldl = (lind.conj().T @ lind).tocsr()
        return 2 * sandwich(lind, lind.conj().T) - pre(ldl) - post(ldl)

    gamma, N, M = bath.gamma, bath.N, bath.M
    s = bath.squeeze_coeff
    a2, ad2, num = (a @ a).tocsr(), (ad @ ad).tocsr(), (ad @ a).tocsr()

    L = (gamma / 2) * (N + 1) * dissipator(a)
    L = L + (gamma / 2) * N * dissipator(ad)
    L = L - (gamma / 2) * M * (2 * sandwich(ad, ad) - pre(ad2) - post(ad2))
    L = L - (gamma / 2) * np.conj(M) * (2 * sandwich(a, a) - pre(a2) - post(a2))
    L = L - 1j * bath.omega_m * (pre(num) - post(num))
    L = L - s * ((pre(a2) - post(a2)) - (pre(ad2) - post(ad2)))

    return L.tocsr()


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


def _solve(bath: EffectiveBath, L: sparse.csr_matrix) -> FockSolution:
    """Solve for the steady state of the generator ``L`` of ``bath``.

    One sparse LU solve of ``L v = 0`` with the <0|rho|0> row of ``L``
    replaced by the trace constraint ``sum_k v[k*dim+k] = 1``. The raw
    solution is then checked, never repaired: it must be finite, its
    residual ``max|L v|`` against the full, unmodified ``L`` must stay
    within ``RESIDUAL_RTOL * ||L||_inf * max|v|`` (the replaced row is
    implied by the others only if ``L`` preserves the trace), its trace
    and Hermiticity errors within ``TRACE_TOL`` and ``HERM_TOL``
    (NumericalError otherwise), and the magnitude of its last-state
    population within the 1e-10 tail guard (TruncationError: the caller
    must raise ``dim``; a negative tail is truncation error too).
    """
    from scipy import sparse
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = L.shape[0]
    dim = math.isqrt(n)
    diag = np.arange(dim) * (dim + 1)
    trace_row = sparse.csr_matrix(
        (np.ones(dim), (np.zeros(dim, dtype=int), diag)), shape=(1, n)
    )
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    with warnings.catch_warnings():
        # a singular system comes back as NaN and is refused below
        warnings.simplefilter("ignore", MatrixRankWarning)
        v = spsolve(sparse.vstack([trace_row, L[1:]], format="csc"), rhs)
    if not np.all(np.isfinite(v)):
        raise NumericalError(
            "steady-state solve is singular or non-finite: generator bug or "
            "no unique steady state"
        )

    residual = float(np.max(np.abs(L @ v)))
    l_norm = float(abs(L).sum(axis=1).max())
    residual_bound = RESIDUAL_RTOL * l_norm * float(np.max(np.abs(v)))
    if not residual <= residual_bound:
        raise NumericalError(
            f"steady-state residual {residual:g} exceeds {residual_bound:g}: "
            "generator not trace-preserving or solve inaccurate"
        )
    rho = v.reshape(dim, dim)
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
