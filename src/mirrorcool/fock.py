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

Room-temperature occupations (~1e11) are out of numerical reach by
construction; desk-scale occupations validate the same coefficient
algebra, which is parameter-generic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .bath import EffectiveBath, check_stability, require_stable
from .errors import NumericalError, TruncationError, ValidationError

__all__ = [
    "FockConfig",
    "FockSolution",
    "Generator",
    "build_generator",
    "evolve_to_steady",
    "ladder",
    "thermal_rho",
    "required_dim",
]

TAIL_GUARD = 1e-10   # population allowed in the last retained number state
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
# allowed normwise backward error max|L v| / (||L||_inf * max|v|) of the
# solve; measured 0.6e-18 to 3e-18 on desk baths at dim 30 to 250
RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class FockConfig:
    """Number-basis truncation: levels |0> .. |dim-1> are retained."""

    dim: int

    def __post_init__(self):
        if self.dim < 4:
            raise ValidationError("dim", "truncation dimension must be >= 4")


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


def ladder(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def thermal_rho(n_bar: float, dim: int) -> np.ndarray:
    """Truncated thermal state with Boltzmann ratio exp(-1/n_bar).

    Renormalized to unit trace after truncation; its last diagonal entry
    is the tail that :func:`required_dim` bounds.
    """
    if n_bar < 0:
        raise ValidationError("n_bar", "must be nonnegative")
    if n_bar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        p = np.exp(-np.arange(dim) / n_bar)
        p /= p.sum()
    return np.diag(p).astype(complex)


def required_dim(n_bar: float, tail: float = TAIL_GUARD) -> int:
    """Smallest truncation whose thermal tail population stays below ``tail``."""
    ratio = math.exp(-1.0 / n_bar) if n_bar > 0 else 0.0
    if ratio == 0.0:  # exp underflows for n_bar below about 1.4e-3
        return 4
    # (1-r) r^(d-1) <= tail
    d = 1 + math.log(tail / (1 - ratio)) / math.log(ratio)
    return max(4, math.ceil(d))


class Generator:
    """Sparse Liouvillian over row-major vec(rho) with moment adjoints."""

    def __init__(self, bath: EffectiveBath, dim: int, matrix: sparse.csr_matrix):
        self.bath = bath
        self.dim = dim
        self.matrix = matrix
        a = ladder(dim)
        num = a.conj().T @ a
        # Tr(O X) = vec(O^T) . vec(X) for row-major vec
        self._adjoints = np.stack(
            [op.T.ravel() for op in (a, a @ a, num)]
        )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.matrix @ rho.ravel()).reshape(self.dim, self.dim)

    def moments(self, rho_vec: np.ndarray) -> np.ndarray:
        """(<a>, <a^2>, <a^dag a>) of a vectorized state (or its derivative)."""
        return self._adjoints @ rho_vec


def build_generator(bath: EffectiveBath, dim: int) -> Generator:
    """Assemble the five term-groups of the feedback master equation.

    Signs follow the printed generator: the M and M* blocks enter with a
    minus sign, and the squeeze commutator carries the coefficient
    (g*sin(phi) + gamma_m)/4.
    """
    if dim < 4:
        raise ValidationError("dim", "truncation dimension must be >= 4")

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

    return Generator(bath, dim, L.tocsr())


def _quadrature_variances(mean_a: complex, mean_a2: complex, mean_n: float):
    # centered variances; <a> = 0 in the steady state, and keeping the
    # subtraction keeps the variances honest whatever the solve returns
    var_x = (2 * mean_n + 1 + 2 * mean_a2.real) / 4 - mean_a.real**2
    var_p = (2 * mean_n + 1 - 2 * mean_a2.real) / 4 - mean_a.imag**2
    return var_x, var_p


def evolve_to_steady(generator: Generator, cfg: FockConfig) -> FockSolution:
    """Solve for the steady state of the truncated master equation.

    One sparse LU solve of ``L v = 0`` with the <0|rho|0> row of ``L``
    replaced by the trace constraint ``sum_k v[k*dim+k] = 1``. The raw
    solution is then checked, never repaired: it must be finite, its
    residual ``max|L v|`` against the full, unmodified ``L`` must stay
    within ``RESIDUAL_RTOL * ||L||_inf * max|v|`` (the replaced row is
    implied by the others only if ``L`` preserves the trace), its trace
    and Hermiticity errors within ``TRACE_TOL`` and ``HERM_TOL``
    (NumericalError otherwise), and its last-state population within the
    1e-10 tail guard (TruncationError: the caller must raise ``dim``).
    """
    dim = generator.dim
    if cfg.dim != dim:
        raise ValidationError("dim", "config dimension does not match generator")
    require_stable(generator.bath)

    L = generator.matrix
    n = dim * dim
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
    if tail > TAIL_GUARD:
        raise TruncationError(
            f"tail population {tail:g} exceeds {TAIL_GUARD:g} at dim={dim}; raise dim"
        )

    mean_a, mean_a2, mean_n_c = generator.moments(v)
    mean_n = float(mean_n_c.real)
    var_x, var_p = _quadrature_variances(mean_a, mean_a2, mean_n)

    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < -1e-8:
        if check_stability(generator.bath).lindblad_positive:
            warnings.warn(
                f"negative eigenvalue {min_eig:g} despite Lindblad-positive "
                "coefficients; inspect truncation/solve",
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"negative eigenvalue {min_eig:g}: expected physics, the "
                "coefficient block is not completely positive here "
                "(moment-level results remain exact)",
                stacklevel=2,
            )

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
    )
