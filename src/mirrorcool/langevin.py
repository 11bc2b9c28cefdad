"""Time-domain Monte Carlo oracle for the cooled-mirror quadratures.

Integrates the classical counterpart of the quadrature Langevin equations
with correlated white noise given by the symmetrized input correlations.
The integration scheme is exact in distribution for this linear system:
the one-step propagator E is the matrix exponential of the drift and the
one-step noise covariance is the integral of the propagated diffusion
over one step, so results carry no time-step bias.

The stepper is the 2x2 recursion Z_n = E Z_{n-1} + B xi_n, run in
blocks of ``_BLOCK`` steps: one matrix product per quadrature maps each
block's raw draws to every state of the block from a zero entry, and a
rank-2 product adds the state entering the block. The states entering
the blocks obey the same recursion over block ends with E^_BLOCK as
propagator, solved the same way one level up. Each worker's draw buffer
is itself the input of those products, read in place, and every product
is cut into row tiles small enough that OpenBLAS runs it on one thread
(``_GEMM_ROWS``). E is the closed-form 2x2 exponential :func:`_expm2`,
and B is the closed-form square root (:func:`_sqrt_psd`) of the one-step
noise covariance integrated from the drift and diffusion alone
(:func:`_exact_step`), so the simulated moments owe nothing to the
steady covariance they are checked against. The spectrum is a numpy
Welch estimate (periodic Hann window, mean of segment periodograms).
This module imports no scipy and calls no level-1 BLAS (``np.dot``),
which OpenBLAS threads on long vectors. Nor does it call LAPACK: every
matrix is 2x2, so the stability check and slowest rate
(:func:`_slowest_rate`), the square root, the inverse behind
``tau_int`` and the Gauss-Legendre rule (:func:`_gauss_legendre`) are
closed forms.

The trajectories run on one worker per usable core, at most
``_MAX_WORKERS`` (:func:`_pool_size`): the calling thread and a plain
thread for each further worker, so one core starts no thread. A worker
takes one trajectory at a time and streams it through time chunks of at
most ``_CHUNK`` steps in its own scratch buffers: one chunk of draws,
and one chunk of states behind the samples of the Welch segment left
unfinished by the chunk before. The state leaving a chunk enters the
next, the moment and Welch sums run on across chunks, and the worker
writes only that trajectory's results. The draws are keyed by (seed,
index), so results do not depend on the worker count, and memory grows
with the workers, not with ``n_traj`` or ``t_sample``. The Welch
transform, the spread of the PSD bins over the trajectories and the
alias reference take ``_GROUP`` segments, trajectories or images at a
time (:func:`_sum_rows`), so their transients are bounded by the group,
not by the run; each keeps the order of the sums it replaces.

Only the symmetric part of the input correlations is simulated; the
antisymmetric i/4 cross term is a commutator artifact that no pair of
classical noises can represent and that does not enter symmetrized
moments or the spectrum.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import spectrum
from .bath import EffectiveBath, require_stable
from .errors import NoiseModelError, NumericalError, StabilityError, ValidationError
from .steady_state import diffusion_matrix, drift_matrix, _require_phase

__all__ = ["SimConfig", "TrajectoryEnsembleStats", "ComparisonReport", "simulate", "psd_vs_analytic"]

_BLOCK = 16  # time steps per row of the propagation GEMM; results depend on it only at roundoff
# most block rows per GEMM call: OpenBLAS runs a GEMM of at most 4*65536
# multiply-adds (GEMM_MULTITHREAD_THRESHOLD times 65536) on the calling
# thread alone, and rows*(2*_BLOCK)*_BLOCK stays within that, 512 rows at
# 16 steps a block, so the workers do not contend for OpenBLAS's threads
_GEMM_ROWS = 4 * 65536 // (2 * _BLOCK * _BLOCK)
# most time steps a worker propagates at once. Each chunk costs fixed work
# (the upper levels of the propagation, the Welch set-up), about 0.1 ms on
# one thread and more when the workers contend, so shorter chunks slow a
# run down and longer ones only add scratch
_CHUNK = 4 * _GEMM_ROWS * _BLOCK
# most workers, the calling thread counted: each holds 32 bytes of scratch
# per step of a chunk (draws, which are also the GEMM input, and states)
# plus 16 per step of a Welch segment, about 1.1 MB at the default segment,
# so 16 hold about 17 MB
_MAX_WORKERS = 16
_QUAD_NODES = 12  # Gauss-Legendre nodes of the one-step noise integral (_exact_step)
_SERIES_S2 = 1e-6  # below this |s^2|, _expm2 sums the Taylor series of cosh(s) and sinh(s)/s
_WELCH_OVERLAP = 0.5  # fraction of a Welch segment shared with the next
_ALIAS_IMAGES = 200  # images k*2pi/dt on each side in the sampled-process spectrum
_GROUP = 16  # rows of a sum made at a time (_sum_rows)
_PEAK_FRACTION = 0.5  # peak region: bins at or above this fraction of the reference maximum
_PEAK_REL_TOL = 0.10  # largest relative deviation in the peak region that passes


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.

    dt must resolve the fastest rate (dt*max(omega_m, gamma_m+g) < 0.1)
    and t_relax must cover ten times the slowest drift timescale; both are
    enforced against the actual bath in :func:`simulate`.
    """

    dt: float
    t_relax: float
    t_sample: float
    n_traj: int
    seed: int = 0
    welch_segment: int = 4096

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt", "must be strictly positive")
        if not self.t_relax >= 0:
            raise ValidationError("t_relax", "must be nonnegative")
        if not self.t_sample > 0:
            raise ValidationError("t_sample", "must be strictly positive")
        if self.n_traj < 2:
            raise ValidationError("n_traj", "need at least 2 trajectories for spread")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed", "must be a 64-bit unsigned integer")
        if self.welch_segment < 8:
            raise ValidationError("welch_segment", "must be at least 8 samples")


@dataclass(frozen=True)
class TrajectoryEnsembleStats:
    """Ensemble moment estimates and Welch spectrum with uncertainties.

    Standard errors come from the spread between independent trajectories,
    never from naive within-trajectory sample counts.
    """

    var_x_hat: float
    var_x_stderr: float
    var_p_hat: float
    var_p_stderr: float
    cov_xp_hat: float
    cov_xp_stderr: float
    psd_omega: np.ndarray        # angular frequencies, omega >= 0
    psd_values: np.ndarray       # two-sided-even S(omega) estimate
    psd_stderr: np.ndarray       # per-bin standard error of the mean
    psd_var_integral: float      # (1/2pi) * integral of the full PSD
    psd_var_integral_stderr: float
    n_effective: float
    n_traj: int
    dt: float                    # sample interval of the trajectories
    params_snapshot: EffectiveBath | None = None
    raw_trajectories: dict | None = field(default=None, repr=False)


def _sqrt_psd(mat: np.ndarray, what: str) -> np.ndarray:
    """Symmetric PSD square root of a 2x2 matrix; raises NoiseModelError when indefinite.

    With eigenvalues lo <= hi, sqrt(M) = (M + s I)/t where s = sqrt(det M)
    and t = sqrt(tr M + 2 s), since M^2 = tr(M) M - det(M) I. Roundoff in
    det M enters B B^T only as (s^2 - det M)/t^2, so a near-singular M
    loses nothing. M is refused when lo < -1e-12*max(|lo|, |hi|, 1e-300);
    a smaller negative lo is clipped to zero, which leaves
    sqrt(hi) (M - lo I)/(hi - lo). lo is det M over hi when the trace is
    positive, so it does not cancel. The root is evaluated in long
    double, whose range holds every product of two double entries, and
    rounded once, as in :func:`_expm2`.
    """
    (a, b), (c, d) = np.asarray(mat, dtype=np.longdouble)
    b = (b + c) / 2
    half, r, det = (a + d) / 2, np.hypot((a - d) / 2, b), a * d - b * b
    hi = half + r
    lo = det / hi if half > 0 else half - r
    if lo < -1e-12 * max(abs(lo), abs(hi), 1e-300):
        raise NoiseModelError(float(lo), what)
    if lo < 0:  # clipped: hi > 0 here
        shift, k = -lo, np.sqrt(hi) / (hi - lo)
    else:
        shift = np.sqrt(det)
        k = 1 / np.sqrt(a + d + 2 * shift) if half > 0 else 0  # else M is zero
    return (np.array([[a + shift, b], [b, d + shift]]) * k).astype(float)


def _expm2(M: np.ndarray) -> np.ndarray:
    """exp(M) of a 2x2 matrix in closed form.

    With tau = tr(M)/2 and N = M - tau*I, N^2 = s^2 I where s^2 = -det(N),
    so exp(M) = e^tau [cosh(s) I + (sinh(s)/s) N]: cos and sin of |s| when
    s^2 < 0, and the Taylor series in s^2 (the same for both signs) near 0.
    For s^2 > 0 the factor e^(tau+s) is taken out, so cosh and sinh cannot
    overflow where the product does not.

    The formula is evaluated in long double and rounded once: a one-step
    propagator that is an ulp off on its diagonal shifts the damping rate,
    and over the N-step memory of a high-Q bath the trajectories drift by
    N ulps.
    """
    M = np.asarray(M, dtype=np.longdouble)
    tau = (M[0, 0] + M[1, 1]) / 2
    d = (M[0, 0] - M[1, 1]) / 2
    s2 = d * d + M[0, 1] * M[1, 0]
    if abs(s2) < _SERIES_S2:
        scale, cosh, sinhc = np.exp(tau), 1 + s2 / 2 + s2 * s2 / 24, 1 + s2 / 6 + s2 * s2 / 120
    elif s2 > 0:
        s = np.sqrt(s2)
        fall = np.expm1(-2 * s)  # e^(-2s) - 1
        scale, cosh, sinhc = np.exp(tau + s), 1 + fall / 2, -fall / (2 * s)
    else:
        w = np.sqrt(-s2)
        scale, cosh, sinhc = np.exp(tau), np.cos(w), np.sin(w) / w
    N = np.array([[d, M[0, 1]], [M[1, 0], -d]])  # M - tau*I, exactly traceless
    return (scale * (cosh * np.eye(2, dtype=np.longdouble) + sinhc * N)).astype(float)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1].

    Each node x > 0 is Newton's iteration on P_n from the guess
    cos(pi (i + 3/4)/(n + 1/2)), with P_n and P_(n-1) from the recurrence
    k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2) and the derivative
    P_n' = n (P_(n-1) - x P_n)/(1 - x^2); its weight is
    2 (1 - x^2)/(n P_(n-1))^2, which takes no derivative. Both are
    evaluated in long double and rounded once, and the rule is made
    symmetric about 0.
    """
    one = np.longdouble(1)
    nodes, weights = np.zeros(n), np.zeros(n)
    for i in range((n + 1) // 2):
        x = np.longdouble(math.cos(math.pi * (i + 0.75) / (n + 0.5)))
        for _ in range(16):  # quadratic convergence from the guess: about 5 passes
            p, q = one, np.longdouble(0)  # P_n and P_(n-1)
            for k in range(1, n + 1):
                p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
            step = p * (one - x) * (one + x) / (n * (q - x * p))
            if x - step == x:
                break
            x -= step
        nodes[n - 1 - i], nodes[i] = x, -x
        weights[i] = weights[n - 1 - i] = 2 * (one - x) * (one + x) / (n * q) ** 2
    return nodes, weights


def _noise_covariance(A: np.ndarray, C: np.ndarray, dt: float) -> np.ndarray:
    """Covariance that the noise of dZ = A Z dt + noise, of diffusion ``C``, adds over ``dt``.

    Q(dt) = int_0^dt e^(As) C e^(A^T s) ds (Van Loan, IEEE TAC 23, 1978),
    summed by ``_QUAD_NODES``-node Gauss-Legendre quadrature on
    :func:`_expm2`. Q is built from the drift and diffusion alone, with no
    steady covariance, and as a sum of positive semidefinite terms it has
    none of the cancellation of order gamma*dt in sigma - E sigma E^T.
    """
    nodes, weights = _gauss_legendre(_QUAD_NODES)
    Q = np.zeros((2, 2))
    for s, w in zip(dt * (nodes + 1) / 2, dt * weights / 2):
        F = _expm2(A * s)
        Q += w * (F @ C @ F.T)
    return Q


def _exact_step(A: np.ndarray, C: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator E = exp(A dt) and noise square root B for dZ = A Z dt + noise.

    B B^T is the one-step noise covariance Q(dt) of the diffusion ``C``
    (:func:`_noise_covariance`).
    """
    E = _expm2(A * dt)
    return E, _sqrt_psd(_noise_covariance(A, C, dt), "per-step noise covariance")


def _slowest_rate(A: np.ndarray) -> float:
    """Smallest decay rate -Re(lambda) over the eigenvalues of the 2x2 drift ``A``.

    From the trace and determinant alone: it is positive, the drift
    strictly stable, iff tr A < 0 < det A (Routh-Hurwitz). With
    h = tr(A)/2, a complex pair or a double root (h^2 <= det) decays at
    -h; real roots are h +- sqrt(h^2 - det), and the one nearer zero is
    det over the other, so nothing cancels. Evaluated in long double,
    where no product of the entries overflows.
    """
    (a, b), (c, d) = np.asarray(A, dtype=np.longdouble)
    half, det = (a + d) / 2, a * d - b * c
    disc = half * half - det
    if disc <= 0:
        return float(-half)
    far = half + np.copysign(np.sqrt(disc), half)
    return float(-max(far, det / far))


def _stationary_covariance(E: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stationary covariance sum_k E^k B B^T E^kT of the recursion Z_n = E Z_{n-1} + B xi_n.

    Summed by doubling: after j passes S holds the first 2^j terms and F
    is E^(2^j), so a memory of N steps takes log2(N) passes. It stops when
    a pass no longer changes S; 64 passes cover any stable E.
    """
    S, F = B @ B.T, E
    for _ in range(64):
        grown = S + F @ S @ F.T
        if np.array_equal(grown, S):
            break
        S, F = grown, F @ F
    return S


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based stream keyed by (seed, trajectory index): the worker
    # that runs a trajectory cannot change its draws
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _block_matrices(
    E: np.ndarray, B: np.ndarray, n_steps: int, block: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """GEMM matrices of the block recursion for ``n_steps`` steps, one pair per level.

    Level 0 propagates Z_n = E Z_{n-1} + B xi_n. Its matrix T, of shape
    (2*block, 2*block), maps a row [xi_0 .. xi_{block-1}] of interleaved
    (x, p) pairs to the block's states [x_0 .. x_{block-1}, p_0 ..
    p_{block-1}] from a zero entry: the block-Toeplitz E^(i-m) B. The
    second matrix, K of shape (2, 2*block), holds E^(i+1), which maps the
    state entering the block to its share of the same states.
    Level l+1 propagates the states entering the blocks of level l, with
    E^block in place of E and the identity in place of B.
    """
    levels = []
    lag = np.arange(block)[None, :] - np.arange(block)[:, None]  # [m, i] -> i - m
    while True:
        P = np.empty((block + 1, 2, 2))
        P[0] = np.eye(2)
        for k in range(1, block + 1):
            P[k] = E @ P[k - 1]
        T = (P[:block] @ B)[np.maximum(lag, 0)]  # [m, i, c, a] = (E^(i-m) B)[c, a]
        T[lag < 0] = 0.0
        toeplitz = T.transpose(0, 3, 2, 1).reshape(2 * block, 2 * block)
        carry = P[1:].transpose(2, 1, 0).reshape(2, 2 * block)
        levels.append((toeplitz, carry))
        if n_steps <= block:
            return levels
        n_steps = -(-n_steps // block) - 1  # the states entering blocks 1, 2, ...
        E, B = P[block], np.eye(2)


def _tiles(n_rows: int, tile: int) -> list[tuple[int, int]]:
    """Row ranges of at most ``tile`` rows, of nearly equal height, covering ``n_rows``.

    Equal heights keep every tile above one row, where a lone row would go
    to GEMV, which sums differently, whenever ``n_rows`` is above one.
    """
    n_tiles = -(-n_rows // tile)
    edges = [n_rows * t // n_tiles for t in range(n_tiles + 1)]
    return list(zip(edges, edges[1:]))


def _propagate(
    u: np.ndarray,
    levels: list[tuple[np.ndarray, np.ndarray]],
    out: np.ndarray | None = None,
    tile: int = _GEMM_ROWS,
    entry: np.ndarray | None = None,
) -> np.ndarray:
    """States Z_n = E Z_{n-1} + B u_n from Z_{-1} = ``entry`` for the rows u_n of ``u`` (n, 2).

    Returns (2, n_blocks*block): x in row 0, p in row 1; past the last
    step the recursion continues on zero input. A ``u`` whose length is a
    whole number of blocks is read in place as (n_blocks, 2*block) GEMM
    rows; any other is first padded with zero rows into a copy. ``out``
    may be passed in for reuse. Every product is cut into row tiles of at
    most ``tile`` rows (:func:`_tiles`); the tiles do not change the
    product.

    ``entry=None`` starts from zero. A given ``entry`` (2,), the state
    before u_0, is the first input of the level above, whose B is the
    identity, so it enters block 0 as the states leaving the blocks enter
    the blocks after them; ``levels`` must then cover one block more than
    ``u`` (:func:`_block_matrices` for ``len(u) + block`` steps).
    """
    toeplitz, carry = levels[0]
    block = carry.shape[1] // 2
    n_blocks = -(-len(u) // block)
    if len(u) % block:
        u = np.pad(u, ((0, n_blocks * block - len(u)), (0, 0)))
    rows = u.reshape(n_blocks, 2 * block)
    if out is None:
        out = np.empty((2, n_blocks * block))
    blocks = [out[q].reshape(n_blocks, block) for q in range(2)]
    tiles = _tiles(n_blocks, tile)
    for q in range(2):  # every state from a zero entry
        for lo, hi in tiles:
            np.matmul(rows[lo:hi], toeplitz[:, q * block:(q + 1) * block],
                      out=blocks[q][lo:hi])
    lead = 0 if entry is None else 1  # a given entry is the first input of the level above
    n_ends = n_blocks - 1 + lead
    if n_ends:
        # each block's last state from a zero entry, after the given entry if
        # any; recursing on them, padded to whole blocks of the next level,
        # gives the states entering the blocks
        ends = np.zeros((-(-n_ends // block) * block, 2))
        if lead:
            ends[0] = entry
        ends[lead:n_ends, 0], ends[lead:n_ends, 1] = blocks[0][:-1, -1], blocks[1][:-1, -1]
        entries = _propagate(ends, levels[1:], tile=tile)[:, :n_ends].T.copy()
        for q in range(2):  # plus E^(i+1) times the state entering block i >= 1 - lead
            K_q = carry[:, q * block:(q + 1) * block]
            for lo, hi in _tiles(n_ends, tile):
                blocks[q][1 - lead + lo:1 - lead + hi] += np.matmul(entries[lo:hi], K_q)
    return out


def _step_count(name: str, duration: float, dt: float) -> int:
    """Whole time steps in ``duration``; ValidationError naming ``name`` when not finite."""
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValidationError(name, f"{name}/dt = {steps} is not a finite number of steps")
    return int(round(steps))


def _pool_size(n_traj: int) -> int:
    """Workers for ``n_traj`` trajectories, the calling thread counted: one per
    usable core, at most ``_MAX_WORKERS`` and one per trajectory.

    The usable cores are the CPU affinity; a cgroup CPU quota is not read,
    so under a quota the cap is what bounds the threads.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, _MAX_WORKERS, n_traj))


def _sum_rows(n_rows: int, shape: tuple, fill, start: np.ndarray | None = None) -> np.ndarray:
    """The sum of ``n_rows`` rows of ``shape``, made ``_GROUP`` rows at a time.

    ``fill(lo, hi, out)`` writes rows ``lo`` to ``hi - 1`` into ``out``,
    stacked on axis -2. Row 0 of the buffer carries the sum of the groups
    before, and one reduce over the buffer adds the next group to it:
    numpy reduces axis -2 of a C-contiguous array row after row, so the
    rows are added in the order, and to the bit, of one ``np.add.reduce``
    over all of them. A ``start`` is a sum of rows before these, which
    they are added to in the same order.
    """
    buf = np.empty(shape[:-1] + (min(n_rows, _GROUP) + 1, shape[-1]))
    if start is not None:
        buf[..., 0, :] = start
    for lo in range(0, n_rows, _GROUP):
        end = min(_GROUP, n_rows - lo) + 1  # the group's rows are 1..end-1
        fill(lo, lo + end - 1, buf[..., 1:end, :])
        first = 0 if lo or start is not None else 1  # no sum to carry into the first group
        buf[..., 0, :] = np.add.reduce(buf[..., first:end, :], axis=-2)
    return buf[..., 0, :]


def _segment_powers(
    x: np.ndarray, win: np.ndarray, noverlap: int, total: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Sum of the windowed segment powers of each row of ``x``, and their count.

    The segments are ``len(win)`` samples long and start every
    ``len(win) - noverlap`` samples; a segment's power is
    |rfft(segment*win)|^2 at the bins 0..nperseg//2. The powers are added
    to ``total``, the sum over earlier segments of the same series, in
    order: a series cut into pieces, each passed on from the first sample
    of the segment that the piece before did not finish, gives the sum of
    the whole to the bit.
    """
    nperseg, step = len(win), len(win) - noverlap
    n_seg = (x.shape[-1] - nperseg) // step + 1
    size = x.strides[-1]
    # a strided view: sliding_window_view costs more per call than the
    # arithmetic of a short row
    segments = as_strided(x, x.shape[:-1] + (n_seg, nperseg), x.strides[:-1] + (step * size, size),
                          writeable=False)

    def power(lo, hi, out):
        spec = np.fft.rfft(segments[..., lo:hi, :] * win, axis=-1)
        np.square(spec.real, out=out)
        out += np.square(spec.imag)

    return _sum_rows(n_seg, x.shape[:-1] + (nperseg // 2 + 1,), power, total), n_seg


def _welch_density(total: np.ndarray, n_seg: int, fs: float, win: np.ndarray) -> np.ndarray:
    """Hann-window Welch density at the rfft bins 0..nperseg//2 from ``n_seg`` segment powers.

    ``win`` is the periodic Hann window of ``nperseg`` points,
    ``np.hanning(nperseg + 1)[:-1]``, and ``total`` the
    :func:`_segment_powers` of a series. The two-sided density (scipy's
    ``welch`` with ``window="hann"``, ``detrend=False``,
    ``return_onesided=False``) of a real series is even in f, so these
    bins hold all of it: bin k stands for +-k*fs/nperseg.
    """
    # the division of power.mean(axis=-2), without its Python layer
    return total / n_seg / (fs * np.einsum("i,i->", win, win))


def _simulate_linear(
    A: np.ndarray,
    C: np.ndarray,
    cfg: SimConfig,
    keep_trajectories: int = 0,
) -> TrajectoryEnsembleStats:
    """Core integrator over an arbitrary stable 2x2 drift/diffusion pair."""
    rate = _slowest_rate(A)
    if not rate > 0:
        raise StabilityError(f"drift not strictly stable: slowest decay rate {rate:g}")
    _sqrt_psd(C, f"input noise covariance C={C.tolist()}")

    n_samp = _step_count("t_sample", cfg.t_sample, cfg.dt)
    n_relax = _step_count("t_relax", cfg.t_relax, cfg.dt)
    if n_samp < cfg.welch_segment:
        raise ValidationError(
            "welch_segment", f"segment ({cfg.welch_segment}) exceeds samples ({n_samp})"
        )
    n_steps = n_relax + n_samp
    if n_steps > np.iinfo(np.intp).max:  # past any array index
        raise ValidationError("t_sample" if n_samp >= n_relax else "t_relax",
                              f"{n_steps} time steps are more than an array can index")

    fs = 1.0 / cfg.dt
    seg = cfg.welch_segment
    noverlap = int(_WELCH_OVERLAP * seg)
    win = np.hanning(seg + 1)[:-1]  # periodic Hann
    # rfft bins below Nyquist; an even segment also has the Nyquist bin,
    # which the two-sided density holds once
    half = (seg + 1) // 2
    freqs = np.fft.rfftfreq(seg, 1.0 / fs)[:half]

    # numpy refuses, before any work, a run it cannot allocate
    try:
        var_x_i = np.empty(cfg.n_traj)
        var_p_i = np.empty(cfg.n_traj)
        cov_i = np.empty(cfg.n_traj)
        integ_i = np.empty(cfg.n_traj)
        psd_i = np.empty((cfg.n_traj, half))
    except (ValueError, MemoryError) as exc:
        raise ValidationError("n_traj", f"cannot allocate the trajectories: {exc}") from None
    # the time steps in chunks of whole blocks, of nearly equal length and at
    # most _CHUNK steps; only the last chunk may end in a partial block
    n_blocks = -(-n_steps // _BLOCK)
    n_chunks = -(-n_blocks // max(1, _CHUNK // _BLOCK))
    chunk = -(-n_blocks // n_chunks) * _BLOCK  # the longest chunk
    # the states of a chunk follow the samples of the Welch segment that the
    # chunk before left unfinished, fewer than one segment
    spare = seg if n_chunks > 1 else 0
    n_workers = _pool_size(cfg.n_traj)
    # each worker's draws, zero-padded to whole blocks, and states
    scratch = [(np.zeros((chunk, 2)), np.empty((2, spare + chunk))) for _ in range(n_workers)]
    n_keep = max(0, min(keep_trajectories, cfg.n_traj))
    try:
        kept = {"x": np.empty((n_keep, n_samp)), "p": np.empty((n_keep, n_samp))}
    except (ValueError, MemoryError) as exc:
        raise ValidationError("keep_trajectories",
                              f"cannot allocate the kept trajectories: {exc}") from None

    E, B = _exact_step(A, C, cfg.dt)
    levels = _block_matrices(E, B, chunk + _BLOCK, _BLOCK)  # a block more for the entering state
    step = seg - noverlap  # Welch segment starts

    # each worker takes the next trajectory index from this shared iterator
    # (next() on a range iterator is atomic under the GIL), so the workers
    # share out the trajectories with no per-trajectory bookkeeping
    indices = iter(range(cfg.n_traj))
    failures = []  # what the workers raised, in the order they raised it

    def work(draws: np.ndarray, states: np.ndarray) -> None:
        try:
            for j in indices:
                rng = _traj_rng(cfg.seed, j)
                entry, carried, total, n_seg = None, 0, None, 0
                xx = pp = xp = 0.0  # sums of x*x, p*p and x*p over the sampled steps
                for c in range(n_chunks):
                    lo = n_blocks * c // n_chunks * _BLOCK
                    m = min(n_blocks * (c + 1) // n_chunks * _BLOCK, n_steps) - lo
                    rows = -(-m // _BLOCK) * _BLOCK
                    # one Philox stream per trajectory, drawn on chunk after chunk
                    rng.standard_normal((m, 2), out=draws[:m])
                    if m < rows:
                        draws[m:rows] = 0.0  # the padding of a partial last block
                    out = states[:, carried:carried + rows]
                    _propagate(draws[:rows], levels, out=out, entry=entry)
                    first = min(max(n_relax - lo, 0), m)  # the chunk's first sampled step
                    z = out[:, first:m]  # x in row 0, p in row 1

                    # raw second moments about zero: the fluctuation process is
                    # zero-mean. Two rows per einsum call, as for a batch of
                    # trajectories: einsum sums a lone row in another order.
                    sx, sp = np.einsum("ij,ij->i", z, z)
                    xx, pp = xx + sx, pp + sp
                    xp += np.einsum("ij,ij->i", z, z[::-1])[0]

                    if j < n_keep:
                        span = slice(lo + first - n_relax, lo + m - n_relax)
                        kept["x"][j, span], kept["p"][j, span] = z

                    # the carried samples and this chunk's: nothing is carried
                    # into a chunk that holds relaxation steps
                    x = states[0, first:carried + m]
                    if x.size >= seg:
                        total, n_new = _segment_powers(x, win, noverlap, total)
                        n_seg += n_new
                        x = x[n_new * step:]
                    if c + 1 < n_chunks:  # the state and the unfinished segment go on
                        entry = out[:, m - 1].copy()
                        carried = x.size
                        states[0, :carried] = x

                var_x_i[j], var_p_i[j], cov_i[j] = xx / n_samp, pp / n_samp, xp / n_samp
                p_one = _welch_density(total, n_seg, fs, win)
                # sum over the two-sided bins: 0 and Nyquist once, the others at +-f
                two_sided = p_one[0] + 2 * p_one[1:half].sum() + p_one[half:].sum()
                integ_i[j] = two_sided * (fs / seg)
                psd_i[j] = p_one[:half]
        except BaseException as exc:  # a KeyboardInterrupt on the calling thread too
            for _ in indices:  # the other workers stop after their current trajectory
                pass
            failures.append(exc)

    # the calling thread is worker 0; one worker starts no thread
    threads = [threading.Thread(target=work, args=buffers, name=f"mirrorcool-langevin-{w}")
               for w, buffers in enumerate(scratch[1:], 1)]
    for thread in threads:
        thread.start()
    work(*scratch[0])
    for thread in threads:
        thread.join()
    if failures:
        try:
            raise failures[0]
        finally:
            failures.clear()  # no cycle: the traceback holds this frame

    n = cfg.n_traj
    sqrt_n = math.sqrt(n)

    # integrated autocorrelation time of X: the analytic drift on the
    # recursion's own stationary covariance
    # (-A^-1 sigma)[0, 0]/sigma[0, 0], with A^-1 = adj(A)/det(A)
    (s_xx, _), (s_px, _) = _stationary_covariance(E, B).tolist()
    (a, b), (c, d) = A.tolist()
    tau_int = (b * s_px - d * s_xx) / ((a * d - b * c) * s_xx)
    n_effective = n * cfg.t_sample / max(2 * tau_int, cfg.dt)

    # the sums of np.std(psd_i, axis=0, ddof=1), without a temporary the
    # size of psd_i
    psd_mean = np.mean(psd_i, axis=0)

    def squared_deviation(lo, hi, out):
        np.subtract(psd_i[lo:hi], psd_mean, out=out)
        out *= out

    sq_dev = _sum_rows(n, psd_mean.shape, squared_deviation)

    raw = None
    if keep_trajectories > 0:
        raw = {"t": cfg.dt * np.arange(n_samp), **kept}

    return TrajectoryEnsembleStats(
        var_x_hat=float(np.mean(var_x_i)),
        var_x_stderr=float(np.std(var_x_i, ddof=1) / sqrt_n),
        var_p_hat=float(np.mean(var_p_i)),
        var_p_stderr=float(np.std(var_p_i, ddof=1) / sqrt_n),
        cov_xp_hat=float(np.mean(cov_i)),
        cov_xp_stderr=float(np.std(cov_i, ddof=1) / sqrt_n),
        # S(omega) = P_two_sided(f) at omega = 2*pi*f: the Jacobian of the
        # substitution cancels against the 1/2pi of the sum-rule convention
        psd_omega=2 * math.pi * freqs,
        psd_values=psd_mean,
        psd_stderr=np.sqrt(sq_dev / (n - 1)) / sqrt_n,
        psd_var_integral=float(np.mean(integ_i)),
        psd_var_integral_stderr=float(np.std(integ_i, ddof=1) / sqrt_n),
        n_effective=n_effective,
        n_traj=n,
        dt=cfg.dt,
        raw_trajectories=raw,
    )


def simulate(
    bath: EffectiveBath,
    cfg: SimConfig,
    keep_trajectories: int = 0,
) -> TrajectoryEnsembleStats:
    """Estimate steady-state moments and the X spectrum by Monte Carlo.

    Draws the noise pair with the symmetrized covariance per unit time,
    discards ``t_relax``, and returns between-trajectory moment estimates
    plus a Hann/Welch spectrum scaled to the two-sided convention fixed by
    the sum rule, S(omega) at omega = 2*pi*f.
    """
    _require_phase(bath)
    require_stable(bath)

    A = drift_matrix(bath)
    C = diffusion_matrix(bath)

    fastest = max(bath.omega_m, bath.gamma_m + bath.g)
    if not cfg.dt * fastest < 0.1:
        raise ValidationError(
            "dt", f"dt*max(omega_m, gamma_m+g) = {cfg.dt * fastest:g} must be < 0.1"
        )
    gamma_slow = _slowest_rate(A)
    if cfg.t_relax < 10.0 / gamma_slow:
        raise ValidationError(
            "t_relax", f"must be at least 10/gamma_slow = {10.0 / gamma_slow:g} s"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate is refused below
        stats = _simulate_linear(A, C, cfg, keep_trajectories=keep_trajectories)
    estimates = [v for v in vars(stats).values() if isinstance(v, (float, np.ndarray))]
    if not all(np.isfinite(v).all() for v in estimates):
        raise NumericalError(
            f"Monte Carlo estimates leave the float range: var_x = {stats.var_x_hat:g}, "
            f"var_x_stderr = {stats.var_x_stderr:g}"
        )
    return replace(stats, params_snapshot=bath)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-bin and aggregate agreement between a PSD estimate and a curve."""

    z_scores: np.ndarray
    chi2_per_bin: float
    max_abs_z: float
    peak_rel_dev: float       # max |psd-S|/S where S >= _PEAK_FRACTION*max(S)
    passed: bool              # peak_rel_dev < _PEAK_REL_TOL


def _sampled_spectrum(bath: EffectiveBath, omega: np.ndarray, dt: float) -> np.ndarray:
    """Spectrum of X sampled every ``dt``: S(omega) plus its images S(omega + k*2pi/dt).

    The images fold power from above the Nyquist frequency into the
    Welch bins. Those past ``_ALIAS_IMAGES`` on each side are left out:
    with S ~ c_xx/omega^2 at high frequency they add about
    c_xx*dt^2/(4*pi^2*_ALIAS_IMAGES) per side.
    """
    k = np.arange(-_ALIAS_IMAGES, _ALIAS_IMAGES + 1)[:, None]

    def images(lo, hi, out):
        values = spectrum.eval_spectrum(bath, (omega + k[lo:hi] * (2 * math.pi / dt)).ravel())
        out[...] = values.reshape(out.shape)

    return _sum_rows(k.size, omega.shape, images)


def psd_vs_analytic(stats: TrajectoryEnsembleStats) -> ComparisonReport:
    """Compare a Welch estimate against the sampled-process spectrum at its own bins.

    The bath is ``stats.params_snapshot``, set by :func:`simulate`. The
    reference is ``eval_spectrum`` with its aliases at the sample
    interval ``stats.dt`` folded in (:func:`_sampled_spectrum`), the
    spectrum the Welch estimate converges to.
    Pass/fail is decided on the peak region (bins at or above
    ``_PEAK_FRACTION`` of the reference maximum) at ``_PEAK_REL_TOL``
    relative deviation; the z-scores are reported for diagnosis (Welch
    bins are mildly correlated, so the chi-square is indicative, not
    exact).
    """
    if stats.params_snapshot is None:
        raise ValidationError("stats", "no bath snapshot: compare the result of simulate()")

    s_ref = _sampled_spectrum(stats.params_snapshot, stats.psd_omega, stats.dt)
    stderr = np.where(stats.psd_stderr > 0, stats.psd_stderr, np.inf)
    z = (stats.psd_values - s_ref) / stderr

    mask = s_ref >= _PEAK_FRACTION * s_ref.max()
    peak_rel_dev = float(np.max(np.abs(stats.psd_values[mask] - s_ref[mask]) / s_ref[mask]))

    return ComparisonReport(
        z_scores=z,
        chi2_per_bin=float(np.mean(z**2)),
        max_abs_z=float(np.max(np.abs(z))),
        peak_rel_dev=peak_rel_dev,
        passed=peak_rel_dev < _PEAK_REL_TOL,
    )
