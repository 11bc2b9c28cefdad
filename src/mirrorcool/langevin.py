"""Time-domain Monte Carlo oracle for the cooled-mirror quadratures.

Integrates the classical counterpart of the quadrature Langevin equations
with correlated white noise given by the symmetrized input correlations.
The integration scheme is exact in distribution for this linear system:
the one-step propagator E is the matrix exponential of the drift and the
one-step noise covariance is the exact integrated Lyapunov increment, so
results carry no time-step bias.

The stepper is the 2x2 recursion Z_n = E Z_{n-1} + B xi_n, run in
blocks of ``_BLOCK`` steps: one matrix product per quadrature maps each
block's raw draws, plus the state entering the block, to every state of
the block, so a whole trajectory takes two GEMMs. The states entering
the blocks obey the same recursion over block ends with E^_BLOCK as
propagator, solved the same way one level up. E is the closed-form 2x2
exponential :func:`_expm2`. The spectrum is a numpy Welch estimate
(periodic Hann window, mean of segment periodograms). This module imports
no scipy.

Only the symmetric part of the input correlations is simulated; the
antisymmetric i/4 cross term is a commutator artifact that no pair of
classical noises can represent and that does not enter symmetrized
moments or the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bath import EffectiveBath, require_stable
from .errors import NoiseModelError, StabilityError, ValidationError
from .spectrum import eval_spectrum
from .steady_state import diffusion_matrix, drift_matrix, _require_phase, _steady_covariance

__all__ = ["SimConfig", "TrajectoryEnsembleStats", "ComparisonReport", "simulate", "psd_vs_analytic"]

_CHUNK = 64  # trajectories integrated together; results do not depend on it
_BLOCK = 64  # time steps per row of the propagation GEMM; results depend on it only at roundoff
_SERIES_S2 = 1e-6  # below this |s^2|, _expm2 sums the Taylor series of cosh(s) and sinh(s)/s
_WELCH_ROWS = 8  # trajectories per Welch call; bounds its FFT memory
_WELCH_OVERLAP = 0.5  # fraction of a Welch segment shared with the next
_ALIAS_IMAGES = 200  # images k*2pi/dt on each side in the sampled-process spectrum
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
    """Symmetric PSD square root; raises NoiseModelError when indefinite."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    if vals[0] < -1e-12 * scale:
        raise NoiseModelError(float(vals[0]), what)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


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


def _exact_step(A: np.ndarray, sigma: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator and noise square root for dZ = A Z dt + noise.

    Q(dt) = sigma - E sigma E^T with E = exp(A dt) and the steady
    covariance ``sigma`` is the exact covariance accumulated over one step.
    """
    E = _expm2(A * dt)
    Q = sigma - E @ sigma @ E.T
    return E, _sqrt_psd(Q, "per-step noise covariance")


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based stream keyed by (seed, trajectory index): parallel or
    # chunked execution cannot change the draws
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _block_matrices(E: np.ndarray, B: np.ndarray, n_steps: int, block: int) -> list[np.ndarray]:
    """GEMM matrices of the block recursion for ``n_steps`` steps, one per level.

    Level 0 propagates Z_n = E Z_{n-1} + B xi_n. Its matrix G, of shape
    (2*block + 2, 2*block), maps a row [xi_0 .. xi_{block-1}, Z_in] of
    interleaved (x, p) pairs to the block's states [x_0 .. x_{block-1},
    p_0 .. p_{block-1}]: the block-Toeplitz E^(i-m) B above, E^(i+1) in the
    last two rows. Level l+1 propagates the states entering the blocks of
    level l, with E^block in place of E and the identity in place of B.
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
        levels.append(np.vstack([toeplitz, carry]))
        if n_steps <= block:
            return levels
        n_steps = -(-n_steps // block) - 1  # the states entering blocks 1, 2, ...
        E, B = P[block], np.eye(2)


def _propagate(u: np.ndarray, levels: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """States Z_n = E Z_{n-1} + B u_n from Z_{-1} = 0 for the rows u_n of ``u`` (n, 2).

    Returns (2, n_blocks*block): x in row 0, p in row 1; past the last
    step the recursion continues on zero input.
    """
    G = levels[0]
    width = G.shape[1]
    block = width // 2
    n_blocks = -(-len(u) // block)
    rows = np.zeros((n_blocks, width + 2))
    full, part = divmod(2 * len(u), width)
    rows[:full, :width] = u[:full * block].reshape(full, width)
    if part:
        rows[full, :part] = u[full * block:].ravel()
    if n_blocks > 1:
        # each block's last state from a zero entry; recursing on them gives the entries
        ends = rows[:-1, :width] @ G[:width, block - 1::block]
        rows[1:, width:] = _propagate(ends, levels[1:])[:, :n_blocks - 1].T
    if out is None:
        out = np.empty((2, n_blocks * block))
    for q in range(2):
        np.matmul(rows, G[:, q * block:(q + 1) * block], out=out[q].reshape(n_blocks, block))
    return out


def _step_count(name: str, duration: float, dt: float) -> int:
    """Whole time steps in ``duration``; ValidationError naming ``name`` when not finite."""
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValidationError(name, f"{name}/dt = {steps} is not a finite number of steps")
    return int(round(steps))


def _welch(x: np.ndarray, fs: float, nperseg: int, noverlap: int) -> np.ndarray:
    """Hann-window Welch density of each row of ``x`` at the rfft bins 0..nperseg//2.

    The two-sided density (scipy's ``welch`` with ``window="hann"``,
    ``detrend=False``, ``return_onesided=False``) of a real series is even
    in f, so these bins hold all of it: bin k stands for +-k*fs/nperseg.
    """
    win = np.hanning(nperseg + 1)[:-1]  # periodic Hann
    segments = sliding_window_view(x, nperseg, axis=-1)[..., ::nperseg - noverlap, :]
    spec = np.fft.rfft(segments * win, axis=-1)
    power = spec.real**2 + spec.imag**2
    return power.mean(axis=-2) / (fs * np.dot(win, win))


def _simulate_linear(
    A: np.ndarray,
    C: np.ndarray,
    cfg: SimConfig,
    keep_trajectories: int = 0,
) -> TrajectoryEnsembleStats:
    """Core integrator over an arbitrary stable 2x2 drift/diffusion pair."""
    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise StabilityError(f"drift eigenvalues not strictly stable: {eigs}")
    _sqrt_psd(C, f"input noise covariance C={C.tolist()}")

    n_samp = _step_count("t_sample", cfg.t_sample, cfg.dt)
    n_relax = _step_count("t_relax", cfg.t_relax, cfg.dt)
    if n_samp < cfg.welch_segment:
        raise ValidationError(
            "welch_segment", f"segment ({cfg.welch_segment}) exceeds samples ({n_samp})"
        )
    n_steps = n_relax + n_samp

    fs = 1.0 / cfg.dt
    noverlap = int(_WELCH_OVERLAP * cfg.welch_segment)
    # rfft bins below Nyquist; an even segment also has the Nyquist bin,
    # which the two-sided density holds once
    half = (cfg.welch_segment + 1) // 2
    freqs = np.fft.rfftfreq(cfg.welch_segment, 1.0 / fs)[:half]

    # numpy refuses, before any work, a run it cannot allocate
    try:
        var_x_i = np.empty(cfg.n_traj)
        var_p_i = np.empty(cfg.n_traj)
        cov_i = np.empty(cfg.n_traj)
        integ_i = np.empty(cfg.n_traj)
        psd_i = np.empty((cfg.n_traj, half))
    except (ValueError, MemoryError) as exc:
        raise ValidationError("n_traj", f"cannot allocate the trajectories: {exc}") from None
    n_blocks = -(-n_steps // _BLOCK)
    try:
        draws = np.empty((n_steps, 2))
        states = np.empty((min(_CHUNK, cfg.n_traj), 2, n_blocks * _BLOCK))
    except (ValueError, MemoryError) as exc:
        raise ValidationError("t_sample" if n_samp >= n_relax else "t_relax",
                              f"cannot allocate the time steps: {exc}") from None

    sigma = _steady_covariance(A, C)
    E, B = _exact_step(A, sigma, cfg.dt)
    levels = _block_matrices(E, B, n_steps, _BLOCK)
    kept_x, kept_p = [], []

    for start in range(0, cfg.n_traj, _CHUNK):
        stop = min(start + _CHUNK, cfg.n_traj)
        k = stop - start
        for j in range(k):
            _traj_rng(cfg.seed, start + j).standard_normal((n_steps, 2), out=draws)
            _propagate(draws, levels, out=states[j])
        xs, ps = states[:k, 0, n_relax:n_steps], states[:k, 1, n_relax:n_steps]

        # raw second moments about zero: the fluctuation process is zero-mean
        var_x_i[start:stop] = np.einsum("ij,ij->i", xs, xs) / n_samp
        var_p_i[start:stop] = np.einsum("ij,ij->i", ps, ps) / n_samp
        cov_i[start:stop] = np.einsum("ij,ij->i", xs, ps) / n_samp

        # a few rows per Welch call: its segment FFTs take several times the
        # memory of the samples, and the rows are transformed independently
        p_one = np.concatenate([
            _welch(xs[j:j + _WELCH_ROWS], fs, cfg.welch_segment, noverlap)
            for j in range(0, k, _WELCH_ROWS)
        ])
        # sum over the two-sided bins: 0 and Nyquist once, the others at +-f
        two_sided = p_one[:, 0] + 2 * p_one[:, 1:half].sum(axis=1) + p_one[:, half:].sum(axis=1)
        integ_i[start:stop] = two_sided * (fs / cfg.welch_segment)
        psd_i[start:stop] = p_one[:, :half]

        if start < keep_trajectories:
            # copies: the next chunk overwrites ``states``
            take = min(keep_trajectories - start, k)
            kept_x.extend(xs[:take].copy())
            kept_p.extend(ps[:take].copy())

    n = cfg.n_traj
    sqrt_n = math.sqrt(n)

    # integrated autocorrelation time of X from the analytic drift
    tau_int = float((-np.linalg.inv(A) @ sigma)[0, 0] / sigma[0, 0])
    n_effective = n * cfg.t_sample / max(2 * tau_int, cfg.dt)

    raw = None
    if keep_trajectories > 0:
        raw = {"t": cfg.dt * np.arange(n_samp), "x": np.asarray(kept_x), "p": np.asarray(kept_p)}

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
        psd_values=np.mean(psd_i, axis=0),
        psd_stderr=np.std(psd_i, axis=0, ddof=1) / sqrt_n,
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
    gamma_slow = float(np.min(np.abs(np.linalg.eigvals(A).real)))
    if cfg.t_relax < 10.0 / gamma_slow:
        raise ValidationError(
            "t_relax", f"must be at least 10/gamma_slow = {10.0 / gamma_slow:g} s"
        )

    stats = _simulate_linear(A, C, cfg, keep_trajectories=keep_trajectories)
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
    images = (omega + k * (2 * math.pi / dt)).ravel()
    return eval_spectrum(bath, images).reshape(k.size, -1).sum(axis=0)


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
