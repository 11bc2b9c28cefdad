"""Time-domain Monte Carlo oracle for the cooled-mirror quadratures.

Integrates the classical counterpart of the quadrature Langevin equations
with correlated white noise given by the symmetrized input correlations.
The integration scheme is exact in distribution for this linear system:
the one-step propagator E is the matrix exponential of the drift and the
one-step noise covariance is the exact integrated Lyapunov increment, so
results carry no time-step bias.

The stepper is the 2x2 recursion Z_n = E Z_{n-1} + w_n. By
Cayley-Hamilton each quadrature obeys the scalar order-2 recursion
Z_n - tr(E) Z_{n-1} + det(E) Z_{n-2} = w_n + (E - tr(E) I) w_{n-1}, so
one ``scipy.signal.lfilter`` call per quadrature runs every time step
of a chunk of trajectories; ``lfilter`` is all this module takes from
``scipy.signal``. The spectrum is a numpy Welch estimate (periodic Hann
window, mean of segment periodograms).

``scipy.signal`` and ``scipy.linalg`` (for ``expm``) are imported by the
functions that use them, on the first Monte Carlo run, so importing this
module, and the package, loads no scipy.

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


def _exact_step(A: np.ndarray, sigma: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator and noise square root for dZ = A Z dt + noise.

    Q(dt) = sigma - E sigma E^T with E = exp(A dt) and the steady
    covariance ``sigma`` is the exact covariance accumulated over one step.
    """
    from scipy.linalg import expm  # deferred with scipy.signal, see the module docstring

    E = expm(A * dt)
    Q = sigma - E @ sigma @ E.T
    return E, _sqrt_psd(Q, "per-step noise covariance")


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based stream keyed by (seed, trajectory index): parallel or
    # chunked execution cannot change the draws
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _forcing(
    E: np.ndarray, B: np.ndarray, seed: int, start: int, k: int, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-quadrature forcing w_n + (E - tr(E) I) w_{n-1} of trajectories start..start+k-1.

    w = B xi with xi drawn per trajectory; w_{-1} = 0, so the filter
    starts from Z = 0 before the first step.
    """
    MT = (E - np.trace(E) * np.eye(2)).T
    BT = B.T
    fx = np.empty((k, n_steps))
    fp = np.empty((k, n_steps))
    for j in range(k):
        w = _traj_rng(seed, start + j).standard_normal((n_steps, 2)) @ BT
        w[1:] += w[:-1] @ MT
        fx[j] = w[:, 0]
        fp[j] = w[:, 1]
    return fx, fp


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
    # deferred: scipy.signal is the slowest import of the package and only
    # the Monte Carlo verbs need it
    from scipy import signal

    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise StabilityError(f"drift eigenvalues not strictly stable: {eigs}")
    _sqrt_psd(C, f"input noise covariance C={C.tolist()}")

    n_relax = int(round(cfg.t_relax / cfg.dt))
    n_samp = int(round(cfg.t_sample / cfg.dt))
    if n_samp < cfg.welch_segment:
        raise ValidationError(
            "welch_segment", f"segment ({cfg.welch_segment}) exceeds samples ({n_samp})"
        )
    n_steps = n_relax + n_samp

    sigma = _steady_covariance(A, C)
    E, B = _exact_step(A, sigma, cfg.dt)
    # the characteristic polynomial of E: denominator of each quadrature's filter
    char_poly = [1.0, -np.trace(E), E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]]

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
    kept_x, kept_p = [], []

    for start in range(0, cfg.n_traj, _CHUNK):
        stop = min(start + _CHUNK, cfg.n_traj)
        k = stop - start
        try:
            fx, fp = _forcing(E, B, cfg.seed, start, k, n_steps)
        except (ValueError, MemoryError) as exc:
            raise ValidationError("t_sample" if n_samp >= n_relax else "t_relax",
                                  f"cannot allocate the time steps: {exc}") from None
        # each forcing buffer goes as soon as its filter output exists
        x = signal.lfilter([1.0], char_poly, fx, axis=1)
        del fx
        p = signal.lfilter([1.0], char_poly, fp, axis=1)
        del fp
        xs, ps = x[:, n_relax:], p[:, n_relax:]

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
            take = min(keep_trajectories - start, k)
            kept_x.extend(xs[:take])
            kept_p.extend(ps[:take])

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
