import ast
import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from mirrorcool import (
    NoiseModelError,
    SimConfig,
    TrajectoryEnsembleStats,
    ValidationError,
    bath_from_rates,
    closed_form_moments,
    diffusion_matrix,
    drift_matrix,
    eval_spectrum,
    psd_vs_analytic,
    simulate,
)
from mirrorcool import langevin, steady_state
from mirrorcool.errors import UnsupportedPhaseError
from mirrorcool.langevin import (
    _QUAD_NODES, _SERIES_S2, _block_matrices, _exact_step, _expm2, _gauss_legendre,
    _noise_covariance, _propagate, _sampled_spectrum, _segment_powers, _simulate_linear,
    _slowest_rate, _sqrt_psd, _stationary_covariance, _traj_rng, _welch_density,
)
from mirrorcool.steady_state import _steady_covariance


def desk_bath(g=50.0, Gamma=200.0, n_bar=100.0, omega_m=62.8, phi=-math.pi / 2):
    return bath_from_rates(omega_m=omega_m, gamma_m=1.0, Gamma=Gamma, eta=1.0,
                           n_bar=n_bar, g=g, phi=phi)


def quick_cfg(**overrides):
    base = dict(dt=1.25e-3, t_relax=0.5, t_sample=8.0, n_traj=64,
                seed=11, welch_segment=2048)
    return SimConfig(**{**base, **overrides})


def test_fixed_seed_is_bit_identical():
    bath = desk_bath()
    cfg = quick_cfg(n_traj=16, t_sample=4.0)
    a = simulate(bath, cfg)
    b = simulate(bath, cfg)
    assert a.var_x_hat == b.var_x_hat
    assert a.var_p_hat == b.var_p_hat
    assert np.array_equal(a.psd_values, b.psd_values)


def test_simulated_moments_do_not_follow_a_wrong_steady_covariance(monkeypatch):
    # a per-step noise taken as sigma - E sigma E^T reproduces whatever sigma
    # it is given: 1.3 times the steady covariance read var_x 0.385 here
    # against the true 0.298
    solve = steady_state._steady_covariance

    def inflated(A, C):
        return 1.3 * solve(A, C)

    monkeypatch.setattr(steady_state, "_steady_covariance", inflated)
    monkeypatch.setattr(langevin, "_steady_covariance", inflated, raising=False)
    bath = desk_bath()
    stats = simulate(bath, quick_cfg())
    exact = closed_form_moments(bath)
    assert abs(stats.var_x_hat - exact.var_x) < 3 * stats.var_x_stderr
    assert abs(stats.var_p_hat - exact.var_p) < 3 * stats.var_p_stderr
    assert abs(stats.cov_xp_hat - exact.cov_xp_sym) < 3 * stats.cov_xp_stderr


def test_thermal_equipartition_target():
    # g = 0, Gamma = 0, n_bar = 10: variance must be 10/2 in both quadratures
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=0.0, eta=1.0,
                           n_bar=10.0, g=0.0, phi=-math.pi / 2)
    cfg = SimConfig(dt=5e-3, t_relax=20.0, t_sample=40.0, n_traj=100, seed=4,
                    welch_segment=1024)
    stats = simulate(bath, cfg)
    assert abs(stats.var_x_hat - 5.0) < 3 * stats.var_x_stderr
    assert abs(stats.var_p_hat - 5.0) < 3 * stats.var_p_stderr


def test_moments_match_closed_forms_within_3_sigma():
    bath = desk_bath()
    stats = simulate(bath, quick_cfg())
    exact = closed_form_moments(bath)
    assert abs(stats.var_x_hat - exact.var_x) < 3 * stats.var_x_stderr
    assert abs(stats.var_p_hat - exact.var_p) < 3 * stats.var_p_stderr
    assert abs(stats.cov_xp_hat - exact.cov_xp_sym) < 3 * stats.cov_xp_stderr


def test_psd_integral_consistent_with_variance():
    # internal consistency, independent of the analytic formulas
    stats = simulate(desk_bath(), quick_cfg())
    combined = math.hypot(stats.var_x_stderr, stats.psd_var_integral_stderr)
    assert abs(stats.psd_var_integral - stats.var_x_hat) < 3 * combined


def test_halving_dt_does_not_shift_variance():
    # the exact-in-distribution stepper has no time-step bias: a dt/2 rerun
    # (same seed) stays within one standard error
    bath = desk_bath(g=5.0, Gamma=20.0, n_bar=20.0, omega_m=10.0)
    base = dict(t_relax=4.0, t_sample=20.0, n_traj=64, seed=3, welch_segment=1024)
    a = simulate(bath, SimConfig(dt=5e-3, **base))
    b = simulate(bath, SimConfig(dt=2.5e-3, **base))
    assert abs(a.var_x_hat - b.var_x_hat) < max(a.var_x_stderr, b.var_x_stderr)


def test_exact_scheme_is_unbiased_at_a_coarse_step():
    # uncoupled OU pair at a*dt = 0.15: var_x stays at c/(2a), where an
    # Euler step would converge to c/(2a - a^2 dt)
    A = np.array([[-5.0, 0.0], [0.0, -3.0]])
    C = np.array([[2.0, 0.0], [0.0, 1.0]])
    cfg = SimConfig(dt=0.03, t_relax=5.0, t_sample=60.0, n_traj=128, seed=9,
                    welch_segment=512)
    exact = _simulate_linear(A, C, cfg)
    target = 2.0 / 10.0
    assert abs(exact.var_x_hat - target) < 3 * exact.var_x_stderr


def test_ou_psd_matches_lorentzian():
    A = np.array([[-5.0, 0.0], [0.0, -3.0]])
    C = np.array([[2.0, 0.0], [0.0, 1.0]])
    cfg = SimConfig(dt=2e-3, t_relax=5.0, t_sample=60.0, n_traj=200, seed=7,
                    welch_segment=2048)
    stats = _simulate_linear(A, C, cfg)
    lorentzian = C[0, 0] / (A[0, 0] ** 2 + stats.psd_omega**2)
    mask = lorentzian >= 0.5 * lorentzian.max()
    dev = np.max(np.abs(stats.psd_values[mask] - lorentzian[mask]) / lorentzian[mask])
    assert dev < 0.10


def test_welch_psd_matches_analytic_spectrum_peak():
    bath = desk_bath()
    stats = simulate(bath, quick_cfg(n_traj=160, t_sample=16.0, welch_segment=2048))
    report = psd_vs_analytic(stats)
    assert report.passed
    assert report.peak_rel_dev < 0.10


def test_self_comparison_is_exact():
    bath = desk_bath()
    grid = np.linspace(0.0, 400.0, 512)
    dt = 1.25e-3
    values = _sampled_spectrum(bath, grid, dt)
    stats = TrajectoryEnsembleStats(
        var_x_hat=1.0, var_x_stderr=0.1, var_p_hat=1.0, var_p_stderr=0.1,
        cov_xp_hat=0.0, cov_xp_stderr=0.1,
        psd_omega=grid, psd_values=values,
        psd_stderr=np.ones_like(grid),
        psd_var_integral=1.0, psd_var_integral_stderr=0.1,
        n_effective=1.0, n_traj=2, dt=dt, params_snapshot=bath,
    )
    report = psd_vs_analytic(stats)
    assert report.peak_rel_dev == 0.0
    assert report.max_abs_z == 0.0
    # the images only add power
    direct = eval_spectrum(bath, grid)
    assert np.all(values >= direct)


def test_z_scores_are_calibrated_against_the_sampled_spectrum():
    # the continuous-time spectrum alone gave chi2_per_bin ~ 400 here and a
    # mean z^2 ~ 1500 over the top eighth of the bins, where aliases dominate
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=1.0,
                           n_bar=3.0, g=20.0, phi=-math.pi / 2)
    cfg = SimConfig(dt=4e-3, t_relax=2.0, t_sample=300.0, n_traj=32, seed=5,
                    welch_segment=1024)
    report = psd_vs_analytic(simulate(bath, cfg))
    z2 = report.z_scores**2
    assert report.chi2_per_bin < 2
    assert np.mean(z2[-(z2.size // 8):]) < 2
    assert report.passed


def test_indefinite_noise_covariance_is_refused():
    A = np.array([[-1.0, 0.0], [0.0, -1.0]])
    C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NoiseModelError) as err:
        _simulate_linear(A, C, SimConfig(dt=1e-2, t_relax=1.0, t_sample=5.0,
                                         n_traj=4, seed=0, welch_segment=64))
    assert err.value.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)


def test_resolution_guard():
    with pytest.raises(ValidationError) as err:
        simulate(desk_bath(), quick_cfg(dt=5e-3))
    assert err.value.field == "dt"


def test_relaxation_guard():
    with pytest.raises(ValidationError) as err:
        simulate(desk_bath(), quick_cfg(t_relax=0.01))
    assert err.value.field == "t_relax"


def test_segment_longer_than_sample_rejected():
    with pytest.raises(ValidationError) as err:
        simulate(desk_bath(), quick_cfg(t_sample=1.0, welch_segment=4096))
    assert err.value.field == "welch_segment"


def test_wrong_phase_rejected():
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=20.0, eta=1.0,
                           n_bar=20.0, g=1.0, phi=0.0)
    with pytest.raises(UnsupportedPhaseError):
        simulate(bath, quick_cfg())


def test_stats_without_bath_snapshot_rejected():
    # a bare drift/diffusion run carries no bath to evaluate the spectrum of
    bath = desk_bath()
    cfg = quick_cfg(n_traj=8, t_sample=4.0)
    stats = _simulate_linear(drift_matrix(bath), diffusion_matrix(bath), cfg)
    with pytest.raises(ValidationError) as err:
        psd_vs_analytic(stats)
    assert err.value.field == "stats"


def _welch(x, fs, win, noverlap):
    # the integrator's Welch density of a whole series
    return _welch_density(*_segment_powers(x, win, noverlap), fs, win)


@pytest.mark.parametrize("nperseg", [256, 255])
@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("rows", [1, 8])
def test_welch_matches_scipy(nperseg, overlap, rows):
    # scipy's two-sided Welch is the oracle: its f >= 0 bins, plus the
    # -fs/2 bin of an even segment, are the rfft bins
    x = np.random.default_rng(nperseg + rows).standard_normal((rows, 3001))
    fs, noverlap = 50.0, int(overlap * nperseg)
    f, want = scipy.signal.welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=noverlap,
                                 detrend=False, return_onesided=False, axis=-1)
    got = _welch(x, fs, np.hanning(nperseg + 1)[:-1], noverlap)
    half = (nperseg + 1) // 2
    assert got.shape == (rows, nperseg // 2 + 1)
    np.testing.assert_allclose(got[:, :half], want[:, f >= 0], rtol=1e-12, atol=0)
    if nperseg % 2 == 0:
        np.testing.assert_allclose(got[:, half], want[:, f == -fs / 2][:, 0], rtol=1e-12, atol=0)


def _welch_at_once(x, fs, win, noverlap):
    # every segment transformed at once and summed in one reduce
    nperseg, step = len(win), len(win) - noverlap
    n_seg = (x.shape[-1] - nperseg) // step + 1
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=-1)[..., ::step, :]
    spec = np.fft.rfft(segments * win, axis=-1)
    power = np.square(spec.real)
    power += np.square(spec.imag)
    return np.add.reduce(power, axis=-2) / n_seg / (fs * np.dot(win, win))


@pytest.mark.parametrize("n_seg", [1, 15, 16, 17, 145])
@pytest.mark.parametrize("rows", [1, 8])
def test_welch_in_groups_equals_one_reduce_over_every_segment(n_seg, rows):
    nperseg = 64
    x = np.random.default_rng(n_seg).standard_normal((rows, nperseg + (n_seg - 1) * nperseg // 2))
    if rows == 1:
        x = x[0]  # the integrator's lone row
    win = np.hanning(nperseg + 1)[:-1]
    want = _welch_at_once(x, 20.0, win, nperseg // 2)
    assert np.array_equal(_welch(x, 20.0, win, nperseg // 2), want)


@pytest.mark.parametrize("nperseg", [64, 63])
def test_segment_powers_of_pieces_run_on_to_the_sum_of_the_whole(nperseg):
    # each piece starts at the first segment the piece before did not
    # finish, as the integrator carries its samples from chunk to chunk;
    # cuts land mid-segment, mid-group and on a piece with no whole segment
    x = np.random.default_rng(nperseg).standard_normal(5000)
    win, noverlap = np.hanning(nperseg + 1)[:-1], nperseg // 2
    step = nperseg - noverlap
    want, n_want = _segment_powers(x, win, noverlap)
    total, n_seg, start = None, 0, 0
    for cut in (40, 1000, 1010, 3333, 5000):
        piece = x[start:cut]
        if piece.size >= nperseg:
            total, n_new = _segment_powers(piece, win, noverlap, total)
            n_seg += n_new
            start += n_new * step
    assert n_seg == n_want
    assert np.array_equal(total, want)


def test_welch_scratch_is_bounded_by_its_group():
    # 145 half-overlapping segments of 1024: one copy of the windowed
    # segments alone would be 1.2 MB
    win = np.hanning(1025)[:-1]
    x = np.random.default_rng(3).standard_normal(1024 + 144 * 512)
    _welch(x, 1.0, win, 512)  # first-call allocations (FFT plans) out of the way
    tracemalloc.start()
    try:
        _welch(x, 1.0, win, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 145 * 1024 * 8


def test_alias_images_in_groups_equal_the_flat_evaluation():
    bath, dt = desk_bath(), 1.25e-3
    omega = np.linspace(0.0, math.pi / dt, 257)
    k = np.arange(-langevin._ALIAS_IMAGES, langevin._ALIAS_IMAGES + 1)[:, None]
    want = eval_spectrum(bath, (omega + k * (2 * math.pi / dt)).ravel()).reshape(k.size, -1)
    assert np.array_equal(_sampled_spectrum(bath, omega, dt), want.sum(axis=0))


def test_psd_mean_and_spread_are_those_of_the_trajectory_rows(monkeypatch):
    # one worker runs the trajectories in index order, so the rows come in that order
    _force_workers(monkeypatch, 1)
    rows, welch = [], langevin._welch_density

    def recording(*args):
        power = welch(*args)
        rows.append(power[:(len(args[3]) + 1) // 2])
        return power

    monkeypatch.setattr(langevin, "_welch_density", recording)
    stats = simulate(desk_bath(), quick_cfg(n_traj=6, t_sample=2.0, welch_segment=512))
    assert len(rows) == 6
    assert np.array_equal(stats.psd_values, np.mean(rows, axis=0))
    assert np.array_equal(stats.psd_stderr, np.std(rows, axis=0, ddof=1) / math.sqrt(6))


@pytest.mark.parametrize("segment", [512, 511])
def test_psd_integral_is_the_windowed_mean_square(segment):
    # Parseval: the two-sided Welch sum times fs/segment is each segment's
    # Hann-weighted mean square, averaged over half-overlapping segments
    # and trajectories
    cfg = quick_cfg(n_traj=5, t_sample=2.0, welch_segment=segment)
    stats = simulate(desk_bath(), cfg, keep_trajectories=5)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(segment) / segment)
    step = segment - int(0.5 * segment)
    x = stats.raw_trajectories["x"]
    starts = range(0, x.shape[1] - segment + 1, step)
    ms = [np.mean([np.sum((row[s:s + segment] * win) ** 2) for s in starts]) for row in x]
    assert stats.psd_var_integral == pytest.approx(np.mean(ms) / np.sum(win**2), rel=1e-12)


def _stepped_rows(A, C, cfg, n_traj):
    # the per-step recursion Z_n = E Z_{n-1} + w_n on the integrator's draws
    E, B = _exact_step(A, C, cfg.dt)
    n_relax = int(round(cfg.t_relax / cfg.dt))
    n_steps = n_relax + int(round(cfg.t_sample / cfg.dt))
    noise = np.stack([_traj_rng(cfg.seed, j).standard_normal((n_steps, 2)) @ B.T
                      for j in range(n_traj)])
    Z = np.zeros((n_traj, 2))
    rows = np.empty((n_traj, n_steps, 2))
    for step in range(n_steps):
        Z = Z @ E.T + noise[:, step]
        rows[:, step] = Z
    return rows[:, n_relax:, 0], rows[:, n_relax:, 1]


def _bath_pair(**rates):
    bath = bath_from_rates(**{"eta": 1.0, "phi": -math.pi / 2, **rates})
    return drift_matrix(bath), diffusion_matrix(bath)


THREE_BATHS = pytest.mark.parametrize(
    "A,C,dt",
    [
        # acceptance criterion 4
        (*_bath_pair(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0), 1.25e-3),
        # overdamped: real drift eigenvalues
        (*_bath_pair(omega_m=1.0, gamma_m=1.0, Gamma=40.0, n_bar=3.0, g=50.0), 1e-3),
        # high Q: filter poles within 1e-5 of the unit circle
        (*_bath_pair(omega_m=10.0, gamma_m=1e-3, Gamma=1e-3, n_bar=3.0, g=0.01), 1e-3),
    ],
    ids=["criterion4", "overdamped", "high_q"],
)


@THREE_BATHS
def test_filter_matches_the_per_step_recursion(A, C, dt):
    cfg = SimConfig(dt=dt, t_relax=400 * dt, t_sample=6000 * dt, n_traj=3, seed=21,
                    welch_segment=512)
    stats = _simulate_linear(A, C, cfg, keep_trajectories=3)
    want_x, want_p = _stepped_rows(A, C, cfg, 3)
    for got, want in ((stats.raw_trajectories["x"], want_x), (stats.raw_trajectories["p"], want_p)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(langevin, "_pool_size", lambda n_traj: workers)


def test_pool_size_is_capped(monkeypatch):
    # one worker per core and per trajectory, never more than _MAX_WORKERS
    monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert langevin._pool_size(384) == langevin._MAX_WORKERS
    assert langevin._pool_size(3) == 3
    monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert langevin._pool_size(384) == 1


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # 8 workers is more than the cores of most test machines; a short
    # switch interval interleaves the workers' Python code finely
    bath = desk_bath()
    cfg = quick_cfg(n_traj=12, t_sample=3.0, welch_segment=512)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):
            _force_workers(monkeypatch, workers)
            runs.append(simulate(bath, cfg, keep_trajectories=7))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0].raw_trajectories["x"].shape == (7, 2400)
    _assert_identical(runs)


def _assert_identical(runs):
    alone = runs[0]
    for pooled in runs[1:]:
        for f in dataclasses.fields(alone):
            a, b = getattr(alone, f.name), getattr(pooled, f.name)
            if f.name == "raw_trajectories":
                assert list(a) == list(b)
                assert all(np.array_equal(a[k], b[k]) for k in a), f.name
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def test_results_do_not_depend_on_the_worker_count_over_several_tiles(monkeypatch):
    # 26,000 steps are 1625 blocks: four GEMM tiles of at most _GEMM_ROWS
    # rows, which the 2,800 steps above fit in one
    cfg = quick_cfg(n_traj=6, t_sample=32.0, welch_segment=512)
    n_blocks = -(-round((cfg.t_relax + cfg.t_sample) / cfg.dt) // langevin._BLOCK)
    assert len(langevin._tiles(n_blocks, langevin._GEMM_ROWS)) > 3
    runs = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        runs.append(simulate(desk_bath(), cfg, keep_trajectories=4))
    _assert_identical(runs)


class _RecordingNumpy:
    """numpy, with the operand shapes of every np.matmul call recorded."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *args, **kwargs):
        self.products.append((a.shape, b.shape))
        return np.matmul(a, b, *args, **kwargs)


def test_every_gemm_stays_on_one_openblas_thread(monkeypatch):
    # OpenBLAS threads a GEMM above 4*65536 multiply-adds; 300,000 steps
    # take five levels, and the first two need several tiles
    A, C = _bath_pair(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0)
    n_steps = 300_000
    levels = _block_matrices(*_exact_step(A, C, 1.25e-3), n_steps, langevin._BLOCK)
    assert len(levels) == 5
    u = np.random.default_rng(4).standard_normal((n_steps, 2))
    recording = _RecordingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(langevin, "np", recording)
        _propagate(u, levels)
    for (m, k), (_, n) in recording.products:
        assert m * k * n <= 4 * 65536, (m, k, n)
    # the Toeplitz GEMMs cover both quadratures of every level's blocks
    block = langevin._BLOCK
    main = [m for (m, k), _ in recording.products if k == 2 * block]
    n_blocks = [-(-n_steps // block)]
    while n_blocks[-1] > 1:
        n_blocks.append(-(-(n_blocks[-1] - 1) // block))
    assert sum(main) == 2 * sum(n_blocks)


@THREE_BATHS
def test_gemm_tiles_do_not_change_the_states(A, C, dt):
    # 6037 steps: 95 blocks, the last one partial
    n_steps = 6037
    E, B = _exact_step(A, C, dt)
    levels = _block_matrices(E, B, n_steps, 64)
    u = np.random.default_rng(8).standard_normal((n_steps, 2))
    whole = _propagate(u, levels)
    # 95 rows in tiles of at most 94 are two tiles, not 94 rows and a lone one
    for tile in (3, 7, langevin._GEMM_ROWS, 94, 95):
        assert np.array_equal(_propagate(u, levels, tile=tile), whole), tile


def test_simulate_leaves_no_threads_behind(monkeypatch):
    before = threading.enumerate()
    cfg = quick_cfg(n_traj=6, t_sample=2.0, welch_segment=512)
    simulate(desk_bath(), cfg)
    assert threading.enumerate() == before

    calls, welch = itertools.count(), langevin._welch_density

    def failing_welch(*args, **kwargs):
        if next(calls) == 2:
            raise RuntimeError("welch failed")
        return welch(*args, **kwargs)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(langevin, "_welch_density", failing_welch)
    with pytest.raises(RuntimeError, match="welch failed"):
        simulate(desk_bath(), cfg)
    assert threading.enumerate() == before


def test_a_failing_trajectory_stops_the_other_workers(monkeypatch):
    # the first Welch call raises; the other worker finishes at most the
    # trajectory it is on, not the 62 left
    calls, welch = itertools.count(), langevin._welch_density

    def failing_welch(*args, **kwargs):
        if next(calls) == 0:
            raise RuntimeError("welch failed")
        return welch(*args, **kwargs)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(langevin, "_welch_density", failing_welch)
    with pytest.raises(RuntimeError, match="welch failed"):
        simulate(desk_bath(), quick_cfg(n_traj=64, t_sample=2.0, welch_segment=512))
    assert next(calls) <= 8


def test_one_worker_runs_on_the_calling_thread_alone(monkeypatch):
    before, seen, welch = threading.active_count(), [], langevin._welch_density

    def recording(*args, **kwargs):
        seen.append((threading.current_thread(), threading.active_count()))
        return welch(*args, **kwargs)

    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(langevin, "_welch_density", recording)
    simulate(desk_bath(), quick_cfg(n_traj=4, t_sample=2.0, welch_segment=512))
    assert seen == [(threading.main_thread(), before)] * 4


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_a_failure_on_the_calling_thread_stops_the_other_worker(monkeypatch, failure):
    # the calling thread is worker 0: its first Welch call raises, the other
    # worker finishes at most the trajectory it is on, and both are joined
    # before the failure reaches the caller
    before, calls, welch = threading.enumerate(), itertools.count(), langevin._welch_density
    raised = []

    def failing_welch(*args, **kwargs):
        next(calls)
        if threading.current_thread() is threading.main_thread() and not raised:
            raised.append(failure)
            raise failure("welch failed")
        return welch(*args, **kwargs)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(langevin, "_welch_density", failing_welch)
    with pytest.raises(failure, match="welch failed"):
        simulate(desk_bath(), quick_cfg(n_traj=64, t_sample=2.0, welch_segment=512))
    assert raised == [failure]
    assert next(calls) <= 8
    assert threading.enumerate() == before


def test_peak_memory_does_not_grow_with_the_trajectory_count(monkeypatch):
    # the scratch belongs to the workers: 56 more trajectories add their
    # results (three moments, the PSD integral and 256 PSD bins each) and
    # the temporaries of the final mean and spread, not their 3600 time
    # steps (a buffer of 64 trajectories' states would add 3.3 MB)
    _force_workers(monkeypatch, 2)
    bath = desk_bath()

    def peak(n_traj):
        cfg = quick_cfg(n_traj=n_traj, t_sample=4.0, welch_segment=512)
        tracemalloc.start()
        try:
            simulate(bath, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations (imports, caches) out of the way
    grown = peak(64) - peak(8)
    results = 56 * (4 + 256) * 8
    assert grown <= 3 * results


def test_worker_scratch_is_two_buffers_of_the_time_steps(monkeypatch):
    # within one chunk, each worker holds its draws, which are also the GEMM
    # input, and its states: 16 B a step each. The slack per worker covers
    # the upper levels (their block ends, entries and states, about 3 B a
    # step at 16-step blocks) and the carry product of one tile. A copy of
    # the draws as GEMM rows adds another 16 B a step per worker.
    _force_workers(monkeypatch, 2)
    bath = desk_bath()
    assert round(32.5 / 1.25e-3) <= langevin._CHUNK  # both runs are one chunk

    def peak(t_sample):
        cfg = quick_cfg(n_traj=4, t_sample=t_sample, welch_segment=64)
        tracemalloc.start()
        try:
            simulate(bath, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16.0)  # first-call allocations (imports, caches) out of the way
    added = round(16.0 / 1.25e-3)
    grown = peak(32.0) - peak(16.0)
    assert grown <= 2 * (added * (2 * 16 + 4) + langevin._GEMM_ROWS * langevin._BLOCK * 8)


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    # 3600 steps in blocks of 4 recurse through six levels of block entries
    bath = desk_bath()
    cfg = quick_cfg(n_traj=3, t_sample=4.0, welch_segment=512)
    monkeypatch.setattr(langevin, "_BLOCK", 64)
    wide = simulate(bath, cfg, keep_trajectories=3)
    monkeypatch.setattr(langevin, "_BLOCK", 4)
    narrow = simulate(bath, cfg, keep_trajectories=3)
    for q in "xp":
        want = wide.raw_trajectories[q]
        assert np.max(np.abs(narrow.raw_trajectories[q] - want)) <= 1e-12 * np.max(np.abs(want))
    for name in ("var_x_hat", "var_p_hat", "cov_xp_hat", "psd_var_integral"):
        assert getattr(narrow, name) == pytest.approx(getattr(wide, name), rel=1e-12, abs=0)
    np.testing.assert_allclose(narrow.psd_values, wide.psd_values, rtol=1e-12, atol=0)


@THREE_BATHS
@pytest.mark.parametrize("split", [16, 3008, 6032], ids=["one_block", "middle", "partial_rest"])
def test_propagation_from_an_entering_state_continues_the_whole(A, C, dt, split):
    # 6037 steps cut at a block boundary: the second piece starts from the
    # last state of the first. The rest of a cut at 6032 is a partial block.
    n_steps, block = 6037, langevin._BLOCK
    levels = _block_matrices(*_exact_step(A, C, dt), n_steps + block, block)
    u = np.random.default_rng(split).standard_normal((n_steps, 2))
    whole = _propagate(u, levels)[:, :n_steps]
    head = _propagate(u[:split], levels)
    rest = _propagate(u[split:], levels, entry=head[:, split - 1])
    pieces = np.concatenate([head[:, :split], rest[:, :n_steps - split]], axis=1)
    assert np.max(np.abs(pieces - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_propagation_without_an_entering_state_is_unchanged_by_the_extra_level():
    # the entering state needs the levels of one block more; a run from a zero
    # entry uses only the levels it needs, so its states are the same to the bit
    A, C = _bath_pair(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0)
    E, B = _exact_step(A, C, 1.25e-3)
    u = np.random.default_rng(6).standard_normal((4096, 2))
    block = langevin._BLOCK
    want = _propagate(u, _block_matrices(E, B, 4096, block))
    assert np.array_equal(_propagate(u, _block_matrices(E, B, 4096 + block, block)), want)


@pytest.mark.parametrize("segment", [512, 511])
@pytest.mark.parametrize("chunk", [48, 1000, 4096])
def test_chunks_continue_the_trajectory(monkeypatch, chunk, segment):
    # 1200 relaxation and 6403 sampled steps, 476 blocks with a partial last
    # one. Chunks of 3 blocks (48 steps) end inside the relaxation and inside
    # every Welch segment; chunks of 62 blocks (1000 steps) end in the
    # relaxation and then inside segments; 4096 steps make two chunks.
    dt = 1.25e-3
    cfg = SimConfig(dt=dt, t_relax=1200 * dt, t_sample=6403 * dt, n_traj=3, seed=17,
                    welch_segment=segment)
    bath = desk_bath()
    n_blocks = -(-7603 // langevin._BLOCK)
    assert n_blocks > chunk // langevin._BLOCK  # more than one chunk
    assert 7603 <= langevin._CHUNK  # the reference is one chunk
    whole = simulate(bath, cfg, keep_trajectories=3)
    monkeypatch.setattr(langevin, "_CHUNK", chunk)
    chunked = simulate(bath, cfg, keep_trajectories=3)
    for q in "xp":
        want = whole.raw_trajectories[q]
        assert np.max(np.abs(chunked.raw_trajectories[q] - want)) <= 1e-12 * np.max(np.abs(want))
    for name in ("var_x_hat", "var_p_hat", "cov_xp_hat", "psd_var_integral",
                 "var_x_stderr", "var_p_stderr", "cov_xp_stderr", "psd_var_integral_stderr"):
        assert getattr(chunked, name) == pytest.approx(getattr(whole, name), rel=1e-12, abs=0), name
    np.testing.assert_allclose(chunked.psd_values, whole.psd_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(chunked.psd_stderr, whole.psd_stderr, rtol=1e-12, atol=0)


def test_results_do_not_depend_on_the_worker_count_over_several_chunks(monkeypatch):
    # 3600 steps in chunks of 62 blocks are four chunks
    monkeypatch.setattr(langevin, "_CHUNK", 1000)
    cfg = quick_cfg(n_traj=6, t_sample=4.0, welch_segment=512)
    assert -(-3600 // langevin._BLOCK) > 3 * (1000 // langevin._BLOCK)
    runs = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        runs.append(simulate(desk_bath(), cfg, keep_trajectories=4))
    _assert_identical(runs)


def test_worker_scratch_does_not_grow_with_the_run_length(monkeypatch):
    # a trajectory streams through chunks: going from two chunks of steps to
    # four adds no scratch. A worker that held the whole trajectory would add
    # 32 B a step, 4 MB here for the two workers.
    _force_workers(monkeypatch, 2)
    bath, dt = desk_bath(), 1.25e-3

    def peak(n_chunks):
        n_samp = n_chunks * langevin._CHUNK - 400
        cfg = quick_cfg(n_traj=4, t_sample=n_samp * dt, welch_segment=512)
        tracemalloc.start()
        try:
            simulate(bath, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations (imports, caches) out of the way
    # the two workers' transients (a Welch group, a carry product) meet at
    # different times in different runs; a longer run has more chances to
    # meet at their largest, so the shorter one takes the best of three
    assert peak(4) - max(peak(2) for _ in range(3)) <= 64 * 1024


def test_trajectory_matches_a_long_double_loop_on_the_high_q_bath():
    # 2e5 steps with poles within 1e-5 of the unit circle. The reference
    # steps Z_n = E Z_{n-1} + B xi_n one at a time in long double, with E
    # from scipy's expm; B is the integrator's, so only the propagation is
    # compared.
    A, C = _bath_pair(omega_m=10.0, gamma_m=1e-3, Gamma=1e-3, n_bar=3.0, g=0.01)
    dt, n_steps = 1e-3, 200_000
    cfg = SimConfig(dt=dt, t_relax=0.0, t_sample=n_steps * dt, n_traj=2, seed=3)
    got = _simulate_linear(A, C, cfg, keep_trajectories=2).raw_trajectories

    E = scipy.linalg.expm(A * dt).astype(np.longdouble)
    _, B = _exact_step(A, C, dt)
    noise = np.stack([_traj_rng(cfg.seed, j).standard_normal((n_steps, 2)) for j in range(2)])
    noise = noise.astype(np.longdouble) @ B.T.astype(np.longdouble)
    Z = np.zeros((2, 2), dtype=np.longdouble)
    want = np.empty((n_steps, 2, 2), dtype=np.longdouble)
    for step in range(n_steps):
        Z = Z @ E.T + noise[:, step]
        want[step] = Z
    for q, name in enumerate("xp"):
        ref = want[:, :, q].T.astype(float)
        assert np.max(np.abs(got[name] - ref)) <= 1e-11 * np.max(np.abs(ref)), name


def _van_loan_noise(A, C, dt):
    # Q(dt) = F22^T F12 from exp([[-A, C], [0, A^T]] dt) at 50 digits
    import mpmath

    with mpmath.workdps(50):
        M = mpmath.matrix(4, 4)
        for i, j in itertools.product(range(2), range(2)):
            M[i, j], M[i, j + 2], M[i + 2, j + 2] = -A[i, j] * dt, C[i, j] * dt, A[j, i] * dt
        F = mpmath.expm(M)
        Q = F[2:4, 2:4].T * F[0:2, 2:4]
        return np.array([[float(Q[i, j]) for j in range(2)] for i in range(2)])


@pytest.mark.parametrize(
    "rates",
    [
        dict(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0),
        dict(omega_m=1.0, gamma_m=1.0, Gamma=40.0, n_bar=3.0, g=50.0),
        dict(omega_m=10.0, gamma_m=1e-3, Gamma=1e-3, n_bar=3.0, g=0.01),
    ],
    ids=["criterion4", "overdamped", "high_q"],
)
def test_one_step_noise_quadrature_is_converged_at_the_resolution_edge(rates):
    # at dt*max(omega_m, gamma_m + g) = 0.099, the coarsest step simulate
    # allows, the quadrature is within 2 ulp of the integral (12 nodes gave
    # at most 2.4e-16 of max|Q|; 4 nodes gave up to 1.0e-15)
    A, C = _bath_pair(**rates)
    dt = 0.099 / max(rates["omega_m"], rates["gamma_m"] + rates["g"])
    want = _van_loan_noise(A, C, dt)
    assert np.max(np.abs(_noise_covariance(A, C, dt) - want)) <= 5e-16 * np.max(np.abs(want))


@THREE_BATHS
def test_stationary_covariance_of_the_recursion_is_the_steady_covariance(A, C, dt):
    # the recursion's own fixed point, summed by doubling, is the continuous
    # Lyapunov solution: the one-step noise is the exact integral
    E, B = _exact_step(A, C, dt)
    S = _stationary_covariance(E, B)
    scale = np.max(np.abs(S))
    assert np.max(np.abs(E @ S @ E.T + B @ B.T - S)) <= 1e-12 * scale
    assert np.max(np.abs(S - _steady_covariance(A, C))) <= 1e-9 * scale


def _critical(s2):
    # tr/2 = -0.3 and s^2 = -det(M - tr/2 I) = s2
    return np.array([[-0.3, 1.0], [s2, -0.3]])


@pytest.mark.parametrize(
    "M",
    [
        _bath_pair(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0)[0] * 1.25e-3,
        _bath_pair(omega_m=1.0, gamma_m=1.0, Gamma=40.0, n_bar=3.0, g=50.0)[0] * 1e-3,
        _bath_pair(omega_m=10.0, gamma_m=1e-3, Gamma=1e-3, n_bar=3.0, g=0.01)[0] * 1e-3,
        np.array([[-5.0, 0.0], [0.0, -3.0]]) * 0.03,
        *(_critical(f * _SERIES_S2) for f in (0.0, 0.5, -0.5, 2.0, -2.0)),
    ],
    ids=["underdamped", "overdamped", "high_q", "diagonal",
         "critical", "series_s2_pos", "series_s2_neg", "closed_s2_pos", "closed_s2_neg"],
)
def test_expm2_matches_scipy_expm(M):
    want = scipy.linalg.expm(M)
    assert np.max(np.abs(_expm2(M) - want)) <= 1e-14 * np.max(np.abs(want))


def _eigh_sqrt(M):
    # the eigendecomposition reference: clip, refusal and root as eigh gives them
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    refused = vals[0] < -1e-12 * scale
    return vals[0], refused, vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _rotated(lo, hi, angle):
    R = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return R @ np.diag([lo, hi]) @ R.T


def _spd_matrices(rng, kind, n=200):
    for _ in range(n):
        G = rng.normal(size=(2, 2))
        v, u = rng.normal(size=2), rng.normal(size=2)
        yield {
            "random": G @ G.T,
            "near_singular": np.outer(v, v) + 1e-10 * np.outer(u, u),
            "rank_one": np.outer(v, v),
            "diagonal": np.diag(rng.uniform(0.0, 1.0, 2)),
            "scaled_up": G @ G.T * 1e150,
            "scaled_down": G @ G.T * 1e-150,
        }[kind]


@pytest.mark.parametrize("kind", ["random", "near_singular", "rank_one", "diagonal",
                                  "scaled_up", "scaled_down"])
def test_closed_form_square_root_squares_back(kind):
    # (M + sqrt(det M) I)/sqrt(tr M + 2 sqrt(det M)) in long double: B B^T is
    # within 4 ulp of max|M| (at most 3.8 over 20000 draws of each kind)
    rng = np.random.default_rng(7)
    for M in _spd_matrices(rng, kind):
        B = _sqrt_psd(M, "M")
        assert np.array_equal(B, B.T)
        assert np.max(np.abs(B @ B.T - M)) <= 4 * np.spacing(np.max(np.abs(M)))


@pytest.mark.parametrize("ratio", [-1e-11, -2e-12, -1.1e-12, -0.9e-12, -5e-13, -1e-13, 0.0, 1e-13])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_square_root_refuses_and_clips_as_eigh_does(ratio, scale):
    # refused below -1e-12 of the spectral radius, clipped to zero above it:
    # the clipped root is eigh's rank-one root. An unclipped root is not
    # compared with eigh's, as sqrt amplifies an ulp of a tiny eigenvalue.
    M = _rotated(ratio * scale, scale, 0.7)
    lo, refused, root = _eigh_sqrt(M)
    if refused:
        with pytest.raises(NoiseModelError) as err:
            _sqrt_psd(M, "M")
        assert err.value.min_eigenvalue == pytest.approx(lo, rel=1e-3)
        return
    B = _sqrt_psd(M, "M")
    if ratio < 0:
        assert np.max(np.abs(B - root)) <= 4 * np.spacing(np.max(np.abs(root)))
    else:
        assert np.max(np.abs(B @ B.T - M)) <= 4 * np.spacing(np.max(np.abs(M)))


def test_square_root_of_zero_is_zero():
    assert np.array_equal(_sqrt_psd(np.zeros((2, 2)), "M"), np.zeros((2, 2)))


def _exact_slowest_rate(A):
    import mpmath

    with mpmath.workdps(50):
        return float(-max(mpmath.re(v) for v in mpmath.eig(mpmath.matrix(A.tolist()))[0]))


@pytest.mark.parametrize(
    "A",
    [
        np.array([[-1.0, 5.0], [-5.0, -1.0]]),           # complex pair, stable
        np.array([[1.0, 5.0], [-5.0, -0.5]]),            # complex pair, unstable
        np.array([[0.0, 5.0], [-5.0, 0.0]]),             # undamped: not strictly stable
        np.array([[-2.0, 1.0], [0.0, -2.0]]),            # double root, defective
        np.array([[-1.0, 1.0], [-0.25, 0.0]]),           # double root -1/2, dense
        np.array([[-3.0, 0.0], [0.0, -3.0]]),            # double root, diagonal
        np.array([[-1.0, 1e-4], [-1e-6, -1e-9]]),        # det << tr^2
        np.array([[-1e3, 2.0], [3.0, -1e-3]]),           # det << tr^2, both real
        np.array([[-1.0, 1.0], [1.0, 1e-3]]),            # a saddle
        np.array([[1.0, 0.0], [0.0, 2.0]]),              # both roots positive
        _bath_pair(omega_m=62.8, gamma_m=1.0, Gamma=200.0, n_bar=100.0, g=50.0)[0],
        _bath_pair(omega_m=1.0, gamma_m=1.0, Gamma=40.0, n_bar=3.0, g=50.0)[0],
        _bath_pair(omega_m=10.0, gamma_m=1e-3, Gamma=1e-3, n_bar=3.0, g=0.01)[0],
    ],
    ids=["complex_stable", "complex_unstable", "undamped", "defective", "double_dense",
         "double_diagonal", "det_tiny", "det_tiny_real", "saddle", "unstable_node",
         "criterion4", "overdamped", "high_q"],
)
def test_slowest_rate_is_that_of_the_eigenvalues(A):
    # the trace/determinant verdict is the eigenvalue verdict, and the rate
    # is within 4 ulp of the 50-digit one; eigvals itself is only as good as
    # the conditioning of the roots (about 1e-8 at a defective double root)
    rate = _slowest_rate(A)
    eigvals = -np.linalg.eigvals(A).real.max()
    exact = _exact_slowest_rate(A)
    assert (rate > 0) == (eigvals > 0) == (exact > 0)
    assert abs(rate - exact) <= 4 * np.spacing(abs(exact))
    assert rate == pytest.approx(eigvals, rel=1e-7)


def test_slowest_rate_verdict_matches_eigvals_on_random_drifts():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        A = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(2, 2))
        eigvals = -np.linalg.eigvals(A).real.max()
        rate = _slowest_rate(A)
        assert (rate > 0) == (eigvals > 0)
        assert rate == pytest.approx(eigvals, rel=1e-9)


def test_square_root_form_squares_to_the_matrix():
    # ((M + s I)/t)^2 = M for every symmetric M once s^2 = det M and
    # t^2 = tr M + 2 s: Cayley-Hamilton, M^2 = tr(M) M - det(M) I
    import sympy as sp

    m1, m2, m3, s = sp.symbols("m1 m2 m3 s")
    M = sp.Matrix([[m1, m2], [m2, m3]])
    t_squared = M.trace() + 2 * s
    residual = ((M + s * sp.eye(2)) ** 2 - t_squared * M).expand()  # t^2 (B^2 - M)
    assert residual.subs(s**2, M.det()).expand() == sp.zeros(2, 2)


def test_trace_determinant_verdict_is_the_eigenvalue_verdict():
    # every real 2x2 drift has a complex pair alpha +- i*beta or two real
    # roots; in each case "tr < 0 and det > 0" holds exactly when both roots
    # have negative real part (tr and det are sum and product of the roots)
    import sympy as sp

    def verdict(roots):
        tr, det = sp.expand(sum(roots)), sp.expand(roots[0] * roots[1])
        return sp.And(tr < 0, det > 0)

    neg, pos = sp.symbols("u", negative=True), sp.symbols("v", positive=True)
    nonneg, real = sp.symbols("w", nonnegative=True), sp.symbols("x", real=True)
    beta = sp.symbols("beta", positive=True)
    # complex pair: stable iff alpha < 0
    assert verdict([neg + sp.I * beta, neg - sp.I * beta]) == sp.true
    assert verdict([nonneg + sp.I * beta, nonneg - sp.I * beta]) == sp.false
    # real roots: stable iff both are negative
    assert verdict([neg, -pos]) == sp.true
    assert verdict([nonneg, -pos]) == sp.false  # det <= 0
    assert verdict([nonneg, pos]) == sp.false   # tr > 0
    assert verdict([nonneg, nonneg]) == sp.false
    # the real root nearer zero is det over the other (Vieta): with
    # h = tr/2 and d = h^2 - det, (h + sqrt(d)) (h - sqrt(d)) = det
    h, det = sp.symbols("h det", real=True)
    root = sp.sqrt(h**2 - det)
    assert sp.expand((h + root) * (h - root)) == det


def test_gauss_legendre_rule_is_the_50_digit_rule():
    # nodes within 2 ulp of leggauss; the weights within 2 ulp of the
    # 50-digit rule, which leggauss(12) misses by up to 60 ulp at the end nodes
    import mpmath

    nodes, weights = _gauss_legendre(_QUAD_NODES)
    ref_nodes, _ = np.polynomial.legendre.leggauss(_QUAD_NODES)
    assert np.all(np.abs(nodes - ref_nodes) <= 2 * np.spacing(np.abs(ref_nodes)))
    with mpmath.workdps(50):
        rule = sorted(mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(3, 50))
    assert len(rule) == _QUAD_NODES
    exact_nodes = np.array([float(x) for x, _ in rule])
    exact_weights = np.array([float(w) for _, w in rule])
    assert np.all(np.abs(nodes - exact_nodes) <= 2 * np.spacing(np.abs(exact_nodes)))
    assert np.all(np.abs(weights - exact_weights) <= 2 * np.spacing(exact_weights))
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])


def test_langevin_imports_no_scipy():
    tree = ast.parse(Path(langevin.__file__).read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_langevin_calls_no_level_1_blas():
    # OpenBLAS threads ddot on long vectors, so under the worker pool it
    # oversubscribes the cores: summing the x series with np.dot in the
    # workers made simulate 2.2 times slower on 2 cores. Reductions over a
    # trajectory are einsum, which numpy runs on the calling thread.
    tree = ast.parse(Path(langevin.__file__).read_text(encoding="utf-8"))
    called = {n.func.attr for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert not called & {"dot", "vdot", "inner"}


def test_simulate_does_not_call_scipy_welch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.signal.welch called")

    monkeypatch.setattr(scipy.signal, "welch", refuse)
    stats = simulate(desk_bath(), quick_cfg(n_traj=4, t_sample=2.0, welch_segment=512))
    assert stats.psd_values.shape == stats.psd_omega.shape


def test_raw_trajectory_dump():
    stats = simulate(desk_bath(), quick_cfg(n_traj=8, t_sample=4.0),
                     keep_trajectories=3)
    raw = stats.raw_trajectories
    assert raw is not None
    assert raw["x"].shape == (3, int(round(4.0 / 1.25e-3)))
    assert raw["t"].shape == (raw["x"].shape[1],)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(dt=0.0), "dt"),
        (dict(t_relax=-1.0), "t_relax"),
        (dict(t_sample=0.0), "t_sample"),
        (dict(n_traj=1), "n_traj"),
        (dict(seed=-1), "seed"),
        (dict(welch_segment=4), "welch_segment"),
    ],
)
def test_sim_config_validation(kwargs, field):
    base = dict(dt=1e-3, t_relax=1.0, t_sample=2.0, n_traj=4, seed=0)
    with pytest.raises(ValidationError) as err:
        SimConfig(**{**base, **kwargs})
    assert err.value.field == field


def test_n_effective_reported():
    stats = simulate(desk_bath(), quick_cfg(n_traj=8, t_sample=4.0))
    assert stats.n_effective > stats.n_traj


@THREE_BATHS
def test_n_effective_uses_the_integrated_autocorrelation_time(A, C, dt):
    # tau_int = (-A^-1 sigma)[0, 0]/sigma[0, 0] on the recursion's own
    # stationary covariance; the inverse here is numpy's
    cfg = SimConfig(dt=dt, t_relax=400 * dt, t_sample=2048 * dt, n_traj=2, seed=3,
                    welch_segment=512)
    sigma = _stationary_covariance(*_exact_step(A, C, dt))
    tau_int = (-np.linalg.inv(A) @ sigma)[0, 0] / sigma[0, 0]
    stats = _simulate_linear(A, C, cfg)
    assert stats.n_effective == pytest.approx(2 * cfg.t_sample / max(2 * tau_int, dt), rel=1e-12)
