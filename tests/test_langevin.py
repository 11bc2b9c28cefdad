import dataclasses
import math

import numpy as np
import pytest
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
from mirrorcool import langevin
from mirrorcool.errors import UnsupportedPhaseError
from mirrorcool.langevin import (
    _exact_step, _sampled_spectrum, _simulate_linear, _traj_rng, _welch,
)
from mirrorcool.steady_state import _steady_covariance


def desk_bath(g=50.0, Gamma=200.0, n_bar=100.0, omega_m=62.8, phi=-math.pi / 2):
    return bath_from_rates(omega_m=omega_m, gamma_m=1.0, Gamma=Gamma, eta=1.0,
                           n_bar=n_bar, g=g, phi=phi)


def quick_cfg(**overrides):
    base = dict(dt=1.25e-3, t_relax=0.5, t_sample=8.0, n_traj=64,
                seed=11, welch_segment=2048, welch_overlap=0.5)
    return SimConfig(**{**base, **overrides})


def test_fixed_seed_is_bit_identical():
    bath = desk_bath()
    cfg = quick_cfg(n_traj=16, t_sample=4.0)
    a = simulate(bath, cfg)
    b = simulate(bath, cfg)
    assert a.var_x_hat == b.var_x_hat
    assert a.var_p_hat == b.var_p_hat
    assert np.array_equal(a.psd_values, b.psd_values)


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
    direct = eval_spectrum(bath, grid).values
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
    got = _welch(x, fs, nperseg, noverlap)
    half = (nperseg + 1) // 2
    assert got.shape == (rows, nperseg // 2 + 1)
    np.testing.assert_allclose(got[:, :half], want[:, f >= 0], rtol=1e-12, atol=0)
    if nperseg % 2 == 0:
        np.testing.assert_allclose(got[:, half], want[:, f == -fs / 2][:, 0], rtol=1e-12, atol=0)


@pytest.mark.parametrize("segment", [512, 511])
def test_psd_integral_is_the_windowed_mean_square(segment):
    # Parseval: the two-sided Welch sum times fs/segment is each segment's
    # Hann-weighted mean square, averaged over segments and trajectories
    cfg = quick_cfg(n_traj=5, t_sample=2.0, welch_segment=segment, welch_overlap=0.3)
    stats = simulate(desk_bath(), cfg, keep_trajectories=5)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(segment) / segment)
    step = segment - int(0.3 * segment)
    x = stats.raw_trajectories["x"]
    starts = range(0, x.shape[1] - segment + 1, step)
    ms = [np.mean([np.sum((row[s:s + segment] * win) ** 2) for s in starts]) for row in x]
    assert stats.psd_var_integral == pytest.approx(np.mean(ms) / np.sum(win**2), rel=1e-12)


def _stepped_rows(A, C, cfg, n_traj):
    # the per-step recursion Z_n = E Z_{n-1} + w_n on the integrator's draws
    E, B = _exact_step(A, _steady_covariance(A, C), cfg.dt)
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


@pytest.mark.parametrize(
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
def test_filter_matches_the_per_step_recursion(A, C, dt):
    cfg = SimConfig(dt=dt, t_relax=400 * dt, t_sample=6000 * dt, n_traj=3, seed=21,
                    welch_segment=512)
    stats = _simulate_linear(A, C, cfg, keep_trajectories=3)
    want_x, want_p = _stepped_rows(A, C, cfg, 3)
    for got, want in ((stats.raw_trajectories["x"], want_x), (stats.raw_trajectories["p"], want_p)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    bath = desk_bath()
    cfg = quick_cfg(n_traj=12, t_sample=3.0, welch_segment=512)
    monkeypatch.setattr(langevin, "_CHUNK", 64)
    whole = simulate(bath, cfg, keep_trajectories=7)
    monkeypatch.setattr(langevin, "_CHUNK", 5)
    chunked = simulate(bath, cfg, keep_trajectories=7)
    for f in dataclasses.fields(whole):
        a, b = getattr(whole, f.name), getattr(chunked, f.name)
        if f.name == "raw_trajectories":
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a), f.name
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


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
        (dict(welch_overlap=1.0), "welch_overlap"),
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
