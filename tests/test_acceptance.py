"""End-to-end acceptance gates for the package contract.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers (run ``pytest tests/test_acceptance.py -v -s`` to see them all).

Criterion 7 checks that the paper's high-gain formula is the correct
asymptote of the exact position variance. It asserts the formula's exact
error bound: at phi = -pi/2 the approximation never undershoots, and it
overshoots by at most B(g) = (1 + gamma_m/g)*(1 + omega_m*Q_m/g) - 1
relative (10.0% at g = 10*omega_m*Q_m, below 5% from just above 20x). Only
floating-point slack is allowed on top of B(g); see ``_high_gain_excess``
for the derivation.
"""

import math
import time

import numpy as np
import pytest
from scipy import constants as codata

from mirrorcool import (
    SimConfig,
    UnstableBathError,
    bath_from_rates,
    build_bath,
    check_stability,
    closed_form_moments,
    derive_coupling,
    eval_spectrum,
    evolve_to_steady,
    high_gain_moments,
    lyapunov_moments,
    psd_vs_analytic,
    simulate,
    sum_rule_check,
    with_gain,
)
from mirrorcool.fock import FockConfig

from conftest import random_stable_bath, reference_bath, reference_setup


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_reference_parameter_reproduction():
    t0 = time.perf_counter()
    coupling = derive_coupling(reference_setup())
    elapsed = time.perf_counter() - t0
    ok = (
        180.0 <= coupling.Gamma <= 230.0
        and 1.0e4 <= abs(coupling.chi) <= 1.4e4
        and elapsed < 0.1
    )
    _report(
        "1",
        ok,
        f"Gamma={coupling.Gamma:.2f} 1/s, |chi|={abs(coupling.chi):.4g} 1/s, "
        f"runtime={elapsed * 1e3:.2f} ms",
    )
    assert 180.0 <= coupling.Gamma <= 230.0
    assert 1.0e4 <= abs(coupling.chi) <= 1.4e4
    assert elapsed < 0.1


def test_criterion_2_oracle_triangle_moments():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        b = random_stable_bath(rng)
        cf = closed_form_moments(b)
        ly = lyapunov_moments(b)
        worst = max(
            worst,
            abs(cf.var_x - ly.var_x) / cf.var_x,
            abs(cf.var_p - ly.var_p) / cf.var_p,
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report("2", ok, f"worst rel dev {worst:.2e} over 1000 draws, {elapsed:.2f} s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_3_sum_rule():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        _, _, rel = sum_rule_check(random_stable_bath(rng))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report("3", ok, f"worst rel err {worst:.2e} over 100 draws, {elapsed:.2f} s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_4_monte_carlo_agreement():
    bath = bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                           n_bar=100.0, g=50.0, phi=-math.pi / 2)
    cfg = SimConfig(dt=1.25e-3, t_relax=2.0, t_sample=25.0, n_traj=400,
                    seed=20260811, welch_segment=4096)
    t0 = time.perf_counter()
    stats = simulate(bath, cfg)
    exact = closed_form_moments(bath)
    psd = psd_vs_analytic(stats)
    elapsed = time.perf_counter() - t0

    z_x = abs(stats.var_x_hat - exact.var_x) / stats.var_x_stderr
    z_p = abs(stats.var_p_hat - exact.var_p) / stats.var_p_stderr
    rel_err_x = stats.var_x_stderr / exact.var_x
    rel_err_p = stats.var_p_stderr / exact.var_p
    ok = (
        z_x < 3 and z_p < 3
        and rel_err_x < 0.02 and rel_err_p < 0.02
        and psd.peak_rel_dev < 0.10
        and elapsed < 120.0
    )
    _report(
        "4",
        ok,
        f"z_x={z_x:.2f}, z_p={z_p:.2f}, stderr/val={rel_err_x:.4f}/{rel_err_p:.4f}, "
        f"psd peak dev={psd.peak_rel_dev:.3f}, {elapsed:.1f} s",
    )
    assert z_x < 3 and z_p < 3
    assert rel_err_x < 0.02 and rel_err_p < 0.02
    assert psd.peak_rel_dev < 0.10
    assert elapsed < 120.0


def test_criterion_5_fock_oracle_agreement():
    # gain fixed by the positivity scan: g = 20 keeps the coefficient
    # block comfortably inside the completely-positive region (gap 0.045)
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=1.0,
                           n_bar=3.0, g=20.0, phi=-math.pi / 2)
    assert check_stability(bath).lindblad_positive
    exact = closed_form_moments(bath)
    t0 = time.perf_counter()
    sol = evolve_to_steady(bath, FockConfig(dim=80))
    elapsed = time.perf_counter() - t0
    rel_x = abs(sol.var_x - exact.var_x) / exact.var_x
    rel_p = abs(sol.var_p - exact.var_p) / exact.var_p
    ok = (
        rel_x < 1e-5 and rel_p < 1e-5
        and sol.tail_population < 1e-10
        and sol.trace_error < 1e-10
        and elapsed < 300.0
    )
    _report(
        "5",
        ok,
        f"rel_x={rel_x:.2e}, rel_p={rel_p:.2e}, tail={sol.tail_population:.1e}, "
        f"trace err={sol.trace_error:.1e}, {elapsed:.1f} s",
    )
    assert rel_x < 1e-5 and rel_p < 1e-5
    assert sol.tail_population < 1e-10
    assert sol.trace_error < 1e-10
    assert elapsed < 300.0


def test_criterion_6_spectrum_shape_properties():
    bath = reference_bath()
    grid = np.linspace(0.0, 500.0, 4096)
    gains = (0.0, 1.0, 10.0, 100.0, 1000.0)
    curves = {g: eval_spectrum(with_gain(bath, g), grid) for g in gains}
    om = bath.omega_m

    at_resonance = [
        eval_spectrum(with_gain(bath, g), np.array([om]))[0] for g in gains
    ]
    decreasing = all(b < a for a, b in zip(at_resonance, at_resonance[1:]))

    peak_ok = True
    for g in (0.0, 1.0, 10.0):
        w_peak = grid[int(np.argmax(curves[g]))]
        peak_ok = peak_ok and abs(w_peak - om) / om < 0.05

    idx_1000 = int(np.argmax(curves[1000.0]))
    suppressed = curves[1000.0].max() < 1e-2 * curves[0.0].max()

    ok = decreasing and peak_ok and idx_1000 == 0 and suppressed
    _report(
        "6",
        ok,
        f"S(om) decreasing={decreasing}, peaks near om for g<=10: {peak_ok}, "
        f"argmax(g=1000) at bin {idx_1000}, "
        f"max ratio={curves[1000.0].max() / curves[0.0].max():.2e}",
    )
    assert decreasing
    assert peak_ok
    assert idx_1000 == 0
    assert suppressed


def _high_gain_excess(b):
    """Relative overshoot of the high-gain var_x and its derived bound B(g).

    At phi = -pi/2, with c_p = gamma_m*n_bar + Gamma/4 and
    c_x = g^2/(4*eta*Gamma), the printed asymptote is c_p*omega_m^2/
    (2*gamma_m*g^2) + c_x/(2*g). Against the matching parts of the exact
    closed form, the c_p part overshoots by exactly the factor
    (1 + gamma_m/g)*(1 + omega_m*Q_m/g) and the c_x part by a relative
    amount in [0, gamma_m/g]. Hence 0 <= (approx - exact)/exact <= B(g)
    with B(g) = (1 + gamma_m/g)*(1 + omega_m*Q_m/g) - 1.
    """
    exact = closed_form_moments(b).var_x
    excess = (high_gain_moments(b).var_x - exact) / exact
    om_qm = b.omega_m**2 / b.gamma_m
    bound = (1.0 + b.gamma_m / b.g) * (1.0 + om_qm / b.g) - 1.0
    return excess, bound


def _within_high_gain_bound(excess: float, bound: float) -> bool:
    # floating-point slack only: the bound itself is exact
    return -1e-12 * bound <= excess <= (1.0 + 1e-12) * bound


def test_criterion_7_high_gain_formula():
    bath = reference_bath()
    om_qm = bath.omega_m**2 / bath.gamma_m  # omega_m * Q_m

    # effective temperature is T*(omega_m/g)^2 exactly by construction
    g = 10.0 * om_qm
    b = with_gain(bath, g)
    T = b.n_bar * codata.hbar * b.omega_m / codata.k
    assert high_gain_moments(b).t_eff == T * b.omega_m**2 / g**2

    # reference set: the thermal term dominates, so the excess sits close to B
    ref = {
        mult: _high_gain_excess(with_gain(bath, mult * om_qm))
        for mult in (10.0, 20.0, 50.0, 100.0)
    }
    ref_bad = [m for m, (e, B) in ref.items() if not _within_high_gain_bound(e, B)]

    # random Lindblad-positive draws exercise the back-action and
    # shot-noise terms as well
    rng = np.random.default_rng(7)
    n_checked, worst_ratio, draw_bad = 0, 0.0, []
    for _ in range(1000):
        b0 = random_stable_bath(rng, allow_zero_gain=False)
        b = with_gain(b0, rng.uniform(10.0, 100.0) * b0.omega_m**2 / b0.gamma_m)
        if not check_stability(b).lindblad_positive:
            continue
        excess, bound = _high_gain_excess(b)
        n_checked += 1
        worst_ratio = max(worst_ratio, excess / bound)
        if not _within_high_gain_bound(excess, bound):
            draw_bad.append((b, excess, bound))

    ok = not ref_bad and not draw_bad and n_checked >= 900
    _report(
        "7",
        ok,
        "rel excess / bound B by gain multiple: "
        + ", ".join(f"{m:g}x: {e:.4f}/{B:.4f}" for m, (e, B) in ref.items())
        + f"; worst excess/B {worst_ratio:.5f} over {n_checked} positive draws",
    )
    assert not ref_bad, (
        "high-gain var_x outside 0 <= (approx - exact)/exact <= B(g) at "
        f"multiples {ref_bad} of omega_m*Q_m: {ref}"
    )
    assert not draw_bad, (
        f"{len(draw_bad)} random draws outside the bound B(g); first: {draw_bad[0]}"
    )
    assert n_checked >= 900


def test_criterion_8_positivity_identity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        b = bath_from_rates(
            omega_m=10 ** rng.uniform(0, 2),
            gamma_m=10 ** rng.uniform(-1, 1),
            Gamma=float(rng.choice([0.0, 10 ** rng.uniform(-1, 4)])),
            eta=rng.uniform(0.2, 1.0),
            n_bar=10 ** rng.uniform(0, 12),
            g=0.0,
            phi=rng.uniform(-math.pi, math.pi),
        )
        worst = max(worst, abs(check_stability(b).positivity_gap + 0.25))
    ok = worst <= 1e-12
    _report("8", ok, f"worst |gap + 1/4| = {worst:.2e} over 500 draws")
    assert worst <= 1e-12


def test_criterion_9_stability_boundary():
    var = []
    for k in range(1, 15):
        g = 1.0 * (1.0 - 2.0**-k)
        b = bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                            n_bar=100.0, g=g, phi=math.pi / 2)
        var.append(lyapunov_moments(b).var_x)
    monotone = all(b > a for a, b in zip(var, var[1:]))
    errored = False
    try:
        bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                        n_bar=100.0, g=1.0, phi=math.pi / 2)
    except UnstableBathError:
        errored = True
    ok = monotone and errored and var[-1] > var[0] * 1e3
    _report(
        "9",
        ok,
        f"var_x grows {var[0]:.3g} -> {var[-1]:.3g} over the approach, "
        f"boundary errors: {errored}",
    )
    assert monotone
    assert var[-1] > var[0] * 1e3
    assert errored


def test_reference_setup_end_to_end_consistency():
    # closing the loop: the bath built from laboratory inputs reproduces
    # the desk-scale analytics used throughout the acceptance suite
    setup = reference_setup(g=1000.0)
    bath = build_bath(derive_coupling(setup), setup)
    cf = closed_form_moments(bath)
    ly = lyapunov_moments(bath)
    assert cf.var_x == pytest.approx(ly.var_x, rel=1e-12, abs=0)
    _, _, rel = sum_rule_check(bath)
    assert rel < 1e-6
