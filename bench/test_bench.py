"""Self-tests of the benchmark's reference computations, readers and checks.

Run with ``python -m pytest bench/test_bench.py``; the repository's own
suite (``testpaths = ["tests"]``) does not collect them. None of these
tests imports mirrorcool.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def random_params(rng, n, phi=None):
    return dict(
        omega_m=10 ** rng.uniform(0, 2, n),
        gamma_m=10 ** rng.uniform(-1, 1, n),
        Gamma=10 ** rng.uniform(-1, 3, n),
        eta=rng.uniform(0.2, 1.0, n),
        n_bar=10 ** rng.uniform(0, 4, n),
        g=10 ** rng.uniform(-1, 2, n),
        phi=np.full(n, -math.pi / 2) if phi is None else phi,
    )


def args_of(p):
    return tuple(p[k] for k in ("omega_m", "gamma_m", "Gamma", "eta", "n_bar", "g", "phi"))


def test_covariance_matches_printed_closed_form():
    p = random_params(np.random.default_rng(1), 200)
    var_x, cov, var_p = ref.covariance(*args_of(p))
    g, gm, om = p["g"], p["gamma_m"], p["omega_m"]
    c_x = g**2 / (4 * p["eta"] * p["Gamma"])
    c_p = gm * p["n_bar"] + p["Gamma"] / 4
    denom = 2 * (gm + g) * (om**2 + gm * g)
    np.testing.assert_allclose(var_x, (c_x * (gm**2 + om**2 + gm * g) + c_p * om**2) / denom, rtol=1e-10)
    np.testing.assert_allclose(var_p, (c_p * (g**2 + gm * g + om**2) + om**2 * c_x) / denom, rtol=1e-10)
    cov_err = np.abs(cov - om * (c_p * g - c_x * gm) / denom) / np.sqrt(var_x * var_p)
    assert cov_err.max() < 1e-10


def test_covariance_solves_lyapunov_off_phase():
    rng = np.random.default_rng(2)
    p = random_params(rng, 100, phi=rng.uniform(-math.pi, -0.05, 100))
    var_x, cov, var_p = ref.covariance(*args_of(p))
    for i in range(100):
        A = np.array([[p["g"][i] * math.sin(p["phi"][i]), p["omega_m"][i]],
                      [-p["omega_m"][i], -p["gamma_m"][i]]])
        c_xx, c_xp, c_pp = (float(v[i]) for v in ref.diffusion(*args_of(p)[1:]))
        C = np.array([[c_xx, c_xp], [c_xp, c_pp]])
        S = np.array([[var_x[i], cov[i]], [cov[i], var_p[i]]])
        residual = A @ S + S @ A.T + C
        assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(C))


def test_routh_hurwitz_agrees_with_eigenvalues():
    rng = np.random.default_rng(3)
    om, gm = 10 ** rng.uniform(0, 2, 500), 10 ** rng.uniform(-1, 1, 500)
    g, phi = 10 ** rng.uniform(-1, 2, 500), rng.uniform(-math.pi, math.pi, 500)
    stable = ref.routh_hurwitz_stable(om, gm, g, phi)
    for i in range(500):
        A = np.array([[g[i] * math.sin(phi[i]), om[i]], [-om[i], -gm[i]]])
        assert stable[i] == (np.linalg.eigvals(A).real.max() < 0)
    assert 0 < stable.sum() < 500


def test_spectrum_matches_expanded_form_and_sum_rule():
    p = dict(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=0.8, n_bar=3.0, g=20.0, phi=-math.pi / 2)
    w = np.linspace(-2000.0, 2000.0, 400001)
    S = ref.spectrum_x(w, *args_of(p))
    c_x = p["g"] ** 2 / (4 * p["eta"] * p["Gamma"])
    c_p = p["gamma_m"] * p["n_bar"] + p["Gamma"] / 4
    xi = np.abs((1j * w + p["g"]) * (1j * w + p["gamma_m"]) + p["omega_m"] ** 2) ** 2
    np.testing.assert_allclose(S, (c_x * (p["gamma_m"] ** 2 + w**2) + c_p * p["omega_m"] ** 2) / xi,
                               rtol=1e-12)
    var_x = float(ref.covariance(*args_of(p))[0])
    # the truncated tail is c_x/(pi*2000) of the integral
    integral = np.trapezoid(S, w) / (2 * math.pi) + c_x / (math.pi * 2000.0)
    assert integral == pytest.approx(var_x, rel=1e-5)


def test_spectrum_off_phase_integrates_to_variance():
    p = dict(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=0.8, n_bar=3.0, g=20.0, phi=-1.2)
    w = np.linspace(-3000.0, 3000.0, 600001)
    S = ref.spectrum_x(w, *args_of(p))
    assert S.min() > 0
    var_x = float(ref.covariance(*args_of(p))[0])
    c_x = float(ref.diffusion(*args_of(p)[1:])[0])
    integral = np.trapezoid(S, w) / (2 * math.pi) + c_x / (math.pi * 3000.0)
    assert integral == pytest.approx(var_x, rel=1e-4)


def test_coupling_chain_at_reference_setup():
    c = ref.coupling(workloads.REFERENCE_SETUP)
    assert c["Gamma"] == pytest.approx(207, rel=0.01)
    assert abs(c["chi"]) == pytest.approx(1.25e4, rel=0.01)
    assert c["n_bar"] == pytest.approx(ref.K_B * 300 / (ref.HBAR * 2 * math.pi * 10), rel=1e-15)
    assert c["n_bar"] == pytest.approx(6.25e11, rel=0.01)


def test_positivity_gap_exact():
    assert ref.positivity_gap(1.0, 0.0, 1.0, 6e11, 0.0, -math.pi / 2) == -0.25
    rng = np.random.default_rng(4)
    for _ in range(50):
        gm, Gm, eta, nb, g = (float(x) for x in (10 ** rng.uniform(-1, 1), 10 ** rng.uniform(0, 2),
                                                 rng.uniform(0.3, 1), rng.uniform(1, 20), rng.uniform(1, 50)))
        phi = float(rng.uniform(-math.pi, -0.1))
        gamma = gm - g * math.sin(phi)
        reduced = -0.25 + (g / gamma) ** 2 * (gm * nb / (eta * Gm) + (1 / eta - math.cos(phi) ** 2) / 4)
        assert ref.positivity_gap(gm, Gm, eta, nb, g, phi) == pytest.approx(reduced, rel=1e-9, abs=1e-12)


def test_read_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# meta=1\n# sum_rule: 2\nomega,S,stable\n\n1.5,2.5,true\n# trailing\n3.0,nan,false\n")
    header, rows, comments = checks.read_csv(path)
    assert header == ["omega", "S", "stable"]
    assert [[checks.cell(v) for v in r][2] for r in rows] == [True, False]
    assert comments == ["meta=1", "sum_rule: 2", "trailing"]


def _fock_op():
    bath = dict(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=1.0, n_bar=2.0, g=20.0, phi=-math.pi / 2)
    return {"name": "fock", "kind": "cli", "check": "fock", "outputs": ["fock.json"],
            "config": {"bath": bath, "fock": {"dim": 66}}, "format": "json", "argv": []}


@pytest.mark.parametrize("field,factor,bad", [
    ("var_x", 1.0, False), ("var_x", 1 + 1e-4, True), ("var_p", 1 - 1e-4, True),
])
def test_fock_check_catches_a_wrong_variance(tmp_path, field, factor, bad):
    op = _fock_op()
    var_x, _, var_p = (float(v) for v in ref.covariance(*args_of(op["config"]["bath"])))
    sol = {"var_x": var_x, "var_p": var_p, "trace_error": 1e-15, "tail_population": 1e-12,
           "dim": 66, "meta": {"ignored": True}}
    sol[field] *= factor
    (tmp_path / "fock.json").write_text(json.dumps(sol))
    assert bool(checks.check_cli(op, tmp_path)) == bad


def test_optimize_gain_check_rejects_a_non_minimum():
    bath = dict(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=1.0, n_bar=5.0, g=1.0, phi=-math.pi / 2)
    op = {"bath": bath, "g_range": [0.0, 200.0]}
    grid = np.linspace(0.0, 200.0, 200001)
    var = ref.covariance(*args_of(dict(bath, g=grid)))[0]
    k = int(np.argmin(var))
    assert checks.check_optimize_gain(op, [grid[k], var[k]]) == []
    assert checks.check_optimize_gain(op, [grid[k] * 1.5, float(ref.covariance(
        *args_of(dict(bath, g=grid[k] * 1.5)))[0])])


def test_inputs_are_seeded_and_work_does_not_depend_on_seed(tmp_path):
    fields = {"dim", "dt", "t_final", "tol"}
    a = workloads.build("warm", 7, tmp_path / "a", fields)
    b = workloads.build("warm", 7, tmp_path / "b", fields)
    assert (tmp_path / "a" / "sweep_desk.config.json").read_text() == \
        (tmp_path / "b" / "sweep_desk.config.json").read_text()
    assert [op["name"] for op in a] == [op["name"] for op in b]
    patterns = set()
    for seed in range(1, 9):
        ops = workloads.build("warm", seed, tmp_path / f"s{seed}", fields)
        for op in ops:
            if op["check"] == "sweep":
                _, _, points = checks._sweep_points(op["config"])
                stable = ref.routh_hurwitz_stable(*(np.array([p[k] for p in points]) for k in
                                                    ("omega_m", "gamma_m", "g", "phi")))
                patterns.add((op["name"], stable.tobytes()))
    assert len(patterns) == 3  # one stability pattern per sweep, whatever the seed


def test_fock_stepper_settings_follow_fock_config(tmp_path):
    ops = workloads.build("warm", 1, tmp_path, {"dim"})
    blocks = [op["config"]["fock"] for op in ops if op["check"] == "fock"]
    assert blocks and all(set(b) == {"dim"} for b in blocks)
    ops = workloads.build("warm", 1, tmp_path, {"dim", "dt", "t_final", "tol"})
    assert all(set(op["config"]["fock"]) == {"dim", "dt", "t_final", "tol"}
               for op in ops if op["check"] == "fock")


def test_self_times_add_up_to_the_round():
    t = tracing.Tracer()
    outer = t.open("cli.main")
    inner = t.open("bath.bath_from_rates")
    t.close(inner)
    inner = t.open("steady_state.lyapunov_moments")
    t.close(inner)
    t.close(outer)
    t.rounds.append((t.start[0] - 0.5, t.end[0] + 0.25))
    spans = {"names": t.names, "name": list(t.name), "parent": list(t.parent),
             "start": list(t.start), "end": list(t.end), "work": list(t.work), "rounds": t.rounds}
    (m,) = tracing.round_metrics(spans)
    total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["round.other_s"]
    assert total == pytest.approx(m["round.traced_s"], abs=1e-12)
    assert m["round.other_s"] == pytest.approx(0.75, abs=1e-9)
    assert m["cli.main.calls"] == 1 and m["bath.bath_from_rates.calls"] == 1


def test_outermost_import_times():
    lines = [(6, "scipy.signal._a", 0.3), (4, "scipy.signal._b", 0.5), (2, "mirrorcool.langevin", 0.7),
             (2, "mirrorcool.bath", 0.2), (0, "mirrorcool", 1.0)]
    assert run._top_import_s(lines, "scipy.signal") == 0.5
    assert run._top_import_s(lines, "mirrorcool") == 1.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
