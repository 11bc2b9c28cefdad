import contextlib
import copy
import io
import json
import math
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcool import bath_from_rates, closed_form_moments, optimize_gain, with_gain
from mirrorcool import fock as fock_mod
from mirrorcool.cli import _COMMANDS, _build_parser, main

from conftest import BOUNDARY_BATHS

REFERENCE_CONFIG = resources.files("mirrorcool") / "configs" / "reference_setup.json"

DESK_BATH = {
    "bath": {
        "omega_m": 62.8, "gamma_m": 1.0, "Gamma": 200.0, "eta": 1.0,
        "n_bar": 100.0, "g": 50.0, "phi": -math.pi / 2,
    }
}

FOCK_DESK_BATH = {
    "bath": {"omega_m": 10.0, "gamma_m": 1.0, "Gamma": 40.0, "eta": 1.0,
             "n_bar": 2.0, "g": 20.0, "phi": -math.pi / 2},
}


def write_config(tmp_path: Path, payload: dict, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(argv):
    return main(argv)


def test_derive_reference_config(tmp_path, capsys):
    code = run(["derive", "--config", str(REFERENCE_CONFIG)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert 180 <= out["coupling"]["Gamma"] <= 230
    assert 1.0e4 <= abs(out["coupling"]["chi"]) <= 1.4e4
    assert out["stability"]["stable"] is True
    assert out["stability"]["positivity_gap"] == -0.25


def test_derive_reports_instability_with_exit_zero(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["setup"]["phi"] = math.pi / 2
    config["setup"]["g"] = 2.0  # g = 2*gamma_m: damping margin -1
    code = run(["derive", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["stability"]["stable"] is False
    assert out["stability"]["margin_damping"] == pytest.approx(-1.0)
    omega_m, gamma_m = out["coupling"]["omega_m"], config["setup"]["gamma_m"]
    assert out["stability"]["margin_spring"] == omega_m**2 - gamma_m * 2.0 * math.sin(math.pi / 2)
    assert out["bath"] is None


def test_missing_field_names_it(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    del config["setup"]["m"]
    code = run(["derive", "--config", write_config(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "m:" in err


def test_setup_and_bath_are_mutually_exclusive(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    config.update(DESK_BATH)
    code = run(["variance", "--config", write_config(tmp_path, config)])
    assert code == 2


def test_variance_closed_form_vs_lyapunov(tmp_path, capsys):
    code = run(["variance", "--config", write_config(tmp_path, DESK_BATH)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    bath = bath_from_rates(**DESK_BATH["bath"])
    exact = closed_form_moments(bath)
    assert out["closed_form"]["var_x"] == exact.var_x
    assert out["lyapunov"]["var_x"] == pytest.approx(exact.var_x, rel=1e-12)
    assert out["high_gain"]["method"] == "high_gain"


def test_variance_csv(tmp_path):
    out_path = tmp_path / "var.csv"
    code = run(["variance", "--config", write_config(tmp_path, DESK_BATH),
                "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "method,var_x,var_p,cov_xp_sym,t_eff"
    assert lines[1].startswith("closed_form,")


def test_variance_instability_exit_code(tmp_path, capsys):
    config = {"bath": {"omega_m": 1.0, "gamma_m": 10.0, "Gamma": 50.0,
                       "eta": 1.0, "n_bar": 20.0, "g": 5.0,
                       "phi": math.pi / 2}}
    code = run(["variance", "--config", write_config(tmp_path, config)])
    assert code == 3


def test_fock_instability_exit_code(tmp_path, capsys):
    # the unstable bath above at an occupation within the Fock ceiling
    config = {"bath": {"omega_m": 1.0, "gamma_m": 10.0, "Gamma": 50.0,
                       "eta": 1.0, "n_bar": 2.0, "g": 5.0,
                       "phi": math.pi / 2}}
    assert run(["variance", "--config", write_config(tmp_path, config)]) == 3
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 3
    assert "instability: no steady state exists" in capsys.readouterr().err


def test_spectrum_single_series(tmp_path, capsys):
    config = {**DESK_BATH, "grid": {"omega_min": -300.0, "omega_max": 300.0,
                                    "n_points": 401}}
    code = run(["spectrum", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["omega"]) == 401
    assert out["sum_rule"]["rel_err"] < 1e-6


def test_spectrum_fig1_dataset_csv(tmp_path):
    out_path = tmp_path / "fig1.csv"
    config = json.loads(REFERENCE_CONFIG.read_text())
    code = run(["spectrum", "--config", write_config(tmp_path, config),
                "--fig1", "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "omega,S_g0,S_g1,S_g10,S_g100,S_g1000"
    assert len(comments) == 5 and all("rel_err" in c for c in comments)
    data = np.loadtxt(out_path, delimiter=",", skiprows=len(comments) + 1)
    assert data.shape == (2048, 6)
    # resonance amplitude strictly decreasing with gain
    peaks = data[:, 1:].max(axis=0)
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_spectrum_custom_g_list(tmp_path, capsys):
    code = run(["spectrum", "--config", write_config(tmp_path, DESK_BATH),
                "--g-list", "0,25"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out["series"]) == {"S_g0", "S_g25"}


def test_simulate_writes_deterministic_files(tmp_path):
    config = {
        **DESK_BATH,
        "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 4.0, "n_traj": 8,
                "seed": 5, "welch_segment": 1024},
    }
    cfg_path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert run(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
    stats_a = Path(str(out_a) + ".stats.json").read_bytes()
    stats_b = Path(str(out_b) + ".stats.json").read_bytes()
    assert stats_a == stats_b
    psd_a = Path(str(out_a) + ".psd.csv").read_bytes()
    assert psd_a == Path(str(out_b) + ".psd.csv").read_bytes()
    payload = json.loads(stats_a)
    assert payload["var_x_hat"] > 0
    assert payload["n_traj"] == 8


def test_simulate_seed_flag_overrides(tmp_path):
    config = {
        **DESK_BATH,
        "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 4.0, "n_traj": 8,
                "seed": 5, "welch_segment": 1024},
    }
    cfg_path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", cfg_path, "--out", str(out_a)])
    run(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "6"])
    a = json.loads(Path(str(out_a) + ".stats.json").read_text())
    b = json.loads(Path(str(out_b) + ".stats.json").read_text())
    assert a["var_x_hat"] != b["var_x_hat"]


def test_simulate_dump_trajectories(tmp_path):
    config = {
        **DESK_BATH,
        "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 4.0, "n_traj": 8,
                "seed": 5, "welch_segment": 1024},
    }
    out = tmp_path / "dump"
    code = run(["simulate", "--config", write_config(tmp_path, config),
                "--out", str(out), "--dump-traj", "2"])
    assert code == 0
    with np.load(str(out) + ".traj.npz") as raw:
        assert raw["x"].shape[0] == 2
        assert raw["t"].size == raw["x"].shape[1]

    # every trajectory dumped: its rows are the ones the moments came from
    code = run(["simulate", "--config", write_config(tmp_path, config),
                "--out", str(out), "--dump-traj", "8"])
    assert code == 0
    stats = json.loads(Path(str(out) + ".stats.json").read_text())
    with np.load(str(out) + ".traj.npz") as raw:
        x, p = raw["x"], raw["p"]
    n_samp = int(round(4.0 / 1.25e-3))
    assert x.shape == (8, n_samp)
    for key, a, b in (("var_x_hat", x, x), ("var_p_hat", p, p), ("cov_xp_hat", x, p)):
        assert stats[key] == pytest.approx(np.mean(np.sum(a * b, axis=1) / n_samp), rel=1e-13)


def test_fock_desk_run(tmp_path, capsys):
    config = {**FOCK_DESK_BATH, "fock": {"dim": 66}}
    code = run(["fock", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    bath = bath_from_rates(**config["bath"])
    exact = closed_form_moments(bath)
    assert out["var_x"] == pytest.approx(exact.var_x, rel=1e-5)
    assert out["var_p"] == pytest.approx(exact.var_p, rel=1e-5)
    assert out["tail_population"] < 1e-10


def test_fock_density_matrix_dump(tmp_path):
    config = {**FOCK_DESK_BATH, "fock": {"dim": 66}}
    out = tmp_path / "steady"
    code = run(["fock", "--config", write_config(tmp_path, config),
                "--out", str(out), "--dump-rho"])
    assert code == 0
    raw = Path(str(out) + ".rho.bin").read_bytes()
    rho = np.frombuffer(raw, dtype=np.complex128).reshape(66, 66)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    moments = json.loads(Path(str(out)).read_text())
    num = np.diag(np.arange(66))
    assert np.trace(num @ rho).real == pytest.approx(moments["mean_n"], abs=1e-12)


@pytest.mark.parametrize(
    "verb,config,argv,blocked",
    [
        ("variance", DESK_BATH, [], None),
        ("simulate", {**DESK_BATH, "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 2.0,
                                           "n_traj": 2, "welch_segment": 1024}},
         ["--dump-traj", "1"], ".traj.npz"),
        ("fock", {**FOCK_DESK_BATH, "fock": {"dim": 66}}, ["--dump-rho"], ".rho.bin"),
    ],
    ids=["document", "dump_traj", "dump_rho"],
)
def test_unwritable_output_is_refused(tmp_path, capsys, verb, config, argv, blocked):
    if blocked is None:
        out = tmp_path / "no_such_dir" / "result"
    else:
        # a directory where the dump file should go; the other outputs are writable
        out = tmp_path / "result"
        (tmp_path / ("result" + blocked)).mkdir()
    code = run([verb, "--config", write_config(tmp_path, config), "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error: out:")
    assert "Traceback" not in err


def test_fock_refuses_room_temperature(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    code = run(["fock", "--config", write_config(tmp_path, config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ceiling" in err


def test_fock_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a generator that does not preserve the trace leaves a residual on the
    # <0|rho|0> row, which the solve drops
    build = fock_mod.build_generator

    def broken(bath, dim):
        gen = build(bath, dim)
        matrix = gen.matrix.tolil()
        matrix[0, 0] *= 1 + 1e-6
        return fock_mod.Generator(bath, dim, matrix.tocsr())

    monkeypatch.setattr(fock_mod, "build_generator", broken)
    config = {**FOCK_DESK_BATH, "fock": {"dim": 66}}
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 4
    assert "residual" in capsys.readouterr().err


def test_fock_default_dim_grows_until_the_tail_guard_holds(tmp_path, capsys):
    # required_dim(2) = 46 leaves a solved tail of 3e-9 on this bath
    code = run(["fock", "--config", write_config(tmp_path, FOCK_DESK_BATH)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["dim"] > 46
    assert out["tail_population"] < 1e-10
    assert out["residual"] <= out["residual_bound"]
    exact = closed_form_moments(bath_from_rates(**FOCK_DESK_BATH["bath"]))
    assert out["var_x"] == pytest.approx(exact.var_x, rel=1e-5)


def test_fock_default_dim_refused_past_the_ceiling(tmp_path, capsys):
    config = {**FOCK_DESK_BATH, "fock": {"max_dim": 50}}
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 2
    assert "dim:" in capsys.readouterr().err


def test_fock_explicit_dim_is_not_grown(tmp_path, capsys):
    config = {**FOCK_DESK_BATH, "fock": {"dim": 46}}
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 4
    assert "tail population" in capsys.readouterr().err


def test_fock_stepper_keys_are_unknown(tmp_path, capsys):
    config = {**FOCK_DESK_BATH, "fock": {"dim": 66, "dt": 5e-4}}
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 2
    assert "dt:" in capsys.readouterr().err


def test_sweep_deterministic_and_flags_instability(tmp_path):
    config = {
        "bath": {"omega_m": 62.8, "gamma_m": 1.0, "Gamma": 200.0, "eta": 1.0,
                 "n_bar": 100.0, "g": 0.0, "phi": -math.pi / 2},
        "sweep": {"g": [0.0, 10.0, 50.0], "phi": [-math.pi / 2, math.pi / 2]},
    }
    cfg_path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--config", cfg_path, "--format", "csv",
                "--out", str(out_a)]) == 0
    run(["sweep", "--config", cfg_path, "--format", "csv", "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["g", "phi", "gamma", "var_x"]
    assert len(lines) == 1 + 6
    # phi = +pi/2 with g = 10 or 50 is beyond the damping boundary
    stable_col = header.index("stable")
    flags = [l.split(",")[stable_col] for l in lines[1:]]
    assert flags.count("false") == 2


@pytest.mark.parametrize("name", BOUNDARY_BATHS)
def test_sweep_and_derive_report_a_boundary_point_unstable(name, tmp_path, capsys):
    rates = BOUNDARY_BATHS[name]
    config = {"bath": rates, "sweep": {"g": [rates["g"]]}}
    assert run(["sweep", "--config", write_config(tmp_path, config)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert dict(zip(out["header"], out["rows"][0]))["stable"] is False
    assert run(["variance", "--config", write_config(tmp_path, config)]) == 3
    assert "instability: no steady state exists" in capsys.readouterr().err
    # a laboratory setup whose margin is 1e-14 of its terms
    omega_m = 2 * math.pi * SETUP["nu_m"]
    setup = {**SETUP, "phi": math.pi / 2, **{
        "spring": {"gamma_m": 2 * omega_m, "g": omega_m / 2 * (1 - 1e-14)},
        "damping": {"gamma_m": 1.0, "g": 1.0 - 1e-14},
    }[name]}
    assert run(["derive", "--config", write_config(tmp_path, {"setup": setup})]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["stable"] is False


def test_sweep_keeps_the_report_of_a_stable_unphysical_point(tmp_path, capsys):
    # stable drift, but at n_bar = 0 the moments break the Heisenberg bound
    config = {
        "bath": {"omega_m": 10.0, "gamma_m": 1.0, "Gamma": 0.1, "eta": 1.0,
                 "n_bar": 0.0, "g": 0.1, "phi": -math.pi / 2},
        "sweep": {"g": [0.1]},
    }
    code = run(["sweep", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    row = dict(zip(out["header"], out["rows"][0]))
    assert row["stable"] is True
    assert row["lindblad_positive"] is False
    assert row["positivity_gap"] == pytest.approx(-0.248, abs=5e-4)
    assert row["gamma"] == pytest.approx(1.1)
    assert all(math.isnan(row[k]) for k in ("var_x", "var_p", "cov_xp_sym", "t_eff"))


def test_sweep_minimum_matches_optimizer(tmp_path, capsys):
    gains = list(np.geomspace(10.0, 2e4, 40))
    config = {
        "bath": {"omega_m": 62.8, "gamma_m": 1.0, "Gamma": 200.0, "eta": 1.0,
                 "n_bar": 1e4, "g": 0.0, "phi": -math.pi / 2},
        "sweep": {"g": gains},
    }
    code = run(["sweep", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = out["rows"]
    var_col = out["header"].index("var_x")
    best_row = min(rows, key=lambda r: r[var_col])
    bath = bath_from_rates(omega_m=62.8, gamma_m=1.0, Gamma=200.0, eta=1.0,
                           n_bar=1e4, g=0.0, phi=-math.pi / 2)
    g_opt, _ = optimize_gain(bath, (10.0, 2e4))
    # the grid minimum brackets the continuous optimum
    assert abs(math.log(best_row[0] / g_opt)) < math.log(gains[1] / gains[0]) * 1.5


def test_compare_reports_agreement(tmp_path, capsys):
    config = {
        **DESK_BATH,
        "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 8.0, "n_traj": 48,
                "seed": 12, "welch_segment": 2048},
    }
    code = run(["compare", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["moments"]["var_x"]["z"]) < 5
    assert abs(out["moments"]["var_p"]["z"]) < 5
    assert out["psd"]["peak_rel_dev"] < 0.25


def test_json_round_trip_is_exact(tmp_path, capsys):
    run(["variance", "--config", write_config(tmp_path, DESK_BATH)])
    text = capsys.readouterr().out
    once = json.loads(text)
    again = json.loads(json.dumps(once))
    assert again == once
    bath = bath_from_rates(**DESK_BATH["bath"])
    assert once["closed_form"]["var_x"] == closed_form_moments(bath).var_x


def test_unsafe_constants_block(tmp_path, capsys):
    config = {
        "setup": {"m": 1.0, "nu_m": 1 / (2 * math.pi), "gamma_m": 0.1,
                  "L": 1.0, "nu_0": 1.0 / (2 * math.pi), "T_r": 1.0,
                  "P_in": 0.0, "T": 2.0},
        "unsafe_constants": {"hbar": 1.0, "k_B": 1.0, "c": 1.0},
    }
    code = run(["derive", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["coupling"]["n_bar"] == pytest.approx(2.0, rel=1e-14)


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["setup"]["mass"] = 1.0
    assert run(["derive", "--config", write_config(tmp_path, config)]) == 2
    assert "mass" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["derive", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_import_leaves_scipy_signal_out():
    code = ("import sys, mirrorcool.cli, mirrorcool.langevin; "
            "print('scipy.signal' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.stdout.strip() == "False"


SIM = {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 4.0, "n_traj": 8, "seed": 5,
       "welch_segment": 1024}
SETUP = json.loads(REFERENCE_CONFIG.read_text())["setup"]


def with_bath(**fields):
    return {"bath": {**DESK_BATH["bath"], **fields}}


def refused(field):
    return 2, f"validation error: {field}:"


def failed(message):
    return 4, f"numerical failure: {message}"


# (verb, config, extra argv, exit code, start of the error line)
MALFORMED = {
    "n_points_string": ("spectrum", {**DESK_BATH, "grid": {"n_points": "abc"}}, [],
                        *refused("n_points")),
    "n_points_fraction": ("spectrum", {**DESK_BATH, "grid": {"n_points": 100.5}}, [],
                          *refused("n_points")),
    "n_points_huge": ("spectrum", {**DESK_BATH, "grid": {"n_points": 1e300}}, [],
                      *refused("n_points")),
    "grid_list": ("spectrum", {**DESK_BATH, "grid": [1, 2]}, [], *refused("grid")),
    "sweep_scalar": ("sweep", {**DESK_BATH, "sweep": {"g": 5}}, [], *refused("g")),
    "sweep_string": ("sweep", {**DESK_BATH, "sweep": {"g": ["a"]}}, [], *refused("g")),
    "sweep_inf": ("sweep", {**DESK_BATH, "sweep": {"g": [1e400]}}, [], *refused("g")),
    # k_B*T/(hbar*omega_m) overflows the occupation
    "sweep_T_overflow": ("sweep", {**DESK_BATH, "sweep": {"T": [1e300]}}, [], *refused("n_bar")),
    "g_list_words": ("spectrum", DESK_BATH, ["--g-list", "a,b"], *refused("g_list")),
    "g_list_empty": ("spectrum", DESK_BATH, ["--g-list", ""], *refused("g_list")),
    "g_list_inf": ("spectrum", DESK_BATH, ["--g-list", "1e400"], *refused("g_list")),
    # S_g{g:g} column labels would collide
    "g_list_same_label": ("spectrum", DESK_BATH, ["--g-list", "1,1.0000001,1"],
                          *refused("g_list")),
    "sim_dt_string": ("simulate", {**DESK_BATH, "sim": {**SIM, "dt": "x"}}, [], *refused("dt")),
    "sim_n_traj_fraction": ("simulate", {**DESK_BATH, "sim": {**SIM, "n_traj": 4.5}}, [],
                            *refused("n_traj")),
    "sim_seed_bool": ("simulate", {**DESK_BATH, "sim": {**SIM, "seed": True}}, [],
                      *refused("seed")),
    # a dump flag that would write nothing
    "dump_traj_without_out": ("simulate", {**DESK_BATH, "sim": SIM}, ["--dump-traj", "4"],
                              *refused("out")),
    "dump_traj_negative": ("simulate", {**DESK_BATH, "sim": SIM}, ["--dump-traj", "-1"],
                           *refused("dump_traj")),
    "dump_rho_without_out": ("fock", {**FOCK_DESK_BATH, "fock": {"dim": 66}}, ["--dump-rho"],
                             *refused("out")),
    "fock_list": ("fock", {**FOCK_DESK_BATH, "fock": [1]}, [], *refused("fock")),
    "fock_dim_string": ("fock", {**FOCK_DESK_BATH, "fock": {"dim": "x"}}, [], *refused("dim")),
    "fock_dim_fraction": ("fock", {**FOCK_DESK_BATH, "fock": {"dim": 66.7}}, [],
                          *refused("dim")),
    "fock_max_dim_string": ("fock", {**FOCK_DESK_BATH, "fock": {"max_dim": "x"}}, [],
                            *refused("max_dim")),
    "hbar_string": ("derive", {"setup": SETUP, "unsafe_constants": {"hbar": "x"}}, [],
                    *refused("hbar")),
    "hbar_inf": ("derive", {"setup": SETUP, "unsafe_constants": {"hbar": 1e400}}, [],
                 *refused("hbar")),
    "Gamma_inf": ("variance", with_bath(Gamma=1e400), [], *refused("Gamma")),
    "n_bar_big_integer": ("variance", with_bath(n_bar=10**400), [], *refused("n_bar")),
    "phi_inf": ("variance", with_bath(phi=1e400), [], *refused("phi")),
    # finite inputs whose coefficients or spectrum leave the float range
    "bath_g_overflow": ("variance", with_bath(g=1e200), [], *failed("bath coefficients")),
    "omega_m_overflow": ("variance", with_bath(omega_m=1e200), [],
                         *failed("bath coefficients")),
    "setup_g_overflow": ("variance", {"setup": {**SETUP, "g": 1e200}}, [],
                         *failed("bath coefficients")),
    "sweep_g_overflow": ("sweep", {**DESK_BATH, "sweep": {"g": [1e200]}}, [],
                         *failed("bath coefficients")),
    "grid_span_overflow": ("spectrum",
                           {**DESK_BATH, "grid": {"omega_min": -1e308, "omega_max": 1e308}},
                           [], *failed("non-finite spectrum")),
    "sweep_T_underflow": ("sweep", {**with_bath(omega_m=1e-300), "sweep": {"T": [1.0]}}, [],
                          *failed("hbar*omega_m underflows")),
}


@pytest.mark.parametrize("verb,config,argv,code,text", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_refused(tmp_path, capsys, verb, config, argv, code, text):
    assert run([verb, "--config", write_config(tmp_path, config), *argv]) == code
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",                                     # not UTF-8
    b'{"bath": {"n_bar": 1' + b"0" * 5000 + b"}}",      # past int-to-str digit limit
    b"[" * 100000 + b"]" * 100000,                      # nested past the recursion limit
], ids=["encoding", "long_integer", "deep_nesting"])
def test_undecodable_config_is_refused(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert run(["variance", "--config", str(path)]) == 2
    assert "config:" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [dict(gamma_m=0.0), dict(g=1e-201)],
                         ids=["undamped", "g_squared_underflows"])
def test_variance_omits_high_gain_outside_its_domain(tmp_path, capsys, fields):
    code = run(["variance", "--config", write_config(tmp_path, with_bath(**fields))])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"closed_form", "lyapunov"}
    assert out["lyapunov"]["var_x"] == pytest.approx(out["closed_form"]["var_x"], rel=1e-9)


# small valid configs; each fuzz draw replaces one value or block in one
FUZZ_CONFIGS = {
    "derive": {"setup": dict(SETUP, g=100.0)},
    "variance": {**FOCK_DESK_BATH, "unsafe_constants": {"hbar": 1.0, "k_B": 1.0, "c": 1.0}},
    "spectrum": {**FOCK_DESK_BATH, "grid": {"omega_min": -50.0, "omega_max": 50.0,
                                            "n_points": 64}},
    "sweep": {**FOCK_DESK_BATH, "sweep": {"g": [0.0, 5.0], "phi": [-math.pi / 2], "T": [1.0]}},
    "fock": {"bath": {**FOCK_DESK_BATH["bath"], "Gamma": 20.0, "n_bar": 0.5, "g": 10.0},
             "fock": {"dim": 30, "max_nbar": 1.0, "max_dim": 40}},
}

# finite draws stay inside +-100 so that no draw asks for a large grid or
# truncation; the listed extremes are refused before any allocation
JSON_LIKE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.floats(-100, 100), max_size=3),
    st.dictionaries(st.text(max_size=4), st.floats(-100, 100), max_size=2),
    st.floats(-100, 100), st.integers(-100, 100),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0.5,
                     2**64, 10**400]),
)


def _paths(node, path=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [path + (key,), *_paths(child, path + (key,))]]


@settings(derandomize=True, deadline=None, max_examples=800)
@given(data=st.data())
def test_fuzzed_config_exits_with_a_documented_code(tmp_path_factory, data):
    verb = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    config = copy.deepcopy(FUZZ_CONFIGS[verb])
    *parents, key = data.draw(st.sampled_from(_paths(config)))
    node = config
    for step in parents:
        node = node[step]
    node[key] = data.draw(JSON_LIKE)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([verb, "--config", str(path)])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


# each config runs with exit 0 when the flag is left out, so the refusal
# comes from the flag alone
FOREIGN_FLAGS = {
    "derive_format": ("derive", FUZZ_CONFIGS["derive"], ["--format", "csv"]),
    "variance_seed": ("variance", DESK_BATH, ["--seed", "1"]),
    "fock_g_list": ("fock", FUZZ_CONFIGS["fock"], ["--g-list", "1"]),
    "sweep_dump_rho": ("sweep", FUZZ_CONFIGS["sweep"], ["--dump-rho"]),
    "compare_dump_traj": ("compare", {**DESK_BATH, "sim": SIM}, ["--dump-traj", "2"]),
}


@pytest.mark.parametrize("verb,config,argv", FOREIGN_FLAGS.values(), ids=FOREIGN_FLAGS)
def test_flag_of_another_verb_is_refused(tmp_path, capsys, verb, config, argv):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", write_config(tmp_path, config), *argv])
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("mirrorcool ")]
    assert {argv[0] for argv in examples} == set(_COMMANDS)
    parser = _build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: mirrorcool {shlex.join(argv)}")
