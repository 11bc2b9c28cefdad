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

import mirrorcool
from mirrorcool import (
    bath_from_rates, closed_form_moments, diffusion_matrix, drift_matrix, eval_spectrum,
    optimize_gain, with_gain,
)
from mirrorcool import fock as fock_mod
from mirrorcool import cli
from mirrorcool.cli import _COMMANDS, _build_parser, main
from mirrorcool.steady_state import _steady_covariance

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

# n_bar = 0, g = Gamma = 0.1: stable, but not completely positive
NON_CP_BATH = {"bath": {**FOCK_DESK_BATH["bath"], "Gamma": 0.1, "n_bar": 0.0, "g": 0.1}}


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


# exported error classes and the exit code main maps each one's base to
EXIT_CODES = {
    "MirrorCoolError": 4, "ValidationError": 2, "UnsupportedPhaseError": 2,
    "StabilityError": 3, "StabilityBoundaryError": 3, "UnstableBathError": 3,
    "NumericalError": 4, "InvalidSetupError": 4, "NoiseModelError": 4, "TruncationError": 4,
}
ERROR_ARGS = {"ValidationError": ("field", "message"), "UnstableBathError": (-1.0,),
              "NoiseModelError": (-1.0, "params")}


def test_every_exported_error_class_has_an_exit_code():
    exported = {n for n in mirrorcool.__all__ if n.endswith("Error")}
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name,code", EXIT_CODES.items(), ids=EXIT_CODES)
def test_error_class_exits_with_the_code_of_its_base(tmp_path, capsys, monkeypatch, name, code):
    error = getattr(mirrorcool, name)(*ERROR_ARGS.get(name, ("message",)))

    def verb(config, args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "variance", (verb, ()))
    assert run(["variance", "--config", write_config(tmp_path, DESK_BATH)]) == code
    prefix = {2: "validation error: ", 3: "instability: ", 4: "numerical failure: "}[code]
    assert capsys.readouterr().err == f"{prefix}{error}\n"


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
    # each column is S_g divided by 2*pi*<X^2> at g = 0, to the last bit
    bath = cli._resolve_bath(config)
    grid = np.linspace(0.0, 8 * bath.omega_m, 2048)
    scale = 2 * math.pi * closed_form_moments(with_gain(bath, 0.0)).var_x
    np.testing.assert_array_equal(data[:, 0], grid)
    for column, g in zip(data[:, 1:].T, (0.0, 1.0, 10.0, 100.0, 1000.0)):
        np.testing.assert_array_equal(column, eval_spectrum(with_gain(bath, g), grid) / scale)


@pytest.mark.parametrize("argv", [["--fig1"], ["--g-list", "0,25"]], ids=["fig1", "g_list"])
def test_dataset_grid_block_defaults_to_the_dataset_grid(tmp_path, capsys, argv):
    # a partial grid block takes the omitted fields from [0, 8*omega_m]
    config = {**DESK_BATH, "grid": {"n_points": 5}}
    assert run(["spectrum", "--config", write_config(tmp_path, config), *argv]) == 0
    omega = json.loads(capsys.readouterr().out)["omega"]
    assert omega == np.linspace(0.0, 8 * DESK_BATH["bath"]["omega_m"], 5).tolist()


def test_spectrum_custom_g_list(tmp_path, capsys):
    code = run(["spectrum", "--config", write_config(tmp_path, DESK_BATH),
                "--g-list", "0,25"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out["series"]) == {"S_g0", "S_g25"}


def test_spectrum_g_list_needs_no_steady_state_at_zero_gain(tmp_path, capsys):
    # undamped: g = 0 has no steady state, g = 20, 25, 50 do
    config = write_config(tmp_path, {"bath": {**FOCK_DESK_BATH["bath"], "gamma_m": 0.0}})
    assert run(["spectrum", "--config", config]) == 0
    capsys.readouterr()
    assert run(["spectrum", "--config", config, "--g-list", "25,50"]) == 0
    assert list(json.loads(capsys.readouterr().out)["series"]) == ["S_g25", "S_g50"]
    # the fig1 dataset has a g = 0 column and divides by its <X^2>
    assert run(["spectrum", "--config", config, "--fig1"]) == 3
    assert "instability:" in capsys.readouterr().err


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


def test_fock_records_solver_warnings_in_the_output(tmp_path, capsys):
    # n_bar = 0, g = Gamma = 0.1 is not completely positive: the solved
    # state has a negative eigenvalue, which the solve warns about
    non_cp = {**NON_CP_BATH, "fock": {"dim": 150}}
    for _ in range(2):  # a repeated warning is recorded again
        assert run(["fock", "--config", write_config(tmp_path, non_cp)]) == 0
        captured = capsys.readouterr()
        warned = json.loads(captured.out)["warnings"]
        assert len(warned) == 1
        assert warned[0].startswith("negative eigenvalue") and "expected physics" in warned[0]
        assert captured.err == ""
    assert run(["fock", "--config", write_config(tmp_path, FOCK_DESK_BATH)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []


def test_fock_refuses_a_negative_tail_at_an_explicit_dim(tmp_path, capsys):
    # at dim 30 the solved state's last population is about -0.0094
    config = {**NON_CP_BATH, "fock": {"dim": 30}}
    assert run(["fock", "--config", write_config(tmp_path, config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: tail population -") and "dim=30" in err


def test_fock_default_dim_grows_past_a_negative_tail(tmp_path, capsys):
    assert run(["fock", "--config", write_config(tmp_path, NON_CP_BATH)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["tail_population"]) <= fock_mod.TAIL_GUARD
    # the moment-level variance of the 2x2 covariance solve; lyapunov_moments
    # refuses it, because var_x*var_p breaks the Heisenberg bound here
    bath = bath_from_rates(**NON_CP_BATH["bath"])
    covariance = _steady_covariance(drift_matrix(bath), diffusion_matrix(bath))
    assert out["var_x"] == pytest.approx(covariance[0, 0], abs=1e-5)  # 0.0228294


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
        matrix = build(bath, dim).tolil()
        matrix[0, 0] *= 1 + 1e-6
        return matrix.tocsr()

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


def test_fock_default_dim_refused_past_the_ceiling(tmp_path, monkeypatch, capsys):
    # the grow loop starts at required_dim(2) = 46 and stops at the ceiling
    monkeypatch.setattr(fock_mod, "MAX_DIM", 50)
    assert run(["fock", "--config", write_config(tmp_path, FOCK_DESK_BATH)]) == 2
    assert "dim: tail guard not met at the ceiling 50" in capsys.readouterr().err


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
    # a non-stable row keeps its axis values and reports nothing else
    row = dict(zip(out["header"], out["rows"][0]))
    assert row.pop("g") == rates["g"]
    assert row.pop("stable") is False
    assert row.pop("lindblad_positive") is False
    assert set(row) == {"gamma", "var_x", "var_p", "cov_xp_sym", "t_eff", "positivity_gap"}
    assert all(math.isnan(v) for v in row.values())
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


def test_unsafe_constants_block_is_refused(tmp_path, capsys):
    # a natural-units config must not run silently with the SI constants
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["unsafe_constants"] = {"hbar": 1.0, "k_B": 1.0, "c": 1.0}
    assert run(["derive", "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: unsafe_constants:")
    assert "Traceback" not in err
    # a null block counts as absent
    config["unsafe_constants"] = None
    assert run(["derive", "--config", write_config(tmp_path, config)]) == 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["setup"]["mass"] = 1.0
    assert run(["derive", "--config", write_config(tmp_path, config)]) == 2
    assert "mass" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["derive", "--config", str(tmp_path / "nope.json")]) == 2


# imports the package and the CLI, then runs each verb in the same process,
# printing the scipy modules loaded after each step
_SCIPY_FREE_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

import mirrorcool, mirrorcool.cli, mirrorcool.langevin
loaded = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]).items():
    loaded[name] = [mirrorcool.cli.main(argv), scipy_modules()]
print(json.dumps(loaded))
"""


def assert_scipy_free(tmp_path, verbs):
    """Run ``verbs`` in one fresh process: each exits 0 and none loads a scipy module."""
    runs = {name: [*argv, "--out", str(tmp_path / f"{name}.out")] for name, argv in verbs.items()}
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(runs)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    loaded = json.loads(proc.stdout)
    assert loaded == {name: [0, []] for name in ["import", *runs]}


def test_import_and_analytic_verbs_load_no_scipy(tmp_path):
    desk = write_config(tmp_path, {**DESK_BATH, "grid": {"n_points": 64}}, "desk.json")
    sweep = write_config(tmp_path, {**DESK_BATH, "sweep": {"g": [10.0, 50.0]}}, "sweep.json")
    assert_scipy_free(tmp_path, {
        "derive": ["derive", "--config", str(REFERENCE_CONFIG)],
        "variance": ["variance", "--config", desk],
        "sweep": ["sweep", "--config", sweep],
        "spectrum": ["spectrum", "--config", desk],
        "fig1": ["spectrum", "--config", desk, "--fig1"],
    })


def test_monte_carlo_verbs_load_no_scipy(tmp_path):
    sim = write_config(tmp_path, {**DESK_BATH, "sim": SIM})
    assert_scipy_free(tmp_path, {
        "simulate": ["simulate", "--config", sim, "--dump-traj", "2"],
        "compare": ["compare", "--config", sim],
    })


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
    # sizes numpy refuses at its size check, before it allocates anything
    "sim_n_traj_too_big": ("simulate", {**DESK_BATH, "sim": {**SIM, "n_traj": 2**61}}, [],
                           *refused("n_traj")),
    "sim_n_traj_huge": ("simulate", {**DESK_BATH, "sim": {**SIM, "n_traj": 10**400}}, [],
                        *refused("n_traj")),
    "sim_t_sample_huge": ("simulate",
                          {**DESK_BATH, "sim": {**SIM, "dt": 1e-3, "t_sample": 1e300}}, [],
                          *refused("t_sample")),
    # step counts t/dt that overflow to inf
    "sim_t_sample_overflow": ("simulate",
                              {**DESK_BATH, "sim": {**SIM, "dt": 1e-20, "t_sample": 1e300}}, [],
                              *refused("t_sample")),
    "sim_t_relax_overflow": ("simulate",
                             {**DESK_BATH, "sim": {**SIM, "dt": 1e-20, "t_relax": 1e300}}, [],
                             *refused("t_relax")),
    "sim_seed_bool": ("simulate", {**DESK_BATH, "sim": {**SIM, "seed": True}}, [],
                      *refused("seed")),
    # Welch segments always overlap by half
    "sim_welch_overlap": ("simulate", {**DESK_BATH, "sim": {**SIM, "welch_overlap": 0.5}}, [],
                          *refused("welch_overlap")),
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
    # a dimension past the fixed ceiling 400 is refused before any solve
    "fock_dim_past_ceiling": ("fock", {**FOCK_DESK_BATH, "fock": {"dim": 401}}, [],
                              *refused("dim")),
    # the ceilings are fixed: an old ceiling key is an unknown field
    "fock_max_dim_string": ("fock", {**FOCK_DESK_BATH, "fock": {"max_dim": "x"}}, [],
                            *refused("max_dim")),
    # hbar, k_B and c are the exact SI values on the bath route too
    "unsafe_constants": ("variance", {**DESK_BATH, "unsafe_constants": {"hbar": 1.0}}, [],
                         *refused("unsafe_constants")),
    # a misspelt block is refused, not ignored in favour of the default grid
    "gird": ("spectrum", {**DESK_BATH, "gird": {"n_points": 5}}, [], *refused("gird")),
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
    # the closed-form spectrum holds only at phi = -pi/2
    "spectrum_off_phase": ("spectrum", with_bath(phi=0.0), [], *refused("phi")),
    # gamma <= 0 is refused with a report whose omega_m**2 overflows to inf
    "omega_m_overflow_unstable": ("variance", with_bath(omega_m=1e200, phi=math.pi / 2), [],
                                  3, "instability: effective damping gamma = -49"),
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
    "variance": FOCK_DESK_BATH,
    "spectrum": {**FOCK_DESK_BATH, "grid": {"omega_min": -50.0, "omega_max": 50.0,
                                            "n_points": 64}},
    "sweep": {**FOCK_DESK_BATH, "sweep": {"g": [0.0, 5.0], "phi": [-math.pi / 2], "T": [1.0]}},
    "fock": {"bath": {**FOCK_DESK_BATH["bath"], "Gamma": 20.0, "n_bar": 0.5, "g": 10.0},
             "fock": {"dim": 30}},
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


def _readme_cli_section() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_parse():
    section = _readme_cli_section()
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


def test_readme_config_fields_match_the_parser():
    # rows of README's config table: | `block` ... | `field`, `field`, ... | use |
    table = _readme_cli_section().split("\n| block | fields |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        block, fields = row.split("|")[1:3]
        documented[block.split("`")[1]] = set(fields.split("`")[1::2])
    accepted = {"setup": cli._SETUP, "bath": cli._BATH, "grid": cli._GRID,
                "sim": cli._SIM, "fock": cli._FOCK, "sweep": cli._SWEEP}
    assert set(documented) == set(accepted)
    for block, (kinds, _) in accepted.items():
        assert documented[block] == set(kinds), block
