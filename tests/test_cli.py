import contextlib
import copy
import dataclasses
import errno
import gc
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
import weakref
from importlib import resources
from unittest import mock
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mirrorcool
from mirrorcool import (
    StabilityError, UnstableBathError, bath_from_rates, check_stability, closed_form_moments,
    diffusion_matrix, drift_matrix, eval_spectrum, lyapunov_moments, optimize_gain,
    thermal_occupation, with_gain,
)
from mirrorcool import bath as bath_mod
from mirrorcool import fock as fock_mod
from mirrorcool import cli, steady_state
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


def test_variance_writes_closed_forms_whose_products_overflow(tmp_path, capsys):
    # Gamma = g = 4.6e138: c_p*g*g is past the float range, var_p about 5.75e137 is not
    config = with_bath(omega_m=55.3, Gamma=4.6e138, n_bar=2.9, g=4.6e138)
    assert run(["variance", "--config", write_config(tmp_path, config)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["closed_form", "lyapunov", "high_gain"]
    for name in ("var_x", "var_p", "cov_xp_sym"):
        assert out["closed_form"][name] == pytest.approx(out["lyapunov"][name], rel=1e-12)


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
        stencil = build(bath, dim)
        stencil[fock_mod.SHIFTS.index((0, 0)), 0, 0] *= 1 + 1e-6
        return stencil

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


def per_point_sweep(config: dict) -> tuple[list, list]:
    """The header and rows of a sweep as one bath_from_rates -> check_stability
    -> lyapunov_moments chain per point, in row order; raises where that
    chain refuses a point."""
    bath = cli._resolve_bath(config)
    axes = [(name, config["sweep"][name]) for name in cli._SWEEP_AXES if name in config["sweep"]]
    rates = {key: getattr(bath, key) for key in bath_mod.RATES}
    header = [name for name, _ in axes] + ["gamma", "var_x", "var_p", "cov_xp_sym", "t_eff",
                                           "stable", "lindblad_positive", "positivity_gap"]
    rows = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(zip((name for name, _ in axes), combo))
        if "T" in point:
            point["n_bar"] = thermal_occupation(point.pop("T"), bath.omega_m)
        try:
            bath_pt = bath_from_rates(**{**rates, **point})
            report = check_stability(bath_pt)
        except UnstableBathError as exc:
            report = exc.report
        if not report.stable:
            rows.append([*combo, *[math.nan] * 5, False, False, math.nan])
            continue
        try:
            m = lyapunov_moments(bath_pt)
            moments = [m.var_x, m.var_p, m.cov_xp_sym, m.t_eff]
        except StabilityError:
            moments = [math.nan] * 4
        rows.append([*combo, bath_pt.gamma, *moments, True, report.lindblad_positive,
                     report.positivity_gap])
    return header, rows


def sweep_texts(config: dict) -> dict:
    """The sweep's JSON and CSV text, or the error it refuses the config with."""
    try:
        return {fmt: written(cli.cmd_sweep(config, types.SimpleNamespace(format=fmt)), fmt)
                for fmt in ("json", "csv")}
    except Exception as exc:  # compared with the per-point route's error
        return {"error": (type(exc), str(exc), getattr(exc, "field", None))}


def per_point_texts(config: dict) -> dict:
    try:
        header, rows = per_point_sweep(config)
    except Exception as exc:
        return {"error": (type(exc), str(exc), getattr(exc, "field", None))}
    lines = [",".join(header)] + [",".join(map(reference_cell, row)) for row in rows]
    return {"json": json.dumps({"header": header, "rows": rows}, indent=1) + "\n",
            "csv": "\n".join(lines) + "\n"}


# base baths of the random grids: stable desk rates, a point whose moments
# break the Heisenberg bound, the two rounding-level stability boundaries,
# moments past the float range, an hbar*omega_m that underflows (T axis),
# and a gap whose (g/gamma)^2 leaves the float range
SWEEP_BASES = {
    "desk": DESK_BATH["bath"],
    "heisenberg": NON_CP_BATH["bath"],
    **{f"boundary_{name}": rates for name, rates in BOUNDARY_BATHS.items()},
    "lyapunov_overflow": {**DESK_BATH["bath"], "omega_m": 1e-160, "gamma_m": 0.0, "g": 1.0,
                          "phi": -1.0},
    "omega_underflow": {**DESK_BATH["bath"], "omega_m": 1e-300},
    "gap_overflow": {"omega_m": 1.0, "gamma_m": 1e-10, "Gamma": 1e154, "eta": 1.0,
                     "n_bar": 1.0, "g": 1e154, "phi": 0.0},
}
# axis values: each list has the bases' boundary and zero values and
# values that turn a phase with sin(phi) > 0 unstable
SWEEP_VALUES = {
    "g": st.sampled_from([0.0, 0.1, 1.0 - 1e-14, 1.0, 5.0, 50.0]) | st.floats(0, 100),
    "phi": st.sampled_from([-math.pi / 2, math.pi / 2, 0.0, -1.0, 0.4, 3.0]) | st.floats(-4, 4),
    "Gamma": st.sampled_from([0.0, 0.1, 50.0, 200.0]) | st.floats(0, 300),
    "eta": st.sampled_from([0.3, 1.0]) | st.floats(0.05, 1),
    "T": st.sampled_from([0.0, 1e-9, 1e-3, 300.0]) | st.floats(0, 400),
}
# values one point's route refuses: invalid rates, an overflowing block
SWEEP_BAD = {"g": [-1.0, 1e200], "phi": [1e10], "Gamma": [-0.5], "eta": [0.0, 1.5],
             "T": [-1.0, 1e300]}


@st.composite
def sweep_configs(draw):
    bad = draw(st.booleans())
    sweep = {}
    for name in draw(st.sets(st.sampled_from(cli._SWEEP_AXES), min_size=1)):
        values = SWEEP_VALUES[name]
        if bad:
            values = values | st.sampled_from(SWEEP_BAD[name])
        sweep[name] = draw(st.lists(values, min_size=1, max_size=3))
    return {"bath": SWEEP_BASES[draw(st.sampled_from(sorted(SWEEP_BASES)))], "sweep": sweep}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(config=sweep_configs())
@example(config={"bath": SWEEP_BASES["desk"], "sweep": {"g": [1.0, 1e200, -1.0], "eta": [2.0]}})
@example(config={"bath": SWEEP_BASES["desk"], "sweep": {"g": [0.0, 3.0], "phi": [1.0],
                                                        "T": [300.0, 1e300]}})
@example(config={"bath": SWEEP_BASES["lyapunov_overflow"], "sweep": {"g": [0.5, 1.0]}})
@example(config={"bath": SWEEP_BASES["gap_overflow"], "sweep": {"g": [1e154], "eta": [1.0]}})
@example(config={"bath": SWEEP_BASES["heisenberg"], "sweep": {"g": [0.0, 0.1], "T": [0.0, 1.0],
                                                              "phi": [-1.0, 1.0]}})
def test_sweep_grid_equals_the_per_point_route(config):
    # the arrays broadcast over the grid give every cell of the per-point
    # chain to the bit, in both formats, or refuse the config with the
    # same error, field and message as that chain's first refused point
    assert sweep_texts(config) == per_point_texts(config)


def test_sweep_evaluates_its_grid_without_the_per_point_route(monkeypatch, tmp_path):
    bath = bath_from_rates(**NON_CP_BATH["bath"])
    calls = {"bath_from_rates": 0, "lyapunov_moments": 0}

    def counted(module, name):
        function = getattr(module, name)

        def counter(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counter)

    counted(bath_mod, "bath_from_rates")
    counted(steady_state, "lyapunov_moments")
    # 3000 points, unstable and Heisenberg-refused ones among them
    axes = [("g", list(np.geomspace(0.01, 80.0, 30))), ("phi", [-math.pi / 2, -1.2, 0.4, 1.2, 3.0]),
            ("Gamma", list(np.geomspace(0.05, 100.0, 10))), ("eta", [0.5, 1.0])]
    columns = steady_state.sweep_grid(bath, axes)
    assert len(columns["var_x"]) == 3000
    assert not all(columns["stable"]) and any(np.isnan(columns["var_x"]) & columns["stable"])
    assert calls == {"bath_from_rates": 0, "lyapunov_moments": 0}
    # the refusal path runs the one point it refuses through that route once
    with pytest.raises(mirrorcool.ValidationError, match="eta: must lie in"):
        steady_state.sweep_grid(bath, [*axes[:3], ("eta", [0.5, 1.5])])
    assert calls["bath_from_rates"] == 1 and calls["lyapunov_moments"] <= 1
    # from the command line the config's own bath is the one other call
    calls.update(bath_from_rates=0, lyapunov_moments=0)
    config = write_config(tmp_path, {**NON_CP_BATH, "sweep": dict(axes)})
    assert run(["sweep", "--config", config, "--out", str(tmp_path / "sweep.json")]) == 0
    assert calls == {"bath_from_rates": 1, "lyapunov_moments": 0}


def test_a_gap_past_the_float_range_is_written_not_raised(tmp_path, capsys):
    # (g/gamma)^2 = 1e328 raised OverflowError out of check_stability, and so
    # out of sweep and derive; the gap is +inf, as the sweep's arrays give it
    rates = SWEEP_BASES["gap_overflow"]
    assert check_stability(bath_from_rates(**rates)).positivity_gap == math.inf
    config = {"bath": rates, "sweep": {"g": [rates["g"]]}}
    assert run(["sweep", "--config", write_config(tmp_path, config)]) == 0
    out = json.loads(capsys.readouterr().out)
    row = dict(zip(out["header"], out["rows"][0]))
    assert row["positivity_gap"] == math.inf and row["lindblad_positive"] is True


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


# ---------------------------------------------------------------------------
# output text: the encoder against a value-by-value reference

def reference_jsonable(value):
    """The JSON form of one value, as ``json.dumps`` would be given it value by value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def reference_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def written(doc, fmt):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli._write(None, doc, fmt)
    return text.getvalue()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1,
                  -1.5e300, math.nan, math.inf, -math.inf]
# a private-use character, the characters of its escape, a quote and a newline
MARK_TEXT = st.text(alphabet=["\ue000", "\\", "u", "e", "0", "1", '"', "a", "\n"], max_size=6)
# float32 has its own subnormals and rounds 1e16 and 1e-5
SPECIAL_FLOAT32 = [0.0, -0.0, float(np.float32(1e-45)), float(np.float32(1e16)),
                   float(np.float32(1e-5)), math.nan, math.inf, -math.inf]


def float_arrays(dtype, width, specials):
    elements = st.floats(width=width) | st.sampled_from(specials)
    return hnp.arrays(dtype, st.integers(0, 6), elements=elements)


ARRAYS = st.one_of(
    float_arrays(np.float64, 64, SPECIAL_FLOATS),
    float_arrays(np.float32, 32, SPECIAL_FLOAT32),
    float_arrays(np.float64, 64, SPECIAL_FLOATS).filter(lambda a: np.isfinite(a).all()),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=3),
               elements=st.floats(width=64)),
    hnp.arrays(np.int64, st.integers(0, 4)),
    hnp.arrays(np.bool_, st.integers(0, 4)),
    hnp.arrays(np.complex128, st.integers(0, 3),
               elements=st.complex_numbers(allow_nan=False, allow_infinity=False)),
)
# np.float64 is a float to json; the others reach it through default=
NUMPY_SCALARS = st.one_of(
    st.floats(width=16).map(np.float16), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from(SPECIAL_FLOATS),
    st.complex_numbers(), MARK_TEXT, st.text(max_size=4), ARRAYS, NUMPY_SCALARS,
)
# keys json converts to strings: numbers, booleans and None
KEYS = MARK_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
DOCS = st.dictionaries(
    MARK_TEXT | st.text(max_size=3),
    st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                 | st.lists(inner, max_size=4).map(tuple)
                 | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12),
    max_size=5,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=DOCS)
@example(doc={"\ue0000": np.array([1.0, -0.0]), "x": [np.array([1e16])]})
@example(doc={"a": [{"b": np.array([5e-324, 1e-5])}, "\ue0001"], "c": np.array([math.nan])})
@example(doc={"\\ue000": {"\ue0000": np.array([0.5])}, "d": np.array([0.25, 1e22])})
def test_json_text_equals_the_value_by_value_encoding(doc):
    expected = json.dumps(doc, indent=1, default=reference_jsonable) + "\n"
    assert written(doc, "json") == expected


def csv_columns(n):
    floats = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)
    cells = st.one_of(floats, st.booleans(), st.integers(), st.text(alphabet="ab", max_size=3))
    return st.one_of(
        hnp.arrays(np.float64, n, elements=floats),
        hnp.arrays(np.float32, n,
                   elements=st.floats(width=32) | st.sampled_from(SPECIAL_FLOAT32)),
        hnp.arrays(np.int64, n),
        hnp.arrays(np.bool_, n),
        st.lists(cells, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n).map(tuple),
    )


@st.composite
def csv_docs(draw):
    n = draw(st.integers(0, 6))
    columns = draw(st.lists(csv_columns(n), min_size=1, max_size=5))
    header = [f"c{k}" for k in range(len(columns))]
    return {"header": header, "columns": columns,
            "comments": draw(st.lists(st.text(alphabet="ab =", max_size=5), max_size=2))}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=csv_docs())
def test_csv_text_equals_the_cell_by_cell_table(doc):
    lines = [f"# {c}" for c in doc["comments"]] + [",".join(doc["header"])]
    lines += [",".join(map(reference_cell, row)) for row in zip(*doc["columns"])]
    assert written(doc, "csv") == "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", [1, 2])
def test_text_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # every chunk boundary falls inside the property tests' tables and arrays
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    test_csv_text_equals_the_cell_by_cell_table()
    test_json_text_equals_the_value_by_value_encoding()


def test_long_tables_and_arrays_are_written_across_chunks():
    rng = np.random.default_rng(5)
    rows = 3 * cli._CHUNK - 72  # two whole chunks and a part
    table = {"header": ["a", "b", "c", "d"],
             "columns": [rng.standard_normal(rows), np.arange(rows), [True, False] * (rows // 2),
                         rng.standard_normal(rows).astype(np.float32)],
             "comments": ["long"]}
    lines = ["# long", "a,b,c,d"] + [",".join(map(reference_cell, row))
                                     for row in zip(*table["columns"])]
    assert written(table, "csv") == "\n".join(lines) + "\n"
    doc = {"x": rng.standard_normal(5000), "y": [{"z": rng.uniform(size=5000)}, "\ue0000"],
           "w": rng.standard_normal(5000).astype(np.float32), "v": np.full(5000, 0.25)}
    assert written(doc, "json") == json.dumps(doc, indent=1, default=reference_jsonable) + "\n"


# every special the formatter writes apart from Schubfach's digits, and
# the shortest and longest cells: at the first and last cell of each batch
BATCH_ENDS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5]


def at_batch_ends(values, step, turn=0):
    """``values`` with BATCH_ENDS, turned by ``turn``, at the start and the
    end of every run of ``step`` values, the first and last cell of each run
    special."""
    values = values.copy()
    ends = np.roll(np.array(BATCH_ENDS), turn)
    for k, lo in enumerate(range(0, values.size, step)):
        hi = min(lo + step, values.size)
        values[lo:lo + ends.size] = np.roll(ends, 3 * k)
        values[hi - ends.size:hi] = np.roll(ends, 3 * k)[::-1]
    return values


def test_batch_boundaries_hold_every_special_float():
    # each array and table is longer than two formatter batches
    rng = np.random.default_rng(31)
    chunk = cli._CHUNK
    n = 2 * chunk + chunk // 2 + 7
    doc = {"x": at_batch_ends(rng.standard_normal(n), chunk),
           "y": [{"z": at_batch_ends(rng.uniform(size=n) * 1e-7, chunk, 4)}],
           "w": at_batch_ends(rng.standard_normal(n), chunk, 2).astype(np.float32)}
    assert written(doc, "json") == json.dumps(doc, indent=1, default=reference_jsonable) + "\n"

    # a CSV chunk formats its two float columns in one batch
    rows = chunk // 2
    n = 2 * rows + rows // 3
    table = {"header": ["a", "b", "c", "d", "e"],
             "columns": [at_batch_ends(rng.standard_normal(n) * 1e20, rows),
                         rng.uniform(size=n) < 0.5,
                         np.array(["up", "down", "ab"])[rng.integers(0, 3, n)],
                         at_batch_ends(rng.standard_normal(n), rows, 5).astype(np.float32),
                         [f"r{k}" for k in range(n)]]}
    lines = ["a,b,c,d,e"] + [",".join(map(reference_cell, row)) for row in zip(*table["columns"])]
    assert written(table, "csv") == "\n".join(lines) + "\n"

    # a row table: about CHUNK cells of its three columns a batch
    rows = chunk // 3
    n = 2 * rows + 11
    columns = [at_batch_ends(rng.standard_normal(n), rows), rng.uniform(size=n) < 0.5,
               at_batch_ends(rng.standard_normal(n) * 1e-300, rows, 6)]
    rows_doc = {"rows": cli._Rows(columns)}
    listed = [list(row) for row in zip(*(column.tolist() for column in columns))]
    assert written(rows_doc, "json") == json.dumps({"rows": listed}, indent=1) + "\n"


def formatter_text(values, json_text=False):
    """The formatter's cells of ``values``, one a line."""
    return b"".join(cli._assemble([cli._repr_cells(values[lo:lo + cli._CHUNK], json_text), b"\n"],
                                  values[lo:lo + cli._CHUNK].size)
                    for lo in range(0, values.size, cli._CHUNK)).decode()


def test_formatter_is_repr_on_raw_bit_patterns_and_powers():
    rng = np.random.default_rng(2024)
    # repr itself takes about 1.1 s over these, most of it on the largest exponents
    patterns = rng.integers(0, 2**64, 600_000, dtype=np.uint64).view(np.float64)
    powers = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)]).view(np.uint64)
    neighbours = np.concatenate([powers - 1, powers, powers + 1]).view(np.float64)
    f32 = np.finfo(np.float32)
    float32 = np.array(SPECIAL_FLOAT32 + [f32.max, -f32.max, f32.tiny, f32.smallest_subnormal,
                                          f32.eps, 16777217.0], dtype=np.float32)
    for values in (patterns, neighbours, float32):
        assert formatter_text(values) == "".join(repr(v) + "\n" for v in values.tolist())
    # as JSON, the non-finite values are json's tokens
    for values in (neighbours, float32):
        assert formatter_text(values, True) == "".join(json.dumps(v) + "\n" for v in values.tolist())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_does_not_hold_the_text(tmp_path, fmt):
    # 4 x 200,000 floats are about 16 MB of text; the writer holds a chunk of it
    columns = list(np.random.default_rng(9).standard_normal((4, 200_000)))
    doc = ({"header": ["a", "b", "c", "d"], "columns": columns} if fmt == "csv"
           else dict(zip("abcd", columns)))
    out = tmp_path / "doc"
    tracemalloc.start()
    try:
        cli._write(str(out), doc, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


def test_written_arrays_are_freed_without_a_collection(tmp_path):
    # json's encoder is a reference cycle; the arrays of a written document
    # must not wait in it for the garbage collector
    values = np.linspace(0.0, 1.0, 5)
    freed = weakref.ref(values)
    gc.disable()
    try:
        cli._write(str(tmp_path / "doc.json"), {"S": values})
        del values
        assert freed() is None
    finally:
        gc.enable()


# 20,000 points: 100 gains, 5 phases (two turn unstable), 20 Gammas, 2 etas
SWEEP_20K = {**DESK_BATH, "sweep": {"g": list(np.geomspace(0.1, 80.0, 100)),
                                    "phi": [-math.pi / 2, -1.2, -0.5, 0.4, 1.2],
                                    "Gamma": list(np.geomspace(5.0, 100.0, 20)), "eta": [0.5, 1.0]}}


def test_sweep_json_writer_does_not_hold_the_text(tmp_path):
    # as a list of row lists, json.dumps held about 23.6 MB for this 4.2 MB document
    doc = cli.cmd_sweep(SWEEP_20K, types.SimpleNamespace(format="json"))
    out = tmp_path / "sweep.json"
    tracemalloc.start()
    try:
        cli._write(str(out), doc, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


def test_sweep_json_is_the_list_form_text(tmp_path):
    # unstable rows carry NaN and false: json's tokens, not repr's nan
    doc = cli.cmd_sweep(SWEEP_20K, types.SimpleNamespace(format="json"))
    rows = [list(row) for row in zip(*(column.tolist() for column in doc["rows"].columns))]
    assert any(math.isnan(row[5]) for row in rows) and not all(row[9] for row in rows)
    expected = json.dumps({"header": doc["header"], "rows": rows}, indent=1) + "\n"
    assert written(doc, "json") == expected


TABLE_FLOATS = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def row_tables(draw):
    n = draw(st.integers(0, 5))
    columns = draw(st.lists(hnp.arrays(np.float64, n, elements=TABLE_FLOATS)
                            | hnp.arrays(np.bool_, n), min_size=1, max_size=4))
    return {"a": [1.5, "\ue0000"], "rows": cli._Rows(columns), "z": {"w": np.array([0.5])}}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=row_tables())
def test_json_row_table_is_the_list_form_text(doc):
    table = doc["rows"]
    rows = [list(row) for row in zip(*(column.tolist() for column in table.columns))]
    expected = json.dumps({**doc, "rows": rows}, indent=1, default=reference_jsonable) + "\n"
    for chunk in (1, 2, 5, cli._CHUNK):  # 1 and 2 cells a piece write one row a piece
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert written(doc, "json") == expected


SWEEP_CONFIG = {**DESK_BATH, "sweep": {"g": [0.0, 10.0, 50.0], "phi": [-math.pi / 2, 1.2]}}
CANONICAL_SIM = {**DESK_BATH, "sim": {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 2.0,
                                      "n_traj": 2, "welch_segment": 1024}}
CANONICAL = {
    "derive": ("derive", None, []),
    "variance_json": ("variance", DESK_BATH, []),
    "variance_csv": ("variance", DESK_BATH, ["--format", "csv"]),
    "spectrum_json": ("spectrum", DESK_BATH, []),
    "spectrum_csv": ("spectrum", DESK_BATH, ["--format", "csv"]),
    "fig1_json": ("spectrum", DESK_BATH, ["--fig1"]),
    "fig1_csv": ("spectrum", DESK_BATH, ["--fig1", "--format", "csv"]),
    "g_list_json": ("spectrum", DESK_BATH, ["--g-list", "0,25,50"]),
    "g_list_csv": ("spectrum", DESK_BATH, ["--g-list", "0,25,50", "--format", "csv"]),
    "sweep_json": ("sweep", SWEEP_CONFIG, []),
    "sweep_csv": ("sweep", SWEEP_CONFIG, ["--format", "csv"]),
    "simulate": ("simulate", CANONICAL_SIM, []),
    "simulate_files": ("simulate", CANONICAL_SIM, ["--out", "{out}"]),
    "compare": ("compare", CANONICAL_SIM, []),
    "fock": ("fock", {**FOCK_DESK_BATH, "fock": {"dim": 66}}, []),
}


@pytest.mark.parametrize("verb,config,argv", CANONICAL.values(), ids=CANONICAL)
def test_output_is_canonical_indent_1_text_with_repr_floats(tmp_path, capsys, verb, config,
                                                            argv):
    cfg = str(REFERENCE_CONFIG) if config is None else write_config(tmp_path, config)
    base = tmp_path / "result"
    argv = [a.replace("{out}", str(base)) for a in argv]
    assert run([verb, "--config", cfg, *argv]) == 0
    stdout = capsys.readouterr().out
    if "--out" in argv:  # simulate's stats document and PSD table
        texts = [("json", Path(f"{base}.stats.json").read_text()),
                 ("csv", Path(f"{base}.psd.csv").read_text())]
    else:
        texts = [("csv" if "csv" in argv else "json", stdout)]
    for fmt, text in texts:
        if fmt == "json":
            assert json.dumps(json.loads(text), indent=1) + "\n" == text
        else:
            rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
            floats = [c for line in rows for c in line.split(",") if is_number(c)]
            assert floats and all(repr(float(c)) == c for c in floats)


def is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


class FullStdout(io.StringIO):
    """A stdout on a full disk: ``write`` or ``flush`` raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_is_refused(tmp_path, capsys, monkeypatch, failing):
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    code = run(["spectrum", "--config", write_config(tmp_path, DESK_BATH), "--format", "csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error: out: cannot write to stdout:")
    assert "No space left on device" in err


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


def _fresh_python(script: str, *argv: str) -> Any:
    """The JSON that ``script`` prints, run in a fresh interpreter on this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return json.loads(proc.stdout)


# runs every submodule of the package, then each verb in the same process,
# printing the scipy modules loaded after each step
_SCIPY_FREE_SCRIPT = """
import importlib, json, pkgutil, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

import mirrorcool
for module in pkgutil.iter_modules(mirrorcool.__path__):
    if not module.name.startswith("_"):  # __main__ runs the CLI on import
        importlib.import_module(f"mirrorcool.{module.name}")
loaded = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]).items():
    loaded[name] = [mirrorcool.cli.main(argv), scipy_modules()]
print(json.dumps(loaded))
"""


def assert_scipy_free(tmp_path, verbs):
    """Run ``verbs`` in one fresh process: each exits 0 and none loads a scipy module."""
    runs = {name: [*argv, "--out", str(tmp_path / f"{name}.out")] for name, argv in verbs.items()}
    loaded = _fresh_python(_SCIPY_FREE_SCRIPT, json.dumps(runs))
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


def test_fock_loads_no_scipy(tmp_path):
    fock = write_config(tmp_path, {**FOCK_DESK_BATH, "fock": {"dim": 66}})
    assert_scipy_free(tmp_path, {
        "fock": ["fock", "--config", fock],
        "fock_dump": ["fock", "--config", fock, "--dump-rho"],
    })


def _refuse_linalg(monkeypatch):
    """Make every numpy.linalg function raise, and np.roots, which calls the
    eigvals it imported itself."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "roots", refuse)


def test_monte_carlo_and_lyapunov_routes_call_no_linalg(tmp_path, capsys, monkeypatch):
    # every matrix of these routes is 2x2 and solved in closed form, and
    # optimize_gain bisects on the sign of its quartic; only fock keeps LAPACK
    _refuse_linalg(monkeypatch)
    for solve in (np.linalg.eigvals, np.roots):
        with pytest.raises(AssertionError, match="numpy.linalg called"):
            solve(np.eye(2))
    bath = bath_from_rates(**DESK_BATH["bath"])
    g_opt, var_min = optimize_gain(bath, (0.0, 1e3))
    assert 0 < g_opt < 1e3 and var_min == closed_form_moments(with_gain(bath, g_opt)).var_x
    stats = mirrorcool.simulate(bath, mirrorcool.SimConfig(**SIM))
    assert math.isfinite(mirrorcool.psd_vs_analytic(stats).peak_rel_dev)
    assert math.isfinite(mirrorcool.lyapunov_moments(with_gain(bath, 10.0)).var_x)
    sim = write_config(tmp_path, {**DESK_BATH, "sim": SIM}, "sim.json")
    sweep = write_config(tmp_path, {**DESK_BATH, "sweep": {"g": [10.0, 50.0], "phi": [-1.0, 0.3]}},
                         "sweep.json")
    for argv in (["compare", "--config", sim], ["variance", "--config", sim],
                 ["sweep", "--config", sweep]):
        assert run(argv) == 0, argv
    capsys.readouterr()


SIM = {"dt": 1.25e-3, "t_relax": 0.5, "t_sample": 4.0, "n_traj": 8, "seed": 5,
       "welch_segment": 1024}
SETUP = json.loads(REFERENCE_CONFIG.read_text())["setup"]


# the mirrorcool modules whose body has run, the numpy modules loaded, and
# whether an executor was imported; a registered module that has not run
# still has the lazy module class
_RAN_SCRIPT = """
import json, sys, types

def ran():
    return sorted(n.removeprefix("mirrorcool.") for n, m in list(sys.modules.items())
                  if n.startswith("mirrorcool.") and type(m) is types.ModuleType)

def numpy_modules():
    return sorted(m for m in ("numpy", "numpy.polynomial") if m in sys.modules)

def executor_imported():
    return "concurrent.futures" in sys.modules
"""

_COLD_VERB = _RAN_SCRIPT + """
import mirrorcool.cli
code = mirrorcool.cli.main(sys.argv[1:])
print(json.dumps([code, ran(), numpy_modules(), executor_imported()]))
"""

_BASE = ["bath", "cli", "errors", "params"]
_MONTE_CARLO = sorted([*_BASE, "langevin", "steady_state"])  # simulate evaluates no spectrum

# verb -> (config, the modules it runs); derive alone runs without numpy
COLD_VERBS = {
    "derive": ({"setup": SETUP}, _BASE),
    "variance": (DESK_BATH, sorted([*_BASE, "steady_state"])),
    "spectrum": ({**DESK_BATH, "grid": {"n_points": 64}},
                 sorted([*_BASE, "spectrum", "steady_state"])),
    "sweep": ({**DESK_BATH, "sweep": {"g": [10.0, 50.0]}}, sorted([*_BASE, "steady_state"])),
    "simulate": ({**DESK_BATH, "sim": SIM}, _MONTE_CARLO),
    "compare": ({**DESK_BATH, "sim": SIM}, sorted([*_MONTE_CARLO, "spectrum"])),
    "fock": ({**FOCK_DESK_BATH, "fock": {"dim": 66}}, sorted([*_BASE, "fock"])),
}


@pytest.mark.parametrize("verb", COLD_VERBS)
def test_cold_verb_runs_only_the_modules_it_calls(tmp_path, verb):
    config, modules = COLD_VERBS[verb]
    code, ran, numpy, executor = _fresh_python(_COLD_VERB, verb, "--config",
                                               write_config(tmp_path, config),
                                               "--out", str(tmp_path / f"{verb}.out"))
    assert code == 0
    assert ran == modules
    # no verb loads numpy.polynomial
    assert numpy == ([] if verb == "derive" else ["numpy"])
    # the Monte Carlo workers are plain threads, with no executor behind them
    assert not executor


# runs each verb in one fresh process, and reports after each whether the
# formatter's table of powers of ten has been built
_TABLE_SCRIPT = """
import json, sys
from mirrorcool import cli
built = []
for argv in json.loads(sys.argv[1]):
    built.append([cli.main(argv), cli._powers.cache_info().currsize])
print(json.dumps(built))
"""


def test_verbs_that_write_no_float_array_build_no_power_table(tmp_path):
    verbs = ["derive", "variance", "compare", "fock", "spectrum"]
    argvs = [[verb, "--config", write_config(tmp_path, COLD_VERBS[verb][0], f"{verb}.json"),
              "--out", str(tmp_path / f"{verb}.out")] for verb in verbs]
    built = _fresh_python(_TABLE_SCRIPT, json.dumps(argvs))
    # spectrum, last, writes float arrays: it builds the table
    assert built == [[0, 0]] * 4 + [[0, 1]]


def test_package_import_runs_no_submodule_and_registers_every_traced_layer():
    # the benchmark's tracer (bench/tracing.py) finds each traced layer in
    # sys.modules right after importing the CLI, and wraps it there
    script = _RAN_SCRIPT + """
import mirrorcool
package = ran()
import mirrorcool.cli
print(json.dumps([package, sorted(n for n in sys.modules if n.startswith("mirrorcool."))]))
"""
    package, registered = _fresh_python(script)
    assert package == []
    layers = {"params", "bath", "steady_state", "spectrum", "langevin", "fock"}
    assert {f"mirrorcool.{n}" for n in layers} <= set(registered)


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
    # step counts past any array index, refused before any work
    "sim_t_sample_huge": ("simulate",
                          {**DESK_BATH, "sim": {**SIM, "dt": 1e-3, "t_sample": 1e300}}, [],
                          *refused("t_sample")),
    "sim_t_relax_huge": ("simulate",
                         {**DESK_BATH, "sim": {**SIM, "dt": 1e-3, "t_relax": 1e300}}, [],
                         *refused("t_relax")),
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
    # 4*eta*Gamma underflows to 0: g^2/(4*eta*Gamma) divided by zero
    "eta_Gamma_underflow": ("variance", with_bath(eta=1e-200, Gamma=1e-200), [],
                            *failed("bath coefficients overflowed: float division by zero")),
    "sweep_eta_Gamma_underflow": ("sweep", {**DESK_BATH, "sweep": {"eta": [1.0, 1e-200],
                                                                   "Gamma": [1e-200]}}, [],
                                  *failed("bath coefficients overflowed: float division by zero")),
    # a finite bath whose Lyapunov var_p (about 1e322) is past the float range
    "lyapunov_overflow": ("variance", with_bath(omega_m=1e-160, gamma_m=0.0, g=1.0, phi=-1.0), [],
                          *failed("steady covariance leaves the float range")),
    # the closed forms' 2*(gamma_m + g)*(omega_m^2 + gamma_m*g) underflows to 0
    "closed_form_denominator_underflow": ("variance",
                                          with_bath(omega_m=1e-150, gamma_m=1e-300, Gamma=0.0,
                                                    n_bar=3.0, g=0.0),
                                          [], *failed("closed-form denominator")),
    "grid_span_overflow": ("spectrum",
                           {**DESK_BATH, "grid": {"omega_min": -1e308, "omega_max": 1e308}},
                           [], *failed("non-finite spectrum")),
    "sweep_T_underflow": ("sweep", {**with_bath(omega_m=1e-300), "sweep": {"T": [1.0]}}, [],
                          *failed("hbar*omega_m underflows")),
    # |Xi|^2 is zero at the grid points w = +-omega_m once (gamma_m + g)^2 underflows:
    # a refusal, not a divide-by-zero warning
    "spectrum_denominator_underflow": ("spectrum",
                                       {"bath": {**FOCK_DESK_BATH["bath"], "gamma_m": 1e-300,
                                                 "g": 1e-300}},
                                       [], *failed("non-finite spectrum value")),
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
    assert err.startswith(text)
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["--fig1"], ["--g-list", "0,5"]],
                         ids=["plain", "fig1", "g_list"])
def test_spectrum_at_rates_near_the_float_range_ends_in_a_value_or_one_error_line(
        tmp_path, capsys, argv):
    # cubes of omega_m = 1e101 overflow; the sum rule squares the rates at most
    code = run(["spectrum", "--config", write_config(tmp_path, with_bath(omega_m=1e101)), *argv])
    err = capsys.readouterr().err
    assert code in {0, 4}
    assert err.count("\n") == (code == 4)
    assert not code or err.startswith("numerical failure:")


@pytest.mark.parametrize("argv", [[], ["--fig1"], ["--g-list", "0,5"]],
                         ids=["plain", "fig1", "g_list"])
def test_spectrum_refuses_a_failed_sum_rule_before_writing(tmp_path, capsys, argv):
    # at omega_m = 1e100 the resonance is narrower than the float spacing
    # there: no quadrature node sees it, and the integral misses <X^2>
    out = tmp_path / "spectrum.json"
    config = write_config(tmp_path, with_bath(omega_m=1e100))
    assert run(["spectrum", "--config", config, "--out", str(out), *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: sum rule fails for ")
    assert ("for S:" if not argv else "for g=0:") in err
    assert err.count("\n") == 1
    assert not out.exists()


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
                "sim": cli._fields(mirrorcool.langevin.SimConfig), "fock": cli._FOCK,
                "sweep": cli._SWEEP}
    assert set(documented) == set(accepted)
    for block, (kinds, _) in accepted.items():
        assert documented[block] == set(kinds), block
