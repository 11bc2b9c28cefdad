"""Seeded inputs of the two workloads.

``build`` writes one JSON config per operation and returns the operation
list. The seed moves parameter values by a few percent inside fixed
templates; grid sizes, trajectory counts, truncation dimensions and the
pattern of stable and unstable sweep points do not depend on it, so every
seed asks the program for the same amount of work.

An operation is a dict with ``name``, ``kind`` (``cli`` or
``optimize_gain``), ``check`` (which checker in ``checks.py`` judges it)
and, for ``cli``, ``argv`` (``{out}`` stands for the round's output
directory), ``outputs`` (files the verb writes there) and ``config``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli-cold", "warm")

PHI_CLOSED = -math.pi / 2

REFERENCE_SETUP = dict(
    m=10.0, nu_m=10.0, gamma_m=1.0, L=4.0, nu_0=5.82e14, T_r=0.02,
    P_in=10.0, T=300.0, eta=1.0, g=100.0, phi=PHI_CLOSED, Delta=0.0,
)

# phases of the mixed sweeps: the closed-form phase, two off-phase but
# always stable phases, and two phases with sin(phi) > 0 that turn
# unstable once g*sin(phi) >= gamma_m
SWEEP_PHIS = (PHI_CLOSED, -1.2, -0.5, 0.4, 1.2)


class _Draw:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def jitter(self, value: float, rel: float) -> float:
        return value * (1 + rel * (2 * self.rng.random() - 1))

    def log_uniform(self, lo: float, hi: float) -> float:
        return 10 ** self.rng.uniform(lo, hi)

    def seed64(self) -> int:
        return self.rng.getrandbits(63)


def _geom(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _gain_axis(draw: _Draw, n: int, gamma_m: float, phis, lo: float, hi: float) -> list[float]:
    """Gains jittered by 2%, kept 10% away from every stability boundary.

    With omega_m^2 far above gamma_m*g the boundary of each phase is
    g*sin(phi) = gamma_m; a template point closer than 10% to it is
    pushed out, so jitter never moves a point across.
    """
    edges = [gamma_m / math.sin(p) for p in phis if math.sin(p) > 0]
    axis = []
    for g in _geom(lo, hi, n):
        for edge in edges:
            if abs(g / edge - 1) < 0.1:
                g = edge * (1.1 if g >= edge else 0.9)
        axis.append(draw.jitter(g, 0.02))
    return axis


def _desk_bath(draw: _Draw, **fixed) -> dict:
    bath = dict(
        omega_m=draw.uniform(8.0, 12.0),
        gamma_m=draw.uniform(0.5, 2.0),
        Gamma=draw.uniform(20.0, 60.0),
        eta=draw.uniform(0.5, 1.0),
        n_bar=draw.uniform(1.0, 10.0),
        g=draw.uniform(5.0, 50.0),
        phi=PHI_CLOSED,
    )
    bath.update(fixed)
    return bath


def _fock_block(dim: int, fock_fields: set[str], **stepper) -> dict:
    # stepper settings go in only while FockConfig still declares them
    block = {"dim": dim}
    block.update({k: v for k, v in stepper.items() if k in fock_fields})
    return block


def _cli(name, check, verb, config, fmt=None, flags=(), outputs=None):
    """One CLI operation; ``build`` fills in the config path (argv[2])."""
    out = outputs or [f"{name}.{fmt or 'json'}"]
    argv = [verb, "--config", None, "--out", "{out}/" + (out[0] if len(out) == 1 else name)]
    if fmt:
        argv += ["--format", fmt]
    argv += list(flags)
    return {"name": name, "kind": "cli", "check": check, "argv": argv,
            "outputs": out, "config": config, "format": fmt or "json"}


def _cli_cold(draw: _Draw, fock_fields: set[str]) -> list[dict]:
    setup = dict(REFERENCE_SETUP, P_in=draw.uniform(5.0, 15.0),
                 T=draw.uniform(290.0, 310.0), g=draw.uniform(50.0, 200.0))
    bath = _desk_bath(draw)
    grid_fine = {"omega_min": 0.0, "omega_max": 8 * bath["omega_m"], "n_points": 4096}
    grid_coarse = dict(grid_fine, n_points=2048)
    sweep_bath = _desk_bath(draw, gamma_m=1.0)
    phis = [PHI_CLOSED, -1.0, 0.6]
    sweep = {
        "g": _gain_axis(draw, 6, 1.0, phis, 0.5, 90.0),
        "phi": phis,
        "Gamma": [draw.jitter(v, 0.05) for v in (5.0, 20.0, 50.0, 100.0)],
    }
    mc_bath = dict(omega_m=draw.jitter(10.0, 0.02), gamma_m=1.0,
                   Gamma=draw.jitter(40.0, 0.05), eta=1.0,
                   n_bar=draw.uniform(2.0, 4.0), g=draw.jitter(20.0, 0.05), phi=PHI_CLOSED)
    fock_bath = dict(omega_m=10.0, gamma_m=1.0, Gamma=draw.jitter(20.0, 0.02), eta=1.0,
                     n_bar=draw.uniform(0.5, 0.6), g=draw.jitter(10.0, 0.02), phi=PHI_CLOSED)
    return [
        _cli("derive", "derive", "derive", {"setup": setup}),
        _cli("variance", "variance", "variance", {"bath": bath}),
        _cli("spectrum", "spectrum", "spectrum", {"bath": bath, "grid": grid_fine}),
        _cli("fig1", "dataset", "spectrum", {"bath": bath, "grid": grid_coarse},
             fmt="csv", flags=["--fig1"]),
        _cli("sweep", "sweep", "sweep", {"bath": sweep_bath, "sweep": sweep}, fmt="csv"),
        _cli("simulate", "simulate", "simulate",
             {"bath": mc_bath, "sim": dict(dt=2.5e-3, t_relax=2.0, t_sample=20.0, n_traj=64,
                                           seed=draw.seed64(), welch_segment=1024)},
             outputs=["simulate.stats.json", "simulate.psd.csv"]),
        _cli("compare", "compare", "compare",
             {"bath": mc_bath, "sim": dict(dt=4e-3, t_relax=2.0, t_sample=300.0, n_traj=32,
                                           seed=draw.seed64(), welch_segment=1024)}),
        _cli("fock", "fock", "fock",
             {"bath": fock_bath,
              "fock": _fock_block(30, fock_fields, dt=1e-3, t_final=10.0, tol=1e-8)}),
    ]


def _analytic(draw: _Draw) -> list[dict]:
    setup = dict(REFERENCE_SETUP, P_in=draw.uniform(8.0, 12.0), eta=draw.uniform(0.8, 1.0))
    setup_sweep = {
        "T": [draw.jitter(T, 0.002) for T in _geom(280.0, 320.0, 20)],
        "g": [draw.jitter(g, 0.01) for g in _geom(10.0, 5000.0, 50)],
    }
    ops = [_cli("sweep_setup", "sweep", "sweep", {"setup": setup, "sweep": setup_sweep}, fmt="csv")]
    for name, fmt, n_g, n_gamma in (("sweep_desk", "csv", 30, 10), ("sweep_desk_json", "json", 20, 6)):
        bath = _desk_bath(draw, gamma_m=1.0, Gamma=40.0, eta=1.0, n_bar=draw.uniform(1.0, 20.0), g=20.0)
        sweep = {
            "g": _gain_axis(draw, n_g, 1.0, SWEEP_PHIS, 0.3, 80.0),
            "phi": list(SWEEP_PHIS),
            "Gamma": [draw.jitter(v, 0.02) for v in _geom(5.0, 100.0, n_gamma)],
            "eta": [0.5, 1.0],
        }
        ops.append(_cli(name, "sweep", "sweep", {"bath": bath, "sweep": sweep}, fmt=fmt))

    bath = _desk_bath(draw)
    gains = [0.0] + [float(f"{draw.jitter(g, 0.02):.6g}") for g in _geom(0.5, 500.0, 19)]
    g_list = ",".join(f"{g:.6g}" for g in gains)
    fine = {"bath": bath, "grid": {"omega_min": 0.0, "omega_max": 10 * bath["omega_m"], "n_points": 8192}}
    coarse = {"bath": bath, "grid": {"omega_min": 0.0, "omega_max": 10 * bath["omega_m"], "n_points": 4096}}
    for fmt in ("csv", "json"):
        ops.append(_cli(f"glist_{fmt}", "dataset", "spectrum", fine, fmt=fmt, flags=["--g-list", g_list]))
    for fmt in ("csv", "json"):
        ops.append(_cli(f"fig1_{fmt}", "dataset", "spectrum", coarse, fmt=fmt, flags=["--fig1"]))

    # optimize_gain on random stable desk baths, the ranges of the tests'
    # random_stable_bath draw
    for i in range(200):
        bath = dict(
            omega_m=draw.log_uniform(0, 2), gamma_m=draw.log_uniform(-1, 1),
            Gamma=draw.log_uniform(-1, 3), eta=draw.uniform(0.2, 1.0),
            n_bar=draw.log_uniform(0, 4), g=1.0, phi=PHI_CLOSED,
        )
        ops.append({"name": f"optimize_gain_{i:03d}", "kind": "optimize_gain",
                    "check": "optimize_gain", "bath": bath,
                    "g_range": [0.0, draw.log_uniform(1, 3.5)]})
    return ops


def _oracles(draw: _Draw, fock_fields: set[str]) -> list[dict]:
    # acceptance-criterion-4 scale, 384 = 6 full chunks of 64 trajectories
    mc_bath = dict(omega_m=draw.jitter(62.8, 0.02), gamma_m=1.0, Gamma=draw.jitter(200.0, 0.05),
                   eta=1.0, n_bar=draw.jitter(100.0, 0.1), g=draw.jitter(50.0, 0.05), phi=PHI_CLOSED)
    cmp_bath = dict(omega_m=draw.jitter(10.0, 0.02), gamma_m=1.0, Gamma=draw.jitter(40.0, 0.05),
                    eta=1.0, n_bar=draw.uniform(2.5, 3.5), g=draw.jitter(20.0, 0.05), phi=PHI_CLOSED)
    desk = dict(omega_m=10.0, gamma_m=1.0, Gamma=40.0, eta=1.0,
                n_bar=draw.uniform(2.0, 2.2), g=20.0, phi=PHI_CLOSED)
    # zero gain and zero measurement: the thermal block, not completely positive
    thermal = dict(omega_m=10.0, gamma_m=5.0, Gamma=0.0, eta=1.0,
                   n_bar=draw.uniform(1.0, 1.2), g=0.0, phi=PHI_CLOSED)
    return [
        _cli("simulate", "simulate", "simulate",
             {"bath": mc_bath, "sim": dict(dt=1.25e-3, t_relax=2.0, t_sample=25.0, n_traj=384,
                                           seed=draw.seed64(), welch_segment=4096)},
             outputs=["simulate.stats.json", "simulate.psd.csv"]),
        # a few long trajectories: one partial chunk, the per-step loop dominates
        _cli("compare", "compare", "compare",
             {"bath": cmp_bath, "sim": dict(dt=4e-3, t_relax=2.0, t_sample=300.0, n_traj=32,
                                            seed=draw.seed64(), welch_segment=1024)}),
        _cli("fock_desk", "fock", "fock",
             {"bath": desk, "fock": _fock_block(66, fock_fields, dt=5e-4, t_final=10.0, tol=1e-8)}),
        _cli("fock_thermal", "fock", "fock",
             {"bath": thermal, "fock": _fock_block(32, fock_fields, dt=2e-3, t_final=60.0, tol=1e-8)}),
    ]


def build(workload: str, seed: int, directory: Path, fock_fields: set[str]) -> list[dict]:
    """Write the workload's configs under ``directory`` and return its operations."""
    draw = _Draw(workload, seed)
    if workload == "cli-cold":
        ops = _cli_cold(draw, fock_fields)
    elif workload == "warm":
        # the analytic operations, then the oracles, in one interpreter
        ops = _analytic(draw) + _oracles(draw, fock_fields)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op["kind"] == "cli":
            path = directory / f"{op['name']}.config.json"
            path.write_text(json.dumps(op["config"], indent=1), encoding="utf-8")
            op["argv"][2] = str(path)
    (directory / "inputs.json").write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}),
                                           encoding="utf-8")
    return ops


def load(directory: Path) -> list[dict]:
    """Operations written by :func:`build`."""
    return json.loads((directory / "inputs.json").read_text(encoding="utf-8"))["ops"]


def cli_argv(op: dict, out_dir: Path) -> list[str]:
    return [a.replace("{out}", str(out_dir)) for a in op["argv"]]


def digest_round(ops: list[dict], records: list[dict], out: Path, first: list[dict] | None) -> None:
    """Add output hashes and sizes to a round's records.

    Files identical to the first round's are deleted: they get the first
    round's verdict, and disk use stays at one round's worth of outputs.
    """
    for k, (op, rec) in enumerate(zip(ops, records)):
        if op["kind"] != "cli":
            continue
        paths = [out / name for name in op["outputs"]]
        rec["digest"] = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
                         for p in paths]
        rec["bytes"] = sum(p.stat().st_size for p in paths if p.exists())
        if first is not None and rec["digest"] == first[k].get("digest"):
            for p in paths:
                p.unlink(missing_ok=True)
