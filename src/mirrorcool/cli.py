"""Batch command-line interface: config ingestion, dispatch, serialization.

Verbs: derive, variance, spectrum, simulate, fock, sweep, compare.
A single JSON config document drives every verb; all randomness is pinned
by explicit seeds, so repeated invocations produce identical files.

Exit codes: 0 success, 2 validation, 3 instability, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import math
import sys
import typing
from pathlib import Path
from typing import Any

import numpy as np

from . import fock as fock_mod
from .bath import (
    EffectiveBath,
    _stability_margins,
    bath_from_rates,
    build_bath,
    check_stability,
    with_gain,
)
from .errors import (
    InvalidSetupError,
    MirrorCoolError,
    NumericalError,
    StabilityError,
    TruncationError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
)
from .langevin import SimConfig, psd_vs_analytic, simulate
from .params import DerivedCoupling, PhysicalConstants, PhysicalSetup, derive_coupling
from .spectrum import default_grid, eval_spectrum, fig1_scale, sum_rule_check
from .steady_state import _PHASE_TOL, closed_form_moments, high_gain_moments, lyapunov_moments

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_NUMERICAL = 4

# ---------------------------------------------------------------------------
# serialization helpers

def _plain(value: Any) -> Any:
    """Make dataclasses/arrays/complex JSON-representable, full precision."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _write(out: str | None, doc: dict, fmt: str = "json") -> None:
    """Write ``doc`` to the file ``out``, or to stdout, as JSON or CSV.

    A CSV document is a table: ``header``, ``rows`` and optional
    ``comments``, which lead the file as ``#`` lines.
    """
    if fmt == "json":
        text = json.dumps(_plain(doc), indent=1) + "\n"
    else:
        lines = [f"# {c}" for c in doc.get("comments", ())]
        lines.append(",".join(doc["header"]))
        lines += [",".join(map(_csv_cell, row)) for row in doc["rows"]]
        text = "\n".join(lines) + "\n"
    if out:
        _save(out, text.encode("utf-8"))
    else:
        print(text, end="")


def _save(path: str, data: bytes) -> None:
    """Write ``data`` to ``path``; a path that cannot be written is a bad --out."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ValidationError("out", f"cannot write {path}: {exc}") from exc


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# config ingestion

def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("config", f"cannot read {path}: {exc}") from exc
    try:
        config = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ValidationError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config", "top-level document must be an object")
    return config


def _value(name: str, value: Any, kind: type) -> Any:
    """One config value as a finite float, an integral int or a list of floats."""
    if kind is list:
        if not isinstance(value, list) or not value:
            raise ValidationError(name, f"expected a nonempty list of numbers, got {value!r}")
        return [_value(name, v, float) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(name, f"expected a number, got {value!r}")
    if kind is int:
        # a JSON integer stays exact; a float must be integral
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(name, f"expected an integer, got {value!r}")
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(name, f"expected a finite number, got {value!r}")
    return number


def _block(config: dict, name: str, kinds: dict[str, type], required: set[str]) -> dict:
    """Typed fields of the ``name`` block: refuses a non-object, missing, unknown."""
    block = config.get(name)
    if not isinstance(block, dict):
        raise ValidationError(name, "missing or not an object")
    missing = required - set(block)
    if missing:
        raise ValidationError(sorted(missing)[0], f"missing {name} field")
    unknown = set(block) - set(kinds)
    if unknown:
        raise ValidationError(sorted(unknown)[0], f"unknown {name} field")
    return {k: _value(k, v, kinds[k]) for k, v in block.items()}


def _fields(cls) -> tuple[dict[str, type], set[str]]:
    """Field kinds and required names of a config dataclass."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING})


_SWEEP_AXES = ("g", "phi", "Gamma", "eta", "T")
_BATH_KEYS = ("omega_m", "gamma_m", "Gamma", "eta", "n_bar", "g", "phi")

_SETUP = _fields(PhysicalSetup)
_CONSTANTS = _fields(PhysicalConstants)
_SIM = _fields(SimConfig)
_BATH = (dict.fromkeys(_BATH_KEYS, float), set(_BATH_KEYS))
_GRID = ({"omega_min": float, "omega_max": float, "n_points": int}, set())
_FOCK = ({"dim": int, "max_nbar": float, "max_dim": int}, set())
_SWEEP = (dict.fromkeys(_SWEEP_AXES, list), set())


def _constants(config: dict) -> PhysicalConstants:
    if config.get("unsafe_constants") is None:
        return PhysicalConstants()
    return PhysicalConstants(**_block(config, "unsafe_constants", *_CONSTANTS))


def _inputs(
    config: dict,
) -> tuple[PhysicalConstants, PhysicalSetup | None, DerivedCoupling | None]:
    """The constants, plus the setup and its coupling when ``setup`` is given."""
    has_setup = "setup" in config
    if has_setup == ("bath" in config):
        raise ValidationError(
            "config", "exactly one of 'setup' and 'bath' must be present"
        )
    constants = _constants(config)
    if not has_setup:
        return constants, None, None
    setup = PhysicalSetup(**_block(config, "setup", *_SETUP))
    return constants, setup, derive_coupling(setup, constants)


def _resolve_bath(config: dict) -> tuple[EffectiveBath, PhysicalConstants]:
    """Build the effective bath from exactly one of setup / bath override."""
    constants, setup, coupling = _inputs(config)
    if setup is None:
        return bath_from_rates(**_block(config, "bath", *_BATH)), constants
    return build_bath(coupling, setup), constants


def _scalar_fields(result) -> dict:
    """The number-valued fields of a result dataclass, in declaration order."""
    kinds, _ = _fields(type(result))
    return {name: getattr(result, name) for name, kind in kinds.items()
            if kind in (int, float, complex)}


def _grid(config: dict, bath: EffectiveBath) -> np.ndarray:
    default = default_grid(bath)
    if config.get("grid") is None:
        return default
    block = _block(config, "grid", *_GRID)
    omega_min = block.get("omega_min", default[0])
    omega_max = block.get("omega_max", default[-1])
    n_points = block.get("n_points", default.size)
    if n_points < 2 or not omega_max > omega_min:
        raise ValidationError("grid", "need omega_max > omega_min and n_points >= 2")
    try:
        # SpectrumSeries refuses the spectrum of points beyond the float range
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linspace(omega_min, omega_max, n_points)
    except (ValueError, IndexError, MemoryError) as exc:
        raise ValidationError("n_points", f"cannot allocate the grid: {exc}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_derive(config: dict, args) -> dict:
    if "setup" not in config:
        raise ValidationError("setup", "derive requires a physical setup block")
    _, setup, coupling = _inputs(config)
    try:
        bath = build_bath(coupling, setup)
    except UnstableBathError as exc:
        # reporting is not an error: emit the margins even where the bath
        # coefficients themselves are ill-defined (gamma <= 0)
        damping, spring, _ = _stability_margins(
            coupling.omega_m, setup.gamma_m, setup.g, setup.phi
        )
        return {
            "coupling": coupling,
            "bath": None,
            "bath_error": str(exc),
            "stability": {
                "stable": False,
                "lindblad_positive": False,
                "margin_damping": damping,
                "margin_spring": spring,
                "positivity_gap": math.nan,
            },
        }
    return {"coupling": coupling, "bath": bath, "stability": check_stability(bath)}


def cmd_variance(config: dict, args) -> dict:
    bath, constants = _resolve_bath(config)
    # the closed forms exist only at phi = -pi/2; the Lyapunov route
    # covers every stable phase
    report = {}
    if abs(bath.phi + math.pi / 2) <= _PHASE_TOL:
        report["closed_form"] = closed_form_moments(bath, constants)
    report["lyapunov"] = lyapunov_moments(bath, constants)
    # the high-gain form divides by gamma_m*g^2
    if bath.gamma_m * bath.g**2 > 0 and "closed_form" in report:
        report["high_gain"] = high_gain_moments(bath, constants)
    if args.format == "csv":
        return {
            "header": ["method", "var_x", "var_p", "cov_xp_sym", "t_eff"],
            "rows": [[name, m.var_x, m.var_p, m.cov_xp_sym, m.t_eff]
                     for name, m in report.items()],
        }
    return report


def cmd_spectrum(config: dict, args) -> dict:
    bath, constants = _resolve_bath(config)

    if args.fig1 or args.g_list is not None:
        g_values = [0.0, 1.0, 10.0, 100.0, 1000.0]
        if args.g_list is not None:
            try:
                g_values = _value("g_list", [float(x) for x in args.g_list.split(",")], list)
            except ValueError:  # a piece that is not a number
                raise ValidationError(
                    "g_list", f"expected comma-separated numbers, got {args.g_list!r}"
                ) from None
            if len({f"{g:g}" for g in g_values}) < len(g_values):
                raise ValidationError(
                    "g_list", f"gains equal to 6 digits would share a column: {args.g_list!r}"
                )
        grid = (
            np.linspace(0.0, 8 * bath.omega_m, 2048)
            if config.get("grid") is None
            else _grid(config, bath)
        )
        var_x_g0 = closed_form_moments(with_gain(bath, 0.0), constants).var_x
        columns, sum_rules = {}, {}
        for g in g_values:
            bath_g = with_gain(bath, g)
            series = eval_spectrum(bath_g, grid)
            if args.fig1:
                series = fig1_scale(series, var_x_g0)
            columns[f"S_g{g:g}"] = series.values
            integral, var_x, rel = sum_rule_check(bath_g)
            sum_rules[f"g={g:g}"] = {
                "integral": integral, "var_x": var_x, "rel_err": rel,
            }
        if args.format == "csv":
            return {
                "header": ["omega", *columns],
                "rows": zip(grid, *columns.values()),
                "comments": [
                    f"sum_rule {k}: integral={v['integral']!r} var_x={v['var_x']!r} "
                    f"rel_err={v['rel_err']:.3e}"
                    for k, v in sum_rules.items()
                ],
            }
        return {
            "omega": grid,
            "series": columns,
            "normalization": "fig1_scaled" if args.fig1 else "raw",
            "sum_rule": sum_rules,
        }

    series = eval_spectrum(bath, _grid(config, bath))
    integral, var_x, rel = sum_rule_check(bath)
    if args.format == "csv":
        return {
            "header": ["omega", "S"],
            "rows": zip(series.omega_grid, series.values),
            "comments": [f"sum_rule: integral={integral!r} var_x={var_x!r} rel_err={rel:.3e}"],
        }
    return {
        "omega": series.omega_grid,
        "S": series.values,
        "normalization": series.normalization,
        "sum_rule": {"integral": integral, "var_x": var_x, "rel_err": rel},
    }


def _sim_config(config: dict, args) -> SimConfig:
    block = _block(config, "sim", *_SIM)
    if args.seed is not None:
        block["seed"] = args.seed
    return SimConfig(**block)


def cmd_simulate(config: dict, args) -> dict | None:
    if args.dump_traj < 0:
        raise ValidationError("dump_traj", f"must be nonnegative, got {args.dump_traj}")
    if args.dump_traj and not args.out:
        raise ValidationError("out", "--dump-traj needs --out for the npz file")
    bath, _ = _resolve_bath(config)
    stats = simulate(bath, _sim_config(config, args), keep_trajectories=args.dump_traj)
    payload = _scalar_fields(stats)
    psd = {"omega": stats.psd_omega, "S": stats.psd_values, "stderr": stats.psd_stderr}
    if not args.out:
        return {**payload, "psd": psd}

    base = str(args.out)
    _write(base + ".stats.json", payload)
    _write(base + ".psd.csv", {"header": list(psd), "rows": zip(*psd.values())}, "csv")
    if stats.raw_trajectories is not None:
        npz = io.BytesIO()
        np.savez_compressed(npz, **stats.raw_trajectories)
        _save(base + ".traj.npz", npz.getvalue())
    return None


def cmd_fock(config: dict, args) -> dict:
    if args.dump_rho and not args.out:
        raise ValidationError("out", "--dump-rho needs --out for the binary file")
    bath, _ = _resolve_bath(config)
    block = {} if config.get("fock") is None else _block(config, "fock", *_FOCK)
    max_nbar = block.get("max_nbar", 50.0)
    max_dim = block.get("max_dim", 400)
    if bath.n_bar > max_nbar:
        raise ValidationError(
            "n_bar",
            f"thermal occupation {bath.n_bar:g} exceeds the Fock ceiling "
            f"{max_nbar:g}; this oracle is for desk-scale parameters",
        )
    needed = fock_mod.required_dim(bath.n_bar)
    grow = "dim" not in block
    dim = block.get("dim", needed)
    if max(dim, needed) > max_dim:
        raise ValidationError(
            "dim", f"required dimension {max(dim, needed)} exceeds ceiling {max_dim}"
        )
    # required_dim counts only the thermal tail of n_bar; feedback heating
    # and squeezing widen the solved state's, so a default dim grows until
    # the tail guard holds
    while True:
        try:
            sol = fock_mod.evolve_to_steady(
                fock_mod.build_generator(bath, dim), fock_mod.FockConfig(dim=dim)
            )
            break
        except TruncationError:
            if not grow:
                raise
            if dim == max_dim:
                raise ValidationError(
                    "dim", f"tail guard not met at the ceiling {max_dim}"
                ) from None
            dim = min(dim + max(4, dim // 4), max_dim)
    if args.dump_rho:
        # row-major complex128: interleaved (re, im) float64 pairs
        _save(str(args.out) + ".rho.bin",
              np.ascontiguousarray(sol.rho, dtype=np.complex128).tobytes())
    return {**_scalar_fields(sol), "dim": dim}


def cmd_sweep(config: dict, args) -> dict:
    bath, constants = _resolve_bath(config)
    block = _block(config, "sweep", *_SWEEP)
    if not block:
        raise ValidationError("sweep", "need a nonempty 'sweep' block")
    axes = [(name, block[name]) for name in _SWEEP_AXES if name in block]
    if "T" in block and not constants.hbar * bath.omega_m > 0:
        raise InvalidSetupError("hbar*omega_m underflows: the T axis has no n_bar")

    header = (
        [name for name, _ in axes]
        + ["gamma", "var_x", "var_p", "cov_xp_sym", "t_eff", "stable",
           "lindblad_positive", "positivity_gap"]
    )
    rows = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(zip((name for name, _ in axes), combo))
        n_bar = bath.n_bar
        if "T" in point:
            n_bar = constants.k_B * point["T"] / (constants.hbar * bath.omega_m)
        try:
            bath_pt = bath_from_rates(
                omega_m=bath.omega_m,
                gamma_m=bath.gamma_m,
                Gamma=point.get("Gamma", bath.Gamma),
                eta=point.get("eta", bath.eta),
                n_bar=n_bar,
                g=point.get("g", bath.g),
                phi=point.get("phi", bath.phi),
            )
            report = check_stability(bath_pt)
        except UnstableBathError:
            report = None
        if report is None or not report.stable:
            row_tail = [math.nan] * 5 + [False, False, math.nan]
        else:
            try:
                m = lyapunov_moments(bath_pt, constants)
                moments = [m.var_x, m.var_p, m.cov_xp_sym, m.t_eff]
            except StabilityError:
                # stable drift, but the moments break the Heisenberg bound:
                # the coefficient block is unphysical here, the report is not
                moments = [math.nan] * 4
            row_tail = [bath_pt.gamma, *moments, True, report.lindblad_positive,
                        report.positivity_gap]
        rows.append(list(combo) + row_tail)
    return {"header": header, "rows": rows}


def cmd_compare(config: dict, args) -> dict:
    bath, constants = _resolve_bath(config)
    stats = simulate(bath, _sim_config(config, args))
    closed = closed_form_moments(bath, constants)
    psd_report = psd_vs_analytic(stats)

    def z(hat, stderr, ref):
        return (hat - ref) / stderr if stderr > 0 else math.inf

    return {
        "moments": {
            "var_x": {"simulated": stats.var_x_hat, "analytic": closed.var_x,
                      "z": z(stats.var_x_hat, stats.var_x_stderr, closed.var_x)},
            "var_p": {"simulated": stats.var_p_hat, "analytic": closed.var_p,
                      "z": z(stats.var_p_hat, stats.var_p_stderr, closed.var_p)},
            "cov_xp": {"simulated": stats.cov_xp_hat, "analytic": closed.cov_xp_sym,
                       "z": z(stats.cov_xp_hat, stats.cov_xp_stderr, closed.cov_xp_sym)},
        },
        "psd": {
            "chi2_per_bin": psd_report.chi2_per_bin,
            "max_abs_z": psd_report.max_abs_z,
            "peak_rel_dev": psd_report.peak_rel_dev,
            "passed": psd_report.passed,
        },
    }


# ---------------------------------------------------------------------------

# the flags a verb may take besides --config and --out
_OPTIONS = {
    "--format": dict(choices=("csv", "json")),
    "--seed": dict(type=int, default=None, help="override sim seed"),
    "--fig1": dict(action="store_true", help="emit the scaled multi-gain dataset"),
    "--g-list": dict(default=None, help="comma-separated gains for the dataset"),
    "--dump-traj": dict(type=int, default=0,
                        help="dump this many raw trajectories (npz; needs --out)"),
    "--dump-rho": dict(action="store_true",
                       help="dump the steady density matrix "
                       "(row-major complex128 binary; needs --out)"),
}

# each verb returns the document main writes to --out (stdout by default),
# or None when it has written its own files
_COMMANDS = {
    "derive": (cmd_derive, ()),
    "variance": (cmd_variance, ("--format",)),
    "spectrum": (cmd_spectrum, ("--format", "--fig1", "--g-list")),
    "simulate": (cmd_simulate, ("--seed", "--dump-traj")),
    "fock": (cmd_fock, ("--dump-rho",)),
    "sweep": (cmd_sweep, ("--format",)),
    "compare": (cmd_compare, ("--seed",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcool",
        description="Feedback cooling of a mirror by homodyne detection: "
        "analytics, Monte Carlo, and number-basis oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(run=fn, format="json")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        doc = args.run(config, args)
        if doc is not None:
            _write(args.out, doc, args.format)
        return EXIT_OK
    except (ValidationError, UnsupportedPhaseError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnstableBathError, StabilityError) as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (NumericalError, MirrorCoolError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
