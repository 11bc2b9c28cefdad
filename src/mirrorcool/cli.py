"""Batch command-line interface: config ingestion, dispatch, serialization.

Verbs: derive, variance, spectrum, simulate, fock, sweep, compare.
A single JSON config document drives every verb; all randomness is pinned
by explicit seeds, so repeated invocations produce identical files.

Exit codes: 0 success, 2 validation, 3 instability, 4 numerical failure;
``main`` takes each from the error's base class (see ``errors``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import re
import sys
import typing
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator

# layer functions are called through their modules, which run on first
# use, and numpy is imported only by the verbs that build arrays: so a
# verb runs only the modules it calls, and derive loads no numpy
from . import bath as bath_mod
from . import fock as fock_mod
from . import langevin, params, spectrum, steady_state
from .errors import (
    MirrorCoolError,
    NumericalError,
    StabilityError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
)

if typing.TYPE_CHECKING:
    import numpy as np

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_NUMERICAL = 4

# ---------------------------------------------------------------------------
# serialization helpers

def _numpy_types(*names: str) -> tuple[type, ...]:
    """The named numpy types, or none while numpy is not loaded: no array or
    numpy scalar exists until it is, so the encoders never load it."""
    np = sys.modules.get("numpy")
    return tuple(getattr(np, name) for name in names) if np else ()


def _jsonable(value: Any) -> Any:
    """The JSON form of a dataclass, complex number, array or numpy scalar."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, _numpy_types("ndarray", "generic")):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_MARK = "\\ue000"  # the private-use character U+E000 as ensure_ascii writes it
_CHUNK = 1024  # CSV rows, JSON array elements or JSON table cells, rendered per write


def _is_float_array(value: Any) -> bool:
    """A float16/32/64 array: its ``tolist()`` holds Python floats."""
    return (isinstance(value, _numpy_types("ndarray")) and value.dtype.kind == "f"
            and value.dtype.itemsize <= 8)


class _Rows:
    """A table that JSON writes as the list of its rows, from its columns:
    equal-length 1-D float or boolean arrays."""

    def __init__(self, columns: list):
        self.columns = columns


def _json_pieces(doc: Any) -> Iterator[str]:
    """``json.dumps(doc, indent=1, default=_jsonable) + "\\n"``, in pieces.

    ``json.dumps`` lays out the document with a placeholder string for each
    nonempty, finite 1-D float array and each ``_Rows`` table: a run of
    U+E000 characters and the value's index, made longer until no string
    of the document holds the run. The text between placeholders is
    yielded as it stands, each array as the same ``indent=1`` block of
    shortest round-trip floats, ``_CHUNK`` elements at a time, and each
    table as the ``indent=1`` list of its rows, about ``_CHUNK`` cells at
    a time. Other values, non-finite arrays among them (``NaN``,
    ``Infinity``), go through ``_jsonable``.
    """
    arrays = []

    def placeholder(value):
        if isinstance(value, _Rows) or (
                _is_float_array(value) and value.ndim == 1 and value.size
                and sys.modules["numpy"].isfinite(value).all()):
            arrays.append(value)
            return "\ue000" * run + str(len(arrays) - 1)
        return _jsonable(value)

    for run in itertools.count(1):
        arrays.clear()
        text = json.dumps(doc, indent=1, default=placeholder)
        # each placeholder holds one run; more runs are the document's own
        if text.count(_MARK * run) == len(arrays):
            break
    # json's encoder holds placeholder, and so its list, in a reference
    # cycle that only a collection frees: the arrays are not left in it
    found = arrays.copy()
    arrays.clear()
    pos = 0
    for match in re.finditer(f'"(?:{re.escape(_MARK)}){{{run}}}(\\d+)"', text):
        yield text[pos:match.start()]
        pos = match.end()
        line = text[text.rfind("\n", 0, match.start()) + 1:match.start()]
        value = found[int(match[1])]
        block = _rows_block if isinstance(value, _Rows) else _float_block
        yield from block(value, line[:len(line) - len(line.lstrip(" "))])
    yield text[pos:] + "\n"


def _float_block(values: np.ndarray, indent: str) -> Iterator[str]:
    """The ``indent=1`` JSON list of ``values`` on a line indented by ``indent``,
    ``_CHUNK`` floats at a time."""
    sep = ",\n" + indent + " "
    yield "[\n" + indent + " "
    for lo in range(0, values.size, _CHUNK):
        yield (sep if lo else "") + sep.join(map(repr, values[lo:lo + _CHUNK].tolist()))
    yield "\n" + indent + "]"


def _rows_block(table: _Rows, indent: str) -> Iterator[str]:
    """The ``indent=1`` JSON list of ``table``'s rows on a line indented by
    ``indent``, about ``_CHUNK`` cells at a time.

    json's own encoder writes each group of rows as a list of rows, cells
    as it writes them (``NaN`` and ``Infinity`` for non-finite floats,
    ``true`` and ``false``), and the separators are then laid out on their
    lines.
    """
    rows = len(table.columns[0]) if table.columns else 0
    if not rows:
        yield "[]"
        return
    step = max(1, _CHUNK // len(table.columns))
    cell = indent + "  "
    row = "\n" + indent + " ],\n" + indent + " [\n" + cell
    yield "[\n" + indent + " [\n" + cell
    for lo in range(0, rows, step):
        text = json.dumps(list(zip(*(c[lo:lo + step].tolist() for c in table.columns))))
        # "[[a, b], [c, d]]": no cell holds "], [" or ", "
        yield (row if lo else "") + text[2:-2].replace("], [", row).replace(", ", ",\n" + cell)
    yield "\n" + indent + " ]\n" + indent + "]"


def _csv_column(column) -> Iterable[str]:
    """The cells of one CSV column; a float or text array is rendered in one pass."""
    if _is_float_array(column):
        return map(repr, column.tolist())
    if isinstance(column, _numpy_types("ndarray")) and column.dtype.kind == "U":
        return column.tolist()
    return map(_csv_cell, column)


def _csv_pieces(doc: dict) -> Iterator[str]:
    """The ``#`` lines and the header, then the rows, ``_CHUNK`` at a time."""
    yield "".join(f"# {c}\n" for c in doc.get("comments", ())) + ",".join(doc["header"]) + "\n"
    columns = doc["columns"]
    for lo in range(0, min(map(len, columns), default=0), _CHUNK):
        rows = zip(*(_csv_column(c[lo:lo + _CHUNK]) for c in columns))
        yield "\n".join(map(",".join, rows)) + "\n"


def _write(out: str | None, doc: dict, fmt: str = "json") -> None:
    """Write ``doc`` to the file ``out``, or to stdout, as JSON or CSV.

    JSON is ``json.dumps(doc, indent=1)`` text with shortest round-trip
    floats (``repr``), ``NaN`` and ``Infinity`` included. A CSV document
    is a table given by columns: ``header``, ``columns`` and optional
    ``comments``, which lead the file as ``#`` lines; float cells are
    ``repr`` floats and booleans ``true``/``false``. The text is written
    as it is rendered, a piece at a time, so the whole of it is never
    held. A file or stdout that cannot be written is refused as a bad
    ``out``; the file may then hold part of the text.
    """
    pieces = _json_pieces(doc) if fmt == "json" else _csv_pieces(doc)
    if out:
        with _opened(out) as file:
            for piece in pieces:
                file.write(piece.encode("utf-8"))
        return
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except OSError as exc:
        raise ValidationError("out", f"cannot write to stdout: {exc}") from exc


@contextlib.contextmanager
def _opened(path: str) -> Iterator[typing.BinaryIO]:
    """``path`` opened for binary writing; a path that cannot be written is a bad --out."""
    try:
        with open(path, "wb") as file:
            yield file
    except OSError as exc:
        raise ValidationError("out", f"cannot write {path}: {exc}") from exc


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float) or isinstance(v, _numpy_types("floating")):
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


@functools.cache  # get_type_hints compiles each string annotation on every call
def _fields(cls) -> tuple[dict[str, type], set[str]]:
    """Field kinds and required names of a config dataclass."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING})


_SUM_RULE_TOL = 1e-6  # largest relative sum-rule error a spectrum is written with

_SWEEP_AXES = ("g", "phi", "Gamma", "eta", "T")

_SETUP = _fields(params.PhysicalSetup)
_BATH = (dict.fromkeys(bath_mod.RATES, float), set(bath_mod.RATES))
_GRID = ({"omega_min": float, "omega_max": float, "n_points": int}, set())
_FOCK = ({"dim": int}, set())
_SWEEP = (dict.fromkeys(_SWEEP_AXES, list), set())
_BLOCKS = ("setup", "bath", "grid", "sim", "fock", "sweep")


def _inputs(config: dict) -> tuple[params.PhysicalSetup | None,
                                   params.DerivedCoupling | None]:
    """The setup and its coupling when ``setup`` is given; every verb checks its config here."""
    has_setup = "setup" in config
    if has_setup == ("bath" in config):
        raise ValidationError(
            "config", "exactly one of 'setup' and 'bath' must be present"
        )
    # refused, not ignored: a misspelt block must not fall back on defaults,
    # nor an unsafe_constants block run a natural-units config in SI units
    unknown = sorted(k for k, v in config.items() if v is not None and k not in _BLOCKS)
    if unknown:
        raise ValidationError(
            unknown[0], f"unknown config block; the blocks are {', '.join(_BLOCKS)}"
        )
    if not has_setup:
        return None, None
    setup = params.PhysicalSetup(**_block(config, "setup", *_SETUP))
    return setup, params.derive_coupling(setup)


def _resolve_bath(config: dict) -> bath_mod.EffectiveBath:
    """Build the effective bath from exactly one of setup / bath override."""
    setup, coupling = _inputs(config)
    if setup is None:
        return bath_mod.bath_from_rates(**_block(config, "bath", *_BATH))
    return bath_mod.build_bath(coupling, setup)


def _scalar_fields(result) -> dict:
    """The number-valued fields of a result dataclass, in declaration order."""
    return {name: v for name, v in vars(result).items() if isinstance(v, (int, float, complex))}


def _grid(config: dict, default: np.ndarray) -> np.ndarray:
    """The ``grid`` block's grid; its omitted fields are taken from ``default``."""
    import numpy as np

    if config.get("grid") is None:
        return default
    block = _block(config, "grid", *_GRID)
    omega_min = block.get("omega_min", default[0])
    omega_max = block.get("omega_max", default[-1])
    n_points = block.get("n_points", default.size)
    if n_points < 2 or not omega_max > omega_min:
        raise ValidationError("grid", "need omega_max > omega_min and n_points >= 2")
    try:
        # eval_spectrum refuses the spectrum of points beyond the float range
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linspace(omega_min, omega_max, n_points)
    except (ValueError, IndexError, MemoryError) as exc:
        raise ValidationError("n_points", f"cannot allocate the grid: {exc}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_derive(config: dict, args) -> dict:
    if "setup" not in config:
        raise ValidationError("setup", "derive requires a physical setup block")
    setup, coupling = _inputs(config)
    try:
        bath = bath_mod.build_bath(coupling, setup)
    except UnstableBathError as exc:
        # reporting is not an error: emit the margins even where the bath
        # coefficients themselves are ill-defined (gamma <= 0)
        return {"coupling": coupling, "bath": None, "bath_error": str(exc),
                "stability": exc.report}
    return {"coupling": coupling, "bath": bath, "stability": bath_mod.check_stability(bath)}


def cmd_variance(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    # the closed forms exist only at phi = -pi/2; the Lyapunov route
    # covers every stable phase
    report = {}
    try:
        report["closed_form"] = steady_state.closed_form_moments(bath)
    except UnsupportedPhaseError:
        pass
    report["lyapunov"] = steady_state.lyapunov_moments(bath)
    # the closed forms have accepted the phase and the drift, so the
    # high-gain form can refuse only its domain g > 0, gamma_m*g^2 > 0
    if "closed_form" in report:
        try:
            report["high_gain"] = steady_state.high_gain_moments(bath)
        except ValidationError:
            pass
    if args.format == "csv":
        header = ["method", "var_x", "var_p", "cov_xp_sym", "t_eff"]
        return {
            "header": header,
            "columns": [list(report),
                        *([getattr(m, f) for m in report.values()] for f in header[1:])],
        }
    return report


def cmd_spectrum(config: dict, args) -> dict:
    import numpy as np

    bath = _resolve_bath(config)

    # one column per bath: the single series, or the dataset's gains
    dataset = args.fig1 or args.g_list is not None
    if dataset:
        gains = [0.0, 1.0, 10.0, 100.0, 1000.0]
        if args.g_list is not None:
            try:
                gains = _value("g_list", [float(x) for x in args.g_list.split(",")], list)
            except ValueError:  # a piece that is not a number
                raise ValidationError(
                    "g_list", f"expected comma-separated numbers, got {args.g_list!r}"
                ) from None
            if len({f"{g:g}" for g in gains}) < len(gains):
                raise ValidationError(
                    "g_list", f"gains equal to 6 digits would share a column: {args.g_list!r}"
                )
        grid = _grid(config, np.linspace(0.0, 8 * bath.omega_m, 2048))
        if args.fig1:
            scale = 2 * math.pi * steady_state.closed_form_moments(
                bath_mod.with_gain(bath, 0.0)).var_x
        columns = {f"S_g{g:g}": bath_mod.with_gain(bath, g) for g in gains}
    else:
        grid, columns = _grid(config, spectrum.default_grid(bath)), {"S": bath}

    series, sum_rules = {}, {}
    for label, bath_col in columns.items():
        values = spectrum.eval_spectrum(bath_col, grid)
        series[label] = values / scale if args.fig1 else values
        integral, var_x, rel = spectrum.sum_rule_check(bath_col)
        # a dataset names each column's sum rule by its gain
        name = f"g={bath_col.g:g}" if dataset else ""
        if not rel <= _SUM_RULE_TOL:  # refused before a byte of the document is written
            raise NumericalError(
                f"sum rule fails for {name or label}: (1/2pi)*integral of S = {integral!r}, "
                f"<X^2> = {var_x!r}, rel_err {rel:.3e} > {_SUM_RULE_TOL:g}"
            )
        sum_rules[name] = {"integral": integral, "var_x": var_x, "rel_err": rel}

    if args.format == "csv":
        return {
            "header": ["omega", *series],
            "columns": [grid, *series.values()],
            "comments": [
                f"sum_rule {k}".rstrip() + f": integral={r['integral']!r} "
                f"var_x={r['var_x']!r} rel_err={r['rel_err']:.3e}"
                for k, r in sum_rules.items()
            ],
        }
    if not dataset:
        return {"omega": grid, "S": series["S"], "normalization": "raw",
                "sum_rule": sum_rules[""]}
    return {
        "omega": grid,
        "series": series,
        "normalization": "fig1_scaled" if args.fig1 else "raw",
        "sum_rule": sum_rules,
    }


def _sim_config(config: dict, args) -> langevin.SimConfig:
    block = _block(config, "sim", *_fields(langevin.SimConfig))
    if args.seed is not None:
        block["seed"] = args.seed
    return langevin.SimConfig(**block)


def cmd_simulate(config: dict, args) -> dict | None:
    if args.dump_traj < 0:
        raise ValidationError("dump_traj", f"must be nonnegative, got {args.dump_traj}")
    if args.dump_traj and not args.out:
        raise ValidationError("out", "--dump-traj needs --out for the npz file")
    bath = _resolve_bath(config)
    stats = langevin.simulate(bath, _sim_config(config, args), keep_trajectories=args.dump_traj)
    payload = _scalar_fields(stats)
    psd = {"omega": stats.psd_omega, "S": stats.psd_values, "stderr": stats.psd_stderr}
    if not args.out:
        return {**payload, "psd": psd}

    base = str(args.out)
    _write(base + ".stats.json", payload)
    _write(base + ".psd.csv", {"header": list(psd), "columns": list(psd.values())}, "csv")
    if stats.raw_trajectories is not None:
        import numpy as np

        with _opened(base + ".traj.npz") as file:
            np.savez_compressed(file, **stats.raw_trajectories)
    return None


def cmd_fock(config: dict, args) -> dict:
    if args.dump_rho and not args.out:
        raise ValidationError("out", "--dump-rho needs --out for the binary file")
    bath = _resolve_bath(config)
    block = {} if config.get("fock") is None else _block(config, "fock", *_FOCK)
    # the solve's warnings go into the output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = fock_mod.evolve_to_steady(bath, fock_mod.FockConfig(**block))
    if args.dump_rho:
        import numpy as np

        # row-major complex128: interleaved (re, im) float64 pairs
        with _opened(str(args.out) + ".rho.bin") as file:
            file.write(np.ascontiguousarray(sol.rho, dtype=np.complex128).data)
    return {**_scalar_fields(sol), "warnings": [str(w.message) for w in caught]}


def cmd_sweep(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    block = _block(config, "sweep", *_SWEEP)
    if not block:
        raise ValidationError("sweep", "need a nonempty 'sweep' block")
    axes = [(name, block[name]) for name in _SWEEP_AXES if name in block]
    columns = steady_state.sweep_grid(bath, axes)
    header = list(columns)
    if args.format == "csv":
        import numpy as np

        # a boolean cell is written true/false; a bool array's cells print as True/False
        for name in ("stable", "lindblad_positive"):
            columns[name] = np.where(columns[name], "true", "false")
        return {"header": header, "columns": list(columns.values())}
    return {"header": header, "rows": _Rows(list(columns.values()))}


def cmd_compare(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    stats = langevin.simulate(bath, _sim_config(config, args))
    closed = steady_state.closed_form_moments(bath)
    psd_report = langevin.psd_vs_analytic(stats)

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
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except MirrorCoolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
