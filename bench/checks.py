"""Output readers and per-operation checks against ``reference.py``.

Readers take only what the CLI documents: CSV data rows after skipping
``#`` comment lines, and JSON values by their documented keys, so extra
keys (a metadata block, say) or extra comment lines do not break them.
A checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# relative tolerances: the program and the reference solve the same
# equations in double precision by different routes
REL_ANALYTIC = 1e-8
REL_FOCK = 1e-5
FOCK_TRACE = 1e-10
FOCK_TAIL = 1e-10
MC_SIGMAS = 4.0
MC_REL_STDERR = 0.02
SUM_RULE_REL = 1e-8


def read_csv(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, data rows as strings, comment lines without the ``#``)."""
    header, rows, comments = None, [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    return header, rows, comments


def cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _close(problems: list, what: str, got, want, rel: float, scale: float | None = None) -> None:
    got, want = float(got), float(want)
    err = abs(got - want) / (abs(scale) if scale else max(abs(want), 1e-300))
    if not err <= rel:
        problems.append(f"{what}: got {got!r}, reference {want!r} (rel err {err:.2e} > {rel:g})")


def _bath_args(b: dict) -> tuple:
    return (b["omega_m"], b["gamma_m"], b["Gamma"], b["eta"], b["n_bar"], b["g"], b["phi"])


def _moments_ok(problems: list, what: str, got: dict, b: dict) -> None:
    var_x, cov, var_p = (float(v) for v in ref.covariance(*_bath_args(b)))
    _close(problems, f"{what}.var_x", got["var_x"], var_x, REL_ANALYTIC)
    _close(problems, f"{what}.var_p", got["var_p"], var_p, REL_ANALYTIC)
    _close(problems, f"{what}.cov_xp_sym", got["cov_xp_sym"], cov, REL_ANALYTIC,
           scale=math.sqrt(var_x * var_p))
    _close(problems, f"{what}.t_eff", got["t_eff"], ref.t_eff(b["n_bar"], b["omega_m"], b["g"]), 1e-12)


def check_derive(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / op["outputs"][0])
    setup = op["config"]["setup"]
    want = ref.coupling(setup)
    for key in ("omega_m", "gamma_b", "G", "chi", "Gamma", "n_bar"):
        _close(problems, f"coupling.{key}", report["coupling"][key], want[key], 1e-12)
    stable = bool(ref.routh_hurwitz_stable(want["omega_m"], setup["gamma_m"], setup["g"], setup["phi"]))
    if report["stability"]["stable"] != stable:
        problems.append(f"stability.stable is {report['stability']['stable']}, reference {stable}")
    if stable:
        _close(problems, "bath.gamma", report["bath"]["gamma"],
               setup["gamma_m"] - setup["g"] * math.sin(setup["phi"]), 1e-12)
    return problems


def check_variance(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / op["outputs"][0])
    b = op["config"]["bath"]
    for method in ("closed_form", "lyapunov"):
        _moments_ok(problems, method, report[method], b)
    if b["g"] > 0:
        # the high-gain formula overshoots the exact variance by at most B(g)
        exact = float(ref.covariance(*_bath_args(b))[0])
        bound = (1 + b["gamma_m"] / b["g"]) * (1 + b["omega_m"] ** 2 / (b["gamma_m"] * b["g"])) - 1
        excess = (report["high_gain"]["var_x"] - exact) / exact
        if not -1e-12 <= excess <= bound * (1 + 1e-9):
            problems.append(f"high_gain.var_x excess {excess:g} outside [0, {bound:g}]")
    return problems


def _spectrum_ok(problems: list, what: str, omega, values, b: dict, scale: float = 1.0) -> None:
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    want = ref.spectrum_x(omega, *_bath_args(b)) / scale
    err = np.abs(values - want) / want
    worst = int(np.argmax(err))
    if not err[worst] <= REL_ANALYTIC:
        problems.append(f"{what}: S({float(omega[worst])!r}) = {float(values[worst])!r}, "
                        f"reference {float(want[worst])!r} (rel err {err[worst]:.2e})")


def _grid_ok(problems: list, omega, config: dict) -> None:
    grid = config["grid"]
    want = np.linspace(grid["omega_min"], grid["omega_max"], grid["n_points"])
    omega = np.asarray(omega, dtype=float)
    if omega.shape != want.shape or not np.allclose(omega, want, rtol=1e-15, atol=0.0):
        problems.append("frequency grid differs from the configured grid")


def _sum_rule_ok(problems: list, what: str, rule: dict, b: dict) -> None:
    var_x = float(ref.covariance(*_bath_args(b))[0])
    _close(problems, f"{what}.var_x", rule["var_x"], var_x, REL_ANALYTIC)
    _close(problems, f"{what}.integral", rule["integral"], var_x, SUM_RULE_REL)
    if not 0 <= float(rule["rel_err"]) <= SUM_RULE_REL:
        problems.append(f"{what}.rel_err = {rule['rel_err']!r} above {SUM_RULE_REL:g}")


def check_spectrum(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / op["outputs"][0])
    b = op["config"]["bath"]
    _grid_ok(problems, report["omega"], op["config"])
    _spectrum_ok(problems, "S", report["omega"], report["S"], b)
    _sum_rule_ok(problems, "sum_rule", report["sum_rule"], b)
    return problems


def _dataset_gains(op: dict) -> tuple[list[float], bool]:
    argv = op["argv"]
    if "--g-list" in argv:
        return [float(g) for g in argv[argv.index("--g-list") + 1].split(",")], False
    return [0.0, 1.0, 10.0, 100.0, 1000.0], True


def check_dataset(op: dict, out: Path) -> list[str]:
    """Multi-gain spectrum dataset (``--fig1`` or ``--g-list``), CSV or JSON."""
    problems: list[str] = []
    b = op["config"]["bath"]
    gains, fig1 = _dataset_gains(op)
    path = out / op["outputs"][0]
    if op["format"] == "csv":
        header, rows, _ = read_csv(path)
        data = np.array([[float(v) for v in row] for row in rows])
        omega, columns = data[:, 0], [data[:, i] for i in range(1, data.shape[1])]
        sum_rules = None
        if header[0] != "omega":
            problems.append(f"first column is {header[0]!r}, not 'omega'")
    else:
        report = read_json(path)
        omega = report["omega"]
        columns = list(report["series"].values())
        sum_rules = list(report["sum_rule"].values())
        expected = "fig1_scaled" if fig1 else "raw"
        if report["normalization"] != expected:
            problems.append(f"normalization {report['normalization']!r}, expected {expected!r}")
    if len(columns) != len(gains):
        return problems + [f"{len(columns)} spectrum columns for {len(gains)} gains"]
    _grid_ok(problems, omega, op["config"])
    scale = 1.0
    if fig1:
        scale = 2 * math.pi * float(ref.covariance(*_bath_args(dict(b, g=0.0)))[0])
    for g, values in zip(gains, columns):
        _spectrum_ok(problems, f"S_g{g:g}", omega, values, dict(b, g=g), scale)
    if sum_rules is not None:
        if len(sum_rules) != len(gains):
            problems.append(f"{len(sum_rules)} sum rules for {len(gains)} gains")
        for g, rule in zip(gains, sum_rules):
            _sum_rule_ok(problems, f"sum_rule g={g:g}", rule, dict(b, g=g))
    return problems


def _sweep_points(config: dict) -> tuple[list[str], list[tuple], list[dict]]:
    """Axis names, axis values and rate-level bath of every point, in row order."""
    axes = [name for name in ("g", "phi", "Gamma", "eta", "T") if name in config["sweep"]]
    if "setup" in config:
        setup = config["setup"]
        c = ref.coupling(setup)
        base = dict(omega_m=c["omega_m"], gamma_m=setup["gamma_m"], Gamma=c["Gamma"],
                    eta=setup["eta"], n_bar=c["n_bar"], g=setup["g"], phi=setup["phi"])
    else:
        base = dict(config["bath"])
    combos = [()]
    for name in axes:
        combos = [c + (v,) for c in combos for v in config["sweep"][name]]
    points = []
    for combo in combos:
        p = dict(base, **dict(zip(axes, combo)))
        if "T" in p:
            p["n_bar"] = float(ref.n_bar_of(p.pop("T"), p["omega_m"]))
        points.append(p)
    return axes, combos, points


def check_sweep(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    path = out / op["outputs"][0]
    if op["format"] == "csv":
        header, text_rows, _ = read_csv(path)
        rows = [[cell(v) for v in row] for row in text_rows]
    else:
        report = read_json(path)
        header, rows = report["header"], report["rows"]
    axes, combos, points = _sweep_points(op["config"])
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} sweep points"]
    col = {name: i for i, name in enumerate(header)}
    args = [np.array([p[k] for p in points]) for k in
            ("omega_m", "gamma_m", "Gamma", "eta", "n_bar", "g", "phi")]
    stable = ref.routh_hurwitz_stable(args[0], args[1], args[5], args[6])
    var_x, cov, var_p = ref.covariance(*args)
    for i, (row, combo, p) in enumerate(zip(rows, combos, points)):
        where = f"row {i}"
        if len(problems) > 10:
            break
        if tuple(row[col[name]] for name in axes) != combo:
            problems.append(f"{where}: axis values {[row[col[n]] for n in axes]}, expected {combo}")
            continue
        if row[col["stable"]] is not bool(stable[i]):
            problems.append(f"{where}: stable={row[col['stable']]}, reference {bool(stable[i])}")
            continue
        if not stable[i]:
            if row[col["lindblad_positive"]] is not False:
                problems.append(f"{where}: unstable point marked lindblad_positive")
            continue
        _close(problems, f"{where}.gamma", row[col["gamma"]],
               p["gamma_m"] - p["g"] * math.sin(p["phi"]), 1e-12)
        _close(problems, f"{where}.var_x", row[col["var_x"]], var_x[i], REL_ANALYTIC)
        _close(problems, f"{where}.var_p", row[col["var_p"]], var_p[i], REL_ANALYTIC)
        _close(problems, f"{where}.cov_xp_sym", row[col["cov_xp_sym"]], cov[i], REL_ANALYTIC,
               scale=math.sqrt(var_x[i] * var_p[i]))
        _close(problems, f"{where}.t_eff", row[col["t_eff"]],
               ref.t_eff(p["n_bar"], p["omega_m"], p["g"]), 1e-12)
        bargs = _bath_args(p)[1:]
        gap = ref.positivity_gap(*bargs)
        scale = ref.positivity_scale(*bargs)
        _close(problems, f"{where}.positivity_gap", row[col["positivity_gap"]], gap, 1e-9, scale=scale)
        if abs(gap) > 1e-9 * scale and row[col["lindblad_positive"]] is not (gap > 0):
            problems.append(f"{where}: lindblad_positive={row[col['lindblad_positive']]}, gap {gap:g}")
    return problems


def check_simulate(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    stats = read_json(out / op["outputs"][0])
    b = op["config"]["bath"]
    var_x, _, var_p = (float(v) for v in ref.covariance(*_bath_args(b)))
    for key, want in (("var_x", var_x), ("var_p", var_p)):
        hat, stderr = float(stats[f"{key}_hat"]), float(stats[f"{key}_stderr"])
        if not abs(hat - want) <= MC_SIGMAS * stderr:
            problems.append(f"{key}_hat {hat!r} is {abs(hat - want) / stderr:.2f} stderr "
                            f"from the reference {want!r}")
        if not 0 < stderr / want < MC_REL_STDERR:
            problems.append(f"{key}_stderr/value = {stderr / want:.4f}, need < {MC_REL_STDERR}")
    if stats["n_traj"] != op["config"]["sim"]["n_traj"]:
        problems.append(f"n_traj {stats['n_traj']} differs from the config")
    header, rows, _ = read_csv(out / op["outputs"][1])
    psd = np.array([[float(v) for v in row] for row in rows])
    if header[:3] != ["omega", "S", "stderr"] or psd.size == 0:
        problems.append(f"PSD table has header {header} and {len(rows)} rows")
    elif not (np.all(np.isfinite(psd)) and np.all(psd[:, 0] >= 0) and np.all(psd[:, 1] >= 0)):
        problems.append("PSD table has negative or non-finite entries")
    return problems


def check_compare(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / op["outputs"][0])
    b = op["config"]["bath"]
    var_x, cov, var_p = (float(v) for v in ref.covariance(*_bath_args(b)))
    for key, want in (("var_x", var_x), ("var_p", var_p), ("cov_xp", cov)):
        entry = report["moments"][key]
        _close(problems, f"moments.{key}.analytic", entry["analytic"], want, REL_ANALYTIC,
               scale=math.sqrt(var_x * var_p))
        if not math.isfinite(float(entry["z"])):
            problems.append(f"moments.{key}.z is not finite")
    if report["psd"]["passed"] is not True:
        problems.append(f"psd.passed is {report['psd']['passed']!r} "
                        f"(peak_rel_dev {report['psd']['peak_rel_dev']!r})")
    return problems


def check_fock(op: dict, out: Path) -> list[str]:
    problems: list[str] = []
    sol = read_json(out / op["outputs"][0])
    b = op["config"]["bath"]
    var_x, _, var_p = (float(v) for v in ref.covariance(*_bath_args(b)))
    _close(problems, "var_x", sol["var_x"], var_x, REL_FOCK)
    _close(problems, "var_p", sol["var_p"], var_p, REL_FOCK)
    if not abs(float(sol["trace_error"])) < FOCK_TRACE:
        problems.append(f"trace_error {sol['trace_error']!r} not below {FOCK_TRACE:g}")
    if not abs(float(sol["tail_population"])) < FOCK_TAIL:
        problems.append(f"tail_population {sol['tail_population']!r} not below {FOCK_TAIL:g}")
    if sol["dim"] != op["config"]["fock"]["dim"]:
        problems.append(f"dim {sol['dim']} differs from the config")
    return problems


def check_optimize_gain(op: dict, result) -> list[str]:
    """The returned minimum may not exceed the reference variance anywhere on a grid."""
    problems: list[str] = []
    g_opt, var_min = (float(v) for v in result)
    lo, hi = op["g_range"]
    b = op["bath"]
    if not lo <= g_opt <= hi:
        return [f"g_opt {g_opt!r} outside [{lo!r}, {hi!r}]"]
    _close(problems, "var_x_min", var_min, ref.covariance(*_bath_args(dict(b, g=g_opt)))[0],
           REL_ANALYTIC)
    grid = np.linspace(lo, hi, 401)
    on_grid = ref.covariance(*_bath_args(dict(b, g=grid)))[0]
    best = int(np.argmin(on_grid))
    if var_min > on_grid[best] * (1 + REL_ANALYTIC):
        problems.append(f"var_x_min {var_min!r} above the reference {float(on_grid[best])!r} "
                        f"at g = {float(grid[best])!r}")
    return problems


CLI_CHECKS = {
    "derive": check_derive,
    "variance": check_variance,
    "spectrum": check_spectrum,
    "dataset": check_dataset,
    "sweep": check_sweep,
    "simulate": check_simulate,
    "compare": check_compare,
    "fock": check_fock,
}


def check_cli(op: dict, out: Path) -> list[str]:
    try:
        return CLI_CHECKS[op["check"]](op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
