"""The closed forms and the oracles that check them share no code.

A static check over the package source: each route to the steady state
may call helpers of its own module, but never the code of a route it is
compared against.
"""

import ast
from pathlib import Path

import mirrorcool

SRC = Path(mirrorcool.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _references(module: str | tuple[str, ...], function: str,
                opaque: frozenset[str] = frozenset()) -> set[str]:
    """Names and attributes used by ``function`` and the module functions it
    reaches, in ``module`` or in each of a tuple of modules.

    The functions in ``opaque`` are named but not looked into.
    """
    modules = (module,) if isinstance(module, str) else module
    defs = {n.name: n for m in modules for n in _tree(m).body if isinstance(n, ast.FunctionDef)}
    seen, todo, names = set(opaque), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(names & set(defs))
    return names


def test_closed_forms_use_no_oracle_code():
    oracle = {"drift_matrix", "diffusion_matrix", "_steady_covariance", "lyapunov_moments",
              "_x_spectrum"}
    for function in ("closed_form_moments", "high_gain_moments"):
        assert not _references("steady_state", function) & oracle, function


def test_closed_forms_reach_no_lyapunov_or_array_route_code():
    # the sweep evaluates its grid through bath's coefficient functions and
    # the long-double Lyapunov closed form on arrays; the closed forms that
    # check it reach none of that code, in steady_state or in bath. They do
    # share the bath itself with every route: its noise intensities, the
    # stability verdict (require_stable) and T_eff
    array_route = {"sweep_grid", "_lyapunov_terms", "_long_double_terms", "_drift",
                   "_coefficients", "_must_be_finite", "_constraints_hold", "_positivity_gap"}
    for function in ("closed_form_moments", "high_gain_moments"):
        reached = _references(("steady_state", "bath"), function)
        assert "require_stable" in reached and "_t_eff" in reached, function
        assert not reached & array_route, function


def test_monte_carlo_noise_model_uses_no_steady_state_solve():
    # the one-step noise covariance is integrated from the drift and the
    # diffusion: built from a steady covariance, it would make the simulated
    # moments return that covariance, right or wrong
    solves = {"_steady_covariance", "lyapunov_moments", "closed_form_moments"}
    for function in ("_simulate_linear", "_exact_step"):
        assert not _references("langevin", function) & solves, function


def test_spectrum_evaluator_uses_no_closed_form():
    assert "closed_form_moments" not in _references("spectrum", "_x_spectrum")


def test_sum_rule_reads_the_spectrum_only_through_its_evaluator():
    # S reaches the sum rule through the values eval_spectrum writes, with no second formula
    names = _references("spectrum", "sum_rule_check", opaque=frozenset({"_x_spectrum"}))
    assert {"_x_spectrum", "closed_form_moments"} <= names
    assert not names & {"noise_xx", "noise_pp", "noise_xp", "N", "M"}


def test_fock_imports_only_bath_and_errors():
    imported = set()
    for node in ast.walk(_tree("fock")):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from . import x" names the module x
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mirrorcool":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "mirrorcool")
    assert imported == {"bath", "errors"}


def test_no_module_imports_scipy():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in imported if m.split(".")[0] == "scipy"], path.name


def _dotted_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and part of an imported module path in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            names.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(a.name for a in node.names)
    return names


def test_two_by_two_routes_take_nothing_from_lapack():
    # every matrix of the Monte Carlo set-up and of the Lyapunov route is
    # 2x2 and solved in closed form, and the gain optimum is bisected on the
    # sign of its quartic: no numpy.linalg, no numpy.polynomial, no np.roots
    lapack = {"linalg", "polynomial", "roots"}
    assert not _dotted_names(_tree("langevin")) & lapack
    for function in ("_steady_covariance", "optimize_gain", "_gain_quartic"):
        assert not _references("steady_state", function) & lapack, function
