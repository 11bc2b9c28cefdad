"""The CLI is a shell over the library: it owns no physics and no exit-code table.

A static check over ``cli.py``: it takes no private name and no physical
constant from the package, so every formula it runs has its owner in the
library; from ``fock`` it takes only ``FockConfig`` and
``evolve_to_steady``, so the truncation policy stays in ``fock``; and
``main`` maps errors to exit codes by their three base classes alone.
"""

import ast
from collections import defaultdict
from pathlib import Path

import mirrorcool

SRC = Path(mirrorcool.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")}
CONSTANTS = {"HBAR", "K_B", "C"}
BASES = ["ValidationError", "StabilityError", "MirrorCoolError"]


def _cli() -> ast.Module:
    return ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))


def _borrowed(tree: ast.Module) -> dict[str, set[str]]:
    """Names cli.py takes from each mirrorcool module, imported or as module attributes.

    Keys are module paths below the package ("fock"; "" for the package).
    """
    taken, bound = defaultdict(set), {}  # bound: local name of a module -> its path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "mirrorcool"
        ):
            path = _path(node.module or "")
            for alias in node.names:
                if not path and alias.name in MODULES:  # "from . import fock as fock_mod"
                    bound[alias.asname or alias.name] = alias.name
                taken[path].add(alias.name)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name, _path(a.name)) for a in node.names
                         if a.name.split(".")[0] == "mirrorcool")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound:
            taken[bound[ast.unparse(node.value)]].add(node.attr)
    return taken


def _path(module: str) -> str:
    return module.removeprefix("mirrorcool").lstrip(".")


def test_cli_takes_no_private_name_or_constant():
    borrowed = set().union(*_borrowed(_cli()).values())
    assert not {n for n in borrowed if n.startswith("_")}
    assert not borrowed & CONSTANTS


def test_cli_leaves_the_fock_truncation_to_fock():
    # the dimension, its growth and its ceiling belong to evolve_to_steady
    assert _borrowed(_cli())["fock"] <= {"FockConfig", "evolve_to_steady"}


def test_main_catches_only_the_three_base_errors():
    main = next(n for n in _cli().body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h for n in ast.walk(main) if isinstance(n, ast.Try) for h in n.handlers]
    assert [ast.unparse(h.type) for h in handlers] == BASES
    errors = {n for n in mirrorcool.__all__ if n.endswith("Error")}
    named = {n.id for n in ast.walk(main) if isinstance(n, ast.Name)}
    assert named & errors == set(BASES)
