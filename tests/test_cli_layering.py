"""The CLI is a shell over the library: it owns no physics and no exit-code table.

A static check over ``cli.py``: it takes no private name and no physical
constant from the package, so every formula it runs has its owner in the
library, and ``main`` maps errors to exit codes by their three base
classes alone.
"""

import ast
from pathlib import Path

import mirrorcool

SRC = Path(mirrorcool.__file__).parent
CONSTANTS = {"HBAR", "K_B", "C"}
BASES = ["ValidationError", "StabilityError", "MirrorCoolError"]


def _cli() -> ast.Module:
    return ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))


def _borrowed(tree: ast.Module) -> set[str]:
    """Names cli.py takes from mirrorcool modules, imported or as module attributes."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "mirrorcool"
        ):
            for alias in node.names:
                names.add(alias.name)
                if node.module is None:  # "from . import fock as fock_mod" binds a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[0] == "mirrorcool")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add(node.attr)
    return names


def test_cli_takes_no_private_name_or_constant():
    borrowed = _borrowed(_cli())
    assert not {n for n in borrowed if n.startswith("_")}
    assert not borrowed & CONSTANTS


def test_main_catches_only_the_three_base_errors():
    main = next(n for n in _cli().body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h for n in ast.walk(main) if isinstance(n, ast.Try) for h in n.handlers]
    assert [ast.unparse(h.type) for h in handlers] == BASES
    errors = {n for n in mirrorcool.__all__ if n.endswith("Error")}
    named = {n.id for n in ast.walk(main) if isinstance(n, ast.Name)}
    assert named & errors == set(BASES)
