import importlib
import pkgutil

import pytest

import mirrorcool

# __main__ runs the CLI on import
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mirrorcool.__path__)
                    if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["mirrorcool", *(f"mirrorcool.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
