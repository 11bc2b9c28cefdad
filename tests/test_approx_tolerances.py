"""Every relative tolerance in the tests states its absolute floor.

``pytest.approx(x, rel=r)`` with no ``abs`` also accepts anything within
1e-12 of ``x``, so a check of a small value is far looser than its ``rel``
reads. A static check over the test sources.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _relative_without_absolute(tree: ast.Module):
    """Line numbers of the ``approx`` calls given a relative tolerance but no ``abs``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        keywords = {keyword.arg for keyword in node.keywords}
        relative = "rel" in keywords or len(node.args) > 1
        if name == "approx" and relative and "abs" not in keywords:
            yield node.lineno


def test_every_relative_approx_states_its_absolute_tolerance():
    loose = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in _relative_without_absolute(ast.parse(path.read_text(encoding="utf-8")))]
    assert not loose, loose


def test_the_walk_finds_a_relative_tolerance_without_absolute():
    found = _relative_without_absolute(ast.parse(
        "pytest.approx(1.0, rel=1e-9)\napprox(2.0, 1e-9)\npytest.approx(3.0, rel=1e-9, abs=0)\n"))
    assert list(found) == [1, 2]
