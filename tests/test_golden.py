"""Golden-output gate: every CLI verb on a fixed config, against a committed corpus.

Each case of ``golden/cases.json`` runs ``cli.main`` on its config and
compares what it writes with the file of the same name in ``golden/``:

- an output with no Monte Carlo draw must have the corpus file's sha256,
  so a change that moves any bit of it fails here;
- the ``simulate`` and ``compare`` outputs are compared value by value at
  1e-12 relative. That is above the 9e-13 roundoff that reordering the
  Monte Carlo algebra can leave, and far below any statistical change.

The hashes hold for numpy 2.4.6 with OpenBLAS 0.3.31; another numpy or
BLAS may move last bits. A change that moves output bits on purpose
regenerates the corpus with ``python tools/golden.py --write`` and lists
the files that moved; ``python tools/golden.py`` prints each differing
file with its largest relative move.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from mirrorcool.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
MONTE_CARLO_RTOL = 1e-12

# a number as the writers print one, in JSON or CSV
_NUMBER = re.compile(rb"-?(?:Infinity|inf|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)|NaN|nan")


def produce(case: dict, directory: Path) -> int:
    """Run ``case`` through ``cli.main``, writing its outputs into ``directory``."""
    config = directory / f"{case['name']}.config.json"
    config.write_text(json.dumps(case["config"]))
    outputs = case["outputs"]
    out = directory / (outputs[0] if len(outputs) == 1 else case["name"])
    verb, *flags = case["argv"]
    return main([verb, "--config", str(config), "--out", str(out), *flags])


def _split(text: bytes) -> tuple[list[bytes], list[float]]:
    """The text between the numbers of ``text``, and the numbers."""
    values = [float(m.group().replace(b"Infinity", b"inf")) for m in _NUMBER.finditer(text)]
    return _NUMBER.split(text), values


def _move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def moves(expected: bytes, actual: bytes) -> list[tuple[float, float, float]] | None:
    """The relative move, old value and new value of each number of ``expected``
    that moved in ``actual``, or None when the text between the numbers differs."""
    (skeleton_e, values_e), (skeleton_a, values_a) = _split(expected), _split(actual)
    if skeleton_e != skeleton_a:
        return None
    return [(_move(a, b), a, b) for a, b in zip(values_e, values_a) if _move(a, b)]


def largest_move(expected: bytes, actual: bytes) -> float | None:
    """The largest relative move of a number from ``expected`` to ``actual``,
    or None when the text between the numbers differs."""
    moved = moves(expected, actual)
    return None if moved is None else max(moved, default=(0.0,))[0]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_is_the_golden_corpus(case, tmp_path):
    assert produce(case, tmp_path) == 0
    for name in case["outputs"]:
        expected, actual = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
        if case.get("monte_carlo"):
            move = largest_move(expected, actual)
            assert move is not None, f"{name}: the text between the numbers differs"
            assert move <= MONTE_CARLO_RTOL, f"{name}: a value moved {move:.3g} relative"
        else:
            assert hashlib.sha256(actual).hexdigest() == hashlib.sha256(expected).hexdigest(), (
                f"{name} differs from the corpus: largest relative move "
                f"{largest_move(expected, actual)}")


def test_largest_move_reads_numbers_and_refuses_other_text():
    assert largest_move(b'{"a": [1.0, NaN, -Infinity]}', b'{"a": [1.0, NaN, -Infinity]}') == 0.0
    assert largest_move(b"x,1.0,2e-3\n", b"x,1.0000000000000002,2e-3\n") == 2**-52 / (1 + 2**-52)
    assert largest_move(b"1.0,inf\n", b"1.0,1e308\n") == math.inf
    assert largest_move(b"true,1.0\n", b"false,1.0\n") is None
