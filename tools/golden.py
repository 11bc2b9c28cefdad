"""Diff or regenerate the golden-output corpus of ``tests/test_golden.py``.

    python tools/golden.py           # each file that differs, with its largest relative move
    python tools/golden.py --write   # rewrite the corpus from this checkout

Run from any directory; the package is imported from ``src``. Rewriting
the corpus changes a check, so a change that does it names the files
that moved, with the table this script prints before the rewrite.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, GOLDEN, moves, produce  # noqa: E402


def _summary(expected: bytes | None, actual: bytes) -> str:
    """How ``actual`` differs from the corpus file ``expected``."""
    if expected is None:
        return "new"
    moved = moves(expected, actual)
    if moved is None:
        return "text differs"
    move, old, new = max(moved)
    return f"{len(moved)} numbers moved, largest {move:.2g} relative ({old!r} -> {new!r})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the corpus")
    args = parser.parse_args()
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        for case in CASES:
            if produce(case, directory) != 0:
                raise SystemExit(f"case {case['name']} failed; the corpus is left as it is")
        for case in CASES:
            for name in case["outputs"]:
                actual = (directory / name).read_bytes()
                path = GOLDEN / name
                expected = path.read_bytes() if path.exists() else None
                if expected == actual:
                    continue
                differing += 1
                print(name, _summary(expected, actual), sep="\t")
                if args.write:
                    path.write_bytes(actual)
    print(f"{differing} file(s) {'rewritten' if args.write else 'differ'}")
    return 1 if differing and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
