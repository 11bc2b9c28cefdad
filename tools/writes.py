"""Time ``cli._write`` on the documents of one ``warm`` benchmark round.

    python tools/writes.py                        # this checkout, seed 2501
    python tools/writes.py --against OTHER/src    # and another checkout, alternating
    python tools/writes.py --seed 7               # another warm round

Each measuring process imports mirrorcool from one ``src`` directory and
builds the ``warm`` workload's inputs at ``--seed`` through
``bench/client.py``, which it only imports. It runs every CLI operation of
the round once, keeping the documents ``cli._write`` is given, then writes
each document WRITES times to a scratch file and times each write.
Processes alternate between the checkouts, in the order ABBA, for ROUNDS
rounds. The table gives each document's median write time
in ms, one column per checkout, as a Markdown table.
"""

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 6  # measuring processes per checkout
WRITES = 5  # writes of each document per process


def _measure(src: str, seed: int) -> dict:
    """Each document's write times (s), written by the mirrorcool under ``src``."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    import client
    import workloads
    from mirrorcool import cli

    write = cli._write
    docs = {}

    def keep(out, doc, fmt="json"):
        docs[Path(out).name if out else f"stdout.{fmt}"] = (doc, fmt)
        write(out, doc, fmt)

    times = {}
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        ops, _ = client._build("warm", seed, directory)
        cli._write = keep
        with contextlib.redirect_stdout(io.StringIO()):
            for op in ops:
                if op["kind"] == "cli":
                    client._call_cli(workloads.cli_argv(op, directory))
        cli._write = write
        target = str(directory / "document")
        for name, (doc, fmt) in docs.items():
            times[name] = []
            for _ in range(WRITES):
                start = time.perf_counter()
                write(target, doc, fmt)
                times[name].append(time.perf_counter() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="the src directory of another checkout")
    parser.add_argument("--seed", type=int, default=2501)
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # one measuring process
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(_measure(args.measure, args.seed)))
        return 0

    sources = [str(ROOT / "src")] + ([str(Path(args.against).resolve())] if args.against else [])
    times = {src: {} for src in sources}
    for k in range(ROUNDS):
        for src in sources if k % 2 == 0 else sources[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, "--measure", src, "--seed", str(args.seed)],
                capture_output=True, text=True, check=True)
            for name, values in json.loads(done.stdout).items():
                times[src].setdefault(name, []).extend(values)

    print(f"warm seed {args.seed}: median ms of {ROUNDS} processes x {WRITES} writes")
    print("| document | " + " | ".join(sources) + " |")
    print("|---" * (len(sources) + 1) + "|")
    for name in times[sources[0]]:
        cells = [f"{1e3 * statistics.median(times[src][name]):.2f}" if name in times[src] else "-"
                 for src in sources]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
