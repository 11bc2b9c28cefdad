"""Process that calls into mirrorcool on the benchmark's behalf.

    python bench/client.py setup --workload W --seed N --dir D
        import mirrorcool and its CLI, build the workload's inputs under D, exit
    python bench/client.py run --workload W --seed N --dir D --seconds T [--trace]
        the same, then one unmeasured warm-up round and measured rounds for
        T seconds in this one interpreter; writes D/result.json (and
        D/spans.npz with --trace)
    python bench/client.py verb --spans F -- ARGS...
        one traced cold CLI process: times ``import mirrorcool``, runs
        ``mirrorcool.cli.main(ARGS)`` with tracing on, writes its spans to F

The process's parent (``run.py``) checks the outputs; nothing here judges
them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def _fock_fields() -> set[str]:
    import dataclasses

    from mirrorcool import fock

    return {f.name for f in dataclasses.fields(fock.FockConfig)}


def _build(workload: str, seed: int, directory: Path):
    """Inputs of one workload: the operations and their library arguments."""
    from mirrorcool import bath

    ops = workloads.build(workload, seed, directory / "inputs", _fock_fields())
    lib = [
        (bath.bath_from_rates(**op["bath"]), tuple(op["g_range"]))
        if op["kind"] == "optimize_gain" else None
        for op in ops
    ]
    return ops, lib


def _call_cli(argv: list[str]) -> dict:
    from mirrorcool import cli

    try:
        return {"rc": int(cli.main(argv))}
    except SystemExit as exc:
        return {"rc": exc.code if isinstance(exc.code, int) else 1}
    except Exception as exc:  # a traceback out of the CLI is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _call_optimize(lib_args) -> dict:
    from mirrorcool import steady_state

    try:
        g_opt, var_min = steady_state.optimize_gain(*lib_args)
        return {"value": [float(g_opt), float(var_min)]}
    except Exception as exc:  # any exception out of the library is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _round(ops, lib, out: Path) -> tuple[float, float, list[dict]]:
    out.mkdir(parents=True, exist_ok=True)
    records, ends = [], []
    t0 = time.perf_counter()
    for op, lib_args in zip(ops, lib):
        if op["kind"] == "cli":
            records.append(_call_cli(workloads.cli_argv(op, out)))
        else:
            records.append(_call_optimize(lib_args))
        ends.append(time.perf_counter())
    t1 = time.perf_counter()
    for rec, start, end in zip(records, [t0] + ends[:-1], ends):
        rec["op_s"] = end - start
    return t0, t1, records


def cmd_setup(args) -> int:
    import mirrorcool.cli  # noqa: F401  (the import is what set-up measures)

    _build(args.workload, args.seed, args.dir)
    return 0


def cmd_run(args) -> int:
    import mirrorcool.cli  # noqa: F401

    ops, lib = _build(args.workload, args.seed, args.dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    _, _, first = _round(ops, lib, args.dir / "r0")
    workloads.digest_round(ops, first, args.dir / "r0", None)
    rounds, round_s = [first], []
    begin = time.perf_counter()
    while not round_s or time.perf_counter() - begin < args.seconds:
        k = len(rounds)
        t0, t1, records = _round(ops, lib, args.dir / f"r{k}")
        workloads.digest_round(ops, records, args.dir / f"r{k}", first)
        rounds.append(records)
        round_s.append(t1 - t0)
        if tracer:
            tracer.rounds.append((t0, t1))
    if tracer:
        tracer.save(args.dir / "spans.npz")
    result = {
        "round_s": round_s,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def cmd_verb(args) -> int:
    tracer = tracing.Tracer()
    span = tracer.open("import")
    from mirrorcool import cli

    tracer.close(span)
    tracer.install()
    try:
        rc = cli.main(args.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.save(args.spans)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", type=Path, required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", action="store_true")
    p = sub.add_parser("verb")
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "verb":
        args.argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return cmd_verb(args)
    return {"setup": cmd_setup, "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
