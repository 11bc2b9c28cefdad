"""mirrorcool benchmark.

    python3 bench/run.py --workload {cli-cold,warm} --seed N --seconds T --trace {0,1}

Run from the root of a checkout; the program under test is ``src/mirrorcool``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md for
what each workload and metric is and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable

SETUP_SAMPLES = 4      # cold starts timed per run, after one untimed
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.mirrorcool_s": "s",
    "import.scipy_signal_s": "s",
    **{f"{fn}.{kind}": unit for fn in tracing.FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "cli.output_bytes": "bytes",
    "steady_state.optimize_gain.evals": "count",
    "spectrum.eval_spectrum.points": "count",
    "langevin.simulate.traj_steps": "count",
    "import.self_s": "s",
    "process.self_s": "s",
    "round.other_s": "s",
    "round.traced_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = _env()


def spawn(argv: list, log: Path) -> tuple[int, float, int]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=ENV,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def client(mode: str, *args) -> list:
    return [PY, BENCH / "client.py", mode, *args]


def setup_probe(workload: str, seed: int, directory: Path, log: Path) -> float:
    rc, wall, _ = spawn(client("setup", "--workload", workload, "--seed", seed, "--dir", directory), log)
    if rc != 0:
        raise BenchError(f"set-up probe exited {rc}; see {log}")
    return wall


def _top_import_s(lines: list[tuple[int, str, float]], prefix: str) -> float:
    """Cumulative seconds of the outermost imports of ``prefix`` or its submodules.

    ``-X importtime`` prints a module after its children, indented by
    depth, so a line's importer is the next line that is less indented.
    """
    total = 0.0
    for i, (depth, name, cum) in enumerate(lines):
        if name != prefix and not name.startswith(prefix + "."):
            continue
        importer = next((n for d, n, _ in lines[i + 1:] if d < depth), "")
        if importer != prefix and not importer.startswith(prefix + "."):
            total += cum
    return total


def import_times(log: Path) -> dict:
    """Cumulative import times (s) of mirrorcool and scipy.signal, from -X importtime."""
    samples = []
    for i in range(IMPORTTIME_SAMPLES + 1):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import mirrorcool"], cwd=ROOT,
                              env=ENV, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            log.write_text(proc.stderr, encoding="utf-8")
            raise BenchError(f"import mirrorcool failed; see {log}")
        lines = []
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].rstrip()
                depth = len(name) - len(name.lstrip())
                lines.append((depth, name.strip(), int(fields[1]) * 1e-6))
        if i:  # the first start pays for writing bytecode caches
            samples.append(lines)
    return {
        "import.mirrorcool_s": statistics.median(_top_import_s(s, "mirrorcool") for s in samples),
        "import.scipy_signal_s": statistics.median(_top_import_s(s, "scipy.signal") for s in samples),
    }


def run_cold(ops: list[dict], run_dir: Path, seconds: float, tracer, log: Path):
    """cli-cold: every verb in a fresh ``python -m mirrorcool`` process, one at a time."""
    rounds, round_s, peak_kb = [], [], 0
    begin = time.perf_counter()
    while not round_s or time.perf_counter() - begin < seconds:
        out = run_dir / f"r{len(rounds)}"
        out.mkdir()
        records, spans = [], []
        t0 = time.perf_counter()
        for op in ops:
            argv = workloads.cli_argv(op, out)
            if tracer:
                spans_path = out / f"{op['name']}.spans.npz"
                span = tracer.open("process")
                rc, wall, rss = spawn(client("verb", "--spans", spans_path, "--", *argv), log)
                tracer.close(span)
                spans.append((span, spans_path))
            else:
                rc, wall, rss = spawn([PY, "-m", "mirrorcool", *argv], log)
            records.append({"rc": rc, "op_s": wall})
            peak_kb = max(peak_kb, rss)
        t1 = time.perf_counter()
        if tracer:
            tracer.rounds.append((t0, t1))
            for span, path in spans:
                if path.exists():
                    tracer.adopt(tracing.load(path), span)
                    path.unlink()
        workloads.digest_round(ops, records, out, rounds[0] if rounds else None)
        rounds.append(records)
        round_s.append(t1 - t0)
    return rounds, round_s, peak_kb


def run_warm(workload: str, seed: int, run_dir: Path, seconds: float, trace: bool, log: Path):
    args = ["--workload", workload, "--seed", seed, "--dir", run_dir, "--seconds", seconds]
    rc, _, _ = spawn(client("run", *args, *(["--trace"] if trace else [])), log)
    if rc != 0:
        raise BenchError(f"client exited {rc}; see {log}")
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    return result["rounds"], result["round_s"], result["peak_rss_kb"]


def verdict(op: dict, rec: dict, out: Path) -> tuple[str, list[str]]:
    """("ok" | "error" | "wrong", problems) for one operation of one round."""
    if "error" in rec:
        return "error", [rec["error"]]
    if op["kind"] == "cli":
        if rec["rc"] != 0:
            return "error", [f"exit code {rec['rc']}"]
        problems = checks.check_cli(op, out)
    else:
        problems = checks.check_optimize_gain(op, rec["value"])
    return ("wrong" if problems else "ok"), problems


def _outcome(rec: dict) -> dict:
    """A record without its timing: what the operation returned or wrote."""
    return {k: v for k, v in rec.items() if k != "op_s"}


def judge(ops: list[dict], rounds: list[list[dict]], run_dir: Path) -> tuple[int, int, bool]:
    """Check every operation of every round: (attempted, failed, correct).

    A round's record that equals the first round's (same exit code or
    return value, same output bytes) gets the first round's verdict.
    """
    first = [verdict(op, rec, run_dir / "r0") for op, rec in zip(ops, rounds[0])]
    attempted = failed = 0
    correct = True
    for k, records in enumerate(rounds):
        for j, (op, rec) in enumerate(zip(ops, records)):
            attempted += 1
            same = _outcome(rec) == _outcome(rounds[0][j])
            kind, problems = first[j] if same else verdict(op, rec, run_dir / f"r{k}")
            if kind != "ok":
                failed += 1
                correct = correct and kind != "wrong"
                if k == 0 or not same:
                    print(f"round {k} {op['name']} {kind}: " + "; ".join(problems[:3]), file=sys.stderr)
    return attempted, failed, correct


def layer_metrics(spans: dict, rounds: list[list[dict]], log: Path) -> dict:
    per_round = tracing.round_metrics(spans)
    measured = rounds[-len(per_round):]
    for metrics, records in zip(per_round, measured):
        metrics["cli.output_bytes"] = float(sum(r.get("bytes", 0) for r in records))
    metrics = tracing.mean_metrics(per_round)
    metrics.update(import_times(log))
    return {name: metrics[name] for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description="mirrorcool benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "mirrorcool" / "__init__.py").is_file():
        print(f"no mirrorcool package under {SRC}: run from the root of a mirrorcool checkout",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    log = run_dir / "stderr.log"
    trace = bool(args.trace)
    try:
        setup_s = []
        n_probes = 1 if trace else SETUP_SAMPLES + 1
        for i in range(n_probes):
            wall = setup_probe(args.workload, args.seed, run_dir / f"setup{i}", log)
            if i:  # the first start pays for writing bytecode caches
                setup_s.append(wall)
        tracer = tracing.Tracer() if trace else None
        if args.workload == "cli-cold":
            ops = workloads.load(run_dir / f"setup{n_probes - 1}" / "inputs")
            rounds, round_s, peak_kb = run_cold(ops, run_dir, args.seconds, tracer, log)
            if tracer:
                tracer.save(run_dir / "spans.npz")
        else:
            rounds, round_s, peak_kb = run_warm(args.workload, args.seed, run_dir,
                                                args.seconds, trace, log)
            ops = workloads.load(run_dir / "inputs")
        attempted, failed, correct = judge(ops, rounds, run_dir)
        if trace:
            spans = tracing.load(run_dir / "spans.npz")
            values = layer_metrics(spans, rounds, log)
            units = PER_LAYER
            shutil.copyfile(run_dir / "spans.npz", OUT / f"trace-{args.workload}.npz")
        else:
            # the mean over rounds: this machine's speed jumps between a fast
            # and a slow state for tens of seconds at a time, and the mean
            # weighs the two by time where a median of a few rounds flips
            values = {
                "setup_s": statistics.median(setup_s),
                "round_s": statistics.mean(round_s),
                "peak_rss_mb": peak_kb / 1024,
            }
            units = END_TO_END
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    times = {"setup_s": setup_s, "round_s": round_s,
             "op_s": [[rec["op_s"] for rec in records] for records in rounds]}
    (OUT / f"times-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(times), encoding="utf-8")
    if failed == 0:
        shutil.rmtree(run_dir)
    else:
        print(f"outputs of failed operations kept in {run_dir}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(round_s)} rounds, "
          f"round_s {[round(r, 4) for r in round_s]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
