"""Spans around the calls into each mirrorcool layer, and their per-round totals.

``Tracer.install`` wraps every function in ``LAYERS`` under every name a
``mirrorcool`` module binds it to: ``cli``, ``spectrum``, ``langevin`` and
``steady_state`` import these functions with ``from .x import y``, so
wrapping only the defining module would miss their calls. Each span
stores its name, its parent span, start and end (``perf_counter``, the
same monotonic clock in every process) and a work count. Spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child
spans; summed over every span of a round it equals the time the round
spent inside traced spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

LAYERS = {
    "cli": ("main",),
    "params": ("derive_coupling",),
    "bath": ("bath_from_rates", "check_stability"),
    "steady_state": ("closed_form_moments", "lyapunov_moments", "optimize_gain"),
    "spectrum": ("eval_spectrum", "sum_rule_check"),
    "langevin": ("simulate", "psd_vs_analytic"),
    "fock": ("build_generator", "evolve_to_steady"),
}

# numpy is imported inside the functions that need it, so that a traced
# cold process pays for it inside its "import" span, as mirrorcool does

# spans the benchmark opens itself: the import of mirrorcool inside a cold
# CLI process, and that process's whole life as seen by its parent
BENCH_SPANS = ("import", "process")

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _grid_points(args, kwargs) -> float:
    grid = kwargs.get("omega_grid", args[1] if len(args) > 1 else ())
    return float(len(grid))


def _traj_steps(args, kwargs) -> float:
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    steps = round(cfg.t_relax / cfg.dt) + round(cfg.t_sample / cfg.dt)
    return float(cfg.n_traj * steps)


WORK = {
    "spectrum.eval_spectrum": _grid_points,
    "langevin.simulate": _traj_steps,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = list(FUNCTIONS) + list(BENCH_SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.rounds: list[tuple[float, float]] = []
        self._stack = [-1]

    def open(self, name: str, work: float = 0.0) -> int:
        i = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name, count(args, kwargs) if count else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def install(self) -> None:
        """Wrap every listed function under every binding in the mirrorcool modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mirrorcool" or n.startswith("mirrorcool.")]
        for mod_name, fns in LAYERS.items():
            defining = sys.modules[f"mirrorcool.{mod_name}"]
            for fn_name in fns:
                original = getattr(defining, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def adopt(self, spans: dict, parent: int) -> None:
        """Append spans recorded in another process under the span ``parent``."""
        offset = len(self.start)
        ids = [self._ids[n] for n in spans["names"]]
        for k in range(len(spans["start"])):
            p = int(spans["parent"][k])
            self.name.append(ids[spans["name"][k]])
            self.parent.append(parent if p < 0 else p + offset)
            self.start.append(float(spans["start"][k]))
            self.end.append(float(spans["end"][k]))
            self.work.append(float(spans["work"][k]))

    def save(self, path: Path) -> None:
        import numpy as np

        with open(path, "wb") as fh:
            np.savez(
                fh, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                work=np.frombuffer(self.work), rounds=np.array(self.rounds, dtype=float).reshape(-1, 2),
            )


def load(path: Path) -> dict:
    import numpy as np

    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["names"] = [str(n) for n in spans["names"]]
    return spans


def round_metrics(spans: dict) -> list[dict]:
    """Per-round span totals: calls, self time and work counts."""
    import numpy as np

    names = spans["names"]
    name = np.asarray(spans["name"], dtype=int)
    parent = np.asarray(spans["parent"], dtype=int)
    start = np.asarray(spans["start"], dtype=float)
    dur = np.asarray(spans["end"], dtype=float) - start
    work = np.asarray(spans["work"], dtype=float)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    opt = names.index("steady_state.optimize_gain")
    closed = names.index("steady_state.closed_form_moments")
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    per_round = []
    for t0, t1 in spans["rounds"]:
        inside = (start >= t0) & (start <= t1)
        m: dict[str, float] = {}
        for i, fn in enumerate(names):
            sel = inside & (name == i)
            m[f"{fn}.calls"] = float(np.count_nonzero(sel))
            m[f"{fn}.self_s"] = float(self_time[sel].sum())
        opt_calls = m["steady_state.optimize_gain.calls"]
        evals = np.count_nonzero(inside & (name == closed) & (parent_name == opt))
        m["steady_state.optimize_gain.evals"] = evals / opt_calls if opt_calls else 0.0
        m["spectrum.eval_spectrum.points"] = float(
            work[inside & (name == names.index("spectrum.eval_spectrum"))].sum())
        m["langevin.simulate.traj_steps"] = float(
            work[inside & (name == names.index("langevin.simulate"))].sum())
        m["round.traced_s"] = t1 - t0
        m["round.other_s"] = (t1 - t0) - float(self_time[inside].sum())
        per_round.append(m)
    return per_round


def mean_metrics(per_round: list[dict]) -> dict:
    """Mean over rounds: unlike medians, the self times still add up to the round."""
    return {k: statistics.fmean(r[k] for r in per_round) for k in per_round[0]}
