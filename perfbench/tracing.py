"""Spans around sbopt's layer entry points, installed from outside the library.

The traced run rebinds each function named in LAYER_FUNCTIONS, in every
loaded ``sbopt`` module that refers to it, to a wrapper that records a
span (name, start, end, parent).  Spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; one thread runs everything, so
children nest strictly inside their parent.
"""

import csv
import sys
from time import perf_counter

import numpy as np

# Layer module -> entry points wrapped by the traced run.  ``Class.method``
# entries are patched on the class.
LAYER_FUNCTIONS = {
    "sbopt.mfdsim": ("run_reservoir",),
    "sbopt.kriging": ("fit", "expected_improvement", "propose_infill", "run_rk"),
    "sbopt.constraints": ("is_feasible", "penalize"),
    "sbopt.core": ("Evaluator.evaluate",),
    "sbopt.direct": ("identify_potentially_optimal", "trisect", "run_direct"),
    "sbopt.spsa": ("run_spsa",),
    "sbopt.pi_control": ("run_pi",),
    "sbopt.bench.harness": ("run_experiment", "run_single"),
}

# Work counted at the same boundaries, from each call's result.
_COUNTERS = {
    "kriging.expected_improvement": lambda out: int(np.size(out)),  # EI points
    "constraints.is_feasible": lambda out: int(bool(out)),  # predicate passes
    "mfdsim.run_reservoir": lambda out: int(out.t_s.size),  # simulator steps
}


def _span_name(module_name: str, qualname: str) -> str:
    return f"{module_name.removeprefix('sbopt.')}.{qualname}"


class Tracer:
    """Records spans and counters while installed; ``restore`` undoes it."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counts[name] = counts.get(name, 0) + counter(out)
            return out

        return traced

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, extra=()) -> None:
        """Wrap every LAYER_FUNCTIONS entry, plus (owner, attr, span name) in extra."""
        for owner, attr, name in extra:
            self._rebind(owner, attr, self._wrap(name, getattr(owner, attr)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sbopt" or n.startswith("sbopt."))]
        for module_name, qualnames in LAYER_FUNCTIONS.items():
            module = sys.modules[module_name]
            for qualname in qualnames:
                name = _span_name(module_name, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                # `from .x import f` copies the binding, so patch every alias
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start) - child[i])
        return out

    def write_csv(self, path, workload: str) -> None:
        """One row per span; times in seconds since the tracer was created."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "workload"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start - self.origin:.9f}",
                                 f"{end - self.origin:.9f}", parent, workload])


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from one traced pass whose run_experiment calls took wall_s."""
    stats = tracer.stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per(value, n, scale):
        return value / n * scale if n else 0.0

    sim, ei, infill, fit = ("mfdsim.run_reservoir", "kriging.expected_improvement",
                            "kriging.propose_infill", "kriging.fit")
    pred, pen, evaluate = ("constraints.is_feasible", "constraints.penalize",
                           "core.Evaluator.evaluate")
    ei_points = counts.get(ei, 0)
    return {
        "mfdsim.calls": calls(sim),
        "mfdsim.ms_per_call": per(total(sim), calls(sim), 1e3),
        "mfdsim.us_per_step": per(own(sim), counts.get(sim, 0), 1e6),
        "mfdsim.share": own(sim) / wall_s,
        "kriging.ei.points": ei_points,
        "kriging.ei.us_per_point": per(total(ei), ei_points, 1e6),
        "kriging.ei.share": own(ei) / wall_s,
        "kriging.infill.calls": calls(infill),
        "kriging.infill.self_ms_per_call": per(own(infill), calls(infill), 1e3),
        "kriging.infill.share": own(infill) / wall_s,
        "kriging.fit.calls": calls(fit),
        "kriging.fit.ms_per_call": per(total(fit), calls(fit), 1e3),
        "kriging.fit.share": own(fit) / wall_s,
        "constraints.predicate.calls": calls(pred),
        "constraints.predicate.us_per_call": per(total(pred), calls(pred), 1e6),
        "constraints.predicate.pass_frac": per(counts.get(pred, 0), calls(pred), 1.0),
        "constraints.predicate.share": own(pred) / wall_s,
        "constraints.penalty.calls": calls(pen),
        "constraints.penalty.share": own(pen) / wall_s,
        "core.evaluate.calls": calls(evaluate),
        "core.evaluate.self_us_per_call": per(own(evaluate), calls(evaluate), 1e6),
        "direct.select_ms": total("direct.identify_potentially_optimal") * 1e3,
        "direct.trisect_self_ms": own("direct.trisect") * 1e3,
        "direct.iterations": calls("direct.identify_potentially_optimal"),
        "spsa.self_share": own("spsa.run_spsa") / wall_s,
        "pi_control.self_share": own("pi_control.run_pi") / wall_s,
        "bench.harness_self_ms": (total("bench.harness.run_experiment")
                                  - total("bench.harness.run_single")) * 1e3,
    }
