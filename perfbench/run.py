"""sbopt benchmark: budgeted solver runs through the public `sbo run` harness path.

Usage, from the repository root:

    python3 perfbench/run.py --workload rk_complex --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics and --trace 1 the per-layer
metrics; BENCHMARK.json at the root names both sets with their units.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Workloads, the closed-loop load
and the layer -> metric -> workload map are described in perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set before numpy is first imported, in this process and in the set-up
# probes, so both sides of a comparison run BLAS with the same thread count.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BUDGET = 100
# Regret and output digests come from these frozen solver seeds, so they are
# the same on every run of one commit.  The --seed part adds runs on seed
# `--seed + 1`, which never repeats an anchor.
ANCHOR_SEEDS = (0,)
SEED_OFFSET = 1
SETUP_SAMPLES = 5

# workload -> (problem, solver) pairs; each pair runs once on the anchor
# seeds and once on the --seed part
WORKLOADS = {
    "rk_complex": (("complex", "rk"),),
    "penalty_complex": (("complex", "spsa"), ("complex", "direct")),
    "small_mix": (("simple", "pi"), ("simple", "rk"), ("simple", "spsa"),
                  ("simple", "direct")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_sbopt():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "sbopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sbopt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sbopt

    if Path(sbopt.__file__).resolve().parent != (SRC / "sbopt").resolve():
        sys.exit(f"perfbench: imported sbopt from {sbopt.__file__}, not {SRC}")
    return sbopt


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(problems) -> list:
    """Seconds from starting an interpreter to sbopt imported and problems built."""
    cmd = [sys.executable, str(BENCH / "ready.py"), *problems]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              check=True)
        if i > 0:  # the first start also compiles bytecode caches
            samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def _interpreter_kernel(steps=3000):
    """Fixed interpreter-bound loop shaped like the simulator's step loop."""
    n = 0.0
    for _ in range(steps):
        k = n / 40.0
        q = 700.0 * k / 20.0 if k <= 20.0 else 700.0 * (45.0 - k) / 15.0
        n = min(n + 0.5 * (10.0 - q * 0.01), 1800.0)
    return n


class HostSpeed:
    """The host's slowdown over time, from a reference kernel.

    The shared host's speed drifts by tens of percent, for every process
    on it, and switches within seconds.  Every INTERVAL_S seconds at most,
    this times a fixed interpreter-bound loop that no commit changes.  A
    sample's slowdown is its time over the reference time, smoothed by a
    median over SMOOTH neighbouring samples.  A timed interval is divided
    by the slowdown measured during it, or by the nearest sample's for a
    short one.
    """

    INTERVAL_S = 0.25
    SMOOTH = 5

    def __init__(self, reference_ms: float):
        self.reference_ms = reference_ms
        self.times: list = []  # sample start, perf_counter seconds
        self.kernel_ms: list = []
        self.spent_s = 0.0
        self._last = -float("inf")

    def tick(self, now: float) -> float:
        """Sample if one is due; returns the seconds the sample took."""
        if now - self._last < self.INTERVAL_S:
            return 0.0
        start = time.perf_counter()
        _interpreter_kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.kernel_ms.append((end - start) * 1e3)
        self.spent_s += end - start
        self._last = end
        return end - start

    def slowdowns(self) -> list:
        raw = [ms / self.reference_ms for ms in self.kernel_ms]
        h = self.SMOOTH // 2
        return [statistics.median(raw[max(0, i - h):i + h + 1]) for i in range(len(raw))]

    def converter(self):
        """Function (start, end, seconds) -> seconds at the reference host speed."""
        times, inverse = self.times, [1.0 / s for s in self.slowdowns()]

        def convert(start, end, seconds):
            lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
            if hi > lo:
                return seconds * statistics.fmean(inverse[lo:hi])
            mid = (start + end) / 2
            near = min((j for j in (lo - 1, lo) if 0 <= j < len(times)),
                       key=lambda j: abs(times[j] - mid))
            return seconds * inverse[near]

        return convert


class StepClock:
    """Clock read each time an evaluation lands in a Trace (the only untraced hook).

    The host-speed sample, when one is due, runs after the clock read and
    before the solver resumes, so it falls outside every step.
    """

    def __init__(self, trace_cls, speed: HostSpeed):
        self.speed = speed
        self.steps: list = []  # (start, end) perf_counter seconds
        self._open: dict = {}
        original = trace_cls.append
        stamps = self._open

        def append(trace, tau, evaluation):
            original(trace, tau, evaluation)
            now = time.perf_counter()
            stamps.setdefault(trace, []).append((now, now + speed.tick(now)))

        trace_cls.append = append

    def close_runs(self) -> None:
        """Turn finished runs into steps; one step per consecutive pair."""
        for stamps in self._open.values():
            self.steps.extend((prev_start, end) for (_, prev_start), (end, _)
                              in zip(stamps, stamps[1:]))
        self._open.clear()


def digest(out_dir: Path) -> str:
    """sha256 over every report JSON and trace CSV in out_dir, by file name."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("report_*.json")) + sorted(out_dir.glob("trace_*.csv")):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_op(problem, solver, seeds, out_dir, clock):
    """One run_experiment call; each of its solver seeds is one operation."""
    from sbopt.bench.harness import ConfigError, ExperimentConfig, load_report, run_experiment

    config = ExperimentConfig(problem=problem, solver=solver, budget=BUDGET,
                              seeds=tuple(seeds), output_dir=str(out_dir))
    result = {"problem": problem, "solver": solver, "seeds": list(seeds),
              "evals": 0, "per_seed": [], "failed_seeds": [], "errors": []}
    clock.speed.tick(time.perf_counter())
    spent = clock.speed.spent_s
    start = time.perf_counter()
    report = None
    try:
        report = run_experiment(config)
    except Exception:  # a failing solver run is counted as failed, not fatal
        result["errors"].append(traceback.format_exc())
        print(result["errors"][-1], file=sys.stderr)
    finally:
        # host-speed samples taken inside the run are not part of its time
        result["start"], result["end"] = start, time.perf_counter()
        result["wall_s"] = result["end"] - start - (clock.speed.spent_s - spent)
        clock.close_runs()
    if report is None:
        result["failed_seeds"] = list(seeds)
        return result

    failed = set()
    try:
        load_report(out_dir / f"report_{problem}_{solver}.json")
    except (ConfigError, OSError) as exc:
        failed.update(seeds)
        result["errors"].append(f"load_report rejected the report: {exc}")
    for entry in report["per_seed"]:
        result["evals"] += entry["n_evals"]
        result["per_seed"].append({k: entry[k] for k in
                                   ("seed", "n_evals", "best_value", "feasible")})
        if entry["n_evals"] != BUDGET:
            failed.add(entry["seed"])
            result["errors"].append(
                f"seed {entry['seed']}: {entry['n_evals']} evaluations, budget {BUDGET}")
        if not entry["feasible"]:
            failed.add(entry["seed"])
            result["errors"].append(f"seed {entry['seed']}: no feasible best point")
    result["failed_seeds"] = sorted(failed)
    result["sense"] = report["sense"]
    return result


def run_pass(pairs, seeds, out_dir, clock):
    out_dir.mkdir(parents=True, exist_ok=True)
    return [run_op(problem, solver, seeds, out_dir, clock) for problem, solver in pairs]


def regret(baseline, problem, sense, value) -> float:
    """Share of the possible improvement over the untolled value left unachieved."""
    ref, untolled = baseline["ref"][problem], baseline["untolled"][problem]
    if sense == "maximize":
        return (ref - value) / (ref - untolled)
    return (value - ref) / (untolled - ref)


def median_regret(baseline, ops):
    values = [regret(baseline, op["problem"], op["sense"], entry["best_value"])
              for op in ops for entry in op["per_seed"]]
    return statistics.median(values) if values else float("nan"), len(values)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end(args, pairs, problems, baseline, clock):
    """Measure the untraced run; returns (metrics, sample counts, ops, extra)."""
    setup = measure_setup(problems)
    workload_dir = OUT / args.workload
    anchor_dir, seed_dir = workload_dir / "anchor", workload_dir / "seed"
    seed_part = (args.seed + SEED_OFFSET,)

    ops, passes, began = [], 0, time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        anchor_ops = run_pass(pairs, ANCHOR_SEEDS, anchor_dir, clock)
        seed_ops = run_pass(pairs, seed_part, seed_dir, clock)
        ops += anchor_ops + seed_ops
        passes += 1
        if passes == 1:
            first_anchor, first_seed = anchor_ops, seed_ops
            digests = {"anchor": digest(anchor_dir), "seed": digest(seed_dir)}
        # a later pass repeats the same seeds, and runs only if it fits --seconds
        now = time.perf_counter()
        if now - began + (now - pass_start) > args.seconds:
            break

    wall = sum(op["wall_s"] for op in ops)
    evals = sum(op["evals"] for op in ops)
    raw_steps = [(end - start) * 1e3 for start, end in clock.steps]
    raw = {
        "evals_per_s": evals / wall,
        "step_ms_p50": percentile(raw_steps, 50),
        "step_ms_p90": percentile(raw_steps, 90),
    }
    # at the reference host speed.  Set-up is import-bound and does not
    # follow the kernel, so it stays raw.
    convert = clock.speed.converter()
    steps = [convert(start, end, end - start) * 1e3 for start, end in clock.steps]
    metrics = {
        "setup_s": statistics.median(setup),
        "evals_per_s": evals / sum(convert(op["start"], op["end"], op["wall_s"])
                                   for op in ops),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
    }
    regret_anchor, n_anchor = median_regret(baseline, first_anchor)
    regret_seed, n_seed = median_regret(baseline, first_seed)
    metrics["regret_frac"] = regret_anchor
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": len(setup), "evals_per_s": evals, "step_ms_p50": len(steps),
               "step_ms_p90": len(steps), "regret_frac": n_anchor, "peak_rss_mb": 1}
    extra = {"passes": passes, "wall_s": wall, "raw": raw, "setup_samples_s": setup,
             "host_slowdown": {"median": statistics.median(clock.speed.slowdowns()),
                               "samples": len(clock.speed.times)},
             "regret_frac_seed_part": regret_seed, "regret_seed_part_runs": n_seed,
             "digests": digests}
    return metrics, samples, ops, extra


def per_layer(args, pairs, clock):
    """Untraced then traced pass over the anchor runs, then the fixed-size probes."""
    from probes import run_probes
    from sbopt.bench.plotting import read_trace_csv
    from sbopt.bench.problems import get_problem
    from tracing import Tracer, layer_metrics

    workload_dir = OUT / args.workload
    anchor_dir, traced_dir = workload_dir / "anchor", workload_dir / "traced"
    speed = clock.speed
    untraced_ops = run_pass(pairs, ANCHOR_SEEDS, anchor_dir, clock)
    tracer = Tracer()
    # a host-speed sample is a child span, so it stays out of the layers' self time
    tracer.install(extra=[(speed, "tick", "perfbench.host_speed")])
    try:
        traced_ops = run_pass(pairs, ANCHOR_SEEDS, traced_dir, clock)
    finally:
        tracer.restore()
    untraced_wall = sum(op["wall_s"] for op in untraced_ops)
    traced_wall = sum(op["wall_s"] for op in traced_ops)

    metrics = layer_metrics(tracer, traced_wall)
    # both walls at the reference host speed, so drift between the passes cancels
    convert = speed.converter()
    metrics["tracing.overhead_frac"] = (
        sum(convert(op["start"], op["end"], op["wall_s"]) for op in traced_ops)
        / sum(convert(op["start"], op["end"], op["wall_s"]) for op in untraced_ops) - 1.0)
    metrics["bench.io_bytes"] = sum(p.stat().st_size for p in traced_dir.iterdir())

    # evaluations spent at infeasible points, read back from the trace CSVs
    infeasible = total = 0
    for op in traced_ops:
        predicate = get_problem(op["problem"]).feasibility_predicate()
        for seed in op["seeds"]:
            path = traced_dir / f"trace_{op['problem']}_{op['solver']}_seed{seed}.csv"
            taus = read_trace_csv(path)["tau"]
            total += len(taus)
            if predicate is not None:
                infeasible += sum(not predicate(t) for t in taus)
    metrics["core.infeasible_eval_frac"] = infeasible / total if total else 0.0

    metrics.update(run_probes(args.seed))
    spans_path = workload_dir / "spans.csv"
    tracer.write_csv(spans_path, args.workload)
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "host_slowdown": {"median": statistics.median(speed.slowdowns()),
                               "samples": len(speed.times)},
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "digests": {"anchor": digest(anchor_dir)}}
    return metrics, untraced_ops + traced_ops, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sbopt = import_sbopt()
    sys.path.insert(0, str(BENCH))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((BENCH / "baseline.json").read_text())
    pairs = WORKLOADS[args.workload]
    problems = sorted({problem for problem, _ in pairs})
    workload_dir = OUT / args.workload
    shutil.rmtree(workload_dir, ignore_errors=True)
    workload_dir.mkdir(parents=True)
    clock = StepClock(sbopt.core.Trace, HostSpeed(baseline["reference_kernel_ms"]))

    if args.trace:
        values, ops, extra = per_layer(args, pairs, clock)
        samples = {}
        wanted = spec["per_layer"]
    else:
        values, samples, ops, extra = end_to_end(args, pairs, problems, baseline, clock)
        wanted = spec["end_to_end"]

    attempted = sum(len(op["seeds"]) for op in ops)
    failed = sum(len(op["failed_seeds"]) for op in ops)
    frozen = baseline["anchor_digests"].get(args.workload)
    identical = None if frozen is None else extra["digests"]["anchor"] == frozen
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "attempted": attempted,
              "failed": failed, "outputs_identical": identical, "metrics": metrics,
              "samples": samples, "detail": extra, "runs": ops}
    (workload_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 process, 1 solver run at a time")
    print("environment: " + json.dumps(env))
    print(f"solver runs: attempted {attempted}, failed {failed}")
    for op in ops:
        for err in op["errors"]:
            print(f"  FAILED {op['problem']}/{op['solver']}: {err.strip().splitlines()[-1]}")
    for name, entry in metrics.items():
        count = samples.get(name)
        count = "" if count is None else f"  n={count}"
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}{count}")
    print(f"outputs_identical: {json.dumps(identical)} "
          f"(anchor digest {extra['digests']['anchor']})")
    if not args.trace:
        print(f"regret_frac on the --seed part: {extra['regret_frac_seed_part']:.6g} "
              f"over {extra['regret_seed_part_runs']} runs; passes {extra['passes']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
