"""Benchmark runner for hmmvi.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all ...

Runs one workload (see README.md) from the checkout's ``src/`` for S seconds
and at least two samples, in this one process, after a warm-up at a tiny
size.  Every timed sample pays its own full set-up, and every sample is
checked against ``reference.json``; a sample that misses a reference or
raises counts as failed.  While a sample runs, a fixed calibration kernel
interrupts it every 0.1 s; every time the sample reports is scaled by it to
the reference speed of the machine (see ``HostSpeed``).  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced samples alternate
and the result holds the per-layer metrics.  A readable report precedes that
line, and the full record (run conditions, raw samples and kernel times, spans)
goes to ``benchmarks/results/``.  ``--workload all`` runs every
workload in its own child process, in an order fixed by the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics

# numpy, scipy and hmmvi are imported only inside functions, after
# use_checkout_source() has pinned the BLAS/OpenMP threads.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A tail percentile needs at least this many step intervals above it.
TAIL_BEYOND = 10
# Untraced samples per run at least.  Each sample is 8 to 15 s of work, so
# two fill the run; the scaling by HostSpeed, not the median, absorbs what
# other tenants of the machine do to its speed.
MIN_SAMPLES = 2
# The calibration kernel (HostSpeed): iterations of its loop, side of the
# grid of its Laplacian, the interval between two runs of it, and the seconds
# one run takes at the reference speed of the machine (README.md).
CALIBRATION_LOOP = 10_000
CALIBRATION_GRID = 24
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_REF_S = 0.0025
# A phase is scaled by the kernel runs inside it when there are at least this
# many, else by those of its whole sample.
CALIBRATION_LOCAL_MIN = 8


def use_checkout_source() -> None:
    """Import hmmvi from this checkout's src/, single threaded, or stop."""
    src = ROOT / "src"
    if not (src / "hmmvi" / "__init__.py").is_file():
        sys.exit(f"run.py: no hmmvi sources under {src}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import hmmvi

    if Path(hmmvi.__file__).resolve().parent != src / "hmmvi":
        sys.exit(f"run.py: imported hmmvi from {hmmvi.__file__}, not from {src}")


def run_conditions() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "timed_repeats_share_process": True,
        "warm_up": "one sample of the same workload at its warm-up size",
    }


class HostSpeed:
    """The machine's speed while a sample runs, from a calibration kernel.

    Other tenants of the machine slow it down by up to half, and the slowdown
    changes within seconds.  So while the sample runs, a SIGALRM handler runs
    a fixed kernel every CALIBRATION_PERIOD_S of wall time and times it: the
    two kinds of work the workloads do, an interpreted loop and a sparse LU
    factorisation (of a 2-D Laplacian).  It calls only Python and scipy, so
    no change to hmmvi can move it, and it touches some 100 kB against the
    workloads' tens of MB.  ``speed_factor`` turns wall times into times at
    the reference speed.
    """

    def __init__(self):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        # Bound now, before a Tracer can replace scipy's splu with its wrapper.
        self._splu = splu
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                        shape=(CALIBRATION_GRID, CALIBRATION_GRID))
        eye = sp.identity(CALIBRATION_GRID)
        self._laplacian = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
        self.kernel_at: list = []
        self.kernel_s: list = []
        self.factor = 1.0

    def _kernel(self, signum=None, frame=None) -> None:
        start = perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        self._splu(self._laplacian)
        self.kernel_at.append(start)
        self.kernel_s.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if self.kernel_s:
            self.factor = speed_factor(self.kernel_s, wall)
        else:
            self._kernel()
            self.factor = CALIBRATION_REF_S / self.kernel_s[0]


def speed_factor(kernel_s, wall_s: float) -> float:
    """What turns wall seconds into seconds at the reference speed.

    It takes out the share of the wall time that the kernel runs in it took,
    then scales by the reference kernel time over the mean kernel time.
    """
    return (1.0 - sum(kernel_s) / wall_s) * CALIBRATION_REF_S / statistics.mean(kernel_s)


def scaled_times(sample) -> dict:
    """A sample's phase and step times, scaled to the reference speed.

    Each phase is scaled by the kernel runs inside it, so that a short
    phase such as the set-up gets the speed of its own seconds; step times
    are too short for that and take the sample's factor.
    """
    kernels = list(zip(sample["kernel_at"], sample["kernel_s"]))
    times = {}
    for phase, spans in sample["phase_spans"].items():
        times[phase] = 0.0
        for start, end in spans:
            inside = [s for at, s in kernels if start <= at < end]
            factor = (speed_factor(inside, end - start)
                      if len(inside) >= CALIBRATION_LOCAL_MIN else sample["host_factor"])
            times[phase] += (end - start) * factor
    factor = sample["host_factor"]
    return {**times, **step_stats([s * factor for s in sample["step_s"]])}


def run_sample(workload, size, rng, tracer=None) -> dict:
    """One sample in a fresh output directory, under the tracer if given."""
    out_dir = RESULTS / f"files-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    speed = HostSpeed()
    try:
        if tracer is not None:
            tracer.install()
        try:
            with speed:
                sample = workload.run(size, out_dir, rng)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sample["host_factor"] = speed.factor
    sample["kernel_at"] = speed.kernel_at
    sample["kernel_s"] = speed.kernel_s
    if tracer is not None:
        sample["layers"] = layer_metrics(tracer.spans)
    return sample


def step_stats(intervals) -> dict:
    """Median and tail of one sample's step wall times, in ms.

    The tail is the highest whole percentile that leaves at least
    TAIL_BEYOND intervals above it; too few steps give no tail.
    """
    import numpy as np

    if not intervals:
        return {}
    ms = np.asarray(intervals) * 1e3
    stats = {"step_p50_ms": float(np.median(ms))}
    pct = int(100 * (ms.size - TAIL_BEYOND) // ms.size)
    if pct >= 50:
        stats["step_tail_ms"] = float(np.percentile(ms, pct))
        stats["step_tail_pct"] = pct
    return stats


def median_of(samples, key) -> float | None:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else None


def phase_table(plain) -> dict:
    """Every timing a workload names, as (median, unit, sample count)."""
    rows = [scaled_times(s) for s in plain]
    table = {}
    for key in ("setup_s", "march_s", "step_p50_ms", "step_tail_ms", "post_s", "total_s"):
        value = median_of(rows, key)
        if value is not None:
            table[key] = (value, "ms" if key.endswith("_ms") else "s",
                          sum(key in r for r in rows))
    if "step_tail_ms" in table:
        table["step_tail_pct"] = rows[0]["step_tail_pct"]
    return table


def layer_table(plain, traced, names) -> dict:
    """The per-layer metrics: traced medians, counts and untraced phases."""
    rows = [{**{k: v * s["host_factor"] if k.endswith("_s") else v
                for k, v in s["layers"].items()}, **s["counts"]} for s in traced]
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    factorisations = metrics["solver.factorisations"]
    metrics["solver.useful_solve_ratio"] = (
        metrics["timeloop.steps"] / factorisations if factorisations else 0.0)
    phases = phase_table(plain)
    for key in ("march_s", "post_s", "step_p50_ms", "step_tail_ms"):
        metrics[key] = phases[key][0] if key in phases else 0.0
    metrics["tracing_overhead_s"] = (median_of(map(scaled_times, traced), "total_s")
                                     - median_of(map(scaled_times, plain), "total_s"))
    metrics["wall.total_s"] = median_of([s["times"] for s in plain], "total_s")
    metrics["host.calibration_ms"] = 1e3 * statistics.median(
        statistics.mean(s["kernel_s"]) for s in plain)
    return {name: metrics[name] for name in names}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    rng = random.Random(seed)
    run_sample(workload, workload.warm_size, rng)

    plain, traced, spans, schedule = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    last = 0.0
    while True:
        kinds = rng.sample(["plain", "traced"], 2) if trace else ["plain"]
        for kind in kinds:
            attempted += 1
            schedule.append(kind)
            tracer = Tracer() if kind == "traced" else None
            sample_start = perf_counter()
            try:
                sample = run_sample(workload, workload.size, rng, tracer)
            except Exception:
                failed += 1
                print(f"sample {attempted} ({kind}) raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            problems = workloads.mismatches(sample["outputs"], reference)
            if problems:
                failed += 1
                print(f"sample {attempted} ({kind}) misses the reference:",
                      *problems[:20], sep="\n  ", file=sys.stderr)
                continue
            last = perf_counter() - sample_start
            if tracer is None:
                plain.append(sample)
            else:
                traced.append(sample)
                spans.append(tracer.spans)
        # Stop when another sample of the same length would overrun.
        if (perf_counter() - start + last > seconds
                and attempted >= (2 if trace else MIN_SAMPLES)):
            break
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": attempted, "failed": failed, "schedule": schedule,
            "plain": plain, "traced": traced, "spans": spans,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def report(run: dict, benchmark: dict) -> dict:
    """Print the readable report, save the record, return the result line."""
    plain, traced = run["plain"], run["traced"]
    complete = bool(plain) and (bool(traced) or not run["trace"])
    result = {"correct": complete and run["failed"] == 0,
              "attempted": run["attempted"], "failed": run["failed"], "metrics": {}}
    conditions = run_conditions()
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"(timed repeats share one process, after a warm-up)")
    print("conditions: " + json.dumps(conditions, sort_keys=True))
    record = {**{k: v for k, v in run.items() if k != "spans"},
              "conditions": conditions}
    if complete:
        phases = phase_table(plain)
        for key, entry in phases.items():
            if key != "step_tail_pct":
                pct = f" (p{phases['step_tail_pct']})" if key == "step_tail_ms" else ""
                print(f"  {key:<14} {entry[0]:12.6g} {entry[1]:<3}{pct}  "
                      f"median of {entry[2]} samples")
        print(f"  {'peak_rss_mb':<14} {run['peak_rss_mb']:12.6g} MB   peak of the process")
        kernel = statistics.median(statistics.mean(s["kernel_s"]) for s in plain)
        wall = {k: median_of([s["times"] for s in plain], k) for k in ("setup_s", "total_s")}
        print(f"  times above are scaled to the reference speed; unscaled wall medians: "
              f"setup_s {wall['setup_s']:.6g} s, total_s {wall['total_s']:.6g} s; "
              f"calibration kernel {1e3 * kernel:.4g} ms, "
              f"reference {1e3 * CALIBRATION_REF_S:.4g} ms")
        values = {**{k: v[0] for k, v in phases.items() if k != "step_tail_pct"},
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = benchmark["end_to_end"]
        if run["trace"]:
            wanted = benchmark["per_layer"]
            values = layer_table(plain, traced, [m["name"] for m in wanted])
            print(f"per layer, median of {len(traced)} traced samples:")
            for key, value in values.items():
                if key not in phases:
                    print(f"  {key:<32} {value:14.6g}")
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in wanted}
        record["phases"] = phases
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["spans"]:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "note"],
             "samples": run["spans"]}) + "\n")
    return result


def run_all(args, names) -> dict:
    """Each workload in its own process, so no peak memory leaks across."""
    order = list(names)
    random.Random(args.seed).shuffle(order)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(*lines[:-1], sep="\n")
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    use_checkout_source()
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args, workloads.WORKLOADS)
    else:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(run, benchmark)
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
