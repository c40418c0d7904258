"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

For every workload it makes one untraced run and two traced runs with
different seeds, each as short as run.py allows, and checks that

* every run passes the correctness gate;
* the untraced result holds every end-to-end metric of BENCHMARK.json, each
  above zero, and the saved record holds every phase timing the workload
  names, with its sample count;
* the traced result holds every per-layer metric of BENCHMARK.json;
* the work counts repeat exactly across the two traced runs and equal the
  counts the seed code gives (298 active-set solves over 72 steps on
  t1-tri48-march, 24 over 10 on t2-cart7-snapshots, 24,282 cell_rule calls
  on hex-diagnose).

It takes a few minutes and exits with 1 on the first workload that fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Counts that must repeat exactly from run to run.
REPEATED = ("solver.iterations", "solver.factorisations", "quadrature.cell_rule_calls",
            "discretisation.assemble_calls", "export.bytes_written")

EXPECTED = {
    "t1-tri48-march": {"solver.iterations": 298, "timeloop.steps": 72,
                       "solver.factorisations": 298, "quadrature.cell_rule_calls": 4608,
                       "discretisation.assemble_calls": 1},
    "t2-cart7-snapshots": {"solver.iterations": 24, "timeloop.steps": 10,
                           "solver.factorisations": 24, "discretisation.assemble_calls": 1,
                           "quadrature.cell_rule_calls": 0},
    "hex-diagnose": {"quadrature.cell_rule_calls": 3 * (1613 + 6481),
                     "solver.iterations": 0, "discretisation.assemble_calls": 2},
}

PHASES = {
    "t1-tri48-march": ("setup_s", "march_s", "step_p50_ms", "step_tail_ms", "post_s",
                       "total_s"),
    "t2-cart7-snapshots": ("setup_s", "march_s", "step_p50_ms", "total_s"),
    "hex-diagnose": ("setup_s", "post_s", "total_s"),
}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: {result}")
    return result


def check(workload: str, benchmark: dict) -> None:
    names = [m["name"] for m in benchmark["end_to_end"]]
    plain = run(workload, 1, 0)
    if list(plain["metrics"]) != names:
        raise AssertionError(f"{workload}: end-to-end metrics {list(plain['metrics'])}")
    zero = [k for k, v in plain["metrics"].items() if not v["value"] > 0]
    if zero:
        raise AssertionError(f"{workload}: end-to-end metrics not above zero: {zero}")
    record = json.loads((HERE / "results" / f"{workload}-seed1-trace0.json").read_text())
    if sorted(k for k in record["phases"] if k != "step_tail_pct") != sorted(PHASES[workload]):
        raise AssertionError(f"{workload}: phases {sorted(record['phases'])}")

    layer_names = [m["name"] for m in benchmark["per_layer"]]
    counts = []
    for seed in (1, 2):
        traced = run(workload, seed, 1)
        if list(traced["metrics"]) != layer_names:
            raise AssertionError(f"{workload}: per-layer metrics {list(traced['metrics'])}")
        counts.append({k: v["value"] for k, v in traced["metrics"].items()
                       if k in REPEATED or k in EXPECTED[workload]})
    if counts[0] != counts[1]:
        raise AssertionError(f"{workload}: counts differ between runs: {counts}")
    wrong = {k: counts[0][k] for k, v in EXPECTED[workload].items() if counts[0][k] != v}
    if wrong:
        raise AssertionError(f"{workload}: counts {wrong}, expected {EXPECTED[workload]}")
    print(f"{workload}: ok {counts[0]}", flush=True)


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in PHASES:
        try:
            check(workload, benchmark)
        except AssertionError as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
