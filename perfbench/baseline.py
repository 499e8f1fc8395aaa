"""Measure run-to-run spread and record the baseline in `baseline.json`.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 10] [--write]

For each workload, runs `run.py --trace 0` once per seed (seeds 1..N), as
a separate process exactly as the benchmark command is run, and reports
per end-to-end metric the median, the quartiles and the spread (distance
between the quartiles over the median).  With `--write` it also makes
one traced run per workload (seed 1) and stores everything, with the
machine and library versions, in `baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")

# which end-to-end metric each layer should move, and on which workloads
LAYER_MAP = {
    "envelopes": {
        "spans": ["solver.dual_project", "transform.vex_p", "transform.cav_q",
                  "simplex.discrete_convexity_violation"],
        "moves": {"wall_s": ["solve-2type", "solve-3type"], "cpu_s": ["solve-2type", "solve-3type"]},
        "unchanged_on": ["check-2type", "simulate-feedback"],
    },
    "solver": {
        "spans": ["solver.solve", "solver.terminal_field", "solver.hjb_step",
                  "hamiltonian.sample_isaacs_gap"],
        "moves": {"wall_s": ["solve-2type", "solve-3type"]},
    },
    "artifacts": {
        "spans": ["cli.main (self time)", "cli.artifact_mb", "cli.load_solve"],
        "moves": {"wall_s": ["solve-2type", "solve-3type"]},
    },
    "audit": {
        "spans": ["dualcheck.build_probes", "dualcheck.check_dual_solution",
                  "dualcheck.primal_crosscheck", "hamiltonian.ham_bellman_inf_sup",
                  "hamiltonian.pair_table", "model.running_matrix",
                  "transform.facet_slope_probes"],
        "moves": {"wall_s": ["check-2type"]},
    },
    "simulator": {
        "spans": ["simulator.payoff_matrix", "simulator.payoff_pq", "simulator.sample_noise",
                  "simulator.resolve_controls", "simulator.strategy_control",
                  "simulator.payoff_path"],
        "moves": {"wall_s": ["simulate-feedback"], "cpu_s": ["simulate-feedback"]},
    },
    "thread pool": {
        "spans": ["util.parallel_map"],
        "moves": {"wall_s": ["solve-2type", "simulate-feedback"],
                  "cpu_s": ["solve-2type", "simulate-feedback"]},
        "unchanged_on": ["check-2type"],
    },
}


def bench_run(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    command = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {"environment": environment(), "run_seconds": bench["run_seconds"],
           "layer_map": LAYER_MAP, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench_run(command, workload, s, bench["run_seconds"], 0) for s in range(1, args.seeds + 1)]
        entry = {"why": whys[workload], "end_to_end": {}}
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload} {name}: median {stats['median']:.4g}, spread {stats['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        if args.write:
            traced = bench_run(command, workload, 1, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["workers"] = traced["metrics"]["workers"]["value"]
        out["workloads"][workload] = entry
    if args.write:
        with open(BASELINE, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
