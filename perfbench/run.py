"""Benchmark runner for the infogame CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (or `all`), each in a fresh process with
INFOGAME_THREADS unset, one request at a time (closed loop), until the
next repetition would end after `--seconds`.  Every repetition's outputs
are checked; a non-zero exit or a failed check counts as a failed run.

With `--trace 0` the last stdout line reports the end-to-end metrics as
medians over the repetitions: `wall_s` and `cpu_s` of the `cli.main`
call, `peak_rss_mb` of the repetition's process and `setup_s` (imports
plus the workload's input solve; at least three set-ups per run).  With
`--trace 1` untraced and traced repetitions alternate and the last line
reports the per-layer metrics of the traced ones (see `layer_metrics`).

`--record` runs one repetition and stores its output fingerprint in
`reference.json` instead of checking it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import SPAN_NAMES, TASK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
REP_TIMEOUT_S = 150
MIN_SETUPS = 3
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COVERAGE_FLOOR = 0.9  # named spans must account for this share of a traced call


def run_rep(workload: str, seed: int, index: int, *, trace=False, setup_only=False, record=False) -> dict:
    """One repetition in a fresh process; `problems` lists why it failed."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
        "--seed", str(seed), "--work", work, "--result", result_path,
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--record"] * record
    env = {k: v for k, v in os.environ.items() if k != "INFOGAME_THREADS"}
    log_path = os.path.join(work, "log.txt")
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=REP_TIMEOUT_S)
        if proc.returncode != 0:
            with open(log_path) as log:
                tail = log.read()[-2000:]
            return {"problems": [f"repetition exited with {proc.returncode}: {tail}"]}
        with open(result_path) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced repetition, each ratio with its base."""
    spans = traced["spans"]
    out = {}
    for name in SPAN_NAMES:
        for field in ("calls", "s", "self_s", "wait_s"):
            out[f"{name}.{field}"] = spans[f"{name}.{field}"]

    def share(num, den):
        return num / den if den else 0.0

    out["transform.vex_p.changed_share"] = share(spans["vex_changed"], spans["transform.vex_p.calls"])
    out["simulator.samples"] = spans["noise_samples"]
    out["simulator.resolves_per_sample"] = share(spans["simulator.resolve_controls.calls"], spans["noise_samples"])
    out["dualcheck.checks"] = spans.get("audited", 0)
    out["dualcheck.ham_per_check"] = share(spans["hamiltonian.ham_bellman_inf_sup.calls"], spans.get("audited", 0))
    out["util.parallel_map.task_s"] = spans[f"{TASK}.s"]
    out["util.parallel_map.wait_share"] = share(spans[f"{TASK}.s"] - spans[f"{TASK}.cpu_s"], spans[f"{TASK}.s"])
    out["cli.artifact_mb"] = traced["artifact_mb"]
    out["trace.coverage"] = share(spans["covered_s"], traced["wall_s"])
    out["trace.cpu_coverage"] = share(spans["self_cpu_s"], traced["cpu_s"])
    out["workers"] = traced["workers"]
    return out


LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "wait_s": "s",
    "transform.vex_p.changed_share": "share", "simulator.samples": "count",
    "simulator.resolves_per_sample": "count/sample", "dualcheck.checks": "count",
    "dualcheck.ham_per_check": "count/check", "util.parallel_map.task_s": "s",
    "util.parallel_map.wait_share": "share", "cli.artifact_mb": "MB",
    "trace.coverage": "share", "trace.cpu_coverage": "share", "workers": "count",
    "trace_overhead_s": "s",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    index = itertools.count()
    reps: list[dict] = []
    traced: list[dict] = []
    rounds = 0
    while True:
        reps.append(run_rep(workload, seed, next(index)))
        if trace:
            traced.append(run_rep(workload, seed, next(index), trace=True))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed * (rounds + 1) / rounds > seconds:  # the next round would overrun
            break
    setups = [r["setup_s"] for r in reps + traced if "setup_s" in r]
    extra = []
    while len(setups) < MIN_SETUPS and not any(r.get("problems") for r in reps + traced + extra):
        extra.append(run_rep(workload, seed, next(index), setup_only=True))
        if "setup_s" in extra[-1]:
            setups.append(extra[-1]["setup_s"])

    for t in traced:
        if not t["problems"]:
            metrics = layer_metrics(t)
            if metrics["trace.coverage"] < COVERAGE_FLOOR:
                t["problems"].append(f"named spans cover {metrics['trace.coverage']:.3f} of the traced call")
    every = reps + traced + extra
    failed = [r for r in every if r.get("problems")]
    for r in failed:
        print(f"{workload}: failed run: {'; '.join(r['problems'])}", file=sys.stderr)
    ok = [r for r in reps if not r.get("problems")]
    ok_traced = [t for t in traced if not t.get("problems")]

    metrics = {}
    if not trace and ok:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in ok)
        metrics["setup_s"] = statistics.median(setups)
    elif trace and ok_traced and ok:
        per_rep = [layer_metrics(t) for t in ok_traced]
        for name in per_rep[0]:
            metrics[name] = statistics.median(m[name] for m in per_rep)
        metrics["trace_overhead_s"] = (
            statistics.median(t["wall_s"] for t in ok_traced) - statistics.median(r["wall_s"] for r in ok)
        )
    return {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": metrics,
        "samples": len(ok_traced) if trace else len(ok),
    }


def record(workload: str, seed: int) -> int:
    result = run_rep(workload, seed, 0, record=True)
    if result.get("problems"):
        print("; ".join(result["problems"]), file=sys.stderr)
        return 1
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            refs = json.load(handle)
    refs[workload] = result["reference"]
    with open(REFERENCE, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {workload} at seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the output fingerprint as reference")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "infogame", "cli.py")):
        print(f"no infogame sources under {ROOT}/src: run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return max(record(name, args.seed) for name in names)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            print(f"{name}: error_rate {res['failed'] / res['attempted']:.3f} "
                  f"({res['failed']} of {res['attempted']} runs failed), medians of {res['samples']}")
            for metric, value in res["metrics"].items():
                unit = END_TO_END.get(metric) or layer_unit(metric)
                print(f"{name}: {metric} {value:.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}/{metric}"
                total["metrics"][key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not total["metrics"]:
        print("no repetition succeeded", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
