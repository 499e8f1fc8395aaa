"""One repetition of a workload, run by `run.py` in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --work DIR --result FILE
        [--trace] [--setup-only] [--record]

Set-up (imports plus the workload's input solve) is timed from the first
line of this file.  The measured request is one `infogame.cli.main` call;
its wall time, process CPU time and the process's peak RSS are recorded,
then its artifacts are checked against `reference.json` and the
seed-independent invariants.  With `--trace` the call runs under the span
recorder.  The result is written as JSON to `--result`.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, SRC)

from fingerprint import compare  # noqa: E402
from workloads import SMALL_SOLVE, WORKLOADS  # noqa: E402


def _dir_mb(path: str) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / 1e6


def _check(name: str, target: str, seed: int, record: bool) -> tuple[list, dict]:
    """Output problems, or with `record` the fingerprint to keep as reference."""
    workload = WORKLOADS[name]
    fixed, seeded = workload.fingerprint(target)
    if record:
        return [], {"seed": seed, "fixed": fixed, "seeded": seeded}
    problems = workload.invariants(target)
    with open(REFERENCE) as handle:
        ref = json.load(handle)[name]
    problems += compare(fixed, ref["fixed"])
    if seed == ref["seed"]:
        problems += compare(seeded, ref["seeded"])
    return problems, {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import infogame.cli as cli
    from infogame._util import thread_count

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"infogame imported from {cli.__file__}, not from {SRC}")
    # relative paths keep the work directory's name out of the artifacts
    os.chdir(args.work)
    src, out = "input", "out"
    os.makedirs(out, exist_ok=True)
    if workload.needs_small_solve and cli.main(["solve", *SMALL_SOLVE, "--seed", str(args.seed), "--out", src]) != 0:
        raise SystemExit("set-up solve failed")
    result = {"setup_s": time.perf_counter() - _STARTED, "workers": thread_count()}
    if args.setup_only:
        return _write(args.result, result)

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(workload.argv(src, out, args.seed))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        artifact_mb=_dir_mb(out),
        exit_code=code,
    )
    target = os.path.join(out, workload.artifact)
    problems = [f"exit code {code}"] if code != 0 else []
    if code == 0:
        found, reference = _check(args.workload, target, args.seed, args.record)
        problems += found
        if args.record:
            result["reference"] = reference
    result["problems"] = problems
    if recorder is not None:
        spans = recorder.report()
        if args.workload == "check-2type" and code == 0:
            with open(target) as handle:
                report = json.load(handle)
            crosscheck = report["crosscheck"]
            spans["audited"] = (
                report["checks_super"] + report["checks_sub"]
                + crosscheck["pairs_min_side"] + crosscheck["pairs_max_side"]
            )
        result["spans"] = spans
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
