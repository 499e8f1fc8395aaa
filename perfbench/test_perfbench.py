"""Self-tests of the benchmark's output check and span recorder.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from fingerprint import (  # noqa: E402
    ROW_STRIDE,
    check_fingerprint,
    compare,
    flatten,
    simulate_invariants,
    solve_fingerprint,
)
from infogame import cli  # noqa: E402
from spans import POOL, TASK, Recorder, summarize  # noqa: E402

TINY_SOLVE = ["solve", "--preset", "two-sided-1d", "--nx", "11", "--np", "2", "--nq", "2", "--steps", "4"]


@pytest.fixture(scope="module")
def tiny_solve(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("solve"))
    assert cli.main(TINY_SOLVE + ["--out", out]) == 0
    return out


def _perturb_csv_value(path: str, row: int, delta: float) -> None:
    with open(path) as handle:
        lines = handle.read().splitlines()
    head, w = lines[row + 1].rsplit(",", 1)
    lines[row + 1] = f"{head},{float(w) + delta!r}"
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_unchanged_solve_matches_its_fingerprint(tiny_solve):
    fixed, seeded = solve_fingerprint(tiny_solve)
    again_fixed, again_seeded = solve_fingerprint(tiny_solve)
    assert compare(again_fixed, fixed) == [] and compare(again_seeded, seeded) == []


@pytest.mark.parametrize("row", [0, 7])  # a sampled row, and one only the slice sums see
def test_value_perturbed_by_1e_9_fails(tiny_solve, tmp_path, row):
    reference, _ = solve_fingerprint(tiny_solve)
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("slices.csv", "diagnostics.json"):
        (copy / name).write_bytes(open(os.path.join(tiny_solve, name), "rb").read())
    assert (row % ROW_STRIDE == 0) == (row == 0)
    _perturb_csv_value(str(copy / "slices.csv"), row, 1e-9)
    assert compare(solve_fingerprint(str(copy))[0], reference) != []


def test_perturbed_run_is_counted_as_failed(tiny_solve, tmp_path, monkeypatch):
    reference, _ = solve_fingerprint(tiny_solve)
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("slices.csv", "diagnostics.json"):
        (copy / name).write_bytes(open(os.path.join(tiny_solve, name), "rb").read())
    _perturb_csv_value(str(copy / "slices.csv"), 5, 1e-9)
    problems = compare(solve_fingerprint(str(copy))[0], reference)

    def fake_rep(workload, seed, index, **kwargs):
        time.sleep(0.01)
        base = {"setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0, "workers": 1}
        return dict(base, problems=problems if index == 0 else [])

    monkeypatch.setattr(run, "run_rep", fake_rep)
    res = run.run_workload("solve-2type", 0, 0.05, trace=False)
    assert res["failed"] == 1 and not res["correct"]
    assert res["attempted"] >= 3


def test_check_report_perturbation_and_extra_keys(tmp_path):
    report = {"supersolution_residual": -0.19492088793750018, "checks_super": 9920,
              "supersolution_ok": True, "crosscheck": {"disagreements": 0}}
    path = tmp_path / "check.json"
    path.write_text(json.dumps(report))
    reference, _ = check_fingerprint(str(path))
    path.write_text(json.dumps(dict(report, new_diagnostic=[1, 2])))
    assert compare(check_fingerprint(str(path))[0], reference) == []
    nudged = dict(report, supersolution_residual=report["supersolution_residual"] + 1e-9)
    path.write_text(json.dumps(nudged))
    assert compare(check_fingerprint(str(path))[0], reference) != []
    tiny = dict(report, supersolution_residual=report["supersolution_residual"] * (1 + 1e-15))
    path.write_text(json.dumps(tiny))
    assert compare(check_fingerprint(str(path))[0], reference) == []


def test_list_length_is_checked():
    assert compare(flatten({"a": [1.0]}), flatten({"a": [1.0, 2.0]})) != []


def test_combined_estimate_invariant(tmp_path):
    report = {"p": [0.5, 0.5], "q": [0.25, 0.75], "estimates": [[1.0, 2.0], [3.0, 4.0]]}
    report["combined_estimate"] = 0.125 * 1.0 + 0.375 * 2.0 + 0.125 * 3.0 + 0.375 * 4.0
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps(report))
    assert simulate_invariants(str(path)) == []
    path.write_text(json.dumps(dict(report, combined_estimate=report["combined_estimate"] + 1e-9)))
    assert simulate_invariants(str(path)) != []


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10] on thread 1; two pool tasks on threads 2 and 3 overlap in [4, 6]
    recs = np.array([
        [0, 0, -1, 0.0, 10.0, 1.0],
        [1, 1, 0, 1.0, 6.0, 5.0],
        [1, 2, 0, 4.0, 9.0, 4.0],
    ])
    out = summarize(recs, np.array([1, 2, 3]), [], [])
    assert out["cli.main.self_s"] == pytest.approx(2.0)
    assert out["cli.load_solve.self_s"] == pytest.approx(10.0)
    assert out["covered_s"] == pytest.approx(2.0)  # pool spans are not involved here
    assert out["self_cpu_s"] == pytest.approx(10.0)


def test_recorder_parents_pool_tasks_and_counts_cpu_once(tiny_solve, tmp_path, monkeypatch):
    monkeypatch.setenv("INFOGAME_THREADS", "2")
    import infogame.dualcheck as dualcheck
    import infogame.solver as solver

    recorder = Recorder()
    recorder.install()
    try:
        assert getattr(cli.solve, "__wrapped__", None) is not None
        assert getattr(dualcheck.ham_bellman_inf_sup, "__wrapped__", None) is not None
        assert getattr(solver.sample_isaacs_gap, "__wrapped__", None) is not None
        cpu0, t0 = time.process_time(), time.perf_counter()
        assert cli.main(TINY_SOLVE + ["--out", str(tmp_path)]) == 0
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        recorder.uninstall()
    assert getattr(cli.solve, "__wrapped__", None) is None

    report = recorder.report()
    assert report[f"{POOL}.calls"] > 0 and report[f"{TASK}.calls"] > 0
    assert report["transform.vex_p.calls"] > 0
    # worker time is charged to the pool tasks, not to dual_project's self time
    assert report["solver.dual_project.self_s"] < 0.5 * report["solver.dual_project.s"]
    assert report["covered_s"] == pytest.approx(report["root_s"], rel=1e-6)
    assert report["root_s"] <= wall
    assert 0.5 * cpu <= report["self_cpu_s"] <= 1.05 * cpu
