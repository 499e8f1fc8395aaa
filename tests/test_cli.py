"""Command-line workflows: file contracts, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import resource
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from infogame import cli, dualcheck, simulator
from infogame.cli import load_solve, main
from infogame.dualcheck import default_tolerance
from infogame.errors import ConfigError
from infogame.model import model_from_config, preset, preset_config, resolved_config
from infogame.oracle import TreeGame, belief_recursion
from infogame.simplex import build_grid
from infogame.solver import Grids, SolveResult, build_state_grid, dual_project, hjb_step, solve
from infogame.transform import vex_p


def run(*argv) -> int:
    return main([str(a) for a in argv])


def solve_dir(tmp_path, name="field", nx=15, steps=25, np_res=4):
    out = tmp_path / name
    rc = run(
        "solve", "--preset", "one-sided-drift-1d", "--out", out,
        "--nx", nx, "--bounds", "-1.5", "1.5", "--np", np_res, "--nq", 1,
        "--steps", steps,
    )
    assert rc == 0
    return out


# ------------------------------------------------------------------ solve


def test_solve_outputs_match_the_library(tmp_path):
    out = solve_dir(tmp_path)
    assert (out / "slices.csv").exists() and (out / "diagnostics.json").exists()
    loaded = load_solve(str(out))
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-1.5, 1.5)], [15]),
        p=build_grid(2, 4),
        q=build_grid(1, 1),
    )
    direct = solve(m, grids, t0=0.0, dt=m.horizon / 25)
    np.testing.assert_array_equal(loaded.times, direct.times)
    np.testing.assert_array_equal(loaded.values, direct.values)


def test_solve_reruns_are_byte_identical(tmp_path):
    a = solve_dir(tmp_path, "a")
    b = solve_dir(tmp_path, "b")
    assert (a / "slices.csv").read_bytes() == (b / "slices.csv").read_bytes()
    assert (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()


def test_solve_cache_reruns_are_byte_identical(tmp_path):
    a = solve_dir(tmp_path, "a")
    b = solve_dir(tmp_path, "b")
    assert (a / "slices.f64").read_bytes() == (b / "slices.f64").read_bytes()


def test_solve_leaves_no_temp_files(tmp_path):
    out = solve_dir(tmp_path)
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.json", "slices.csv", "slices.f64"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(RuntimeError):
        with cli._atomic_file(str(tmp_path / "slices.csv")) as handle:
            handle.write(b"t,w\n")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["check", "solve", "simulate"])
def test_an_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    # --out naming a directory (check), an existing file (solve) and a path
    # below a file (simulate) once exited 1 with an OSError traceback
    blocker = tmp_path / "blocker"
    if command == "check":
        src = solve_dir(tmp_path)
        blocker.mkdir()
        argv = ["check", "--solve", src, "--out", blocker]
    elif command == "solve":
        blocker.write_bytes(b"")
        argv = [
            "solve", "--preset", "one-sided-drift-1d", "--nx", 15, "--bounds", "-1.5", "1.5",
            "--np", 2, "--nq", 1, "--steps", 25, "--out", blocker,
        ]
    else:
        blocker.write_bytes(b"")
        argv = [
            "simulate", "--preset", "two-sided-1d", "--h", 0.1, "--samples", 2,
            "--out", blocker / "x",
        ]
    capsys.readouterr()
    assert run(*argv) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))
    if blocker.is_dir():
        assert list(blocker.iterdir()) == []
    else:
        assert blocker.read_bytes() == b""


def test_solve_refuses_an_out_file_before_solving(tmp_path, capsys, monkeypatch):
    # a mistyped --out once cost the whole solve before the write refused it
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    capsys.readouterr()
    for out in (blocker, blocker / "below" / "deeper"):
        rc = run(
            "solve", "--preset", "one-sided-drift-1d", "--nx", 15, "--bounds", "-1.5", "1.5",
            "--np", 2, "--nq", 1, "--steps", 25, "--out", out,
        )
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err
    assert not calls
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_bytes() == b""


def test_outputs_honour_the_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        out = solve_dir(tmp_path)
        assert run("check", "--solve", out) == 0
    finally:
        os.umask(previous)
    for name in ("slices.csv", "slices.f64", "diagnostics.json", "check.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644, name


THREE_BY_TWO = {
    "preset": "drift-sum-1d",
    "params": {"sigma": 0.5},
    "I": 3,
    "J": 2,
    "T": 0.4,
    "g": [
        [{"name": "tanh", "params": {"center": c, "scale": 1.5, "amp": a}} for a in (1.0, -0.8)]
        for c in (-0.5, 0.0, 0.5)
    ],
}


def cache_solve(tmp_path, kind: str):
    """A small solve: 'two' has 2x2 types, 'three' 3x2, 'one' 1x1."""
    out = tmp_path / "field"
    if kind == "three":
        config = tmp_path / "three.json"
        config.write_text(json.dumps(THREE_BY_TWO))
        game = ["--config", config, "--np", 3, "--nq", 2, "--t0", "0.2"]
    elif kind == "two":
        game = ["--preset", "two-sided-1d", "--np", 3, "--nq", 3, "--t0", "0.2"]
    else:
        game = ["--preset", "drift-sum-1d", "--np", 3, "--nq", 3, "--t0", "0.8"]
    assert run("solve", *game, "--out", out, "--nx", 9, "--steps", 4) == 0
    return out


def loaded_bits(out) -> np.ndarray:
    return load_solve(str(out)).values.view(np.uint64)


@pytest.fixture
def parse_spy(monkeypatch):
    """Counts the per-line parses of slices.csv."""
    calls = []
    inner = cli._parse_values

    def spy(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cli, "_parse_values", spy)
    return calls


def parsed_bits(out, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as m:
        m.setattr(cli, "_cached_values", lambda *args: None)
        return loaded_bits(out)


@pytest.mark.parametrize("kind", ["two", "three", "one"])
def test_cached_values_equal_the_parse_bitwise(tmp_path, monkeypatch, parse_spy, kind):
    out = cache_solve(tmp_path, kind)
    fast = loaded_bits(out)
    assert parse_spy == []  # no per-line float parse on the cached path
    assert np.array_equal(fast, parsed_bits(out, monkeypatch))
    assert len(parse_spy) == 1


def _flip_bit(path, index):
    blob = bytearray(path.read_bytes())
    blob[index] ^= 1
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.unlink(),
        lambda p: p.write_bytes(p.read_bytes()[:-8]),
        lambda p: p.write_bytes(p.read_bytes() + bytes(8)),
        lambda p: _flip_bit(p, -1),
        lambda p: _flip_bit(p, 0),
    ],
    ids=["missing", "truncated", "extended", "flipped-value", "flipped-digest"],
)
def test_a_damaged_cache_falls_back_to_the_parse(tmp_path, monkeypatch, parse_spy, damage):
    out = cache_solve(tmp_path, "two")
    expected = loaded_bits(out)
    damage(out / "slices.f64")
    assert np.array_equal(loaded_bits(out), expected)
    assert len(parse_spy) == 1


def test_an_edited_csv_is_read_by_the_parse(tmp_path, parse_spy):
    out = cache_solve(tmp_path, "two")
    lines = (out / "slices.csv").read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",0.125"
    (out / "slices.csv").write_text("\n".join(lines) + "\n")
    values = loaded_bits(out).view(float).ravel()
    assert len(parse_spy) == 1
    assert values[6] == 0.125


def test_a_cache_of_another_grid_is_not_used(tmp_path, monkeypatch, parse_spy):
    out = cache_solve(tmp_path, "two")
    stale = (out / "slices.f64").read_bytes()
    assert run(
        "solve", "--preset", "two-sided-1d", "--out", out, "--nx", 11, "--np", 2, "--nq", 2,
        "--steps", 3, "--t0", "0.25",
    ) == 0
    fresh = loaded_bits(out)
    assert parse_spy == []
    (out / "slices.f64").write_bytes(stale)
    assert np.array_equal(loaded_bits(out), fresh)
    assert np.array_equal(fresh, parsed_bits(out, monkeypatch))
    assert len(parse_spy) == 2


EXTREME_W = [-0.0, 5e-324, 1e-05, 1e16, -1.7976931348623157e308]
# the per-step diagnostics lists of a hand-written solve of two steps
TWO_STEPS = dict.fromkeys(
    ("projection_residuals", "commutation_residuals", "convexity_violations_p",
     "concavity_violations_q"),
    [0.0, 0.0],
)


def write_hand_solve(out, result, cfg, cfg_sha):
    out.mkdir()
    cli._write_solve_outputs(str(out), result, resolved_config(cfg), cfg_sha)


@pytest.mark.parametrize(
    "bounds,counts", [([(-1.0, 0.5)], [3]), ([(-1.0, 1.0), (0.0, 0.3)], [2, 3])], ids=["1d", "2d"]
)
def test_slices_csv_rows_are_the_repr_of_their_cells(tmp_path, monkeypatch, parse_spy, bounds, counts):
    # no preset has a 2-d state, so the 2-d grid holds a solve of a 1-d game:
    # its files round-trip through the two column readers, and load_solve
    # refuses it
    cfg, cfg_sha = cli._load_config(None, "two-sided-1d")
    model = model_from_config(cfg)
    grids = Grids(state=build_state_grid(bounds, counts), p=build_grid(2, 2), q=build_grid(2, 1))
    shape = (*grids.state.shape, grids.p.npoints, grids.q.npoints)
    dt = 0.125
    times = np.array([model.horizon - k * dt for k in reversed(range(3))])
    values = np.stack([np.resize(np.roll(EXTREME_W, k), shape) for k in reversed(range(3))])
    result = SolveResult(
        model=model, grids=grids, t0=times[0], dt=dt, times=times, values=values,
        diagnostics=TWO_STEPS,
    )
    out = tmp_path / "hand"
    write_hand_solve(out, result, cfg, cfg_sha)

    lines = (out / "slices.csv").read_text().splitlines()
    ndim = grids.state.ndim
    assert lines[0] == ",".join(
        ["t", *(f"x_{k}" for k in range(1, ndim + 1)), "p_1", "p_2", "q_1", "q_2", "w"]
    )
    mesh = grids.state.mesh().reshape(-1, ndim)
    want = [
        ",".join(repr(float(c)) for c in (t, *x, *p, *q, w[(*node, a, b)]))
        for t, w in zip(times, values)
        for node, x in zip(np.ndindex(grids.state.shape), mesh)
        for a, p in enumerate(grids.p.points)
        for b, q in enumerate(grids.q.points)
    ]
    assert lines[1:] == want
    assert {float(line.rsplit(",", 1)[1]) for line in want} == set(EXTREME_W)

    bits = values.view(np.uint64)
    csv = (out / "slices.csv").read_bytes()
    cached = cli._cached_values(csv, str(out / "slices.f64"), values.size)
    assert np.array_equal(cached.view(np.uint64), bits.ravel())
    parsed = cli._parse_values(csv, values.size, grids, times.tolist())
    assert np.array_equal(parsed.view(np.uint64), bits.ravel())
    parse_spy.clear()
    if ndim > 1:
        with pytest.raises(ConfigError, match="dimension"):
            load_solve(str(out))
        return
    assert np.array_equal(loaded_bits(out), bits)
    assert parse_spy == []  # the digest path
    assert np.array_equal(parsed_bits(out, monkeypatch), bits)
    assert len(parse_spy) == 1


def test_a_solve_on_a_grid_of_another_dimension_is_refused(tmp_path):
    # a 1-d solve repeated along a second state axis: check used to audit it
    # and pass, while simulate refused it
    cfg, cfg_sha = cli._load_config(None, "two-sided-1d")
    model = model_from_config(cfg)
    line = build_state_grid([(-2.0, 2.0)], [9])
    grids = Grids(state=line, p=build_grid(2, 2), q=build_grid(2, 2))
    result = solve(model, grids, t0=0.2, dt=0.05)
    values = np.repeat(result.values[:, :, None], 9, axis=2)
    plane = replace(grids, state=build_state_grid([(-2.0, 2.0)] * 2, [9, 9]))
    out = tmp_path / "plane"
    write_hand_solve(out, replace(result, grids=plane, values=values), cfg, cfg_sha)
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()
    assert run(
        "simulate", "--preset", "two-sided-1d", "--out", tmp_path / "sim.json", "--h", "0.05",
        "--t0", "0.2", "--samples", 2, "--strategy", f"feedback:{out}",
    ) == 2


def test_check_refuses_a_header_of_another_grid(tmp_path):
    out = solve_dir(tmp_path)
    lines = (out / "slices.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,p_1,p_2,q_1,w"
    lines[0] = "garbage"
    for k in (3, 40):  # the header must stop this file before any row is read
        cells = lines[k].split(",")
        cells[1] = "9.5"
        lines[k] = ",".join(cells)
    (out / "slices.csv").write_text("\n".join(lines) + "\n")
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()
    (out / "slices.csv").write_text("\n".join(["t,x_1,p_1,p_2,w"] + lines[1:]) + "\n")
    assert run("check", "--solve", out) == 2


def test_solve_records_projection_diagnostics(tmp_path):
    out = solve_dir(tmp_path)
    meta = json.loads((out / "diagnostics.json").read_text())
    per = meta["per_slice"]
    assert len(per["projection_residual"]) == len(meta["times"])
    assert max(abs(v) for v in per["convexity_violation_p"]) <= 1e-10
    assert meta["grid"]["p_resolution"] == 4


def test_the_solved_stack_replays_one_step_at_a_time(tmp_path):
    # slice k is slice k + 1 stepped back and projected, the times step down
    # from the horizon, and the per-slice lists are the per-step ones from
    # t0 up with the terminal slice's 0.0 last
    cfg, cfg_sha = cli._load_config(None, "two-sided-1d")
    model = model_from_config(cfg)
    grids = Grids(state=build_state_grid([(-2.0, 2.0)], [11]), p=build_grid(2, 3), q=build_grid(2, 3))
    dt = model.horizon / 8
    result = solve(model, grids, t0=0.0, dt=dt)
    times = [model.horizon]
    for _ in range(8):
        times.insert(0, times[0] - dt)
    assert result.times.tolist() == times
    for k in range(8):
        stepped = hjb_step(model, grids, result.times[k + 1], result.values[k + 1], dt)
        assert result.values[k].tobytes() == dual_project(grids.p, grids.q, stepped).values.tobytes()
    out = tmp_path / "replay"
    write_hand_solve(out, result, cfg, cfg_sha)
    meta = json.loads((out / "diagnostics.json").read_text())
    assert meta["times"] == times
    for name, key in (
        ("projection_residual", "projection_residuals"),
        ("commutation_residual", "commutation_residuals"),
        ("convexity_violation_p", "convexity_violations_p"),
        ("concavity_violation_q", "concavity_violations_q"),
    ):
        assert len(result.diagnostics[key]) == 8
        assert meta["per_slice"][name] == result.diagnostics[key][::-1] + [0.0]


@pytest.mark.parametrize("steps", [0, -1])
def test_solve_refuses_fewer_than_one_step(tmp_path, capsys, steps):
    out = tmp_path / "x"
    assert run("solve", "--preset", "two-sided-1d", "--out", out, "--nx", 9, "--steps", steps) == 2
    assert "--steps must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_solve_bounds_take_every_float_literal(tmp_path, capsys):
    out = tmp_path / "neg"
    rc = run(
        "solve", "--preset", "two-sided-1d", "--out", out, "--nx", 3, "--bounds", "-1e-05", "1",
        "--np", 2, "--nq", 2, "--steps", 1, "--t0", "0.35",
    )
    assert rc == 0
    meta = json.loads((out / "diagnostics.json").read_text())
    assert meta["grid"]["bounds"] == [[-1e-05, 1.0]]
    # parsed as values and refused as a configuration error; an argparse
    # usage error would raise SystemExit instead
    for lo in ("-inf", "-nan"):
        capsys.readouterr()
        assert run("solve", "--preset", "two-sided-1d", "--out", tmp_path / "x",
                   "--bounds", lo, "1", "--np", 2, "--nq", 2, "--steps", 1) == 2
        assert "configuration error: state bounds must be finite" in capsys.readouterr().err
    for bounds in ([(-np.inf, 1.0)], [(0.0, np.nan)], [(-1e308, 1e308)]):
        with pytest.raises(ConfigError):
            build_state_grid(bounds, [5])


def test_solve_refuses_coupled_controls(tmp_path):
    rc = run(
        "solve", "--preset", "coupled-1d", "--out", tmp_path / "x", "--steps", 10,
    )
    assert rc == 2  # min-max and max-min orders disagree for this model
    assert not (tmp_path / "x" / "slices.csv").exists()


# --------------------------------------------------------------- simulate


def test_simulate_reports_bilinear_combination(tmp_path):
    out = tmp_path / "sim.json"
    rc = run(
        "simulate", "--preset", "two-sided-1d", "--out", out,
        "--p", "0.3,0.7", "--q", "0.25,0.75", "--x0", "0.1",
        "--h", "0.05", "--samples", 16, "--seed", 12, "--strategy", "cycle",
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    ests = np.array(payload["estimates"])
    p = np.array(payload["p"])
    q = np.array(payload["q"])
    assert payload["combined_estimate"] == float(p @ ests @ q)
    assert np.array(payload["stderrs"]).shape == ests.shape


def test_simulate_resolves_each_pure_pair_once_per_sample(tmp_path, monkeypatch):
    # a 2x2 cycle profile plays one pure pair for all four type pairs
    calls = {"resolve_controls": 0, "payoff_path": 0}
    for name in calls:
        inner = getattr(simulator, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counted)
    rc = run(
        "simulate", "--preset", "two-sided-1d", "--out", tmp_path / "sim.json",
        "--h", "0.1", "--samples", 7, "--strategy", "cycle",
    )
    assert rc == 0
    # the seven samples fit one chunk: one batched resolution, one payoff call per type pair
    assert calls == {"resolve_controls": 1, "payoff_path": 4}


def test_simulate_uses_no_pool(tmp_path, monkeypatch):
    from infogame import _util

    def refuse(*args, **kwargs):
        raise AssertionError("simulate must not use the thread pool")

    monkeypatch.setattr(_util, "parallel_map", refuse)
    monkeypatch.setattr(simulator, "parallel_map", refuse, raising=False)  # a bound import
    rc = run(
        "simulate", "--preset", "two-sided-1d", "--out", tmp_path / "sim.json",
        "--h", "0.1", "--samples", 9, "--strategy-u", "constant:1", "--strategy-v", "cycle",
    )
    assert rc == 0


def test_simulate_is_thread_count_invariant(tmp_path, monkeypatch):
    blobs = {}
    for n in ("1", "4"):
        monkeypatch.setenv("INFOGAME_THREADS", n)
        out = tmp_path / f"sim{n}.json"
        rc = run(
            "simulate", "--preset", "drift-sum-1d", "--out", out,
            "--h", "0.1", "--samples", 31, "--seed", 5, "--noise", "rademacher",
        )
        assert rc == 0
        blobs[n] = out.read_bytes()
    assert blobs["1"] == blobs["4"]


def test_simulate_feedback_strategy_from_solve_dir(tmp_path):
    field = solve_dir(tmp_path)
    out = tmp_path / "sim.json"
    rc = run(
        "simulate", "--preset", "one-sided-drift-1d", "--out", out,
        "--h", "0.05", "--samples", 4, "--delta", 2,
        "--strategy-u", f"feedback:{field}", "--strategy-v", "constant:0",
    )
    assert rc == 0
    assert "combined_estimate" in json.loads(out.read_text())


def test_simulate_feedback_extracts_at_the_requested_belief(tmp_path):
    # at the vertex belief the frozen-belief rule is the true conditional
    # game; played against the solved field it must recover that value,
    # not the uniform-belief (averaged, here worthless) rule
    field = solve_dir(tmp_path, nx=31, steps=50)
    out = tmp_path / "sim.json"
    rc = run(
        "simulate", "--preset", "one-sided-drift-1d", "--out", out,
        "--p", "1,0", "--x0", "0.0", "--h", "0.05", "--samples", 150,
        "--seed", 3, "--strategy", f"feedback:{field}",
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    result = load_solve(str(field))
    k = int(np.argmin(np.abs(result.grids.state.axes[0])))
    vertex = result.grids.p.index_of((4, 0))
    value = float(result.values[0, k, vertex, 0])
    gap = abs(payload["combined_estimate"] - value)
    assert gap < 0.15 + 3.0 * payload["combined_stderr"], (gap, value)


def test_simulate_feedback_refuses_a_solve_of_another_game(tmp_path):
    # the two games share the state dimension and the type counts, so only
    # the recorded config tells them apart
    field = tmp_path / "field"
    assert run(
        "solve", "--preset", "two-sided-1d", "--out", field, "--nx", 11, "--np", 2,
        "--nq", 2, "--steps", 1, "--t0", "0.35",
    ) == 0
    out = tmp_path / "sim.json"
    for game, code in (("running-matrix", 2), ("two-sided-1d", 0)):
        # play from the solve's own start time; an earlier t0 is refused
        rc = run(
            "simulate", "--preset", game, "--out", out, "--h", "0.05", "--t0", "0.35",
            "--samples", 2, "--strategy-u", f"feedback:{field}", "--strategy-v", "constant:0",
        )
        assert rc == code, game
        assert out.exists() == (code == 0)


def test_simulate_feedback_plays_the_slices_of_its_start_time(tmp_path):
    # a solve over [0, 0.4] and one over [0.2, 0.4] share their slices from
    # t = 0.2 on, so play from t0 = 0.2 must replay the same picks from both
    grid = ("--preset", "two-sided-1d", "--nx", 41, "--np", 4, "--nq", 4)
    full, late = tmp_path / "full", tmp_path / "late"
    assert run("solve", *grid, "--steps", 20, "--out", full) == 0
    assert run("solve", *grid, "--steps", 10, "--t0", "0.2", "--out", late) == 0
    reports = {}
    for field in (full, late):
        out = tmp_path / f"{field.name}.json"
        rc = run(
            "simulate", "--preset", "two-sided-1d", "--out", out, "--t0", "0.2", "--h", "0.02",
            "--x0", "1.4", "--p", "0.3,0.7", "--samples", 40,
            "--strategy-u", f"feedback:{field}", "--strategy-v", "cycle",
        )
        assert rc == 0
        reports[field.name] = json.loads(out.read_text())
    for key in ("estimates", "stderrs", "combined_estimate", "combined_stderr"):
        assert reports["full"][key] == reports["late"][key], key
    # a start before the solve's first slice has no slice to replay
    out = tmp_path / "early.json"
    rc = run(
        "simulate", "--preset", "two-sided-1d", "--out", out, "--t0", "0.1", "--h", "0.02",
        "--samples", 4, "--strategy-u", f"feedback:{late}", "--strategy-v", "cycle",
    )
    assert rc == 2 and not out.exists()


def test_simulate_refuses_beliefs_and_payoffs_that_are_not_finite(tmp_path):
    out = tmp_path / "sim.json"
    base = ("simulate", "--preset", "two-sided-1d", "--out", out, "--samples", 2)
    for flags in (
        ("--h", "0.1", "--p", "nan,nan"),
        ("--h", "0.1", "--p", "2,-1"),
        ("--h", "0.1", "--q", "inf,0"),
        ("--h", "0.1", "--q", "0.5,0.4"),
        ("--h", "1e-300"),  # its noise array would pass the memory cap
    ):
        assert run(*base, *flags) == 2, flags
    assert run(*base, "--h", "0.1", "--x0", "1e308") == 3  # the paths overflow
    assert not out.exists()
    assert run(*base, "--h", "0.1", "--p", "0.25,0.75") == 0
    json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(token))


# ------------------------------------------------------------------ check


def test_check_passes_and_writes_report(tmp_path):
    out = solve_dir(tmp_path)
    rc = run("check", "--solve", out)
    assert rc == 0
    report = json.loads((out / "check.json").read_text())
    assert report["supersolution_ok"] and report["subsolution_ok"]
    assert report["crosscheck"]["disagreements"] == 0


def test_check_batches_its_kernel_calls(tmp_path, monkeypatch):
    # each of the three routes (audit, primal, conjugate at the primal's
    # node) makes one call per side while its rows fit one kernel table;
    # one call per (probe, opponent node) would make hundreds
    out = solve_dir(tmp_path)
    calls = {"ham_bellman_inf_sup": 0}
    inner = dualcheck.ham_bellman_inf_sup

    def counted(*args, **kwargs):
        calls["ham_bellman_inf_sup"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dualcheck, "ham_bellman_inf_sup", counted)
    assert run("check", "--solve", out) == 0
    assert 0 < calls["ham_bellman_inf_sup"] <= 6, calls


def test_check_builds_the_probes_once_per_side(tmp_path, monkeypatch):
    out = solve_dir(tmp_path)
    sides = []
    inner = dualcheck.build_probes

    def counted(result, side):
        sides.append(side)
        return inner(result, side)

    monkeypatch.setattr(cli, "build_probes", counted)
    monkeypatch.setattr(dualcheck, "build_probes", counted)
    assert run("check", "--solve", out) == 0
    assert sorted(sides) == ["p", "q"]


def test_check_stacks_the_field_once(tmp_path, monkeypatch):
    # load_solve reads the field as one stack; the probes of both sides and
    # both audits read that stack in place, and stack no slices again
    out = solve_dir(tmp_path)
    slice_shape = load_solve(str(out)).values.shape[1:]
    stacks, inner = [], np.stack

    def counted(arrays, *args, **kwargs):
        arrays = list(arrays)
        if any(np.shape(a) == slice_shape for a in arrays):
            stacks.append(len(arrays))
        return inner(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", counted)
    assert run("check", "--solve", out) == 0
    assert stacks == []


def test_check_fails_with_exit_three_on_a_drifted_field(tmp_path):
    out = solve_dir(tmp_path, "bad")
    eps = float(4.0 * default_tolerance(load_solve(str(out))))
    lines = (out / "slices.csv").read_text().splitlines()
    T = preset("one-sided-drift-1d").horizon
    body = []
    for line in lines[1:]:
        cells = line.split(",")
        t = float(cells[0])
        cells[-1] = repr(float(cells[-1]) + eps * (T - t))
        body.append(",".join(cells))
    (out / "slices.csv").write_text("\n".join([lines[0]] + body) + "\n")
    rc = run("check", "--solve", out)
    assert rc == 3
    report = json.loads((out / "check.json").read_text())  # written before failing
    assert not report["subsolution_ok"]


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_check_refuses_a_non_finite_field(tmp_path, bad):
    out = solve_dir(tmp_path)
    lines = (out / "slices.csv").read_text().splitlines()
    k = len(lines) // 2  # a middle slice, which no probe is built from
    lines[k] = lines[k].rsplit(",", 1)[0] + "," + bad
    (out / "slices.csv").write_text("\n".join(lines) + "\n")
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()


def test_check_writes_no_report_when_the_residuals_overflow(tmp_path):
    # finite values of alternating sign near the float limit overflow
    # the jets; the report would hold Infinity or NaN, which is not JSON
    out = solve_dir(tmp_path)
    lines = (out / "slices.csv").read_text().splitlines()
    k = len(lines) // 2
    for i in range(k, k + 60):
        lines[i] = lines[i].rsplit(",", 1)[0] + "," + ("1e308" if i % 2 else "-1e308")
    (out / "slices.csv").write_text("\n".join(lines) + "\n")
    # a fresh process under -W error: the overflow reaches the finiteness
    # check as inf or nan, not as a printed RuntimeWarning or a traceback
    proc = run_fresh("-W", "error", "-m", "infogame.cli", "check", "--solve", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "not finite" in proc.stderr
    assert not (out / "check.json").exists()


def test_check_of_the_benchmark_solve_gathers_once_per_opponent_node(tmp_path, monkeypatch):
    # check-2type's input: 20,480 checks, the audited nodes and crosscheck
    # pairs of both sides.  A 1 MB working set takes each (side, opponent
    # node) of the conjugate route in one stencil gather and each side of
    # the crosscheck in one, 12 in all, and the rows in 6 kernel calls; a
    # 128 KB one made 50 and 16, and the crosscheck once gathered per
    # opponent node too, 20 in all
    out = tmp_path / "small"
    assert run(
        "solve", "--preset", "two-sided-1d", "--nx", 41, "--np", 4, "--nq", 4, "--steps", 25,
        "--out", out,
    ) == 0
    calls = {"ham_bellman_inf_sup": 0, "_queue_conjugate": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(dualcheck, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(dualcheck, name, counted)
    assert run("check", "--solve", out) == 0
    report = json.loads((out / "check.json").read_text())
    cross = report["crosscheck"]
    checks = report["checks_super"] + report["checks_sub"]
    assert checks + cross["pairs_min_side"] + cross["pairs_max_side"] == 20_480
    assert 0 < calls["ham_bellman_inf_sup"] <= 6, calls
    assert 0 < calls["_queue_conjugate"] <= 12, calls


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_check_fails_with_exit_three_on_a_shifted_slice(tmp_path, sign):
    # one interior slice of a two-sided solve shifted by 10 dt: the centred
    # time differences of its two neighbours jump by 5 with opposite signs,
    # against a default tolerance of 1.16
    out = tmp_path / "shifted"
    assert run(
        "solve", "--preset", "two-sided-1d", "--out", out, "--nx", 41, "--np", 4, "--nq", 4,
        "--steps", 25,
    ) == 0
    dt = json.loads((out / "diagnostics.json").read_text())["dt"]
    lines = (out / "slices.csv").read_text().splitlines()
    times = sorted({line.split(",", 1)[0] for line in lines[1:]}, key=float)
    middle = times[len(times) // 2]
    for i, line in enumerate(lines[1:], start=1):
        if line.split(",", 1)[0] == middle:
            head, w = line.rsplit(",", 1)
            lines[i] = f"{head},{float(w) + sign * 10.0 * dt!r}"
    (out / "slices.csv").write_text("\n".join(lines) + "\n")
    assert run("check", "--solve", out) == 3
    report = json.loads((out / "check.json").read_text())
    assert not report["supersolution_ok"] and not report["subsolution_ok"], report


def test_check_refuses_rewritten_coordinate_cells(tmp_path):
    # once exited 0: the parse path read only the w column
    out = tmp_path / "moved"
    assert run(
        "solve", "--preset", "two-sided-1d", "--out", out, "--nx", 41, "--np", 4, "--nq", 4,
        "--steps", 25,
    ) == 0
    lines = (out / "slices.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["t", "x_1", "p_1"]
    # t, x_1 and p_1 rewritten, then one more cell before w
    for column, cell in ((0, "7.25"), (1, "9.5"), (2, "0.3"), (-1, "0.5")):
        edited = list(lines)
        for i in (5, len(lines) // 2):
            cells = edited[i].split(",")
            if column < 0:
                cells.insert(column, cell)
            else:
                cells[column] = cell
            edited[i] = ",".join(cells)
        (out / "slices.csv").write_text("\n".join(edited) + "\n")
        assert run("check", "--solve", out) == 2, column
        assert not (out / "check.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", 0),  # once exited 3: the jets overflowed
        ("dt", -0.04),  # once ran the audit with flipped time derivatives
        ("t0", 0.1),
        ("times", "gap"),
    ],
)
def test_check_refuses_times_that_contradict_dt(tmp_path, key, value):
    out = solve_dir(tmp_path)
    meta = json.loads((out / "diagnostics.json").read_text())
    if value == "gap":  # one step twice as long
        value = meta["times"][:-1] + [meta["times"][-1] + meta["dt"]]
    meta[key] = value
    (out / "diagnostics.json").write_text(json.dumps(meta))
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()


@pytest.mark.parametrize("key", ["counts", "p_resolution"])
def test_check_refuses_a_non_finite_grid_size(tmp_path, key):
    # int() of Infinity raised OverflowError, which left check with exit 1
    out = solve_dir(tmp_path)
    meta = json.loads((out / "diagnostics.json").read_text())
    meta["grid"][key] = [math.inf] if key == "counts" else math.inf
    (out / "diagnostics.json").write_text(json.dumps(meta))
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()


def test_solves_far_from_time_zero_load(tmp_path):
    # near t = 1e9 each time carries rounding of 1e-7 against steps of
    # 1.4e-6; the time-grid check must still accept what solve wrote
    cfg = preset_config("static-bilinear")
    cfg["T"] = 1e9
    config = tmp_path / "far.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "far"
    t0 = repr(1e9 - 0.001)
    assert run(
        "solve", "--config", config, "--out", out, "--nx", 1, "--np", 1, "--nq", 1,
        f"--t0={t0}", "--steps", 700,
    ) == 0
    assert len(load_solve(str(out)).times) == 701


def test_check_missing_directory_is_a_config_error(tmp_path):
    assert run("check", "--solve", tmp_path / "nope") == 2


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.write_bytes(b""),  # mmap refuses an empty file
        lambda p: p.unlink(),
        lambda p: (p.unlink(), p.mkdir()),  # unreadable as a file, even by root
    ],
    ids=["empty", "missing", "directory"],
)
def test_check_refuses_a_csv_it_cannot_map(tmp_path, damage):
    out = solve_dir(tmp_path)
    damage(out / "slices.csv")
    assert run("check", "--solve", out) == 2
    assert not (out / "check.json").exists()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter with args in a fresh process that imports this
    tree's package; kwargs go to `subprocess.run`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--strategy-u", "cycle", "--strategy-v", "constant:1", "--h", "0.05"],
        ["simulate", "--strategy-u", "feedback:{solve}", "--strategy-v", "cycle", "--h", "0.05"],
        ["check", "--solve", "{solve}"],
    ],
    ids=["cycle", "feedback", "check"],
)
def test_requests_do_not_import_numpy_ma(tmp_path, argv):
    # numpy 2.4's np.unique imports numpy.ma unless asked for an index,
    # inverse or count; a fresh interpreter, because pytest or hypothesis
    # may have imported it here.  3-type requests are left out: importing
    # scipy.spatial imports numpy.ma by itself.
    solve = tmp_path / "small"
    assert run(
        "solve", "--preset", "two-sided-1d", "--nx", 21, "--np", 3, "--nq", 3, "--steps", 12,
        "--out", solve,
    ) == 0
    if argv[0] == "simulate":
        argv = [*argv, "--preset", "two-sided-1d", "--samples", "20"]
    argv = [a.format(solve=solve) for a in argv] + ["--out", str(tmp_path / "out.json")]
    script = (
        "import sys\n"
        "import infogame.cli\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "code = infogame.cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = run_fresh("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_does_not_import_the_thread_pool():
    # no request maps over a pool, so concurrent.futures, which only
    # `_util.parallel_map` uses, stays unloaded; a fresh interpreter,
    # because pytest may have imported it here
    script = (
        "import sys\n"
        "import infogame.cli\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
    )
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


# -------------------------------------------------------------- convexify


def test_convexify_matches_the_library_envelope(tmp_path):
    grid = build_grid(2, 4)
    w = np.array([1.0, 0.2, 0.15, 0.1, 1.0])
    table = tmp_path / "table.csv"
    rows = ["p_1,p_2,w"]
    for k in reversed(range(grid.npoints)):  # scrambled row order is fine
        rows.append(
            ",".join([repr(float(v)) for v in grid.points[k]] + [repr(float(w[k]))])
        )
    table.write_text("\n".join(rows) + "\n")
    out = tmp_path / "env.csv"
    assert run("convexify", "--table", table, "--out", out, "--mode", "vex") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p_1,p_2,w"
    got = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    np.testing.assert_array_equal(got, vex_p(grid, w))


def test_convexify_rejects_malformed_tables(tmp_path):
    def attempt(text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return run("convexify", "--table", path, "--out", tmp_path / "o.csv", "--mode", "vex")

    assert attempt("p_1,p_2,value\n1.0,0.0,1.0\n") == 2  # last column must be w
    assert (
        attempt(
            "p_1,p_2,p_3,w\n1.0,0.0,0.0,1.0\n0.0,1.0,0.0,1.0\n"
            "0.0,0.0,1.0,1.0\n0.5,0.5,0.0,1.0\n"
        )
        == 2
    )  # four rows never fill a three-type lattice
    assert (
        attempt("p_1,p_2,w\n1.0,0.0,1.0\n0.3,0.7,2.0\n0.0,1.0,3.0\n") == 2
    )  # off-lattice point for resolution 2
    assert (
        attempt("p_1,p_2,w\n1.0,0.0,1.0\n1.0,0.0,2.0\n0.0,1.0,3.0\n") == 2
    )  # duplicate point


def test_convexify_refuses_a_table_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"p_1,p_2,w\n1,0,\xff\n0,1,0\n")
    out = tmp_path / "o.csv"
    assert run("convexify", "--table", path, "--out", out, "--mode", "vex") == 2
    assert "cannot read table" in capsys.readouterr().err
    assert not out.exists()


# a 2-type and a 3-type table whose envelope arithmetic overflows: the
# 2-type envelope is 0 at (1/2, 1/2), not 1e308
OVERFLOWING_TABLES = [
    "p_1,p_2,w\n1,0,1e308\n0,1,-1e308\n0.5,0.5,1e308\n",
    "p_1,p_2,p_3,w\n1,0,0,1e308\n0,1,0,-1e308\n0,0,1,1e308\n"
    "0.5,0.5,0,1e308\n0.5,0,0.5,1e308\n0,0.5,0.5,1e308\n",
]


@pytest.mark.parametrize("table", OVERFLOWING_TABLES, ids=["2type", "3type"])
@pytest.mark.parametrize("mode", ["vex", "cav"])
def test_convexify_refuses_values_that_overflow_the_envelope(tmp_path, capsys, table, mode):
    path = tmp_path / "t.csv"
    path.write_text(table)
    out = tmp_path / "o.csv"
    assert run("convexify", "--table", path, "--out", out, "--mode", mode) == 2
    assert "in magnitude" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- oracle


def test_oracle_subcommand_matches_the_recursion(tmp_path):
    out = tmp_path / "oracle.json"
    rc = run(
        "oracle", "--preset", "one-sided-drift-1d", "--out", out,
        "--steps", 5, "--h", "0.1", "--np", 4, "--x0", "0.2",
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    m = preset("one-sided-drift-1d")
    tree = TreeGame(model=m, x0=np.array([0.2]), t0=0.0, steps=5, h=0.1)
    want = belief_recursion(tree, build_grid(2, 4), build_grid(1, 1)).values[:, 0]
    np.testing.assert_array_equal(np.array(payload["values"]), want)


def test_oracle_refuses_a_game_with_more_than_one_v_type(tmp_path, capsys):
    # the recursion takes a q lattice, the command line has none yet
    out = tmp_path / "oracle.json"
    assert run("oracle", "--preset", "two-sided-1d", "--out", out, "--steps", 2, "--h", "0.2") == 2
    assert "no q lattice option yet" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- exit codes


def test_config_exit_codes(tmp_path):
    assert run("solve", "--out", tmp_path / "x", "--steps", 5) == 2  # no config source
    assert (
        run("solve", "--preset", "drift-sum-1d", "--config", "also.json",
            "--out", tmp_path / "x", "--steps", 5) == 2
    )
    assert run("solve", "--preset", "no-such-game", "--out", tmp_path / "x", "--steps", 5) == 2
    assert run("simulate", "--config", tmp_path / "missing.json", "--out", tmp_path, "--h", "0.1") == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "drift-sum-1d", "mystery": 1}))
    assert run("solve", "--config", bad, "--out", tmp_path / "x", "--steps", 5) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run("solve", "--config", notjson, "--out", tmp_path / "x", "--steps", 5) == 2
    # a diffusion bound whose square overflows: the CFL limit falls to 0
    # and the step is refused, where squaring a float by ** raised
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**preset_config("drift-sum-1d"), "params": {"sigma": 1e200}}))
    assert run("solve", "--config", huge, "--out", tmp_path / "x", "--steps", 5) == 2


@pytest.mark.parametrize("count", ["I", "J"])
def test_solve_refuses_a_boolean_type_count(tmp_path, count):
    # a static 1 x 1 game that solves when the count is 1 and once died
    # with a TypeError (exit 1) in the Isaacs audit when it was true
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps({"preset": "static-1d", "I": 1, "J": 1, "T": 0.5, "g": [["zero"]], count: True}))
    argv = ["solve", "--config", cfg, "--out", tmp_path / "x", "--steps", 5, "--nx", 1, "--np", 1, "--nq", 1]
    assert run(*argv) == 2
    assert not (tmp_path / "x").exists()


def test_the_value_bound_holds_for_controls_beyond_two(tmp_path):
    # the running bound once assumed |u|, |v| <= 2 whatever the control set,
    # and recorded a value_bound of 1.0 against a value of 2.5
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({
        "preset": "static-1d", "params": {"controls_u": [-5, 5], "controls_v": [-5, 5]},
        "I": 1, "J": 1, "T": 0.5, "g": [["zero"]],
        "l": [[{"name": "separated", "params": {"au": 1}}]],
    }))
    out = tmp_path / "wide"
    assert run(
        "solve", "--config", cfg, "--nx", 1, "--np", 1, "--nq", 1, "--steps", 5, "--out", out,
    ) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())["diagnostics"]
    assert diagnostics["max_abs_value"] == 2.5
    assert diagnostics["max_abs_value"] <= diagnostics["value_bound"]


OVERSIZED = {
    # the (samples, I, J) payoff table
    "simulate-samples": ["simulate", "--preset", "two-sided-1d", "--h", "0.1", "--samples", "100000000000"],
    # the state grid's axes and mesh
    "solve-nx": ["solve", "--preset", "two-sided-1d", "--nx", "1000000000000", "--steps", "1"],
    # the belief lattices
    "solve-np": ["solve", "--preset", "two-sided-1d", "--nx", "5", "--np", "100000000", "--steps", "1"],
    "oracle-np": [
        "oracle", "--preset", "one-sided-drift-1d", "--steps", "2", "--h", "0.25", "--np", "100000000",
    ],
    # the sampled Isaacs queries
    "solve-isaacs-samples": [
        "solve", "--preset", "two-sided-1d", "--nx", "5", "--steps", "4",
        "--isaacs-samples", "1000000000000",
    ],
}


def _limit_address_space():
    # 4 GB leaves room for the interpreter beside the 2 GiB cap, and stops
    # code that does allocate (or grows a Python list) from reaching the
    # host's memory: it gets a MemoryError instead
    resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_arguments_are_refused_before_allocating(tmp_path, argv):
    proc = run_fresh(
        "-m", "infogame.cli", *argv, "--out", str(tmp_path / "out"),
        preexec_fn=_limit_address_space, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "above the 2 GiB cap" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_overflowing_paths_exit_three_with_warnings_as_errors(tmp_path):
    # the overflow reaches the finiteness check as inf or nan, not as a
    # printed RuntimeWarning, nor as a traceback (exit 1) under -W error
    out = tmp_path / "sim.json"
    proc = run_fresh(
        "-W", "error", "-m", "infogame.cli", "simulate", "--preset", "two-sided-1d",
        "--samples", "2", "--h", "0.1", "--x0", "1e308", "--out", str(out),
    )
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "not finite" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "x0, controls_u, code, message",
    [
        ("nan", None, 2, "x0 must be finite"),
        ("1e308", None, 3, "not finite"),  # the stage sums overflow
        ("1e308", [-1e308, 0.0, 1e308], 3, "not finite"),  # so do the tree's states
        ("1e307", None, 3, "above the envelopes' bound"),  # finite, past what vex_rows takes
    ],
    ids=["nan", "value-overflow", "state-overflow", "envelope-bound"],
)
def test_oracle_refuses_a_start_state_that_is_not_finite_or_overflows(tmp_path, x0, controls_u, code, message):
    # a NaN start once reached the envelope's table check, and values or
    # states near the float limit printed an overflow warning (exit 1
    # under -W error) before the same refusal
    cfg = preset_config("one-sided-drift-1d")
    if controls_u is not None:
        cfg["params"]["controls_u"] = controls_u
    config = tmp_path / "game.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "oracle.json"
    proc = run_fresh(
        "-W", "error", "-m", "infogame.cli", "oracle", "--config", str(config),
        "--steps", "2", "--h", "0.25", "--x0", x0, "--out", str(out),
    )
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert message in proc.stderr
    assert not out.exists()
