"""Fuzzed configs, flags and input files never crash the command line.

The exit-code contract is 0 on success, 2 on configuration errors and 3
on numeric failures; 1 means an unexpected exception with a traceback.
The examples mutate valid configs, solve outputs and lattice tables on
tiny grids so that most of them reach past the first validation step.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from infogame.cli import main
from infogame.model import preset_config

PRESETS = (
    "drift-sum-1d",
    "coupled-1d",
    "static-bilinear",
    "running-matrix",
    "running-matrix-informed",
    "one-sided-drift-1d",
    "two-sided-1d",
)
NAMES = (
    "drift-sum-1d", "coupled-1d", "static-1d", "controlled-drift-1d",
    "zero", "const", "linear", "abs", "tanh", "bilinear-uv", "separated", "state-linear",
)
KEYS = (
    "preset", "params", "I", "J", "T", "g", "l", "sigma", "controls", "coupling",
    "controls_u", "controls_v", "c", "a", "au", "av", "center", "scale", "amp", "name",
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(NAMES),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 5).map(float)
)


@st.composite
def configs(draw):
    cfg = preset_config(draw(st.sampled_from(PRESETS)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("top", "drop", "param", "cost")))
        if kind == "top":
            cfg[draw(st.sampled_from(KEYS[:7]) | st.text(max_size=3))] = draw(json_values)
        elif kind == "drop" and cfg:
            cfg.pop(draw(st.sampled_from(sorted(cfg))))
        elif kind == "param":
            if not isinstance(cfg.get("params"), dict):
                cfg["params"] = {}
            cfg["params"][draw(st.sampled_from(KEYS[7:13]))] = draw(json_values)
        elif kind == "cost":
            matrix = cfg.get(draw(st.sampled_from(("g", "l"))))
            if isinstance(matrix, list) and matrix and isinstance(matrix[0], list) and matrix[0]:
                matrix[0][0] = draw(
                    json_values
                    | st.fixed_dictionaries(
                        {"name": st.sampled_from(NAMES), "params": json_values}
                    )
                )
    return cfg


def exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = exit_code(argv)
    assert code in (0, 2, 3), f"exit {code} for {argv}:\n{err}"


# derandomized, so every run of the suite draws the same examples
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def usual(value, wild):
    """Mostly a value that lets the run go on, sometimes anything."""
    return st.one_of(st.just(value), st.just(value), wild)


@FUZZ
@given(
    cfg=configs(),
    nx=st.integers(-1, 6),
    np_res=usual(2, st.integers(-1, 3)),
    nq_res=usual(2, st.integers(-1, 3)),
    bounds=st.sampled_from(((-2.0, 2.0), (-40.0, 40.0))) | st.tuples(numbers, numbers),
    t0=usual(0.0, numbers),
    cfl=usual(0.5, numbers),
    seed=usual(0, st.integers(-3, 2**70)),
    samples=usual(8, st.integers(-1, 8)),
)
@example(  # an infinite t0 once made the step count NaN
    cfg=preset_config("drift-sum-1d"), nx=2, np_res=2, nq_res=2, bounds=(-2.0, 2.0),
    t0=-math.inf, cfl=0.5, seed=0, samples=8,
)
@example(  # a negative seed once reached SeedSequence
    cfg=preset_config("two-sided-1d"), nx=5, np_res=2, nq_res=2, bounds=(-40.0, 40.0),
    t0=0.0, cfl=0.5, seed=-1, samples=8,
)
# oversized arguments once exited 1 from the allocation (or the lattice
# grew until memory ran out); each is refused against the 2 GiB cap
@example(  # the state grid's axes
    cfg=preset_config("two-sided-1d"), nx=10**12, np_res=2, nq_res=2, bounds=(-2.0, 2.0),
    t0=0.0, cfl=0.5, seed=0, samples=8,
)
@example(  # a belief lattice
    cfg=preset_config("two-sided-1d"), nx=5, np_res=10**8, nq_res=2, bounds=(-2.0, 2.0),
    t0=0.0, cfl=0.5, seed=0, samples=8,
)
@example(  # the sampled Isaacs queries; the wide box lets one step pass the CFL test
    cfg=preset_config("two-sided-1d"), nx=5, np_res=2, nq_res=2, bounds=(-40.0, 40.0),
    t0=0.0, cfl=0.5, seed=0, samples=10**12,
)
def test_solve_exit_codes(workdir, cfg, nx, np_res, nq_res, bounds, t0, cfl, seed, samples):
    work = Path(tempfile.mkdtemp(dir=workdir))
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    # "--flag=value" keeps argparse from reading a negative value as a flag
    lo, hi = bounds
    assert_contract([
        "solve", "--config", config, "--out", work / "out", "--steps", 1,
        f"--nx={nx}", f"--np={np_res}", f"--nq={nq_res}", "--bounds", f"{lo}", f"{hi}",
        f"--t0={t0}", f"--cfl={cfl}", f"--seed={seed}", f"--isaacs-samples={samples}",
    ])
    shutil.rmtree(work)


@pytest.fixture(scope="module")
def solved(workdir):
    out = workdir / "solved"
    code, err = exit_code([
        "solve", "--preset", "one-sided-drift-1d", "--out", out, "--nx", 15,
        "--bounds", "-1.5", "1.5", "--np", 2, "--nq", 1, "--steps", 6,
    ])
    assert code == 0, err
    return out


@st.composite
def file_edits(draw):
    """(file name, edit) pairs that damage a solve directory."""
    edits = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            path = draw(st.sampled_from((
                ("config",), ("grid",), ("grid", "counts"), ("grid", "bounds"),
                ("grid", "p_resolution"), ("times",), ("t0",), ("dt",), ("config", "T"),
            )))
            edits.append(("diagnostics.json", path, draw(st.none() | json_values)))
        else:
            edits.append(("slices.csv", draw(st.integers(0, 40)), draw(st.text(max_size=8))))
    return edits


def damage(directory: Path, edits) -> None:
    for name, where, value in edits:
        target = directory / name
        if name == "diagnostics.json":
            meta = json.loads(target.read_text())
            node = meta
            for key in where[:-1]:
                node = node.get(key) if isinstance(node, dict) else None
            if isinstance(node, dict):
                if value is None:
                    node.pop(where[-1], None)
                else:
                    node[where[-1]] = value
            target.write_text(json.dumps(meta))
        else:
            lines = target.read_text().splitlines()
            lines[where % len(lines)] = value
            target.write_text("\n".join(lines) + "\n")


@FUZZ
@given(
    edits=file_edits(),
    tol=st.none() | numbers,
    max_checks=usual(50, st.integers(-2, 50)),
    missing=st.integers(0, 9).map(lambda k: k == 0),
    out_is_dir=st.integers(0, 9).map(lambda k: k == 0),
)
@example(  # once a ZeroDivisionError
    edits=[], tol=None, max_checks=0, missing=False, out_is_dir=False
)
@example(  # once passed, writing Infinity
    edits=[], tol=math.inf, max_checks=50, missing=False, out_is_dir=False
)
@example(edits=[], tol=math.nan, max_checks=50, missing=False, out_is_dir=False)  # once wrote NaN
@example(  # once failed every audit
    edits=[], tol=-1.0, max_checks=50, missing=False, out_is_dir=False
)
@example(  # once exited 3, the jets overflowing
    edits=[("diagnostics.json", ("dt",), 0)], tol=None, max_checks=50, missing=False,
    out_is_dir=False,
)
@example(  # once ran the audit with flipped time derivatives
    edits=[("diagnostics.json", ("dt",), -0.04)], tol=None, max_checks=50, missing=False,
    out_is_dir=False,
)
@example(  # --out naming a directory once raised IsADirectoryError
    edits=[], tol=None, max_checks=50, missing=False, out_is_dir=True
)
def test_check_exit_codes(workdir, solved, edits, tol, max_checks, missing, out_is_dir):
    work = Path(tempfile.mkdtemp(dir=workdir))
    target = work / "solve"
    if not missing:
        shutil.copytree(solved, target)
        damage(target, edits)
    out = work / "check.json"
    if out_is_dir:
        out.mkdir()
    argv = ["check", "--solve", target, "--out", out, f"--max-checks={max_checks}"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    code, err = exit_code(argv)
    assert code in (0, 2, 3), f"exit {code} for {argv}:\n{err}"
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        assert code == 2, f"exit {code} for {argv}:\n{err}"
    if out.is_file():  # the report, written also when the audit fails, is strict JSON
        json.loads(out.read_text(), parse_constant=no_constant)
    assert not list(work.rglob("*.tmp"))
    shutil.rmtree(work)


@st.composite
def tables(draw):
    dim = draw(st.integers(1, 4))
    axis = draw(st.sampled_from(("p", "q", "p", "q", "x")))
    header = [f"{axis}_{k + 1}" for k in range(dim)] + ["w"]
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.permutations(header + ["v"]))[: dim + 1]
    res = draw(st.integers(1, 3))
    # mostly the whole lattice in a random order, sometimes random points
    points = [c for c in itertools.product(range(res + 1), repeat=dim) if sum(c) == res]
    if draw(st.integers(0, 3)) == 0:
        points = draw(st.lists(st.sampled_from(points), max_size=8))
    else:
        points = draw(st.permutations(points))
    rows = []
    for nums in points:
        cells = [repr(n / res) for n in nums] + [repr(draw(numbers))]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, dim))] = draw(st.text(max_size=3))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[: draw(st.integers(0, dim))]
        rows.append(",".join(cells))
    return "\n".join([",".join(header)] + rows) + "\n"


@FUZZ
@given(table=tables(), mode=st.sampled_from(("vex", "cav", "hull")))
@example(table="p_1,p_2,w\n1.0,0.0,x\n0.0,1.0,0.0\n", mode="vex")  # once a ValueError
@example(  # the chain's cross products once overflowed to a wrong envelope
    table="p_1,p_2,w\n1,0,1e308\n0,1,-1e308\n0.5,0.5,1e308\n", mode="vex"
)
@example(  # the scaled facet normals once overflowed to nan cells
    table="p_1,p_2,p_3,w\n1,0,0,1e308\n0,1,0,-1e308\n0,0,1,1e308\n"
    "0.5,0.5,0,1e308\n0.5,0,0.5,1e308\n0,0.5,0.5,1e308\n",
    mode="vex",
)
@example(table="p_1,p_2,w\nnan,1,0\n0,1,0\n", mode="vex")  # once cast to int with a warning
@example(table="p_1,p_2,w\ninf,1,0\n0,1,0\n", mode="vex")
@example(table="p_1,p_2,w\n1e300,1,0\n0,1,0\n", mode="vex")
def test_convexify_exit_codes(workdir, table, mode):
    work = Path(tempfile.mkdtemp(dir=workdir))
    path = work / "table.csv"
    path.write_text(table)
    assert_contract(["convexify", "--table", path, "--out", work / "out.csv", "--mode", mode])
    shutil.rmtree(work)


# Oracle takes presets, not fuzzed configs: a fuzzed horizon sets its tree
# depth.  Simulate also takes fuzzed configs, since it refuses a step count
# whose noise array would pass the memory cap.
STEPS_H = (0.1, 0.2, 0.25, 0.5, 0.3, 0.0, -0.1, math.nan, math.inf)
STARTS = (0.2, 0.5, -0.1, 1.0, math.nan, math.inf, -math.inf)
STRATEGIES = (
    "constant", "constant:1", "constant:7", "constant:x", "cycle", "feedback:",
    "feedback:missing", "mystery",
)
ONE_V_TYPE = ("drift-sum-1d", "coupled-1d", "running-matrix-informed", "one-sided-drift-1d")
csv_numbers = st.lists(numbers, min_size=1, max_size=3).map(
    lambda xs: ",".join(repr(x) for x in xs)
)


def mostly(value, wild):
    """The value nine times in ten, so that most runs pass every check."""
    return st.integers(0, 9).flatmap(lambda k: wild if k == 0 else st.just(value))


def optional(flag, value):
    return [] if value is None else [f"{flag}={value}"]


@FUZZ
@given(
    name=st.sampled_from(PRESETS),
    cfg=mostly(None, configs()),  # None: run the named preset
    h=mostly(0.1, st.sampled_from(STEPS_H)),  # 0.1 divides every preset horizon
    t0=mostly(0.0, st.sampled_from(STARTS)),
    samples=mostly(2, st.integers(-1, 4)),
    seed=mostly(0, st.integers(-3, 2**70)),
    delta=mostly(1, st.integers(-1, 3)),
    noise=st.sampled_from(("gaussian", "rademacher")),
    strategy_u=mostly("cycle", st.sampled_from(STRATEGIES)),
    strategy_v=st.sampled_from(("constant", "cycle", "feedback:")) | st.sampled_from(STRATEGIES),
    p=mostly(None, csv_numbers),
    q=mostly(None, csv_numbers),
    x0=mostly(None, csv_numbers),
    out_below_file=mostly(False, st.just(True)),
)
@example(  # --samples 0 and -1 once reached the mean of an empty array
    name="two-sided-1d", h=0.1, t0=0.0, samples=0, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(
    name="two-sided-1d", h=0.1, t0=0.0, samples=-1, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # --h 0 once divided by zero
    name="drift-sum-1d", h=0.0, t0=0.0, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # a NaN --h or --t0 once reached int(round(nan))
    name="drift-sum-1d", h=math.nan, t0=0.0, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(
    name="drift-sum-1d", h=0.1, t0=math.nan, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # a negative --seed once reached SeedSequence
    name="drift-sum-1d", h=0.1, t0=0.0, samples=2, seed=-1, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # a NaN start state once reached the feedback rule's node lookup
    name="one-sided-drift-1d", h=0.1, t0=0.0, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="feedback:", strategy_v="constant", p=None, q=None, x0="nan",
    out_below_file=False,
)
@example(  # a solve of another game once reached the control table
    name="running-matrix", h=0.1, t0=0.0, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="constant", strategy_v="feedback:", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # a tiny --h once asked for a noise array numpy cannot allocate
    name="two-sided-1d", cfg=None, h=1e-300, t0=0.0, samples=2, seed=0, delta=1,
    noise="gaussian", strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
@example(  # --out below a file once raised NotADirectoryError
    name="two-sided-1d", h=0.1, t0=0.0, samples=2, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=True,
)
@example(  # a payoff table above the memory cap once exited 1 from the allocation
    name="two-sided-1d", h=0.1, t0=0.0, samples=10**11, seed=0, delta=1, noise="gaussian",
    cfg=None, strategy_u="cycle", strategy_v="cycle", p=None, q=None, x0=None,
    out_below_file=False,
)
def test_simulate_exit_codes(
    workdir, solved, name, cfg, h, t0, samples, seed, delta, noise, strategy_u, strategy_v,
    p, q, x0, out_below_file,
):
    work = Path(tempfile.mkdtemp(dir=workdir))
    game = ["--preset", name]
    if cfg is not None:
        game = ["--config", work / "config.json"]
        game[1].write_text(json.dumps(cfg))
    specs = [
        f"feedback:{solved}" if s == "feedback:" else s.replace("missing", str(work / "none"))
        for s in (strategy_u, strategy_v)
    ]
    out = work / "sim.json"
    if out_below_file:
        (work / "file").write_bytes(b"")
        out = work / "file" / "x"
    argv = [
        "simulate", *game, "--out", out, f"--h={h}", f"--t0={t0}",
        f"--samples={samples}", f"--seed={seed}", f"--delta={delta}", f"--noise={noise}",
        f"--strategy-u={specs[0]}", f"--strategy-v={specs[1]}",
        *optional("--p", p), *optional("--q", q), *optional("--x0", x0),
    ]
    code, err = exit_code(argv)
    assert code in (0, 2, 3), f"exit {code} for {argv}:\n{err}"
    if code == 0:  # the artifact is strict JSON
        json.loads(out.read_text(), parse_constant=no_constant)
    assert not list(work.rglob("*.tmp"))
    shutil.rmtree(work)


def no_constant(token):
    raise ValueError(f"{token} is not JSON")


@FUZZ
@given(  # mostly games of one v type: the oracle command has no q lattice option yet
    name=st.sampled_from(ONE_V_TYPE) | st.sampled_from(PRESETS),
    cfg=mostly(None, configs()),  # None: run the named preset
    steps=mostly(2, st.integers(-1, 3)),
    h=mostly(None, st.sampled_from(STEPS_H)),  # None: the horizon over the steps
    t0=mostly(0.0, st.sampled_from(STARTS)),
    np_res=mostly(2, st.integers(-1, 4)),
    x0=mostly(None, csv_numbers),
)
@example(  # a NaN --t0 once got past the horizon check and into oracle.json
    name="one-sided-drift-1d", cfg=None, steps=2, h=0.1, t0=math.nan, np_res=2, x0=None,
)
@example(  # a belief lattice above the memory cap once grew until memory ran out
    name="one-sided-drift-1d", cfg=None, steps=2, h=0.25, t0=0.0, np_res=10**8, x0=None,
)
@example(  # the depth cap is the recursion's, not the tree's: it still exits 2
    name="one-sided-drift-1d", cfg=None, steps=7, h=None, t0=0.0, np_res=2, x0=None,
)
def test_oracle_exit_codes(workdir, name, cfg, steps, h, t0, np_res, x0):
    if h is None:
        h = preset_config(name)["T"] / max(steps, 1)
    work = Path(tempfile.mkdtemp(dir=workdir))
    game = ["--preset", name]
    if cfg is not None:
        game = ["--config", work / "config.json"]
        game[1].write_text(json.dumps(cfg))
    out = work / "oracle.json"
    argv = [
        "oracle", *game, "--out", out, f"--steps={steps}", f"--h={h}",
        f"--t0={t0}", f"--np={np_res}", *optional("--x0", x0),
    ]
    code, err = exit_code(argv)
    assert code in (0, 2, 3), f"exit {code} for {argv}:\n{err}"
    if steps > 6:  # above the recursion's depth cap
        assert code == 2, f"exit {code} for {argv}:\n{err}"
    if code == 0:  # the artifact is strict JSON
        json.loads(out.read_text(), parse_constant=no_constant)
    shutil.rmtree(work)
