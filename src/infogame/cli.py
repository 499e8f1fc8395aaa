"""Command line front end.

Subcommands: solve, simulate, check, convexify, oracle.  All outputs are
written atomically (temp file in the target directory, then replace) and
are byte-identical across reruns with the same inputs: JSON is dumped
with sorted keys, floats use shortest round-trip repr, and wall-clock
timings go to stderr only.  Files are created under the process umask.
Exit codes: 0 success, 2 configuration errors, 3 numeric failures, 1
anything else.

`solve` writes slices.csv, the source of truth, and slices.f64, a binary
copy of its w column that starts with the SHA-256 of the CSV's bytes and
the column.  `check` and `simulate --strategy feedback:` load a solve
with `load_solve`, which takes the column from slices.f64 only when that
digest matches and parses the CSV otherwise; loads never write.  Both
sides hold the field as one (nt, *state shape, P, Q) stack: the writer
reads its slices in time order, and a load reshapes the column into it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import mmap
import os
import re
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from ._util import sha256_hex
from .dualcheck import (
    build_probes,
    check_dual_solution,
    default_tolerance,
    primal_crosscheck,
)
from .errors import ConfigError, NumericsError
from .hamiltonian import is_probability_vector
from .model import model_from_config, preset_config
from .oracle import TreeGame, belief_recursion
from .simplex import build_grid
from .simulator import (
    RandomStrategy,
    StrategyProfile,
    constant_strategy,
    cycle_strategy,
    feedback_from_field,
    matrix_estimate,
    payoff_samples,
    pq_estimate,
)
from .solver import Grids, SolveResult, _check_grids, _time_rounding, build_state_grid, solve
from .transform import cav_q, vex_p


# slices.f64: the SHA-256 of slices.csv's bytes followed by the payload,
# then the payload, the w column as little-endian float64 in CSV row order
_VALUES_FILE = "slices.f64"
_DIGEST_BYTES = 32


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@contextmanager
def _atomic_file(path: str):
    """A binary file at a temp name beside path, moved onto path when the
    block ends without error.  It is created with mode 0o666, so the
    process umask applies as it would to a plain open().  A path that
    cannot be written (its directory cannot be made or written, or it
    names a directory) is a ConfigError, and no temp file is left."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out_dir(path: str) -> None:
    """Refuse an output directory that names a file or lies below one,
    before any work is done; nothing is made."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot write {path}: {existing} is not a directory")


def _write_atomic(path: str, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text.encode())


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _load_config(path: str | None, preset: str | None) -> tuple[dict, str]:
    if (path is None) == (preset is None):
        raise ConfigError("provide exactly one of --config or --preset")
    if preset is not None:
        cfg = preset_config(preset)
        raw = _dump_json(cfg).encode()
        return cfg, sha256_hex(raw)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config JSON must be an object")
    return cfg, sha256_hex(raw)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _belief(text: str | None, count: int, flag: str) -> np.ndarray:
    """The belief given on the command line, uniform when it is absent."""
    if not text:
        return np.ones(count) / count
    w = np.asarray(_float_list(text), dtype=float)
    if not is_probability_vector(w):
        raise ConfigError(f"{flag} must be a finite probability vector, got {text!r}")
    return w


def _slices_header(grids: Grids) -> str:
    """The first line of slices.csv, without its newline."""
    return ",".join(
        ["t"]
        + [f"x_{k + 1}" for k in range(grids.state.ndim)]
        + [f"p_{i + 1}" for i in range(grids.p.dim)]
        + [f"q_{j + 1}" for j in range(grids.q.dim)]
        + ["w"]
    )


def _coordinate_cells(grids: Grids) -> tuple[list[str], list[str]]:
    """The x cells and the (p, q) cells of slices.csv rows, each formatted
    once: they repeat in every slice."""
    mesh = grids.state.mesh().reshape(-1, grids.state.ndim)
    x_cells = [",".join(repr(float(v)) for v in x) for x in mesh]
    pq_cells = [
        ",".join(repr(float(v)) for v in (*p, *q))
        for p in grids.p.points
        for q in grids.q.points
    ]
    return x_cells, pq_cells


def _repr_cells(values: np.ndarray) -> list[bytes]:
    """repr(float(w)).encode() of each w in values, in C order.

    orjson prints a float64 with its shortest round-trip digits, the
    digits repr prints, and writes a whole array in one call; the two
    texts differ only in exponent notation, which repr uses outside
    1e-4 <= |w| < 1e16 (and orjson prints NaN and inf as null).  Those
    cells, rare in a solve, take repr itself.
    """
    import orjson  # loaded by solve alone, as transform loads scipy.spatial

    flat = np.ascontiguousarray(values, dtype=float).ravel()  # orjson takes no strided array
    cells = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    size = np.abs(flat)
    plain = ((size >= 1e-4) & (size < 1e16)) | (flat == 0.0)
    for k in np.flatnonzero(~plain).tolist():
        cells[k] = repr(float(flat[k])).encode()
    return cells


def _write_solve_outputs(out_dir: str, result: SolveResult, cfg_resolved: dict, cfg_sha: str) -> None:
    grids = result.grids
    x_cells, pq_cells = _coordinate_cells(grids)
    # one row template per solve, filled per slice with each row's (t, w)
    # as repr bytes (w's from `_repr_cells`).  Built a state node at a
    # time, and t goes in by %b, not by replacing a placeholder: a list of
    # every row's string, or a replaced copy of the template, raised the
    # peak RSS
    template = "".join("".join(f"%b,{x},{pq},%b\n" for pq in pq_cells) for x in x_cells).encode()
    cells = [b""] * (2 * len(x_cells) * len(pq_cells))

    def slice_chunks():
        yield (_slices_header(grids) + "\n").encode()
        for t, values in zip(result.times.tolist(), result.values):
            cells[::2] = [repr(t).encode()] * (len(cells) // 2)
            cells[1::2] = _repr_cells(values)
            yield template % tuple(cells)

    # the digest covers the exact CSV bytes and then the binary w column
    # (see load_solve)
    digest = hashlib.sha256()
    with _atomic_file(os.path.join(out_dir, "slices.csv")) as handle:
        for data in slice_chunks():
            digest.update(data)
            handle.write(data)
            del data  # one slice in memory at a time: free it before the next is built
    with _atomic_file(os.path.join(out_dir, _VALUES_FILE)) as handle:
        handle.write(bytes(_DIGEST_BYTES))
        for values in result.values:
            data = np.asarray(values, dtype="<f8").tobytes()
            digest.update(data)
            handle.write(data)
        handle.seek(0)
        handle.write(digest.digest())
    # diagnostics lists run from the first step back, at T - dt, to t0; the
    # terminal slice, last in time, is not projected
    diag = result.diagnostics
    per_slice = {
        name: diag[key][::-1] + [0.0]
        for name, key in (
            ("projection_residual", "projection_residuals"),
            ("commutation_residual", "commutation_residuals"),
            ("convexity_violation_p", "convexity_violations_p"),
            ("concavity_violation_q", "concavity_violations_q"),
        )
    }
    meta = {
        "config": cfg_resolved,
        "config_sha256": cfg_sha,
        "grid": {
            "bounds": [[float(ax[0]), float(ax[-1])] for ax in grids.state.axes],
            "counts": [int(ax.size) for ax in grids.state.axes],
            "p_resolution": int(grids.p.resolution),
            "q_resolution": int(grids.q.resolution),
        },
        "t0": result.t0,
        "dt": result.dt,
        "times": result.times,
        "per_slice": per_slice,
        "diagnostics": diag,
    }
    _write_atomic(os.path.join(out_dir, "diagnostics.json"), _dump_json(meta))


def _check_time_grid(times: list[float], t0: float, dt: float) -> None:
    """Refuse recorded times that no solve can have written: dt finite and
    > 0, finite times strictly increasing in steps of dt and starting at
    t0, both within the solver's 1e-9 relative divisibility tolerance.

    The solver steps t down from the horizon by dt, rounding once per
    step, so each step may be off by about one ulp of the largest time,
    and times[0] by up to one ulp per step.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"the recorded dt must be finite and > 0, got {dt!r}")
    span = times[-1] - times[0]
    tol, ulp = _time_rounding(times)
    steps = np.diff(times)
    if not (
        math.isfinite(span) and np.all(steps > 0) and np.all(np.abs(steps - dt) <= tol + 4 * ulp)
    ):
        raise ConfigError(f"the recorded times do not advance in finite steps of dt = {dt!r}")
    if not abs(t0 - times[0]) <= tol + len(times) * ulp:
        raise ConfigError(f"the recorded t0 = {t0!r} is not the first time {times[0]!r}")


def _cached_values(csv, path: str, count: int) -> np.ndarray | None:
    """The w column from the binary copy at path, or None unless it holds
    exactly `count` values and its digest matches csv's bytes and them.

    csv is any buffer: `load_solve` passes slices.csv mapped, which hashes
    faster than reading the file into memory first."""
    size = _DIGEST_BYTES + 8 * count
    try:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size != size:
                return None
            blob = bytearray(size)
            if handle.readinto(blob) != size:
                return None
    except OSError:
        return None
    digest = hashlib.sha256(csv)
    digest.update(memoryview(blob)[_DIGEST_BYTES:])
    if digest.digest() != blob[:_DIGEST_BYTES]:
        return None
    return np.frombuffer(blob, dtype="<f8", offset=_DIGEST_BYTES).astype(float, copy=False)


def _parse_values(csv_bytes: bytes, count: int, grids: Grids, times: list[float]) -> np.ndarray:
    """The w column of every slices.csv row after the header; each row's
    t, x, p and q cells must be the ones solve writes."""
    body = csv_bytes.decode().splitlines()[1:]
    if len(body) != count:
        raise ConfigError("slices.csv row count does not match the recorded grid")
    x_cells, pq_cells = _coordinate_cells(grids)
    # each row's text up to its last comma: a w cell that holds a comma fails float()
    heads = [f"{t},{x},{pq}," for t in map(repr, times) for x in x_cells for pq in pq_cells]
    if not all(map(str.startswith, body, heads)):
        raise ConfigError("slices.csv coordinate cells do not match the recorded grid")
    return np.array([float(line[len(head):]) for line, head in zip(body, heads)])


def load_solve(out_dir: str, config: dict | None = None) -> SolveResult:
    """Rebuild a solve result from an output directory.

    slices.csv is the source of truth; its header must be the one solve
    writes for the recorded grid.  The w column is taken from slices.f64
    when that file's digest matches slices.csv, and parsed from the CSV
    otherwise, where every row's coordinate cells must be the ones solve
    writes; both give the same bits, reshaped into the result's
    (nt, *state shape, P, Q) stack.  The recorded grid must fit the
    recorded game as a solve's grids do.  With a resolved `config`, refuse
    a solve whose recorded config differs from it as canonical JSON.
    """
    meta_path = os.path.join(out_dir, "diagnostics.json")
    csv_path = os.path.join(out_dir, "slices.csv")
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
        with open(csv_path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:  # mmap refuses an empty file
                raise ConfigError("slices.csv is empty")
            csv = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read solve outputs: {exc}") from exc
    try:
        if config is not None and _dump_json(meta["config"]) != _dump_json(config):
            raise ConfigError(f"{out_dir} holds a solve of a different game config")
        model = model_from_config(meta["config"])
        g = meta["grid"]
        state = build_state_grid([tuple(b) for b in g["bounds"]], g["counts"])
        grids = Grids(
            state=state,
            p=build_grid(model.u_types, int(g["p_resolution"])),
            q=build_grid(model.v_types, int(g["q_resolution"])),
        )
        _check_grids(model, grids)
        times = [float(t) for t in meta["times"]]
        t0, dt = float(meta["t0"]), float(meta["dt"])
        _check_time_grid(times, t0, dt)
        header = _slices_header(grids).encode()
        if not csv[: len(header) + 2].startswith((header + b"\n", header + b"\r\n")):
            raise ConfigError("slices.csv header does not match the recorded grid")
        nx = int(np.prod(state.shape))
        count = nx * grids.p.npoints * grids.q.npoints * len(times)
        values = _cached_values(csv, os.path.join(out_dir, _VALUES_FILE), count)
        if values is None:
            values = _parse_values(csv[:], count, grids, times)
        return SolveResult(
            model=model,
            grids=grids,
            t0=t0,
            dt=dt,
            times=np.array(times),
            values=values.reshape(len(times), *state.shape, grids.p.npoints, grids.q.npoints),
            diagnostics=meta.get("diagnostics", {}),
        )
    except ConfigError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed solve outputs: {exc!r}") from exc
    finally:
        csv.close()


def _cmd_solve(args) -> int:
    _check_out_dir(args.out)
    cfg, cfg_sha = _load_config(args.config, args.preset)
    model = model_from_config(cfg)
    bounds = [(args.bounds[0], args.bounds[1])] * model.state_dim
    counts = [args.nx] * model.state_dim
    state = build_state_grid(bounds, counts)
    grids = Grids(
        state=state,
        p=build_grid(model.u_types, args.np),
        q=build_grid(model.v_types, args.nq),
    )
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    dt = (model.horizon - args.t0) / args.steps
    started = time.perf_counter()
    result = solve(
        model,
        grids,
        t0=args.t0,
        dt=dt,
        seed=args.seed,
        isaacs_samples=args.isaacs_samples,
        cfl_factor=args.cfl,
    )
    elapsed = time.perf_counter() - started
    _write_solve_outputs(args.out, result, model.config, cfg_sha)
    print(f"solve finished in {elapsed:.3f}s", file=sys.stderr)
    for name in ("slices.csv", _VALUES_FILE, "diagnostics.json"):
        print(f"wrote {os.path.join(args.out, name)}")
    return 0


def _parse_strategy(model, spec: str, side: str, delay_cells: int, t0: float, h: float, p, q):
    """Strategy families: constant[:k], cycle, feedback:<solve dir>.

    A feedback solve must record the simulated game's resolved config.
    """
    own_types = model.u_types if side == "u" else model.v_types
    if spec.startswith("constant"):
        index = 0
        if ":" in spec:
            _, _, raw = spec.partition(":")
            try:
                index = int(raw)
            except ValueError as exc:
                raise ConfigError(f"bad constant strategy index {raw!r}") from exc
        pure = constant_strategy(model, side, index=index, delay_cells=delay_cells)
        return [
            RandomStrategy(atoms=(pure,), weights=(Fraction(1),)) for _ in range(own_types)
        ]
    if spec == "cycle":
        pure = cycle_strategy(model, side, delay_cells=delay_cells)
        return [
            RandomStrategy(atoms=(pure,), weights=(Fraction(1),)) for _ in range(own_types)
        ]
    if spec.startswith("feedback:"):
        _, _, directory = spec.partition(":")
        result = load_solve(directory, model.config)
        return feedback_from_field(
            model, result, side, p, q, t0=t0, h=h, delay_cells=delay_cells
        )
    raise ConfigError(f"unknown strategy family {spec!r}")


def _cmd_simulate(args) -> int:
    cfg, cfg_sha = _load_config(args.config, args.preset)
    model = model_from_config(cfg)
    p = _belief(args.p, model.u_types, "--p")
    q = _belief(args.q, model.v_types, "--q")
    x0 = np.asarray(_float_list(args.x0), dtype=float) if args.x0 else np.zeros(model.state_dim)
    strat_u = _parse_strategy(
        model, args.strategy_u or args.strategy, "u", args.delta, args.t0, args.h, p, q
    )
    strat_v = _parse_strategy(
        model, args.strategy_v or args.strategy, "v", args.delta, args.t0, args.h, p, q
    )
    profile = StrategyProfile(u_strategies=tuple(strat_u), v_strategies=tuple(strat_v))
    started = time.perf_counter()
    table = payoff_samples(
        model, profile, x0, t0=args.t0, h=args.h, samples=args.samples,
        seed=args.seed, kind=args.noise,
    )
    # overflowing paths give inf or nan here; the check below reports them (exit 3)
    with np.errstate(over="ignore", invalid="ignore"):
        ests, errs = matrix_estimate(table)
        combined = pq_estimate(table, p, q)
    elapsed = time.perf_counter() - started
    if not np.all(np.isfinite([*ests.ravel(), *errs.ravel(), combined.estimate, combined.stderr])):
        raise NumericsError("the simulated payoffs are not finite; the paths overflowed")
    payload = {
        "config": model.config,
        "config_sha256": cfg_sha,
        "p": p,
        "q": q,
        "x0": x0,
        "t0": args.t0,
        "h": args.h,
        "delta_cells": args.delta,
        "samples": args.samples,
        "seed": args.seed,
        "noise": args.noise,
        "strategy_u": args.strategy_u or args.strategy,
        "strategy_v": args.strategy_v or args.strategy,
        "estimates": ests,
        "stderrs": errs,
        "combined_estimate": combined.estimate,
        "combined_stderr": combined.stderr,
    }
    path = args.out if args.out.endswith(".json") else os.path.join(args.out, "simulate.json")
    _write_atomic(path, _dump_json(payload))
    print(f"simulate finished in {elapsed:.3f}s", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    result = load_solve(args.solve)
    tol = args.tol if args.tol is not None else default_tolerance(result)
    started = time.perf_counter()
    # jets of a field near the float limit overflow to inf or nan; the
    # check below reports them (exit 3)
    with np.errstate(over="ignore", invalid="ignore"):
        probes = {"probes_p": build_probes(result, "p"), "probes_q": build_probes(result, "q")}
        report = check_dual_solution(result, tol=tol, max_checks=args.max_checks, **probes)
        cross = primal_crosscheck(result, tol=tol, **probes)
    elapsed = time.perf_counter() - started
    residuals = [
        report.supersolution_residual, report.subsolution_residual,
        cross.worst_min_side, cross.worst_max_side,
    ]
    if not np.all(np.isfinite(residuals)):
        raise NumericsError("the audit residuals are not finite; the field's jets overflowed")
    payload = {
        "tolerance": tol,
        "supersolution_residual": report.supersolution_residual,
        "subsolution_residual": report.subsolution_residual,
        "supersolution_ok": report.supersolution_ok,
        "subsolution_ok": report.subsolution_ok,
        "checks_super": report.checks_super,
        "checks_sub": report.checks_sub,
        "crosscheck": {
            "worst_min_side": cross.worst_min_side,
            "worst_max_side": cross.worst_max_side,
            "disagreements": cross.disagreements,
            "pairs_min_side": cross.pairs_min_side,
            "pairs_max_side": cross.pairs_max_side,
        },
    }
    out = args.out or os.path.join(args.solve, "check.json")
    _write_atomic(out, _dump_json(payload))
    print(f"check finished in {elapsed:.3f}s", file=sys.stderr)
    print(f"wrote {out}")
    ok = report.supersolution_ok and report.subsolution_ok and cross.disagreements == 0
    if not ok:
        raise NumericsError(
            "dual residual audit failed: "
            f"supersolution {report.supersolution_residual:g}, "
            f"subsolution {report.subsolution_residual:g}, "
            f"disagreements {cross.disagreements} (tolerance {tol:g})"
        )
    print(
        f"dual audit passed: supersolution {report.supersolution_residual:g} >= {-tol:g}, "
        f"subsolution {report.subsolution_residual:g} <= {tol:g}"
    )
    return 0


def _read_lattice_csv(path: str):
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table: {exc}") from exc
    if not lines:
        raise ConfigError("empty table")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "w":
        raise ConfigError("last column must be named 'w'")
    dim = len(header) - 1
    prefixes = {name.rsplit("_", 1)[0] for name in header[:-1]}
    if len(prefixes) != 1 or header[:-1] not in (
        [f"p_{i + 1}" for i in range(dim)],
        [f"q_{i + 1}" for i in range(dim)],
    ):
        raise ConfigError("coordinate columns must be p_1..p_d or q_1..q_d in order")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ConfigError(f"row has {len(cells)} cells, expected {dim + 1}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"bad number in table: {exc}") from exc
    if not rows:
        raise ConfigError("table has no data rows")
    return header, dim, np.array(rows)


def _match_lattice(dim: int, table: np.ndarray):
    count = table.shape[0]
    resolution = None
    for n in range(1, 100_000):
        if math.comb(n + dim - 1, dim - 1) == count:
            resolution = n
            break
        if math.comb(n + dim - 1, dim - 1) > count:
            break
    if resolution is None:
        raise ConfigError(f"{count} rows do not form a complete simplex lattice")
    grid = build_grid(dim, resolution)
    order = np.full(grid.npoints, -1, dtype=int)
    for r, row in enumerate(table[:, :dim]):
        if not np.all(np.abs(row) <= 1.0 + 1e-9):  # also nan: keeps the int cast below finite
            raise ConfigError(f"row {r + 1} is not a lattice point at resolution {resolution}")
        nums = np.rint(row * resolution).astype(int)
        if nums.sum() != resolution or np.any(nums < 0):
            raise ConfigError(f"row {r + 1} is not a lattice point at resolution {resolution}")
        if np.max(np.abs(row - nums / resolution)) > 1e-9:
            raise ConfigError(f"row {r + 1} deviates from the lattice at resolution {resolution}")
        idx = grid.index_of(tuple(int(v) for v in nums))
        if order[idx] != -1:
            raise ConfigError(f"duplicate lattice point in row {r + 1}")
        order[idx] = r
    return grid, order


def _cmd_convexify(args) -> int:
    header, dim, table = _read_lattice_csv(args.table)
    grid, order = _match_lattice(dim, table)
    values = table[order, dim]
    if args.mode == "vex":
        env = vex_p(grid, values)
    else:
        env = cav_q(grid, values)
    lines = [",".join(header)]
    for k in range(grid.npoints):
        cells = [repr(float(v)) for v in grid.points[k]]
        cells.append(repr(float(env[k])))
        lines.append(",".join(cells))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    cfg, cfg_sha = _load_config(args.config, args.preset)
    model = model_from_config(cfg)
    if model.v_types != 1:
        raise ConfigError(f"oracle has no q lattice option yet, and the game has {model.v_types} v types")
    x0 = np.asarray(_float_list(args.x0), dtype=float) if args.x0 else np.zeros(model.state_dim)
    tree = TreeGame(model=model, x0=x0, t0=args.t0, steps=args.steps, h=args.h)
    grid = build_grid(model.u_types, args.np)
    started = time.perf_counter()
    res = belief_recursion(tree, grid, build_grid(1, 1))
    elapsed = time.perf_counter() - started
    payload = {
        "config": model.config,
        "config_sha256": cfg_sha,
        "x0": x0,
        "t0": args.t0,
        "steps": args.steps,
        "h": args.h,
        "p_resolution": args.np,
        "p_points": grid.points,
        "values": res.values[:, 0],
    }
    path = args.out if args.out.endswith(".json") else os.path.join(args.out, "oracle.json")
    _write_atomic(path, _dump_json(payload))
    print(f"oracle finished in {elapsed:.3f}s", file=sys.stderr)
    print(f"wrote {path}")
    return 0


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and its own pattern misses exponents,
# inf and nan; with this one every negative literal float() reads, such
# as "--bounds -1e-05 1", is a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogame",
        description="Grid solver and simulator for zero-sum differential games "
        "with asymmetric information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_cfg = argparse.ArgumentParser(add_help=False)
    common_cfg.add_argument("--config", help="path to a model config JSON file")
    common_cfg.add_argument("--preset", help="named built-in game preset")

    p_solve = sub.add_parser("solve", parents=[common_cfg], help="run the grid solver")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--nx", type=int, default=81, help="state nodes per axis")
    p_solve.add_argument("--bounds", type=float, nargs=2, default=(-2.0, 2.0),
                         metavar=("LO", "HI"), help="state box per axis")
    p_solve.add_argument("--np", type=int, default=8, help="p lattice resolution")
    p_solve.add_argument("--nq", type=int, default=8, help="q lattice resolution")
    p_solve.add_argument("--steps", type=int, required=True, help="number of time steps")
    p_solve.add_argument("--t0", type=float, default=0.0, help="start of the solved span")
    p_solve.add_argument("--cfl", type=float, default=0.5, help="CFL safety factor")
    p_solve.add_argument("--seed", type=int, default=0, help="seed for the order-exchange audit")
    p_solve.add_argument("--isaacs-samples", type=int, default=1000,
                         help="sampled queries in the order-exchange audit")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", parents=[common_cfg], help="Monte Carlo play")
    p_sim.add_argument("--out", required=True, help="output directory or .json path")
    p_sim.add_argument("--p", help="comma-separated belief over u types")
    p_sim.add_argument("--q", help="comma-separated belief over v types")
    p_sim.add_argument("--x0", help="comma-separated start state")
    p_sim.add_argument("--t0", type=float, default=0.0)
    p_sim.add_argument("--h", type=float, required=True, help="simulation step")
    p_sim.add_argument("--delta", type=int, default=1, help="response cell length in steps")
    p_sim.add_argument("--samples", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--noise", choices=("gaussian", "rademacher"), default="gaussian")
    p_sim.add_argument("--strategy", default="constant:0",
                       help="both sides: constant[:k], cycle, feedback:<solve dir>")
    p_sim.add_argument("--strategy-u", default=None, help="override for the minimizer")
    p_sim.add_argument("--strategy-v", default=None, help="override for the maximizer")
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="dual residual audit of a solve directory")
    p_check.add_argument("--solve", required=True, help="directory written by solve")
    p_check.add_argument("--out", default=None, help="report path (default: check.json in the solve dir)")
    p_check.add_argument(
        "--tol", type=float, default=None,
        help="residual tolerance, finite and >= 0 (default: from grid spacing)",
    )
    p_check.add_argument("--max-checks", type=int, default=10_000)
    p_check.set_defaults(func=_cmd_check)

    p_vex = sub.add_parser("convexify", help="envelope of a tabulated lattice function")
    p_vex.add_argument("--table", required=True, help="CSV with columns p_1..p_d,w")
    p_vex.add_argument("--out", required=True, help="output CSV path")
    p_vex.add_argument("--mode", choices=("vex", "cav"), required=True)
    p_vex.set_defaults(func=_cmd_convexify)

    p_oracle = sub.add_parser("oracle", parents=[common_cfg],
                              help="exact informed-minimizer tree recursion")
    p_oracle.add_argument("--out", required=True, help="output directory or .json path")
    p_oracle.add_argument("--steps", type=int, required=True, help="tree depth")
    p_oracle.add_argument("--h", type=float, required=True, help="tree step size")
    p_oracle.add_argument("--np", type=int, default=8, help="p lattice resolution")
    p_oracle.add_argument("--x0", help="comma-separated start state")
    p_oracle.add_argument("--t0", type=float, default=0.0)
    p_oracle.set_defaults(func=_cmd_oracle)
    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
