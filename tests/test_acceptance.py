"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; without -s they appear in the captured output of failures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from infogame.cli import main as cli_main
from infogame.dualcheck import check_dual_solution, default_tolerance, primal_crosscheck
from infogame.hamiltonian import sample_isaacs_gap
from infogame.model import model_from_config, preset, terminal_matrix
from infogame.oracle import TreeGame, belief_recursion, exact_payoff_pq
from infogame.simplex import build_grid
from infogame.simulator import (
    RandomStrategy,
    StrategyProfile,
    constant_strategy,
    cycle_strategy,
    payoff_pq,
    split_mix,
)
from infogame.solver import (
    Grids,
    build_state_grid,
    cfl_limit,
    classical_solve,
    solve,
)
from infogame.transform import biconjugate_p, vex_p


@contextmanager
def criterion(num: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label} ({time.perf_counter() - started:.1f}s)")


def unit_mix(pure):
    return RandomStrategy(atoms=(pure,), weights=(Fraction(1),))


def vertex(grid, k: int) -> int:
    nums = [0] * grid.dim
    nums[k] = grid.resolution
    return grid.index_of(tuple(nums))


# the informed-vs-uninformed benchmark solve shared by criteria 2 and 3:
# 1-D state, 81 nodes, both belief lattices at resolution 8, 100 steps
@pytest.fixture(scope="module")
def two_sided():
    m = preset("two-sided-1d")
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [81]),
        p=build_grid(2, 8),
        q=build_grid(2, 8),
    )
    return m, grids, solve(m, grids, t0=0.0, dt=m.horizon / 100)


# symmetric-control classical game with the identity terminal cost, shared
# by criteria 4 and 9; x is an exact solution of the limiting equation
CLASSICAL_CFG = {
    "preset": "drift-sum-1d",
    "params": {"sigma": 0.3, "controls": [-1.0, 1.0]},
    "I": 1,
    "J": 1,
    "T": 0.5,
    "g": [[{"name": "linear", "params": {"a": 1.0, "c": 0.0}}]],
}


@pytest.fixture(scope="module")
def classical():
    m = model_from_config(CLASSICAL_CFG)
    grid = build_state_grid([(-3.0, 3.0)], [41])
    steps = int(np.ceil(m.horizon / cfl_limit(m, grid)))
    grids = Grids(state=grid, p=build_grid(1, 1), q=build_grid(1, 1))
    return m, grids, solve(m, grids, t0=0.0, dt=m.horizon / steps)


def test_criterion_01_terminal_condition():
    with criterion(1, "terminal slice equals the belief-weighted payoffs, tolerance 0"):
        m = preset("two-sided-1d")
        grids = Grids(
            state=build_state_grid([(-2.0, 2.0)], [21]),
            p=build_grid(2, 4),
            q=build_grid(2, 4),
        )
        steps = int(np.ceil(m.horizon / cfl_limit(m, grids.state)))
        result = solve(m, grids, t0=0.0, dt=m.horizon / steps)
        gmat = terminal_matrix(m, grids.state.mesh())
        want = np.einsum("...ij,ai,bj->...ab", gmat, grids.p.points, grids.q.points)
        np.testing.assert_array_equal(result.values[-1], want)


def test_criterion_02_convexity_and_bounds(two_sided):
    with criterion(2, "projected slices convex in p, concave in q, inside the bound sandwich"):
        m, grids, result = two_sided
        assert max(result.diagnostics["convexity_violations_p"]) <= 1e-10
        assert max(result.diagnostics["concavity_violations_q"]) <= 1e-10
        vq = [vertex(grids.q, j) for j in range(2)]
        vp = [vertex(grids.p, i) for i in range(2)]
        for w in result.values:
            lower = np.einsum("xaj,bj->xab", w[:, :, vq], grids.q.points)
            upper = np.einsum("xib,ai->xab", w[:, vp, :], grids.p.points)
            assert np.all(lower - 1e-8 <= w)
            assert np.all(w <= upper + 1e-8)


def test_criterion_03_vertex_reduction(two_sided):
    with criterion(3, "vertex slices match the complete-information solver within 1e-9"):
        m, grids, result = two_sided
        interior = slice(1, -1)
        for i in range(2):
            for j in range(2):
                cl = classical_solve(m, grids.state, i, j, t0=0.0, dt=result.dt)
                a, b = vertex(grids.p, i), vertex(grids.q, j)
                np.testing.assert_array_equal(result.times, cl.times)
                got = result.values[:, interior, a, b]
                want = cl.values[:, interior, 0, 0]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_criterion_04_classical_analytic_case(classical):
    with criterion(4, "symmetric-drift classical value equals x on the interior core"):
        m, grids, result = classical
        axis = grids.state.axes[0]
        nt = len(result.values)
        tol = 5.0 * (grids.state.spacing[0] + result.dt)
        checked = 0
        for k, w in enumerate(result.values):
            margin = nt - 1 - k  # boundary data travels one node per step
            lo, hi = margin + 1, axis.size - margin - 1
            if lo >= hi:
                continue
            core = w[lo:hi, 0, 0]
            np.testing.assert_allclose(core, axis[lo:hi], rtol=0, atol=tol)
            checked += core.size
        assert checked > 0  # the grid is wide enough to keep a core at t0


def test_criterion_05_one_sided_agreement():
    with criterion(5, "solver matches the exact one-sided recursion"):
        # state-independent running costs: matched grids agree to 1e-9
        m = preset("running-matrix-informed")
        h = m.horizon / 3
        pg = build_grid(2, 8)
        tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=3, h=h)
        osr = belief_recursion(tree, pg, build_grid(1, 1))
        grids = Grids(state=build_state_grid([(0.0, 0.0)], [1]), p=pg, q=build_grid(1, 1))
        result = solve(m, grids, t0=0.0, dt=h)
        np.testing.assert_allclose(
            result.values[0, 0], osr.values, rtol=0, atol=1e-9
        )

        # state-dependent drift control: first-order agreement in (dx, sqrt(h))
        m2 = preset("one-sided-drift-1d")
        pg2 = build_grid(2, 4)
        tree2 = TreeGame(model=m2, x0=np.zeros(1), t0=0.0, steps=5, h=0.1)
        osr2 = belief_recursion(tree2, pg2, build_grid(1, 1))
        grid2 = build_state_grid([(-1.5, 1.5)], [61])
        grids2 = Grids(state=grid2, p=pg2, q=build_grid(1, 1))
        result2 = solve(m2, grids2, t0=0.0, dt=m2.horizon / 100)
        mid = int(np.argmin(np.abs(grid2.axes[0])))
        got = result2.values[0, mid]
        tol = 5.0 * (grid2.spacing[0] + np.sqrt(0.1))
        np.testing.assert_allclose(got, osr2.values, rtol=0, atol=tol)


def test_criterion_06_splitting_identity():
    with criterion(6, "mixing beliefs splits the payoff linearly, exact tree and Monte Carlo"):
        m = preset("one-sided-drift-1d")
        steps, h = 3, m.horizon / 3
        tree = TreeGame(model=m, x0=np.array([0.2]), t0=0.0, steps=steps, h=h)
        fam1 = [unit_mix(constant_strategy(m, "u", index=k)) for k in (0, 2)]
        fam2 = [unit_mix(cycle_strategy(m, "u"))] * 2
        rv = (unit_mix(constant_strategy(m, "v", index=0)),)
        a = Fraction(2, 5)
        p1 = [Fraction(1, 4), Fraction(3, 4)]
        p2 = [Fraction(1, 2), Fraction(1, 2)]
        mixed, belief = split_mix(fam1, fam2, a, p1, p2)
        q = np.array([1.0])
        beliefs = [np.array([float(x) for x in b]) for b in (belief, p1, p2)]
        profiles = [
            StrategyProfile(u_strategies=tuple(s), v_strategies=rv)
            for s in (mixed, fam1, fam2)
        ]
        exact = [exact_payoff_pq(tree, pr, b, q) for pr, b in zip(profiles, beliefs)]
        want = float(a) * exact[1] + float(1 - a) * exact[2]
        assert exact[0] == pytest.approx(want, abs=1e-12)

        kw = dict(h=h, samples=10_000, seed=77)
        mc = [payoff_pq(m, pr, b, q, np.array([0.2]), **kw) for pr, b in zip(profiles, beliefs)]
        lhs = mc[0].estimate
        rhs = float(a) * mc[1].estimate + float(1 - a) * mc[2].estimate
        spread = mc[0].stderr + float(a) * mc[1].stderr + float(1 - a) * mc[2].stderr
        assert abs(lhs - rhs) <= 3.0 * spread


def test_criterion_07_envelope_duality():
    with criterion(7, "probe biconjugate equals the geometric envelope; both idempotent"):
        rng = np.random.default_rng(42)
        for dim, res in ((2, 8), (3, 6)):
            grid = build_grid(dim, res)
            for _ in range(50):
                w = rng.standard_normal(grid.npoints)
                bc = biconjugate_p(grid, w)
                vx = vex_p(grid, w)
                np.testing.assert_allclose(bc, vx, rtol=0, atol=1e-9)
                np.testing.assert_array_equal(vex_p(grid, vx), vx)
                np.testing.assert_array_equal(biconjugate_p(grid, bc), bc)


def test_criterion_08_monotone_comparison():
    with criterion(8, "raising the terminal costs never lowers the solved field"):
        lo_cfg = preset("one-sided-drift-1d").config
        hi_cfg = {
            **lo_cfg,
            "g": [
                [{"name": "linear", "params": {"a": 1.0, "c": 0.3}}],
                [{"name": "linear", "params": {"a": -1.0, "c": 0.3}}],
            ],
        }
        m_lo = model_from_config(lo_cfg)
        m_hi = model_from_config(hi_cfg)
        grid = build_state_grid([(-1.5, 1.5)], [41])
        steps = int(np.ceil(m_lo.horizon / cfl_limit(m_lo, grid)))
        grids = Grids(state=grid, p=build_grid(2, 4), q=build_grid(1, 1))
        r_lo = solve(m_lo, grids, t0=0.0, dt=m_lo.horizon / steps)
        r_hi = solve(m_hi, grids, t0=0.0, dt=m_hi.horizon / steps)
        assert np.all(r_lo.values <= r_hi.values)


def test_criterion_09_dual_residuals(classical):
    with criterion(9, "dual residual audits pass and both routes agree"):
        m = preset("static-bilinear")
        grids = Grids(
            state=build_state_grid([(0.0, 0.0)], [1]),
            p=build_grid(2, 6),
            q=build_grid(2, 6),
        )
        static = solve(m, grids, t0=0.0, dt=0.05)
        rep = check_dual_solution(static)
        assert rep.supersolution_residual >= -1e-8
        assert rep.subsolution_residual <= 1e-8
        cross = primal_crosscheck(static)
        assert cross.disagreements == 0

        _, _, result = classical
        tol = default_tolerance(result)
        rep2 = check_dual_solution(result, tol=tol)
        assert rep2.supersolution_residual >= -tol
        assert rep2.subsolution_residual <= tol
        cross2 = primal_crosscheck(result, tol=tol)
        assert cross2.disagreements == 0


def test_criterion_10_isaacs_gate(tmp_path):
    with criterion(10, "decoupled presets certify; the coupled preset is refused"):
        decoupled = (
            "drift-sum-1d",
            "static-bilinear",
            "running-matrix-informed",
            "one-sided-drift-1d",
            "two-sided-1d",
        )
        for name in decoupled:
            report = sample_isaacs_gap(preset(name), samples=1000, seed=101)
            assert report["max_sampled_gap"] <= 1e-12, name
        coupled = sample_isaacs_gap(preset("coupled-1d"), samples=1000, seed=101)
        assert coupled["unit_query_gap"] == 8.0
        rc = cli_main(
            ["solve", "--preset", "coupled-1d", "--out", str(tmp_path / "x"), "--steps", "10"]
        )
        assert rc == 2


def test_criterion_11_determinism(tmp_path, monkeypatch):
    with criterion(11, "solve and simulate artifacts are byte-identical across reruns and threads"):
        solve_blobs, sim_blobs = {}, {}
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            monkeypatch.setenv("INFOGAME_THREADS", threads)
            sdir = tmp_path / f"solve-{tag}"
            rc = cli_main(
                ["solve", "--preset", "one-sided-drift-1d", "--out", str(sdir),
                 "--nx", "15", "--bounds", "-1.5", "1.5", "--np", "4", "--nq", "1",
                 "--steps", "25"]
            )
            assert rc == 0
            solve_blobs[tag] = (
                (sdir / "slices.csv").read_bytes(),
                (sdir / "diagnostics.json").read_bytes(),
            )
            spath = tmp_path / f"sim-{tag}.json"
            rc = cli_main(
                ["simulate", "--preset", "one-sided-drift-1d", "--out", str(spath),
                 "--h", "0.05", "--samples", "60", "--seed", "9", "--strategy", "cycle"]
            )
            assert rc == 0
            sim_blobs[tag] = spath.read_bytes()
        assert solve_blobs["a"] == solve_blobs["b"] == solve_blobs["c"]
        assert sim_blobs["a"] == sim_blobs["b"] == sim_blobs["c"]
