from __future__ import annotations

import numpy as np
import pytest

import envelope_reference as ref
from envelope_reference import convexity_violation, vex_row
from exact_reference import one_sided_drift_value, two_sided_split, two_sided_state_free_config
from infogame import transform
from infogame.errors import ConfigError
from infogame.model import model_from_config, preset, preset_config, restrict_to_types
from infogame.simplex import build_grid
from infogame.solver import (
    Grids,
    _envelope_stage,
    build_state_grid,
    cfl_limit,
    classical_solve,
    dual_project,
    hjb_step,
    solve,
    terminal_field,
    validate_time_step,
)
from test_hamiltonian import planar_model


def grids_for(model, nx=41, box=(-2.0, 2.0), np_res=4, nq_res=4):
    return Grids(
        state=build_state_grid([box] * model.state_dim, [nx] * model.state_dim),
        p=build_grid(model.u_types, np_res),
        q=build_grid(model.v_types, nq_res),
    )


def test_state_grid_basics():
    g = build_state_grid([(-1.0, 1.0), (0.0, 2.0)], [5, 3])
    assert g.shape == (5, 3)
    assert g.spacing.tolist() == [0.5, 1.0]
    assert g.mesh().shape == (5, 3, 2)
    with pytest.raises(ConfigError):
        build_state_grid([(1.0, -1.0)], [5])
    with pytest.raises(ConfigError):
        build_state_grid([(0.0, 1.0)], [0])


def test_single_node_axis_needs_static_dynamics():
    m = preset("drift-sum-1d")
    with pytest.raises(ConfigError):
        solve(m, grids_for(m, nx=1, box=(0.0, 0.0)), t0=0.9, dt=0.001)


def test_terminal_field_is_bilinear_in_beliefs():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0), np_res=2, nq_res=2)
    values = terminal_field(m, grids)
    # g = [[1,-1],[-1,1]]; at p=(a,1-a), q=(b,1-b): (2a-1)(2b-1)
    for ia, a in enumerate(grids.p.points[:, 0]):
        for ib, b in enumerate(grids.q.points[:, 0]):
            # numerator order puts component 1 first: points[:,0] is p_1 mass
            val = values[0, ia, ib]
            assert val == pytest.approx((2 * a - 1) * (2 * b - 1), abs=1e-15)


def test_cfl_limit_and_validation():
    m = preset("drift-sum-1d")  # drift bound 2, diffusion 1
    sg = build_state_grid([(-2.0, 2.0)], [41])  # dx = 0.1
    lim = cfl_limit(m, sg)
    assert lim == pytest.approx(0.5 * min(0.1**2 / 1.0, 0.1 / 2.0))
    validate_time_step(m, sg, lim)
    with pytest.raises(ConfigError):
        validate_time_step(m, sg, lim * 1.2)
    with pytest.raises(ConfigError):
        cfl_limit(m, sg, cfl_factor=0.8)
    with pytest.raises(ConfigError):
        solve(m, grids_for(m), t0=0.9, dt=lim * 1.5)


@pytest.mark.parametrize("nodes", [5, 11, 21, 41])
def test_the_cfl_limit_passes_the_stencil_check_on_a_planar_grid(nodes):
    # the per-axis limits let the stencil weights of two moving axes sum
    # past 1 on the coarser grids: 1.125, 1.3125 and 1.3 at 5, 11 and 21
    m = planar_model()
    grid = build_state_grid([(-2.0, 2.0)] * 2, [nodes] * 2)
    validate_time_step(m, grid, cfl_limit(m, grid))


def test_hjb_step_identity_for_frozen_model():
    """No drift, no noise, no running cost: one step changes nothing."""
    cfg = preset_config("static-bilinear")
    m = model_from_config(cfg)
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    values = terminal_field(m, grids)
    np.testing.assert_array_equal(hjb_step(m, grids, m.horizon, values, dt=0.05), values)


def test_hjb_step_pure_running_accumulates_linearly():
    m = preset(
        "static-bilinear",
        g=[[{"name": "const", "params": {"c": 0.0}}] * 2] * 2,
        l=[[{"name": "const", "params": {"c": 1.0}}] * 2] * 2,
    )
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    values, t = terminal_field(m, grids), m.horizon
    for k in range(1, 4):
        values, t = hjb_step(m, grids, t, values, dt=0.125), t - 0.125
        np.testing.assert_allclose(values, k * 0.125, rtol=0, atol=1e-15)


def test_solve_span_must_be_whole_steps():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    with pytest.raises(ConfigError):
        solve(m, grids, t0=0.0, dt=0.3)
    with pytest.raises(ConfigError):
        solve(m, grids, t0=0.6, dt=0.1)
    # span / dt is inf, which once raised OverflowError while rounding
    with pytest.raises(ConfigError, match="whole steps"):
        solve(m, grids, t0=0.0, dt=5e-324)
    # 64 whole steps, each below half an ulp of t: every slice would be at T
    cfg = preset_config("static-bilinear")
    cfg["T"] = 1e15
    with pytest.raises(ConfigError, match="resolution"):
        solve(model_from_config(cfg), grids, t0=1e15 - 1.0, dt=1.0 / 64)


def test_linear_terminal_rides_the_saddle():
    # b = u + v cancels at the minimax; heat flow keeps linear data linear;
    # only boundary contamination perturbs the core
    m = preset(
        "drift-sum-1d",
        T=0.2,
        g=[[{"name": "linear", "params": {"a": 1.0, "c": 0.0}}]],
    )
    sg = build_state_grid([(-2.0, 2.0)], [41])
    res = classical_solve(m, sg, 0, 0, t0=0.0, dt=0.002)
    w0 = res.values[0, :, 0, 0]
    x = sg.axes[0]
    core = slice(13, 28)
    assert np.abs(w0 - x)[core].max() < 5 * (0.1 + 0.002)


def test_projection_certificates_hold_every_step():
    m = preset("two-sided-1d")
    grids = grids_for(m, nx=21, np_res=4, nq_res=4)
    res = solve(m, grids, t0=0.3, dt=0.002)
    assert max(res.diagnostics["convexity_violations_p"]) <= 1e-10
    assert max(res.diagnostics["concavity_violations_q"]) <= 1e-10
    assert res.diagnostics["steps"] == 50
    assert res.values.shape == (51, 21, grids.p.npoints, grids.q.npoints)
    assert res.times.shape == (51,)
    assert res.times[-1] == m.horizon


def test_vertex_slices_match_classical_solve_exactly():
    """At one-hot beliefs the projected field evolves like the classical one."""
    m = preset("two-sided-1d")
    grids = grids_for(m, nx=21, np_res=4, nq_res=4)
    res = solve(m, grids, t0=0.3, dt=0.002)
    for i in range(2):
        for j in range(2):
            ip = grids.p.vertex_index(i)
            iq = grids.q.vertex_index(j)
            classical = classical_solve(m, grids.state, i, j, t0=0.3, dt=0.002)
            np.testing.assert_array_equal(res.values[..., ip, iq], classical.values[..., 0, 0])


def test_monotone_comparison_of_terminals():
    base = preset_config("two-sided-1d")
    higher = preset_config("two-sided-1d")
    higher["g"] = [
        [
            {"name": "linear", "params": {"a": 1.0, "c": 0.25}},
            {"name": "const", "params": {"c": 0.25}},
        ],
        [
            {"name": "const", "params": {"c": 0.25}},
            {"name": "linear", "params": {"a": 1.0, "c": 0.25}},
        ],
    ]
    m1 = model_from_config(base)
    m2 = model_from_config(higher)
    grids = grids_for(m1, nx=21, np_res=2, nq_res=2)
    r1 = solve(m1, grids, t0=0.3, dt=0.002)
    r2 = solve(m2, grids, t0=0.3, dt=0.002)
    assert np.all(r2.values >= r1.values)


def test_dual_project_reports_residuals():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0), np_res=4, nq_res=4)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((1, grids.p.npoints, grids.q.npoints))
    proj = dual_project(grids.p, grids.q, raw)
    assert proj.convexity_violation_p <= 1e-10
    assert proj.concavity_violation_q <= 1e-10
    assert proj.residual > 0.0
    again = dual_project(grids.p, grids.q, proj.values)
    np.testing.assert_allclose(again.values, proj.values, rtol=0, atol=1e-12)


def _row_loop_vex(grids, values):
    """vex in p, one (x, q) row at a time through the per-row reference."""
    out = values.copy()
    for x in range(out.shape[0]):
        for b in range(grids.q.npoints):
            out[x, :, b] = vex_row(grids.p, out[x, :, b])
    return out


def _row_loop_cav(grids, values):
    """cav in q, one (x, p) row at a time through the per-row reference."""
    out = values.copy()
    for x in range(out.shape[0]):
        for a in range(grids.p.npoints):
            out[x, a, :] = -vex_row(grids.q, -out[x, a, :])
    return out


def _mixed_field(grids, rng, nx=5):
    """A bilinear field, fixed by both envelopes, with noise on some cells;
    many rows stay noise-free and so take the screened path."""
    gmat = rng.standard_normal((nx, grids.p.dim, grids.q.dim))
    values = np.einsum("xij,ai,bj->xab", gmat, grids.p.points, grids.q.points)
    noise = rng.standard_normal(values.shape) * (rng.random(values.shape) < 0.1)
    return values + noise


@pytest.mark.parametrize(
    "p_lattice,q_lattice,calls",
    [
        ((2, 8), (2, 8), 2),  # equal lattices: each stage's two passes share one call
        ((3, 4), (3, 4), 2),
        ((2, 8), (3, 4), 4),
        ((2, 8), (2, 4), 4),
        ((2, 8), (1, 8), 1),  # one-sided: q has one point, one stage, one pass
    ],
    ids=["2-8", "3-4", "2-8-vs-3-4", "2-8-vs-2-4", "one-sided"],
)
def test_dual_project_matches_the_row_loop(monkeypatch, p_lattice, q_lattice, calls):
    grids = Grids(
        state=build_state_grid([(-1.0, 1.0)], [5]),
        p=build_grid(*p_lattice),
        q=build_grid(*q_lattice),
    )
    values = _mixed_field(grids, np.random.default_rng(31 + sum(p_lattice) + sum(q_lattice)))
    vexed, caved = _row_loop_vex(grids, values), _row_loop_cav(grids, values)
    vex_cav, cav_vex = _row_loop_cav(grids, vexed), _row_loop_vex(grids, caved)
    stage = _envelope_stage(grids.p, grids.q, values, values)
    assert np.array_equal(stage[0], vexed) and np.array_equal(stage[1], caved)
    stage = _envelope_stage(grids.p, grids.q, caved, vexed)
    assert np.array_equal(stage[0], cav_vex) and np.array_equal(stage[1], vex_cav)

    seen, inner = [], transform.vex_rows

    def counted(*args):
        seen.append(1)
        return inner(*args)

    monkeypatch.setattr(transform, "vex_rows", counted)
    proj = dual_project(grids.p, grids.q, values)
    assert len(seen) == calls
    ref = vex_cav  # on the one-sided lattice cav is the identity, and cav_vex is vex_cav
    assert np.array_equal(proj.values, ref)
    assert proj.residual == float(np.max(np.abs(ref - values)))
    assert proj.commutation_residual == float(np.max(np.abs(ref - cav_vex)))
    flat = ref.reshape(-1, grids.p.npoints, grids.q.npoints)
    worst_p = max([0.0] + [convexity_violation(grids.p, col) for blk in flat for col in blk.T])
    worst_q = max([0.0] + [convexity_violation(grids.q, -row) for blk in flat for row in blk])
    assert proj.convexity_violation_p == worst_p
    assert proj.concavity_violation_q == worst_q


def _table_vex(grid, values):
    """vex in p of (cells, P, Q) values: `vex_table` on all its (x, q) rows."""
    rows = np.moveaxis(values, 1, 2).reshape(-1, grid.npoints)
    return np.moveaxis(ref.vex_table(grid, rows).reshape(len(values), -1, grid.npoints), 2, 1)


def _table_cav(grid, values):
    """cav in q of (cells, P, Q) values: -`vex_table` on all its negated (x, p) rows."""
    return -ref.vex_table(grid, -values.reshape(-1, grid.npoints)).reshape(values.shape)


def _stage_rows(grids, vex_in, cav_in):
    """A stage's input rows, in `_envelope_stage`'s order: the (x, q) rows
    of vex_in over p, then the negated (x, p) rows of cav_in over q."""
    return (np.moveaxis(vex_in, 1, 2).reshape(-1, grids.p.npoints),
            -cav_in.reshape(-1, grids.q.npoints))


def _spy_envelopes(monkeypatch):
    """Lists of the rows `_LowerHull._hull` (first call per row) and
    `_chain_rows` see, as bytes, in call order."""
    hulled, chained = [], []
    hull, chain = transform._LowerHull._hull, transform._chain_rows

    def spy_hull(self, values, scale):
        if scale == 1.0:
            hulled.append(values.tobytes())
        return hull(self, values, scale)

    def spy_chain(grid, ys):
        chained.extend(row.tobytes() for row in ys)
        return chain(grid, ys)

    monkeypatch.setattr(transform._LowerHull, "_hull", spy_hull)
    monkeypatch.setattr(transform, "_chain_rows", spy_chain)
    return hulled, chained


def _needs_hull(grid, row):
    """Whether `vex_rows` hulls the row: neither convex to the fixed-point
    tolerance nor, on three or more components, affine."""
    scale = max(1.0, float(np.max(np.abs(row))))
    if convexity_violation(grid, row) <= 1e-12 * scale:
        return False
    return grid.dim == 2 or transform._affine_fit(grid, row) is None


def _memo_field(grids, rng, nx=6):
    """Cells f(p) + g(q) with g concave, which cav in q keeps bit for bit,
    so that their p-rows reach the second stage unchanged, beside cells of
    noise, whose rows all change."""
    f = rng.standard_normal((nx, grids.p.npoints, 1))
    g = -np.sum(grids.q.points**2, axis=1)
    values = f + g
    noisy = rng.random(nx) < 0.5
    values[noisy] = rng.standard_normal((noisy.sum(), grids.p.npoints, grids.q.npoints))
    return values


@pytest.mark.parametrize(
    "p_lattice,q_lattice",
    [((3, 4), (3, 4)), ((2, 8), (2, 8)), ((3, 4), (2, 6))],
    ids=["3-type", "2-type", "3-by-2-type"],
)
def test_the_second_stage_envelopes_only_the_rows_that_changed(monkeypatch, p_lattice, q_lattice):
    grids = Grids(
        state=build_state_grid([(-1.0, 1.0)], [6]), p=build_grid(*p_lattice), q=build_grid(*q_lattice)
    )
    values = _memo_field(grids, np.random.default_rng(59 + sum(p_lattice)))
    vexed, caved = _table_vex(grids.p, values), _table_cav(grids.q, values)
    projected, other = _table_cav(grids.q, vexed), _table_vex(grids.p, caved)

    # the rows each stage must envelope, in call order: all of the first
    # stage's, and those of the second that differ bit for bit from the
    # first's row at the same position
    first = _stage_rows(grids, values, values)
    second = _stage_rows(grids, caved, vexed)
    want = {2: [], 3: []}
    skipped = 0
    for stage, mask in ((first, None), (second, True)):
        for grid, rows, seen in zip((grids.p, grids.q), stage, first):
            for row, old in zip(rows, seen):
                if not _needs_hull(grid, row):
                    continue
                if mask and row.tobytes() == old.tobytes():
                    skipped += 1
                else:
                    want[min(grid.dim, 3)].append(row.tobytes())
    assert skipped > 0  # the field has rows the memo saves

    hulled, chained = _spy_envelopes(monkeypatch)
    proj = dual_project(grids.p, grids.q, values)
    assert chained == want[2] and hulled == want[3]
    assert proj.values.tobytes() == projected.tobytes()
    assert proj.residual == float(np.max(np.abs(projected - values)))
    assert proj.commutation_residual == float(np.max(np.abs(projected - other)))
    worst_p = max([0.0] + [convexity_violation(grids.p, col) for blk in projected for col in blk.T])
    worst_q = max([0.0] + [convexity_violation(grids.q, -row) for blk in projected for row in blk])
    assert proj.convexity_violation_p == worst_p
    assert proj.concavity_violation_q == worst_q


@pytest.mark.parametrize("p_lattice", [(3, 4), (2, 8)], ids=["3-type", "2-type"])
def test_a_row_that_differs_in_the_sign_of_a_zero_is_enveloped_again(monkeypatch, p_lattice):
    grids = Grids(
        state=build_state_grid([(-1.0, 1.0)], [6]), p=build_grid(*p_lattice), q=build_grid(*p_lattice)
    )
    values = _memo_field(grids, np.random.default_rng(61))
    values[:, 0, :] = 0.0  # a vertex of p: on every hull, it keeps its exact value
    vexed, caved = _envelope_stage(grids.p, grids.q, values, values)
    again = values.copy()
    again[2, 0, 1] = -0.0  # the (x, q) = (2, 1) row over p
    row = np.moveaxis(again, 1, 2).reshape(-1, grids.p.npoints)[2 * grids.q.npoints + 1]
    assert _needs_hull(grids.p, row)

    hulled, chained = _spy_envelopes(monkeypatch)
    got_vexed, got_caved = _envelope_stage(grids.p, grids.q, again, values, first=(values, vexed, caved))
    assert (hulled + chained) == [row.tobytes()]
    assert got_caved.tobytes() == caved.tobytes()
    want = _table_vex(grids.p, again)
    assert got_vexed.tobytes() == want.tobytes()
    assert np.signbit(got_vexed[2, 0, 1]) and not np.signbit(vexed[2, 0, 1])


def test_dual_project_rejects_non_finite_fields():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0), np_res=4, nq_res=4)
    raw = np.zeros((1, grids.p.npoints, grids.q.npoints))
    raw[0, 2, 1] = np.nan
    with pytest.raises(ConfigError):
        dual_project(grids.p, grids.q, raw)


def test_refinement_shrinks_error_against_reference():
    """Halving dx and dt moves the informed value toward the fine answer."""
    m = preset("one-sided-drift-1d")
    pg = build_grid(2, 4)
    qg = build_grid(1, 1)

    def value_at_zero(nx, dt):
        sg = build_state_grid([(-2.0, 2.0)], [nx])
        res = solve(m, Grids(state=sg, p=pg, q=qg), t0=0.0, dt=dt)
        return res.values[0, (nx - 1) // 2, :, 0]

    fine = value_at_zero(161, 0.000625)
    coarse = value_at_zero(41, 0.01)
    mid = value_at_zero(81, 0.0025)
    err_coarse = np.abs(coarse - fine).max()
    err_mid = np.abs(mid - fine).max()
    assert err_mid < err_coarse


def test_solve_rejects_coupled_controls():
    m = preset("coupled-1d")
    grids = grids_for(m, nx=41, np_res=1, nq_res=1)
    with pytest.raises(ConfigError, match="[Ii]saacs"):
        solve(m, grids, t0=0.9, dt=0.001)


def test_memory_cap():
    m = preset("two-sided-1d")
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [3000]),
        p=build_grid(2, 64),
        q=build_grid(2, 64),
    )
    with pytest.raises(ConfigError, match="memory"):
        solve(m, grids, t0=0.3, dt=0.002)


def test_one_sided_drift_converges_to_its_closed_form():
    # at (t0, x = 0) on the preset box, at the CFL dt (dt ~ dx^2 here),
    # the error falls about 4x per halving of dx: 5.4e-3, 1.5e-3, 3.8e-4.
    # Only x = 0 is tested: away from it the box's reflecting walls
    # dominate (1.2e-3 on |x| <= 0.5 at 81 nodes)
    m = preset("one-sided-drift-1d")
    errors = []
    for nx in (21, 41, 81):
        grid = build_state_grid([(-2.0, 2.0)], [nx])
        steps = int(np.ceil(m.horizon / cfl_limit(m, grid)))
        grids = Grids(state=grid, p=build_grid(2, 8), q=build_grid(1, 1))
        result = solve(m, grids, t0=0.0, dt=m.horizon / steps)
        mid = nx // 2
        assert grid.axes[0][mid] == 0.0
        want = one_sided_drift_value(result.times[0], 0.0, grids.p.points, m.horizon)
        errors.append(float(np.max(np.abs(result.values[0, mid, :, 0] - want))))
    assert max(errors) < 6e-3, errors
    assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2], errors


@pytest.mark.parametrize("resolution", [4, 8])
def test_two_sided_field_splits_into_a_bilinear_part_and_a_state_free_game(resolution):
    # on [-4, 4] the walls' mirror ghosts are 70 nodes from |x| <= 0.5, so
    # their bend of (p . q) x stays far below the rounding (5.6e-16 and
    # 1.1e-15 measured at resolutions 4 and 8)
    m = preset("two-sided-1d")
    grid = build_state_grid([(-4.0, 4.0)], [161])
    steps = int(np.ceil(m.horizon / cfl_limit(m, grid)))
    assert steps == 80
    p, q = build_grid(2, resolution), build_grid(2, resolution)
    full = solve(m, Grids(state=grid, p=p, q=q), t0=0.0, dt=m.horizon / steps)
    node = build_state_grid([(0.0, 0.0)], [1])
    phi = solve(
        model_from_config(two_sided_state_free_config()),
        Grids(state=node, p=p, q=q),
        t0=0.0,
        dt=m.horizon / steps,
    )
    np.testing.assert_array_equal(full.times, phi.times)
    core = np.abs(grid.axes[0]) <= 0.5
    want = two_sided_split(grid.axes[0][core], p.points, q.points, phi.values[:, 0])
    assert np.max(np.abs(full.values[:, core] - want)) < 1e-13


@pytest.mark.parametrize("steps", [20, 80])
def test_the_state_free_game_scales_with_the_time_to_go(steps):
    # zero terminal costs and positively homogeneous envelopes: halving the
    # horizon at a fixed step count halves dt and every value, bit for bit
    cfg = two_sided_state_free_config()
    grids = Grids(state=build_state_grid([(0.0, 0.0)], [1]), p=build_grid(2, 8), q=build_grid(2, 8))
    results = [
        solve(model_from_config({**cfg, "T": horizon}), grids, t0=0.0, dt=horizon / steps)
        for horizon in (cfg["T"], cfg["T"] / 2)
    ]
    np.testing.assert_array_equal(results[1].values, 0.5 * results[0].values)
    assert np.any(results[0].values != 0.0)


def test_classical_solve_is_an_unprojected_solve_on_one_belief_node():
    # on 1x1 lattices the projection is the identity: every value is the
    # raw HJB step's, bit for bit, and each step's diagnostics are zeros
    m = preset("two-sided-1d")
    grid = build_state_grid([(-2.0, 2.0)], [21])
    dt = 0.01
    for i in range(2):
        for j in range(2):
            got = classical_solve(m, grid, i, j, t0=0.2, dt=dt)
            sub = restrict_to_types(m, i, j)
            grids = Grids(state=grid, p=build_grid(1, 1), q=build_grid(1, 1))
            values = [terminal_field(sub, grids)]
            for t in got.times[:0:-1]:
                values.append(hjb_step(sub, grids, t, values[-1], dt))
            np.testing.assert_array_equal(got.values, np.stack(values[::-1]))
            for key in (
                "projection_residuals", "commutation_residuals",
                "convexity_violations_p", "concavity_violations_q",
            ):
                assert got.diagnostics[key] == [0.0] * got.diagnostics["steps"], key
