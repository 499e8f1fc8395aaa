from __future__ import annotations

import numpy as np
import pytest

from envelope_reference import convexity_violation, vex_row
from infogame import transform
from infogame.errors import ConfigError
from infogame.model import model_from_config, preset, preset_config
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
    fld = terminal_field(m, grids)
    # g = [[1,-1],[-1,1]]; at p=(a,1-a), q=(b,1-b): (2a-1)(2b-1)
    for ia, a in enumerate(grids.p.points[:, 0]):
        for ib, b in enumerate(grids.q.points[:, 0]):
            # numerator order puts component 1 first: points[:,0] is p_1 mass
            val = fld.values[0, ia, ib]
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


def test_hjb_step_identity_for_frozen_model():
    """No drift, no noise, no running cost: one step changes nothing."""
    cfg = preset_config("static-bilinear")
    m = model_from_config(cfg)
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    fld = terminal_field(m, grids)
    stepped = hjb_step(m, grids, fld, dt=0.05)
    np.testing.assert_array_equal(stepped.values, fld.values)
    assert stepped.t == pytest.approx(fld.t - 0.05)


def test_hjb_step_pure_running_accumulates_linearly():
    m = preset(
        "static-bilinear",
        g=[[{"name": "const", "params": {"c": 0.0}}] * 2] * 2,
        l=[[{"name": "const", "params": {"c": 1.0}}] * 2] * 2,
    )
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    fld = terminal_field(m, grids)
    for k in range(1, 4):
        fld = hjb_step(m, grids, fld, dt=0.125)
        np.testing.assert_allclose(fld.values, k * 0.125, rtol=0, atol=1e-15)


def test_solve_span_must_be_whole_steps():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0))
    with pytest.raises(ConfigError):
        solve(m, grids, t0=0.0, dt=0.3)
    with pytest.raises(ConfigError):
        solve(m, grids, t0=0.6, dt=0.1)
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
    w0 = res.fields[0].values[:, 0, 0]
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
    assert len(res.fields) == 51
    assert res.fields[-1].t == m.horizon


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
            got = np.stack([f.values[:, ip, iq] for f in res.fields])
            want = np.stack([f.values[:, 0, 0] for f in classical.fields])
            np.testing.assert_array_equal(got, want)


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
    for f1, f2 in zip(r1.fields, r2.fields):
        assert np.all(f2.values >= f1.values)


def test_dual_project_reports_residuals():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0), np_res=4, nq_res=4)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((1, grids.p.npoints, grids.q.npoints))
    proj = dual_project(grids, raw)
    assert proj.convexity_violation_p <= 1e-10
    assert proj.concavity_violation_q <= 1e-10
    assert proj.residual > 0.0
    again = dual_project(grids, proj.values)
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
    stage = _envelope_stage(grids, values, values)
    assert np.array_equal(stage[0], vexed) and np.array_equal(stage[1], caved)
    stage = _envelope_stage(grids, caved, vexed)
    assert np.array_equal(stage[0], cav_vex) and np.array_equal(stage[1], vex_cav)

    seen, inner = [], transform.vex_rows

    def counted(*args):
        seen.append(1)
        return inner(*args)

    monkeypatch.setattr(transform, "vex_rows", counted)
    proj = dual_project(grids, values)
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


def test_dual_project_rejects_non_finite_fields():
    m = preset("static-bilinear")
    grids = grids_for(m, nx=1, box=(0.0, 0.0), np_res=4, nq_res=4)
    raw = np.zeros((1, grids.p.npoints, grids.q.npoints))
    raw[0, 2, 1] = np.nan
    with pytest.raises(ConfigError):
        dual_project(grids, raw)


def test_refinement_shrinks_error_against_reference():
    """Halving dx and dt moves the informed value toward the fine answer."""
    m = preset("one-sided-drift-1d")
    pg = build_grid(2, 4)
    qg = build_grid(1, 1)

    def value_at_zero(nx, dt):
        sg = build_state_grid([(-2.0, 2.0)], [nx])
        res = solve(m, Grids(state=sg, p=pg, q=qg), t0=0.0, dt=dt)
        return res.fields[0].values[(nx - 1) // 2, :, 0]

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
