"""Residual audits of the two dual inequalities on solved fields."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import crosscheck_reference
from infogame import dualcheck
from infogame.dualcheck import (
    _core_nodes,
    _jet_points,
    build_probes,
    check_dual_solution,
    default_tolerance,
    primal_crosscheck,
)
from infogame.errors import ConfigError
from infogame.hamiltonian import ham_bellman_inf_sup, pair_table
from infogame.model import model_from_config, preset, preset_config
from infogame.simplex import build_grid
from infogame.solver import Grids, _jets, _stencil, _stencil_points, build_state_grid, solve
from infogame.transform import coordinate_difference_probes


@pytest.fixture(scope="module")
def static_solve():
    m = preset("static-bilinear")
    grids = Grids(
        state=build_state_grid([(0.0, 0.0)], [1]),
        p=build_grid(2, 6),
        q=build_grid(2, 6),
    )
    return solve(m, grids, t0=0.0, dt=0.05)


@pytest.fixture(scope="module")
def drift_solve():
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-1.5, 1.5)], [25]),
        p=build_grid(2, 4),
        q=build_grid(1, 1),
    )
    return solve(m, grids, t0=0.0, dt=0.01)


@pytest.fixture(scope="module")
def two_sided_solve():
    m = preset("two-sided-1d")
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [41]),
        p=build_grid(2, 4),
        q=build_grid(2, 4),
    )
    return solve(m, grids, t0=0.0, dt=m.horizon / 25)


@pytest.fixture(scope="module")
def flat_solve(drift_solve):
    """A field flat in x and rising in t, audited on a model whose running
    cost is neither even nor odd in x.

    Every probe's extremal node is tied over the state core, so the
    tie-break picks it, and the residual there tells the picks apart.
    """
    cfg = preset_config("one-sided-drift-1d")
    for costs, c in zip(cfg["l"], (0.2, 0.1)):
        costs[0]["params"]["c"] = c
    row = drift_solve.values[0, 18]
    values = np.stack(
        [np.broadcast_to(row + t**2, drift_solve.values.shape[1:]) for t in drift_solve.times]
    )
    return replace(drift_solve, model=model_from_config(cfg), values=values)


def _neighbours(values, axis, direction):
    """Whole-array neighbour values along a state axis, with zero-gradient
    mirror ghosts at the walls: x + 1 at the last node reads x - 1, x - 1 at
    the first reads x + 1.  A frozen axis is its own neighbour."""
    m = values.shape[axis]
    if m == 1:
        return values
    idx = np.arange(m) + direction
    if direction > 0:
        idx[-1] = m - 2
    else:
        idx[0] = 1
    return np.take(values, idx, axis=axis)


def whole_jets(grid, values):
    """grad (..., n) and hess (..., n, n) at every node of values, whose
    leading axes are the state axes, from whole shifted arrays: the
    reference that `solver._jets` on each node's stencil must match
    everywhere, walls included."""
    n = grid.ndim
    grad = np.empty(values.shape + (n,))
    hess = np.empty(values.shape + (n, n))
    for k in range(n):
        dx = grid.spacing[k]
        up, down = _neighbours(values, k, +1), _neighbours(values, k, -1)
        grad[..., k] = (up - down) / (2.0 * dx)
        hess[..., k, k] = (up - 2.0 * values + down) / (dx * dx)
        for l in range(k + 1, n):
            pp, pm = _neighbours(up, l, +1), _neighbours(up, l, -1)
            mp, mm = _neighbours(down, l, +1), _neighbours(down, l, -1)
            hess[..., k, l] = hess[..., l, k] = (pp - pm - mp + mm) / (
                4.0 * grid.spacing[k] * grid.spacing[l]
            )
    return grad, hess


def _stack_jets(grid, stack, dt):
    """Central-difference jets of a whole (t, *shape) stack at every
    interior time: the reference that the audits' per-pick jets must
    match off the moving walls.

    Returns xi_t over (nt - 2, *shape), grad over (nt - 2, *shape, n) and
    hess over (nt - 2, *shape, n, n); index 0 is the slice at t index 1.
    """
    grad, hess = whole_jets(grid, np.moveaxis(stack[1:-1], 0, -1))  # state axes lead
    xi_t = (stack[2:] - stack[:-2]) / (2.0 * dt)
    return xi_t, np.moveaxis(grad, -2, 0), np.moveaxis(hess, -3, 0)


def perturbed(result, eps):
    """Add eps * (T - t) to every slice; affine in t, flat in everything else."""
    T = result.model.horizon
    shift = eps * (T - result.times)
    return replace(result, values=result.values + shift.reshape(-1, *[1] * (result.values.ndim - 1)))


def test_default_tolerance_formula(drift_solve):
    m = drift_solve.model
    dx = drift_solve.grids.state.spacing[0]
    assert default_tolerance(drift_solve) == 10.0 * (dx + drift_solve.dt) * m.lipschitz_bound


def test_default_tolerance_ignores_frozen_axes(static_solve):
    m = static_solve.model
    assert default_tolerance(static_solve) == 10.0 * static_solve.dt * m.lipschitz_bound


def test_static_bilinear_residuals_vanish(static_solve):
    report = check_dual_solution(static_solve)
    assert report.supersolution_ok and report.subsolution_ok
    # no state motion and an exact projection: both inequalities are tight
    assert abs(report.supersolution_residual) < 1e-12
    assert abs(report.subsolution_residual) < 1e-12
    assert report.checks_super > 0 and report.checks_sub > 0


def test_moving_state_residuals_within_tolerance(drift_solve):
    report = check_dual_solution(drift_solve)
    assert report.supersolution_ok, report.supersolution_residual
    assert report.subsolution_ok, report.subsolution_residual


def test_negative_time_drift_breaks_the_supersolution(static_solve):
    eps = 5.0 * default_tolerance(static_solve) + 0.1
    report = check_dual_solution(perturbed(static_solve, -eps))
    assert not report.supersolution_ok
    assert report.subsolution_ok
    # w - eps (T - t) lowers the conjugate's time slope by exactly eps
    assert report.supersolution_residual == pytest.approx(-eps, rel=1e-12)


def test_positive_time_drift_breaks_the_subsolution(static_solve):
    eps = 5.0 * default_tolerance(static_solve) + 0.1
    report = check_dual_solution(perturbed(static_solve, eps))
    assert report.supersolution_ok
    assert not report.subsolution_ok
    assert report.subsolution_residual == pytest.approx(eps, rel=1e-12)


def test_uniform_defect_survives_heavy_subsampling(static_solve):
    eps = 5.0 * default_tolerance(static_solve) + 0.1
    report = check_dual_solution(perturbed(static_solve, eps), max_checks=7)
    assert report.checks_super <= 8 and report.checks_sub <= 8
    assert not report.subsolution_ok


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_local_slice_defect_breaks_both_inequalities(two_sided_solve, sign):
    # one interior slice shifted by c dt: the centred time difference jumps
    # by c / 2 with opposite signs on its two neighbours
    result = two_sided_solve
    values = result.values.copy()
    values[len(values) // 2] += sign * 10.0 * result.dt
    assert check_dual_solution(result).supersolution_ok
    report = check_dual_solution(replace(result, values=values))
    assert not report.supersolution_ok, report.supersolution_residual
    assert not report.subsolution_ok, report.subsolution_residual


def test_a_time_affine_defect_fails_at_ten_tolerances(two_sided_solve):
    # check-2type's input plus c (T - t), c ten times the default
    # tolerance: every conjugate's xi_t moves by c, so the subsolution
    # side fails by about c.  At c = 1, and with one slice left
    # unprojected or with its cav skipped, the audit still passes
    result = two_sided_solve
    tol = default_tolerance(result)
    report = check_dual_solution(perturbed(result, 10.0 * tol))
    assert report.tolerance == tol
    assert report.supersolution_ok
    assert not report.subsolution_ok
    assert report.subsolution_residual > 9.0 * tol


def conjugate_route_by_hand(result, probe_p, probe_q):
    """Per side, the conjugate route's residual at each opponent belief
    node (min over (t, node) on the p side, max on the q side), one
    (opponent node, t, node) at a time on a 1-d state: explicit stencils,
    the tie-support by hand and one single-point control table per
    supporting belief."""
    grids, model, dt = result.grids, result.model, result.dt
    stack = result.values  # (nt, nx, P, Q)
    dx, x, times = grids.state.spacing[0], grids.state.axes[0], result.times
    nodes = [i for (i,) in _core_nodes(result)]
    per_node = []
    for sense, own, opp, probe in ((1, grids.p, grids.q, probe_p), (-1, grids.q, grids.p, probe_q)):
        side = []
        for jo in range(opp.npoints):
            pair = np.inf
            block = stack[..., jo] if sense > 0 else stack[..., jo, :]
            scores = own.points @ probe - block
            conj = scores.max(axis=-1) if sense > 0 else scores.min(axis=-1)
            for ti in range(1, len(times) - 1):
                for i in nodes:
                    xi_t = (conj[ti + 1, i] - conj[ti - 1, i]) / (2.0 * dt)
                    grad = (conj[ti, i + 1] - conj[ti, i - 1]) / (2.0 * dx)
                    hess = (conj[ti, i + 1] - 2.0 * conj[ti, i] + conj[ti, i - 1]) / (dx * dx)
                    row = scores[ti, i]
                    tie = 1e-9 * max(1.0, np.max(np.abs(row)))
                    if sense > 0:
                        support = np.flatnonzero(row >= conj[ti, i] - tie)
                    else:
                        support = np.flatnonzero(row <= conj[ti, i] + tie)
                    best = -np.inf
                    for k in support:
                        p, q = (own.points[k], opp.points[jo])[::sense]
                        table = pair_table(model, times[ti], x[i : i + 1], [-grad], [[-hess]], p, q)
                        best = max(best, sense * (xi_t - table.max(-1).min(-1)))
                    pair = min(pair, best)
            side.append(sense * pair)
        per_node.append(np.array(side))
    return per_node


# two probes per side, so that the default cap folds them in one chunk
PAIR_PROBES_P = np.array([[0.3, -0.4], [-0.5, 0.1]])
PAIR_PROBES_Q = np.array([[-0.2, 0.5], [0.4, -0.3]])


@pytest.fixture(scope="module")
def pairs_by_hand(two_sided_solve):
    """(opponent nodes, probes) residuals of each side, by hand."""
    per_probe = [
        conjugate_route_by_hand(two_sided_solve, p, q) for p, q in zip(PAIR_PROBES_P, PAIR_PROBES_Q)
    ]
    return [np.stack([side[k] for side in per_probe], axis=-1) for k in range(2)]


def test_conjugate_route_matches_a_per_node_loop(two_sided_solve, pairs_by_hand):
    result = two_sided_solve
    report = check_dual_solution(
        result, probes_p=PAIR_PROBES_P[:1], probes_q=PAIR_PROBES_Q[:1], max_checks=10**9
    )
    sup_res, sub_res = pairs_by_hand[0][:, 0].min(), pairs_by_hand[1][:, 0].max()
    assert report.supersolution_residual == pytest.approx(sup_res, rel=1e-12, abs=1e-12)
    assert report.subsolution_residual == pytest.approx(sub_res, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("one_probe_per_chunk", [False, True])
def test_pair_residuals_match_the_conjugate_route_by_hand(
    two_sided_solve, pairs_by_hand, monkeypatch, one_probe_per_chunk
):
    # the fold keeps one minimum per (opponent node, probe), however many
    # probes a chunk holds: both at the default cap, one at the cap of a
    # single probe's stencil gather
    result = two_sided_solve
    calls = []
    inner = dualcheck._queue_conjugate

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(dualcheck, "_queue_conjugate", counted)
    if one_probe_per_chunk:
        per_block = (len(result.times) - 2) * len(_core_nodes(result))
        gather = per_block * (len(_stencil(result.grids.state)) + 2) * result.grids.p.npoints
        monkeypatch.setattr(dualcheck, "_BLOCK_FLOATS", gather)
    report = check_dual_solution(
        result, probes_p=PAIR_PROBES_P, probes_q=PAIR_PROBES_Q, max_checks=10**9
    )
    chunks = len(PAIR_PROBES_P) if one_probe_per_chunk else 1
    assert len(calls) == chunks * (result.grids.q.npoints + result.grids.p.npoints)
    sup, sub = pairs_by_hand
    np.testing.assert_allclose(report.pair_residuals_super, sup, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(report.pair_residuals_sub, sub, rtol=1e-12, atol=1e-12)
    assert report.supersolution_residual == report.pair_residuals_super.min()
    assert report.subsolution_residual == report.pair_residuals_sub.max()


def test_pair_residuals_are_nan_where_no_node_is_audited(two_sided_solve):
    report = check_dual_solution(two_sided_solve, max_checks=7)
    grids = two_sided_solve.grids
    for pairs, opp, probes, checks in (
        (report.pair_residuals_super, grids.q, report.probes_p, report.checks_super),
        (report.pair_residuals_sub, grids.p, report.probes_q, report.checks_sub),
    ):
        assert pairs.shape == (opp.npoints, len(probes))
        audited = ~np.isnan(pairs)
        assert 0 < audited.sum() <= checks <= 7
    assert report.supersolution_residual == np.nanmin(report.pair_residuals_super)
    assert report.subsolution_residual == np.nanmax(report.pair_residuals_sub)


@pytest.mark.parametrize("big, side", [(1e308, "sub"), (-1e308, "super")])
def test_a_nan_pair_residual_fails_its_side(two_sided_solve, big, side):
    # one value near the float limit overflows the conjugate's jets: the
    # pairs of one opponent node read NaN, and the side must not pass on
    # the other pairs' residuals
    values = two_sided_solve.values.copy()
    values[9, 20, 2, 2] = big
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_dual_solution(replace(two_sided_solve, values=values))
    other = {"sub": "super", "super": "sub"}[side]
    assert np.isnan(getattr(report, f"pair_residuals_{side}")).sum() == 64
    assert np.isnan(getattr(report, f"{side}solution_residual"))
    assert not getattr(report, f"{side}solution_ok")
    assert not np.isnan(getattr(report, f"pair_residuals_{other}")).any()
    assert np.isfinite(getattr(report, f"{other}solution_residual"))
    assert getattr(report, f"{other}solution_ok")


def test_crosscheck_agrees_with_conjugate_route(static_solve):
    report = primal_crosscheck(static_solve)
    assert report.disagreements == 0
    assert report.worst_min_side <= report.tolerance
    assert report.worst_max_side >= -report.tolerance
    assert report.pairs_min_side > 0 and report.pairs_max_side > 0


def test_crosscheck_on_moving_state(drift_solve):
    report = primal_crosscheck(drift_solve)
    assert report.disagreements == 0
    assert report.worst_min_side <= report.tolerance
    assert report.worst_max_side >= -report.tolerance


def same_bits(a, b) -> bool:
    """Bitwise equality of two report field values; -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_report(got, want):
    for field in dataclasses.fields(want):
        name = field.name
        assert same_bits(getattr(got, name), getattr(want, name)), name


def crosscheck_by_pairs(result):
    """`primal_crosscheck` one (side, opponent node, probe) at a time: the
    first argmin of each masked block, the jets of its one own-belief
    stack and of its conjugate stack, and a one-point kernel call per
    primal residual and per supporting belief."""
    grids, model, dt, times = result.grids, result.model, result.dt, result.times
    grid = grids.state
    tol = default_tolerance(result)
    stack = result.values
    interior = np.zeros(stack.shape[:-2], dtype=bool)
    for ti in range(1, len(times) - 1):
        for node in _core_nodes(result):
            interior[(ti, *node)] = True
    mesh = grid.mesh()
    sides = (
        (1, grids.p, grids.q, build_probes(result, "p"), stack),
        (-1, grids.q, grids.p, build_probes(result, "q"), np.swapaxes(stack, -1, -2)),
    )
    worst, pairs, disagreements = [], [], 0
    for sense, own, opp, probes, oriented in sides:
        side = -np.inf
        for jo in range(opp.npoints):
            block = oriented[..., jo]
            for probe in probes:
                lift = np.tensordot(own.points, probe, axes=(1, 0))
                masked = np.where(interior[..., None], sense * (block - lift), np.inf)
                ti, *node, c = np.unravel_index(int(np.argmin(masked)), masked.shape)
                at, jet, x = (ti, *node), (ti - 1, *node), mesh[tuple(node)]
                xi_t, grad, hess = _stack_jets(grid, block[..., c], dt)
                p, q = (own.points[c], opp.points[jo])[::sense]
                primal = sense * (
                    xi_t[jet] + ham_bellman_inf_sup(model, times[ti], x, grad[jet], hess[jet], p, q)
                )
                side = max(side, float(primal))
                scores = lift - block
                conj = scores.max(axis=-1) if sense > 0 else scores.min(axis=-1)
                xi_t, grad, hess = _stack_jets(grid, conj, dt)
                row = scores[at]
                tie = 1e-9 * max(1.0, np.max(np.abs(row)))
                near = row >= conj[at] - tie if sense > 0 else row <= conj[at] + tie
                dual = -np.inf
                for k in np.flatnonzero(near):
                    p, q = (own.points[k], opp.points[jo])[::sense]
                    ham = ham_bellman_inf_sup(model, times[ti], x, -grad[jet], -hess[jet], p, q)
                    dual = max(dual, float(sense * (xi_t[jet] - ham)))
                disagreements += (primal <= tol) != (dual >= -tol)
        worst.append(float(sense * side))
        pairs.append(opp.npoints * probes.shape[0])
    return dualcheck.CrosscheckReport(
        tolerance=tol,
        worst_min_side=worst[0],
        worst_max_side=worst[1],
        disagreements=disagreements,
        pairs_min_side=pairs[0],
        pairs_max_side=pairs[1],
    )


@pytest.mark.parametrize("name", ["two_sided_solve", "static_solve", "flat_solve"])
def test_batched_crosscheck_matches_a_per_pair_loop(request, name):
    # static-bilinear's w is constant in (t, x) and the flat field's in x,
    # so the first occurrence decides every probe's extremal node
    result = request.getfixturevalue(name)
    assert_same_report(primal_crosscheck(result), crosscheck_by_pairs(result))


@pytest.fixture(scope="module")
def three_type_solve():
    cfg = {
        "preset": "drift-sum-1d",
        "params": {"sigma": 0.5},
        "I": 3,
        "J": 3,
        "T": 0.4,
        "g": [
            [{"name": "tanh", "params": {"center": c, "scale": 1.5, "amp": a}} for a in (1.0, -0.8, 0.6)]
            for c in (-0.5, 0.0, 0.5)
        ],
    }
    m = model_from_config(cfg)
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [9]),
        p=build_grid(3, 3),
        q=build_grid(3, 3),
    )
    return solve(m, grids, t0=0.0, dt=m.horizon / 4)


@pytest.fixture(
    scope="module", params=["res1", "res2", "res4", "res8", "drift_solve", "three_type_solve"]
)
def crosschecked(request):
    """two-sided-1d at lattice resolution 1, 2, 4 or 8 on both sides, the
    one-sided solve or the 3x3-type one."""
    if not request.param.startswith("res"):
        return request.getfixturevalue(request.param)
    m = preset("two-sided-1d")
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [41]),
        p=build_grid(2, int(request.param[3:])),
        q=build_grid(2, int(request.param[3:])),
    )
    return solve(m, grids, t0=0.0, dt=m.horizon / 25)


def test_grouped_crosscheck_matches_the_per_opponent_node_route(crosschecked, monkeypatch):
    # one sorted table per group of opponent nodes: the default groups,
    # then groups of one and two opponent nodes on each side, the last
    # group short where the count is odd
    result = crosschecked
    probes = {f"probes_{side}": build_probes(result, side) for side in "pq"}
    tol = default_tolerance(result)
    want = crosscheck_reference.primal_crosscheck(result, tol=tol, **probes)
    assert_same_report(primal_crosscheck(result, tol=tol, **probes), want)
    groups = []
    inner = dualcheck._extremal_nodes

    def counted(block, *args):
        groups.append(block.shape[-1])
        return inner(block, *args)

    monkeypatch.setattr(dualcheck, "_extremal_nodes", counted)
    interior = (len(result.times) - 2) * len(_core_nodes(result))
    own = {result.grids.p.npoints, result.grids.q.npoints}
    caps = sorted({g * interior * k for g in (1, 2) for k in own})
    for cap in caps:
        monkeypatch.setattr(dualcheck, "_BLOCK_FLOATS", cap)
        groups.clear()
        assert_same_report(primal_crosscheck(result, tol=tol, **probes), want)
        assert sum(groups) == result.grids.p.npoints + result.grids.q.npoints
        if cap == caps[0]:  # one opponent node per group on some side
            assert max(groups) == 1 < max(own)


@pytest.mark.parametrize("name", ["two_sided_solve", "three_type_solve"])
def test_lifts_are_bitwise_per_probe_tensordots(request, name):
    result = request.getfixturevalue(name)
    for side, own in (("p", result.grids.p), ("q", result.grids.q)):
        probes = build_probes(result, side)
        want = np.stack([np.tensordot(own.points, probe, axes=(1, 0)) for probe in probes])
        assert same_bits(dualcheck._lifts(own, probes), want), side


def test_probes_of_a_huge_three_type_slice_are_finite_without_a_warning(three_type_solve):
    # the terminal slice at the first node alternates +-7e295 over p, whose
    # facet slopes overflowed np.round's 12-decimal scaling
    values = three_type_solve.values.copy()
    values[-1, 0] = 7e295 * (-1.0) ** np.arange(values.shape[-2])[:, None]
    result = replace(three_type_solve, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probes = build_probes(result, "p")
    assert np.all(np.isfinite(probes))
    assert np.abs(probes).max() > np.finfo(float).max / 1e12


def _masked_argmins(block, lifts, sense, interior):
    """The first minimum of sense * (w - <probe, r>) over the whole masked
    (t, node, r) block of each opponent node, one (opponent node, probe)
    pair at a time, in that order."""
    outside = ~interior[..., None]
    picks = []
    for g in range(block.shape[-1]):
        for lift in lifts:
            obj = block[..., g] - lift if sense > 0 else lift - block[..., g]
            picks.append(np.where(outside, np.inf, obj).argmin())
    return np.array(picks)


def test_extremal_nodes_are_the_first_masked_argmins():
    # exact ties in w, ties made by rounding when |<probe, r>| >> |w|, one
    # column tied throughout, signed zeros and subnormals, on groups of 1
    # to 3 opponent nodes, in chunks of 1 to 4 (opponent node, probe) pairs
    rng = np.random.default_rng(11)
    for trial in range(300):
        nt = int(rng.integers(3, 7))
        shape = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 3))))
        width = int(rng.integers(1, 6))
        full = (nt, *shape, width, int(rng.integers(1, 4)))
        block = [
            rng.standard_normal(full),
            rng.integers(-2, 3, full).astype(float),
            1.0 + rng.integers(0, 4, full) * 2.0**-52,
            np.broadcast_to(rng.standard_normal((width, 1)), full).copy(),
            rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-300], size=full),
        ][trial % 5]
        lifts = rng.standard_normal((int(rng.integers(1, 9)), width)) * 10.0 ** rng.integers(-2, 18)
        if trial % 3 == 0:
            lifts = np.round(lifts)
        if trial % 2:  # the audits' layouts: a slice of the field, or of its swapped view
            block = np.swapaxes(np.swapaxes(block, -1, -2).copy(), -1, -2)
        interior = np.zeros(full[:-2], dtype=bool)
        interior[1:-1] = rng.random((nt - 2, *shape)) < 0.6
        interior[(1,) + (0,) * len(shape)] = True
        for sense in (1, -1):
            size = int(rng.integers(1, 5))
            chunks = list(dualcheck._extremal_nodes(block, lifts, sense, np.flatnonzero(interior), size))
            assert all(len(chunk) <= size for chunk, _ in chunks)
            pairs = np.concatenate([chunk for chunk, _ in chunks])
            assert np.array_equal(pairs, np.arange(full[-1] * len(lifts)))
            got = np.concatenate([first for _, first in chunks])
            assert np.array_equal(got, _masked_argmins(block, lifts, sense, interior))


@pytest.mark.parametrize("name", ["two_sided_solve", "static_solve", "flat_solve"])
def test_chunk_size_does_not_change_the_reports(request, monkeypatch, name):
    result = request.getfixturevalue(name)
    want = (check_dual_solution(result), primal_crosscheck(result))
    block = result.values[..., 0].size  # (nt, *shape, K)
    probes = max(len(build_probes(result, "p")), len(build_probes(result, "q")))
    # one probe per chunk, then every probe of an opponent node in one chunk
    for cap in (block, block * probes):
        monkeypatch.setattr(dualcheck, "_BLOCK_FLOATS", cap)
        assert_same_report(check_dual_solution(result), want[0])
        assert_same_report(primal_crosscheck(result), want[1])
    # one crosscheck probe per chunk: a stencil gather of the larger own grid
    gather = (len(_stencil(result.grids.state)) + 2) * max(result.grids.p.npoints, result.grids.q.npoints)
    monkeypatch.setattr(dualcheck, "_BLOCK_FLOATS", gather)
    assert_same_report(primal_crosscheck(result), want[1])


@pytest.mark.parametrize(
    "bounds, counts",
    [
        ([(-1.0, 1.0)], [7]),
        ([(-1.0, 1.0), (0.0, 3.0)], [5, 6]),  # mixed terms, two spacings
        ([(-1.0, 1.0), (0.5, 0.5), (0.0, 3.0)], [5, 1, 4]),  # a frozen middle axis
        ([(-1.0, 1.0)], [2]),  # each node is the other's mirror ghost
        ([(-1.0, 1.0), (0.0, 3.0), (2.0, 2.5)], [4, 5, 3]),  # three axis pairs
    ],
)
def test_stencil_jets_match_the_whole_stack(bounds, counts):
    # at every node, walls included, the jets of the node's stencil alone
    # are the whole array's, bit for bit; the audits' picks add the centre
    # at t + 1 and t - 1 to the stencil at t
    grid = build_state_grid(bounds, counts)
    rng = np.random.default_rng(3)
    shape = (*grid.shape, 6, 2)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    nodes = np.moveaxis(np.indices(grid.shape), 0, -1)
    got = _jets(grid, values[_stencil_points(grid, nodes)])
    for g, w in zip(got, whole_jets(grid, values)):
        assert same_bits(g, w)
    stack = np.moveaxis(values[..., 0], -1, 0)  # (t, *shape)
    picks = np.array([(t, *node) for t in range(1, 5) for node in np.ndindex(grid.shape)])
    ti, nodes = picks[:, 0], picks[:, 1:]
    jet = stack[_jet_points(grid, ti, nodes)]
    assert same_bits(jet[-2], stack[(ti + 1, *nodes.T)])
    assert same_bits(jet[-1], stack[(ti - 1, *nodes.T)])
    _, grad, hess = _stack_jets(grid, stack, 0.037)
    for g, w in zip(_jets(grid, jet[:-2]), (grad, hess)):
        assert same_bits(g, w[(ti - 1, *nodes.T)])


def test_neither_audit_builds_whole_stack_jets(two_sided_solve, monkeypatch):
    # both routes read each pick's stencil: every jet comes from an
    # (S, picks) table of stencil values, never from a whole (t, x) stack
    tables = []
    inner = dualcheck._jets

    def counted(grid, values):
        tables.append(values.shape)
        return inner(grid, values)

    monkeypatch.setattr(dualcheck, "_jets", counted)
    stencil = len(_stencil(two_sided_solve.grids.state))
    for audit in (check_dual_solution, primal_crosscheck):
        tables.clear()
        audit(two_sided_solve)
        assert tables and all(len(shape) == 2 and shape[0] == stencil for shape in tables), audit


class QueuedRows:
    """Stands in for `_Rows`: records what `_queue_conjugate` queues."""

    def __init__(self, grid, dt, sense):
        self.result = SimpleNamespace(grids=SimpleNamespace(state=grid), dt=dt)
        self.sense = sense
        self.queued = []

    def add(self, out, target, ti, nodes, grad, hess, own_points, opp_points, xi, done=None):
        opp_points = np.broadcast_to(opp_points, (len(target), opp_points.shape[-1]))
        self.queued.append((target, ti, nodes, xi, grad, hess, own_points, opp_points))


def queued_by_reference(grid, dt, sense, own, opp, oriented, jo, lifts, ti, nodes, target):
    """The conjugate rows from each pick's whole conjugate stack at its
    opponent node, reduced over the beliefs, its jets from `_stack_jets`,
    and the support mask at the centre read as it is."""
    jets = [], [], []
    for lift, t, node, j in zip(lifts, ti, nodes, jo):
        scores = lift - oriented[..., j]
        conj = scores.max(axis=-1) if sense > 0 else scores.min(axis=-1)
        for out, jet in zip(jets, _stack_jets(grid, conj, dt)):
            out.append(jet[(t - 1, *node)])
    xi_t, grad, hess = (np.array(jet) for jet in jets)
    centre = lifts - np.stack([oriented[(t, *node, slice(None), j)] for t, node, j in zip(ti, nodes, jo)])
    conj = centre.max(axis=-1) if sense > 0 else centre.min(axis=-1)
    tie = 1e-9 * np.maximum(1.0, np.max(np.abs(centre), axis=-1))
    if sense > 0:
        near = centre >= (conj - tie)[:, None]
    else:
        near = centre <= (conj + tie)[:, None]
    sel, cand = np.nonzero(near)
    return (target[sel], ti[sel], nodes[sel], xi_t[sel], -grad[sel], -hess[sel], own.points[cand],
            opp.points[jo[sel]])


@pytest.mark.parametrize(
    "bounds, counts, own",
    [
        ([(-1.0, 1.0)], [7], build_grid(2, 4)),
        ([(-1.0, 1.0), (0.5, 0.5), (0.0, 3.0)], [5, 1, 4], build_grid(3, 3)),  # a frozen axis
    ],
)
def test_queued_conjugate_rows_match_a_pick_major_reference(bounds, counts, own):
    # w on small integers and integer lifts tie beliefs exactly, also at
    # the conjugate's optimum, so the support holds several candidates;
    # w spread by 1e-11 or 1e-9 of its own scale, which varies over
    # (t, x), puts near-ties inside and at the edge of the support's
    # tolerance at that scale.  The picks sit at one opponent node, as in
    # the conjugate route, or each at its own, as in the crosscheck
    grid = build_state_grid(bounds, counts)
    opp = build_grid(3, 1)
    rng = np.random.default_rng(13)
    inner = [np.arange(1, m - 1) if m > 1 else np.arange(1) for m in grid.shape]
    for trial in range(40):
        nt = int(rng.integers(3, 7))
        full = (nt, *grid.shape, own.npoints, 3)
        if trial % 2:
            stack = rng.integers(-2, 3, full).astype(float)
            if trial % 3 == 0:
                scale = 10.0 ** rng.integers(0, 4, (nt, *grid.shape, 1, 1))
                stack = scale * (1.0 + stack * rng.choice([1e-11, 1e-9], full))
            lifts = rng.integers(-1, 2, (12, own.npoints)).astype(float)
        else:
            stack = rng.standard_normal(full) * 10.0 ** rng.integers(-3, 4, full)
            lifts = rng.standard_normal((12, own.npoints))
        # the audits' oriented field: the stack, or a strided view of it
        if trial % 4 >= 2:
            stack = np.swapaxes(np.swapaxes(stack, -1, -2).copy(), -1, -2)
        ti = rng.integers(1, nt - 1, 12)
        nodes = np.stack([rng.choice(idx, 12) for idx in inner], axis=-1)
        target = rng.permutation(12)
        jo = 1 if trial % 3 else rng.integers(0, 3, 12)
        for sense in (1, -1):
            rows = QueuedRows(grid, 0.037, sense)
            dualcheck._queue_conjugate(
                rows, own, opp, stack, jo, lifts, ti, nodes, None, target,
            )
            (got,) = rows.queued
            want = queued_by_reference(
                grid, 0.037, sense, own, opp, stack, np.broadcast_to(jo, 12), lifts, ti, nodes, target,
            )
            assert len(want[0]) > len(target) or trial % 2 == 0
            for g, w in zip(got, want):
                assert same_bits(g, w), (trial, sense)


@pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan, -1.0])
def test_audits_refuse_bad_tolerances(static_solve, tol):
    with pytest.raises(ConfigError):
        check_dual_solution(static_solve, tol=tol)
    with pytest.raises(ConfigError):
        primal_crosscheck(static_solve, tol=tol)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_audits_refuse_a_non_finite_field(two_sided_solve, bad):
    # a non-finite last q-belief column empties every tie support there;
    # the audits must not read the missing residuals as passing.  A middle
    # slice, which no probe is built from
    values = two_sided_solve.values.copy()
    values[len(values) // 2, ..., -1] = bad
    stub = replace(two_sided_solve, values=values)
    probes = {side: build_probes(two_sided_solve, side) for side in "pq"}
    for audit in (check_dual_solution, primal_crosscheck):
        with pytest.raises(ConfigError, match="finite value field"):
            audit(stub, probes_p=probes["p"], probes_q=probes["q"])


def test_queued_blocks_without_rows_are_settled_in_order(two_sided_solve):
    rows = dualcheck._Rows(two_sided_solve, 1, np.subtract)
    settled = []
    nodes = np.array(_core_nodes(two_sided_solve), dtype=int)
    own, opp = two_sided_solve.grids.p, two_sided_solve.grids.q
    ndim = nodes.shape[1]

    def queue(name, n):
        pick = np.arange(n)
        rows.add(
            np.full(max(n, 1), -np.inf), pick, np.ones(n, dtype=int), nodes[pick % len(nodes)],
            np.zeros((n, ndim)), np.zeros((n, ndim, ndim)), own.points[pick % own.npoints],
            opp.points[0], np.zeros(n), lambda out: settled.append((name, out[:n].copy())),
        )

    # the last two blocks fill no kernel row: one after a full call, one at the end
    queue("empty first", 0)
    queue("full", rows.cap)
    queue("empty after a call", 0)
    queue("partial", 3)
    queue("empty last", 0)
    rows.flush()
    assert [name for name, _ in settled] == [
        "empty first", "full", "empty after a call", "partial", "empty last",
    ]
    assert all(np.isfinite(out).all() for _, out in settled)
    assert not rows.blocks and rows.count == 0


def test_probe_sets_are_deterministic_and_capped(static_solve):
    pp = build_probes(static_solve, "p")
    qq = build_probes(static_solve, "q")
    assert pp.ndim == 2 and pp.shape[1] == static_solve.grids.p.dim
    assert qq.shape[1] == static_solve.grids.q.dim
    assert pp.shape[0] <= 64 and qq.shape[0] <= 64
    np.testing.assert_array_equal(pp, build_probes(static_solve, "p"))
    # coordinate differences are always present
    diff = np.zeros(static_solve.grids.p.dim)
    diff[0], diff[1] = 1.0, -1.0
    assert any(np.array_equal(row, diff) for row in pp)
    with pytest.raises(ConfigError):
        build_probes(static_solve, "x")


def test_build_probes_makes_one_stacked_probe_call_per_side(monkeypatch, two_sided_solve):
    result = two_sided_solve
    flat = result.values
    picks = np.unique(np.linspace(0, 40, num=5).astype(int))
    per_row = {
        "p": [flat[ti, xi, :, jo] for ti in (-1, 0) for xi in picks for jo in range(5)],
        "q": [-flat[ti, xi, jo, :] for ti in (-1, 0) for xi in picks for jo in range(5)],
    }
    calls = []
    inner = dualcheck.facet_slope_probes

    def counted(grid, values):
        calls.append(np.shape(values))
        return inner(grid, values)

    monkeypatch.setattr(dualcheck, "facet_slope_probes", counted)
    for side, grid in (("p", result.grids.p), ("q", result.grids.q)):
        calls.clear()
        probes = build_probes(result, side)
        assert calls == [(2 * picks.size * 5, grid.npoints)]
        # the same probe set as one call per row
        rows = [coordinate_difference_probes(grid.dim)]
        rows += [inner(grid, values) for values in per_row[side]]
        want = np.unique(np.round(np.vstack(rows), 12), axis=0)[:64]
        np.testing.assert_array_equal(probes, want)


def test_audits_refuse_short_stacks(static_solve):
    stub = replace(static_solve, times=static_solve.times[:2], values=static_solve.values[:2])
    with pytest.raises(ConfigError):
        check_dual_solution(stub)
    with pytest.raises(ConfigError):
        primal_crosscheck(stub)


def test_audits_refuse_two_node_axes():
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-0.5, 0.5)], [2]),
        p=build_grid(2, 2),
        q=build_grid(1, 1),
    )
    result = solve(m, grids, t0=0.0, dt=0.05)
    with pytest.raises(ConfigError):
        check_dual_solution(result)


def test_boundary_layer_is_not_audited():
    # fine grid: near-wall residuals are O(1) reflecting-ghost artifacts
    # (~ -0.9 one node in) while the core stays two orders under tolerance
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-1.5, 1.5)], [61]),
        p=build_grid(2, 8),
        q=build_grid(1, 1),
    )
    result = solve(m, grids, t0=0.0, dt=m.horizon / 100)
    report = check_dual_solution(result)
    assert report.supersolution_ok and report.subsolution_ok
    assert abs(report.supersolution_residual) < 0.1
    assert abs(report.subsolution_residual) < 0.1
    assert report.checks_super > 0 and report.checks_sub > 0


def test_audits_refuse_a_box_with_no_core():
    # every moving axis must extend lipschitz_bound * (T - t0) past the
    # audited region; [-0.2, 0.2] is all boundary layer for T = 0.5, L = 1
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-0.2, 0.2)], [5]),
        p=build_grid(2, 2),
        q=build_grid(1, 1),
    )
    result = solve(m, grids, t0=0.0, dt=0.02)
    with pytest.raises(ConfigError):
        check_dual_solution(result)
    with pytest.raises(ConfigError):
        primal_crosscheck(result)
