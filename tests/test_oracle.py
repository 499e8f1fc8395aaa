"""Exact tree values against hand enumeration and structural identities."""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import envelope_reference as ref
import tree_reference
from exact_reference import two_sided_split, two_sided_state_free_config
from infogame import oracle, transform
from infogame.errors import ConfigError
from infogame.model import model_from_config, preset, preset_config, restrict_to_types
from infogame.oracle import (
    TreeGame,
    belief_recursion,
    classical_backward,
    exact_payoff_pq,
    exact_payoff_tree,
    noise_branches,
)
from infogame.simplex import build_grid, discrete_convexity_violation
from infogame.simulator import (
    PureStrategy,
    RandomStrategy,
    StrategyProfile,
    constant_strategy,
    cycle_strategy,
    feedback_from_field,
)
from infogame.solver import Grids, _whole_steps, build_state_grid, cfl_limit, solve
from infogame.transform import vex_p
from test_hamiltonian import planar_model


def one_sided_model(T=0.3):
    return preset("one-sided-drift-1d", T=T)


def one_sided(tree, pg):
    """The recursion on a one-point q lattice, for a game with one v type."""
    return belief_recursion(tree, pg, build_grid(1, 1))


def unit_mix(pure):
    return RandomStrategy(atoms=(pure,), weights=(Fraction(1),))


def test_noise_branches_lexicographic():
    np.testing.assert_array_equal(noise_branches(1), [[-1.0], [1.0]])
    np.testing.assert_array_equal(
        noise_branches(2), [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )


def test_tree_game_validation():
    m = one_sided_model()
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=0, h=0.1)
    # the depth cap belongs to the recursion, which takes every control pair
    deep = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=7, h=0.3 / 7)
    with pytest.raises(ConfigError, match="depth capped at 6"):
        belief_recursion(deep, build_grid(2, 2), build_grid(1, 1))
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=3, h=0.2)  # horizon mismatch
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(2), t0=0.0, steps=3, h=0.1)


@pytest.mark.parametrize(
    "horizon, t0, steps, h, whole",
    [
        (100.0, 99.7, 3, 0.1 + 2e-8, False),  # 6e-8 off: within 1e-9 T, not 1e-9 of the span
        (0.3, -10.0, 3, (10.3 + 5e-9) / 3, True),  # 5e-9 off: within 1e-9 of the span 10.3
    ],
)
def test_the_tree_horizon_follows_the_solvers_whole_steps_rule(horizon, t0, steps, h, whole):
    m = replace(one_sided_model(), horizon=horizon)
    assert (_whole_steps(horizon - t0, h) == steps) == whole
    if whole:
        TreeGame(model=m, x0=np.zeros(1), t0=t0, steps=steps, h=h)
    else:
        with pytest.raises(ConfigError, match="must equal the horizon"):
            TreeGame(model=m, x0=np.zeros(1), t0=t0, steps=steps, h=h)


def test_martingale_terminal_is_start_point():
    """With u = 0 the tree state is a martingale and E g = g-affine at x0."""
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.7]), t0=0.0, steps=3, h=0.1)
    su = constant_strategy(m, "u", index=1)  # u = 0
    sv = constant_strategy(m, "v", index=0)
    # type 0: g = x, l = 0.3 x; running expectation telescopes on the martingale
    val = exact_payoff_tree(tree, 0, 0, su, sv)
    assert val == pytest.approx(0.7 + 0.3 * 0.7 * 0.1 * 3, abs=1e-14)
    val2 = exact_payoff_tree(tree, 1, 0, su, sv)
    assert val2 == pytest.approx(-(0.7 + 0.3 * 0.7 * 0.1 * 3), abs=1e-14)


def test_a_depth_12_payoff_is_the_martingale_closed_form():
    # 4,096 paths: deeper than the recursion's cap, one simulator batch
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.7]), t0=0.0, steps=12, h=0.3 / 12)
    su = constant_strategy(m, "u", index=1)  # u = 0
    sv = constant_strategy(m, "v", index=0)
    want = 0.7 + 0.3 * 0.7 * 0.3  # g = x plus the running 0.3 x over the horizon 0.3
    assert abs(exact_payoff_tree(tree, 0, 0, su, sv) - want) <= 1e-13
    assert abs(exact_payoff_tree(tree, 1, 0, su, sv) + want) <= 1e-13


@pytest.mark.parametrize("steps, refused", [(20, False), (21, True), (40, True)])
def test_a_tree_above_the_memory_cap_is_refused_before_its_paths_are_built(
    monkeypatch, steps, refused
):
    # a path holds 8 (steps + 1) doubles here: 2^20 paths take 1.4 GB, and
    # 2^21 take 3.0 GB, above the cap
    class Enumerated(Exception):
        pass

    def enumerate_none(noise_dim):
        raise Enumerated

    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=steps, h=0.3 / steps)
    su, sv = constant_strategy(m, "u"), constant_strategy(m, "v")
    monkeypatch.setattr(oracle, "noise_branches", enumerate_none)
    expected = pytest.raises(ConfigError, match="2 GiB cap") if refused else pytest.raises(Enumerated)
    with expected:
        exact_payoff_tree(tree, 0, 0, su, sv)


def observing_strategy(model, side, delay_cells):
    """A per-path rule that reads the whole observed path and the
    opponent's controls before the cell start."""
    controls = model.u_set if side == "u" else model.v_set

    def rule(step, x_obs, opp_obs):
        k = len(x_obs) + int(np.sum(opp_obs > 0)) + int(np.sum(x_obs) > 0)
        return controls.values[k % controls.count]

    return PureStrategy(side=side, delay_cells=delay_cells, rule=rule, observes_controls=True)


@functools.lru_cache(maxsize=None)
def solved(name):
    m = preset(name)
    grids = Grids(
        state=build_state_grid([(-2.0, 2.0)], [41]),
        p=build_grid(m.u_types, 4),
        q=build_grid(m.v_types, 4),
    )
    return solve(m, grids, t0=0.0, dt=m.horizon / np.ceil(m.horizon / cfl_limit(m, grids.state)))


def strategy_family(model, side, h, field):
    """Constant, cycle (delays 1-3), observing (delays 1 and 2) and, from
    a solved field, feedback atoms of one side."""
    controls = model.u_set if side == "u" else model.v_set
    family = [constant_strategy(model, side, index=k) for k in range(controls.count)]
    family += [cycle_strategy(model, side, delay_cells=d) for d in (1, 2, 3)]
    family += [observing_strategy(model, side, d) for d in (1, 2)]
    if field is not None:
        p, q = np.full(model.u_types, 1 / model.u_types), np.full(model.v_types, 1 / model.v_types)
        for d in (1, 2):
            family.append(feedback_from_field(model, field, side, p, q, h=h, delay_cells=d)[0].atoms[0])
    return family


def assert_payoffs_equal_the_reference(tree, family_u, family_v):
    model = tree.model
    for i, j in itertools.product(range(model.u_types), range(model.v_types)):
        for su, sv in itertools.product(family_u, family_v):
            got = exact_payoff_tree(tree, i, j, su, sv)
            want = tree_reference.exact_payoff_tree(tree, i, j, su, sv)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("steps", [2, 3, 4])
@pytest.mark.parametrize(
    "name, field",
    [("one-sided-drift-1d", True), ("two-sided-1d", True), ("running-matrix-informed", False)],
)
def test_the_batched_payoff_equals_the_per_node_recursion(name, field, steps):
    m = preset(name)
    h = m.horizon / steps
    result = solved(name) if field else None
    family_u = strategy_family(m, "u", h, result)
    family_v = strategy_family(m, "v", h, result)
    for x0 in (-0.3, 0.2):
        tree = TreeGame(model=m, x0=np.array([x0]), t0=0.0, steps=steps, h=h)
        assert_payoffs_equal_the_reference(tree, family_u, family_v)


@pytest.mark.parametrize("steps", [2, 3])
def test_the_batched_payoff_equals_the_per_node_recursion_on_two_noise_axes(steps):
    # four children per node: the mean adds them in sign order
    m = planar_model()
    h = m.horizon / steps
    tree = TreeGame(model=m, x0=np.array([0.3, -0.2]), t0=0.0, steps=steps, h=h)
    assert_payoffs_equal_the_reference(
        tree, strategy_family(m, "u", h, None), strategy_family(m, "v", h, None)
    )


def test_hand_enumerated_two_step_tree():
    """Full enumeration of a depth-2 tree, written out independently."""
    m = one_sided_model(T=0.2)
    x0, h = 0.5, 0.1
    tree = TreeGame(model=m, x0=np.array([x0]), t0=0.0, steps=2, h=h)
    su = constant_strategy(m, "u", index=0)  # u = -1
    sv = constant_strategy(m, "v", index=0)  # v = 0
    sqrt_h = np.sqrt(h)
    total = 0.0
    for e1, e2 in itertools.product((-1.0, 1.0), repeat=2):
        x1 = x0 + (-1.0) * h + 0.5 * sqrt_h * e1
        x2 = x1 + (-1.0) * h + 0.5 * sqrt_h * e2
        run = 0.3 * x0 * h + 0.3 * x1 * h
        total += 0.25 * (run + x2)
    got = exact_payoff_tree(tree, 0, 0, su, sv)
    assert got == pytest.approx(total, abs=1e-15)


def test_random_strategy_payoff_is_weighted_sum():
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.1]), t0=0.0, steps=3, h=0.1)
    atoms = [constant_strategy(m, "u", index=k) for k in range(3)]
    ru = RandomStrategy(
        atoms=tuple(atoms), weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    )
    rv = unit_mix(constant_strategy(m, "v", index=0))
    want = sum(
        float(w) * exact_payoff_tree(tree, 0, 0, a, rv.atoms[0])
        for a, w in zip(ru.atoms, ru.weights)
    )
    # a one-hot belief picks the type pair's mixture payoff
    prof = StrategyProfile(u_strategies=(ru, unit_mix(atoms[0])), v_strategies=(rv,))
    assert exact_payoff_pq(tree, prof, [1.0, 0.0], [1.0]) == pytest.approx(want, abs=1e-15)


def test_classical_backward_requires_decoupled():
    m = preset("running-matrix")  # bilinear running cost couples the controls
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=2, h=0.25)
    with pytest.raises(ConfigError):
        classical_backward(tree)


def test_classical_backward_drifts_to_hand_value():
    m = one_sided_model()
    mr = restrict_to_types(m, 0, 0)
    tree = TreeGame(model=mr, x0=np.array([0.5]), t0=0.0, steps=3, h=0.1)
    got = classical_backward(tree)
    # g = x increasing, so u = -1 throughout; running cost rides the mean path
    want = (0.5 - 0.3) + 0.3 * 0.1 * (0.5 + 0.4 + 0.3)
    assert got.values.shape == (1, 1)
    assert got.values[0, 0] == pytest.approx(want, abs=1e-14)
    assert len(got.levels) == 4
    # control pairs and noise signs fan out, drifts partially recombine
    assert [len(s) for s in got.states] == [1, 6, 18, 46]


def test_classical_backward_cost_overrides():
    # other costs are a model with other cost tables
    m = replace(
        restrict_to_types(one_sided_model(), 0, 0),
        terminal=((lambda x: 2.0,),),
        running=((lambda t, x, u, v: 0.0,),),
    )
    tree = TreeGame(model=m, x0=np.array([0.0]), t0=0.0, steps=2, h=0.15)
    assert classical_backward(tree).values[0, 0] == 2.0


def test_belief_recursion_refuses_lattices_of_other_dimensions():
    m = preset("two-sided-1d")
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=2, h=0.2)
    for p_dim, q_dim in ((2, 1), (1, 2), (3, 2), (2, 3)):
        with pytest.raises(ConfigError, match="lattice dimensions"):
            belief_recursion(tree, build_grid(p_dim, 2), build_grid(q_dim, 2))


@pytest.mark.parametrize(
    "name, steps, x0",
    [("one-sided-drift-1d", 3, 0.5), ("two-sided-1d", 3, 0.3), ("two-sided-1d", 4, 0.3)],
    ids=["one-sided-drift-1d", "two-sided-1d-3", "two-sided-1d-4"],
)
def test_vertex_values_equal_classical(name, steps, x0):
    # at one-hot beliefs the projected tree evolves like the complete-
    # information tree of that type pair, bit for bit
    m = preset(name)
    tree = TreeGame(model=m, x0=np.array([x0]), t0=0.0, steps=steps, h=m.horizon / steps)
    pg, qg = build_grid(m.u_types, 4), build_grid(m.v_types, 4)
    got = belief_recursion(tree, pg, qg).values
    for i, j in itertools.product(range(m.u_types), range(m.v_types)):
        want = classical_backward(tree, i, j).values[0, 0]
        assert got[pg.vertex_index(i), qg.vertex_index(j)] == want


@pytest.mark.parametrize("resolution", [4, 8])
@pytest.mark.parametrize("steps", [3, 4, 5])
def test_two_sided_tree_splits_into_a_bilinear_part_and_a_state_free_game(steps, resolution):
    # the mean over the children moves (p . q) x by the drift alone, so the
    # tree is (p . q) x0 + phi, phi the state-free game on one node at dt = h
    m = preset("two-sided-1d")
    h = m.horizon / steps
    p, q = build_grid(2, resolution), build_grid(2, resolution)
    tree = TreeGame(model=m, x0=np.array([0.3]), t0=0.0, steps=steps, h=h)
    got = belief_recursion(tree, p, q).values
    node = Grids(state=build_state_grid([(0.0, 0.0)], [1]), p=p, q=q)
    phi = solve(model_from_config(two_sided_state_free_config()), node, t0=0.0, dt=h)
    want = two_sided_split([0.3], p.points, q.points, phi.values[:, 0])[0, 0]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_one_sided_values_convex_in_belief():
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.2]), t0=0.0, steps=3, h=0.1)
    pg = build_grid(2, 6)
    osr = one_sided(tree, pg)
    for level in osr.levels:
        for vec in level.values():
            assert discrete_convexity_violation(pg, vec[:, 0]) <= 1e-12


def test_one_sided_stationary_identity():
    """State-independent games: K steps contribute K h vex(stage) on top of
    the convexified terminal."""
    m = preset("running-matrix-informed")
    K, h = 4, 0.15
    pg = build_grid(2, 8)
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=K, h=h)
    osr = one_sided(tree, pg)
    # stage(p) = min_u max_v sum_i p_i l_i(u, v); terminal already linear
    stage = np.empty(pg.npoints)
    for r, p in enumerate(pg.points):
        table = np.empty((2, 2))
        for a, u in enumerate(m.u_set.values):
            for b, v in enumerate(m.v_set.values):
                table[a, b] = sum(
                    p[i] * float(m.running[i][0](0.0, np.zeros(1), u, v))
                    for i in range(2)
                )
        stage[r] = table.max(axis=1).min()
    g_lin = np.array([0.25 * p[0] - 0.5 * p[1] for p in pg.points])
    want = g_lin + K * h * vex_p(pg, stage)
    np.testing.assert_allclose(osr.values[:, 0], want, rtol=0, atol=1e-12)


def test_one_sided_with_coupled_running_cost():
    """Matrix running costs over the control pairs are allowed; the order
    min over u of max over v is part of the recursion's definition."""
    cfg = {
        "preset": "static-1d",
        "params": {"controls_u": [-1.0, 1.0], "controls_v": [-1.0, 1.0]},
        "I": 2,
        "J": 1,
        "T": 0.4,
        "g": [["zero"], ["zero"]],
        "l": [
            [{"name": "bilinear-uv", "params": {"c": 1.0}}],
            [{"name": "bilinear-uv", "params": {"c": -1.0}}],
        ],
    }
    m = model_from_config(cfg)
    assert not m.decoupled
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=2, h=0.2)
    pg = build_grid(2, 4)
    osr = one_sided(tree, pg)
    # stage: for any u, max_v (p_1 - p_2) u v = |p_1 - p_2|, so the min over u
    # keeps |p_1 - p_2|; that is convex, vex leaves it, and it accrues h per step
    want = 0.4 * np.abs(pg.points[:, 0] - pg.points[:, 1])
    np.testing.assert_allclose(osr.values[:, 0], want, rtol=0, atol=1e-14)


def test_exact_payoff_pq_bilinear():
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.3]), t0=0.0, steps=3, h=0.1)
    ru0 = unit_mix(constant_strategy(m, "u", index=0))
    ru1 = unit_mix(constant_strategy(m, "u", index=2))
    rv = unit_mix(constant_strategy(m, "v", index=0))
    prof = StrategyProfile(u_strategies=(ru0, ru1), v_strategies=(rv,))
    p = [0.25, 0.75]
    lhs = exact_payoff_pq(tree, prof, p, [1.0])
    rhs = 0.25 * exact_payoff_pq(tree, prof, [1.0, 0.0], [1.0]) + 0.75 * exact_payoff_pq(
        tree, prof, [0.0, 1.0], [1.0]
    )
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_tree_size_cap():
    # the caps count every control branch, so they are the recursion's
    m = one_sided_model(T=6.0)
    deep = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=10, h=0.6)
    with pytest.raises(ConfigError, match="depth capped at 6"):
        belief_recursion(deep, build_grid(2, 2), build_grid(1, 1))
    cfg = {
        "preset": "static-1d",
        "params": {
            "controls_u": [float(k) for k in range(40)],
            "controls_v": [float(k) for k in range(40)],
        },
        "I": 1,
        "J": 1,
        "T": 0.6,
        "g": [["zero"]],
    }
    wide = model_from_config(cfg)
    tree = TreeGame(model=wide, x0=np.zeros(1), t0=0.0, steps=5, h=0.12)
    with pytest.raises(ConfigError, match="3200\\^5 nodes exceeds the cap 1e\\+07"):
        belief_recursion(tree, build_grid(1, 1), build_grid(1, 1))


def _three_type_one_sided_model():
    cfg = preset_config("one-sided-drift-1d")
    cfg["I"] = 3
    cfg["T"] = 0.3
    cfg["g"] = [
        [{"name": "tanh", "params": {"center": -0.2, "scale": 2.0, "amp": 1.0}}],
        [{"name": "tanh", "params": {"center": 0.3, "scale": 1.5, "amp": -0.8}}],
        [{"name": "linear", "params": {"a": 0.5, "c": 0.1}}],
    ]
    cfg["l"] = cfg["l"] + [[{"name": "state-linear", "params": {"a": 0.1, "c": -0.05}}]]
    return model_from_config(cfg)


@pytest.mark.parametrize(
    "model, pg, x0",
    [
        (one_sided_model(), build_grid(2, 8), np.array([0.2])),
        (_three_type_one_sided_model(), build_grid(3, 4), np.array([-0.1])),
    ],
    ids=["one-sided-drift-1d", "three-types"],
)
def test_one_sided_recursion_envelopes_each_level_in_one_call(monkeypatch, model, pg, x0):
    tree = TreeGame(model=model, x0=x0, t0=0.0, steps=3, h=0.1)
    calls = []
    inner = transform.vex_rows

    def counted(grid, rows):
        calls.append(rows.shape)
        return inner(grid, rows)

    monkeypatch.setattr(transform, "vex_rows", counted)
    osr = one_sided(tree, pg)  # the one-point q lattice's pass makes no call
    assert calls == [(len(osr.states[k]), pg.npoints) for k in range(tree.steps - 1, -1, -1)]
    # the per-state loop over the reference envelope, from the same terminal level
    pts = pg.points

    def running(t, x, u, v):
        return pts @ np.array([float(model.running[i][0](t, x, u, v)) for i in range(model.u_types)])

    want = [None] * tree.steps + [{key: vec[:, 0] for key, vec in osr.levels[-1].items()}]
    changed = 0
    for k in range(tree.steps - 1, -1, -1):
        want[k] = {}
        for key, x in osr.states[k].items():
            table = tree_reference.stage_table(tree, k, x, want[k + 1], running)
            stage = table.max(axis=1).min(axis=0)
            want[k][key] = ref.vex_row(pg, stage)
            changed += not np.array_equal(want[k][key], stage)
    assert changed > 0  # the envelope is active somewhere
    for got, exp in zip(osr.levels, want):
        assert list(got) == list(exp)
        assert all(got[key][:, 0].tobytes() == exp[key].tobytes() for key in got)


@pytest.mark.parametrize(
    "model, steps, x0, resolution",
    [
        (one_sided_model(), 4, 0.2, 8),
        (_three_type_one_sided_model(), 3, -0.1, 4),
        (preset("two-sided-1d"), 5, 0.3, 4),
        (preset("two-sided-1d"), 5, 0.3, 8),
        (preset("running-matrix-informed"), 4, 0.0, 8),
    ],
    ids=[
        "one-sided-drift-1d", "three-types", "two-sided-1d-4", "two-sided-1d-8",
        "running-matrix-informed",
    ],
)
def test_the_level_sweep_equals_the_per_state_reference(model, steps, x0, resolution):
    tree = TreeGame(model=model, x0=np.array([x0]), t0=0.0, steps=steps, h=model.horizon / steps)
    pg, qg = build_grid(model.u_types, resolution), build_grid(model.v_types, resolution)
    got = belief_recursion(tree, pg, qg)
    want = tree_reference.belief_recursion(tree, pg, qg)
    assert got.values.tobytes() == want.values.tobytes()
    for name in ("levels", "states"):
        for got_level, want_level in zip(getattr(got, name), getattr(want, name), strict=True):
            assert list(got_level) == list(want_level)  # keys in first-reached order
            assert all(got_level[key].tobytes() == want_level[key].tobytes() for key in got_level)


def test_the_recursion_steps_each_level_and_control_pair_once():
    m = preset("two-sided-1d")
    calls = []

    def drift(t, x, u, v):
        calls.append(np.shape(x))
        return m.drift(t, x, u, v)

    steps = 4
    tree = TreeGame(
        model=replace(m, drift=drift), x0=np.array([0.3]), t0=0.0, steps=steps, h=m.horizon / steps
    )
    res = belief_recursion(tree, build_grid(2, 4), build_grid(2, 4))
    pairs = m.u_set.count * m.v_set.count
    assert len(calls) == steps * pairs
    # each call steps the whole level
    assert calls == [(len(res.states[k]), 1) for k in range(steps) for _ in range(pairs)]
