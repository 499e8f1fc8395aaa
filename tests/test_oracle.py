"""Exact tree values against hand enumeration and structural identities."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import envelope_reference as ref
from infogame import oracle
from infogame.errors import ConfigError
from infogame.model import model_from_config, preset, preset_config, restrict_to_types
from infogame.oracle import (
    TreeGame,
    classical_backward,
    exact_payoff_pq,
    exact_payoff_tree,
    noise_branches,
    one_sided_recursion,
)
from infogame.simplex import build_grid, discrete_convexity_violation
from infogame.simulator import RandomStrategy, StrategyProfile, constant_strategy
from infogame.transform import vex_p


def one_sided_model(T=0.3):
    return preset("one-sided-drift-1d", T=T)


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
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=7, h=0.3 / 7)
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=3, h=0.2)  # horizon mismatch
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(2), t0=0.0, steps=3, h=0.1)


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
    assert got.value == pytest.approx(want, abs=1e-14)
    assert len(got.levels) == 4
    # control pairs and noise signs fan out, drifts partially recombine
    assert [len(s) for s in got.states] == [1, 6, 18, 46]


def test_classical_backward_cost_overrides():
    m = restrict_to_types(one_sided_model(), 0, 0)
    tree = TreeGame(model=m, x0=np.array([0.0]), t0=0.0, steps=2, h=0.15)
    flat = classical_backward(tree, g=lambda x: 2.0, l=lambda t, x, u, v: 0.0)
    assert flat.value == 2.0


def test_one_sided_requires_single_v_type():
    m = preset("two-sided-1d")
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=2, h=0.2)
    with pytest.raises(ConfigError):
        one_sided_recursion(tree, build_grid(2, 2))


def test_one_sided_vertices_equal_classical():
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.5]), t0=0.0, steps=3, h=0.1)
    pg = build_grid(2, 4)
    osr = one_sided_recursion(tree, pg)
    for i in range(2):
        mr = restrict_to_types(m, i, 0)
        tr = TreeGame(model=mr, x0=np.array([0.5]), t0=0.0, steps=3, h=0.1)
        want = classical_backward(tr).value
        assert osr.values[pg.vertex_index(i)] == pytest.approx(want, abs=1e-12)


def test_one_sided_values_convex_in_belief():
    m = one_sided_model()
    tree = TreeGame(model=m, x0=np.array([0.2]), t0=0.0, steps=3, h=0.1)
    pg = build_grid(2, 6)
    osr = one_sided_recursion(tree, pg)
    assert discrete_convexity_violation(pg, osr.values) <= 1e-12
    for level in osr.levels:
        for vec in level.values():
            assert discrete_convexity_violation(pg, vec) <= 1e-12


def test_one_sided_stationary_identity():
    """State-independent games: K steps contribute K h vex(stage) on top of
    the convexified terminal."""
    m = preset("running-matrix-informed")
    K, h = 4, 0.15
    pg = build_grid(2, 8)
    tree = TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=K, h=h)
    osr = one_sided_recursion(tree, pg)
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
    np.testing.assert_allclose(osr.values, want, rtol=0, atol=1e-12)


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
    osr = one_sided_recursion(tree, pg)
    # stage: for any u, max_v (p_1 - p_2) u v = |p_1 - p_2|, so the min over u
    # keeps |p_1 - p_2|; that is convex, vex leaves it, and it accrues h per step
    want = 0.4 * np.abs(pg.points[:, 0] - pg.points[:, 1])
    np.testing.assert_allclose(osr.values, want, rtol=0, atol=1e-14)


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
    m = one_sided_model(T=6.0)
    with pytest.raises(ConfigError):
        TreeGame(model=m, x0=np.zeros(1), t0=0.0, steps=10, h=0.6)
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
    with pytest.raises(ConfigError):
        TreeGame(model=wide, x0=np.zeros(1), t0=0.0, steps=5, h=0.12)


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
    inner = oracle.vex_rows

    def counted(grid, rows):
        calls.append(rows.shape)
        return inner(grid, rows)

    monkeypatch.setattr(oracle, "vex_rows", counted)
    osr = one_sided_recursion(tree, pg)
    assert calls == [(len(osr.states[k]), pg.npoints) for k in range(tree.steps - 1, -1, -1)]
    # the per-state loop over the reference envelope, from the same terminal level
    pts = pg.points

    def running(t, x, u, v):
        return pts @ np.array([float(model.running[i][0](t, x, u, v)) for i in range(model.u_types)])

    want = [None] * tree.steps + [osr.levels[-1]]
    changed = 0
    for k in range(tree.steps - 1, -1, -1):
        want[k] = {}
        for key, x in osr.states[k].items():
            stage = oracle._stage_table(tree, k, x, want[k + 1], running).max(axis=1).min(axis=0)
            want[k][key] = ref.vex_row(pg, stage)
            changed += not np.array_equal(want[k][key], stage)
    assert changed > 0  # the envelope is active somewhere
    for got, exp in zip(osr.levels, want):
        assert list(got) == list(exp)
        assert all(got[key].tobytes() == exp[key].tobytes() for key in got)
