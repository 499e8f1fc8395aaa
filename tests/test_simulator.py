"""Path simulation: noise streams, delay discipline, payoff estimators."""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest

from infogame import simulator
from infogame._util import pairwise_mean, pairwise_sum
from infogame.errors import ConfigError
from infogame.model import preset
from infogame.oracle import TreeGame, exact_payoff_pq
from infogame.simplex import build_grid
from infogame.simulator import (
    PureStrategy,
    RandomStrategy,
    StrategyProfile,
    constant_strategy,
    cycle_strategy,
    feedback_from_field,
    observation_window,
    payoff_matrix,
    payoff_path,
    payoff_pq,
    payoff_samples,
    resolve_controls,
    sample_noise,
    split_mix,
    strategy_control,
)
from infogame.solver import build_state_grid, Grids, SolveResult, solve


def unit_mix(pure: PureStrategy) -> RandomStrategy:
    return RandomStrategy(atoms=(pure,), weights=(Fraction(1),))


def zero_noise(steps: int, dim: int = 1) -> np.ndarray:
    """A batch of one path of zero increments."""
    return np.zeros((1, steps, dim))


# ---------------------------------------------------------------- noise


def test_noise_stream_matches_spawned_seed_sequence():
    got = sample_noise(seed=11, sample_index=3, steps=5, noise_dim=2, h=0.04)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(3,)))
    want = rng.standard_normal((5, 2)) * np.sqrt(0.04)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (5, 2)


def test_noise_samples_are_independent_streams():
    a = sample_noise(seed=11, sample_index=0, steps=4, noise_dim=1, h=0.1)
    b = sample_noise(seed=11, sample_index=1, steps=4, noise_dim=1, h=0.1)
    assert not np.array_equal(a, b)
    again = sample_noise(seed=11, sample_index=1, steps=4, noise_dim=1, h=0.1)
    np.testing.assert_array_equal(b, again)


def test_rademacher_noise_values():
    got = sample_noise(seed=7, sample_index=0, steps=64, noise_dim=1, h=0.25, kind="rademacher")
    assert set(np.unique(got)) == {-0.5, 0.5}
    with pytest.raises(ConfigError):
        sample_noise(seed=7, sample_index=0, steps=4, noise_dim=1, h=0.25, kind="uniform")


# ------------------------------------------------------- delay discipline


def test_observation_window_floors_to_cell_start():
    s = PureStrategy(side="u", delay_cells=3, rule=lambda *a: 0.0)
    assert [observation_window(s, k) for k in range(7)] == [0, 0, 0, 3, 3, 3, 6]


def test_strategy_sees_only_the_cell_start_prefix():
    m = preset("drift-sum-1d")
    seen = []

    def spy(step, x_obs, opp_obs):
        seen.append((step, len(x_obs), None if opp_obs is None else len(opp_obs)))
        return m.u_set.values[0]

    su = PureStrategy(side="u", delay_cells=3, rule=spy, observes_controls=True)
    sv = constant_strategy(m, "v", index=0)
    resolve_controls(m, su, sv, np.zeros(1), zero_noise(steps=7), 0.1)
    want = [(k, (k // 3) * 3 + 1, (k // 3) * 3) for k in range(7)]
    assert seen == want


def test_strategy_requires_opponent_path_when_observing():
    m = preset("drift-sum-1d")
    s = PureStrategy(side="u", delay_cells=1, rule=lambda *a: 0.0, observes_controls=True)
    with pytest.raises(ConfigError):
        strategy_control(s, m.u_set, 0, np.zeros((1, 1)), None)


def test_rule_output_is_canonicalized_to_the_declared_set():
    m = preset("drift-sum-1d")
    # off-grid outputs snap only within tolerance, otherwise refuse
    s = PureStrategy(side="u", delay_cells=1, rule=lambda *a: 7.7)
    with pytest.raises(Exception):
        strategy_control(s, m.u_set, 0, np.zeros((1, 1)), None)


def test_strategy_validation():
    with pytest.raises(ConfigError):
        PureStrategy(side="w", delay_cells=1, rule=lambda *a: 0.0)
    with pytest.raises(ConfigError):
        PureStrategy(side="u", delay_cells=0, rule=lambda *a: 0.0)


# ---------------------------------------------------------- resolution


def test_resolution_matches_hand_euler():
    m = preset("drift-sum-1d")  # dx = (u + v) dt + dW
    su = cycle_strategy(m, "u")  # alternates the two u points each step
    sv = constant_strategy(m, "v", index=1)
    noise = sample_noise(seed=5, sample_index=0, steps=4, noise_dim=1, h=0.25)
    res = resolve_controls(m, su, sv, np.array([0.2]), noise[None], 0.25)
    x = np.array([0.2])
    for k in range(4):
        u = m.u_set.values[k % m.u_set.count]
        v = m.v_set.values[1]
        np.testing.assert_array_equal(res.u_path[0, k], u)
        np.testing.assert_array_equal(res.v_path[0, k], v)
        x = x + (u + v) * 0.25 + noise[k]
        np.testing.assert_allclose(res.x_path[0, k + 1], x, rtol=0, atol=0)
    # one path without its batch axis is refused, not read as a batch of steps
    with pytest.raises(ConfigError):
        resolve_controls(m, su, sv, np.array([0.2]), noise, 0.25)


def test_resolution_replay_is_nonanticipative():
    """Recomputing any control from the truncated past reproduces it exactly."""
    m = preset("two-sided-1d")

    def chase(step, x_obs, opp_obs):
        # sign feedback on the newest observable node
        return m.u_set.values[0] if x_obs[-1][0] > 0 else m.u_set.values[-1]

    def mirror(step, x_obs, opp_obs):
        if opp_obs is None or len(opp_obs) == 0:
            return m.v_set.values[0]
        return m.v_set.values[0] if opp_obs[-1][0] < 0 else m.v_set.values[-1]

    su = PureStrategy(side="u", delay_cells=2, rule=chase)
    sv = PureStrategy(side="v", delay_cells=3, rule=mirror, observes_controls=True)
    noise = sample_noise(seed=9, sample_index=2, steps=12, noise_dim=1, h=0.05)
    res = resolve_controls(m, su, sv, np.array([0.1]), noise[None], 0.05, t0=0.0)
    x_path, u_path, v_path = res.x_path[0], res.u_path[0], res.v_path[0]
    for k in range(12):
        u_k = strategy_control(su, m.u_set, k, x_path[: k + 1], None)
        v_k = strategy_control(sv, m.v_set, k, x_path[: k + 1], u_path[:k])
        np.testing.assert_array_equal(u_k, u_path[k])
        np.testing.assert_array_equal(v_k, v_path[k])


def test_payoff_path_uses_left_rule():
    m = preset("one-sided-drift-1d")
    su = constant_strategy(m, "u", index=0)
    sv = constant_strategy(m, "v", index=0)
    res = resolve_controls(m, su, sv, np.array([0.5]), zero_noise(steps=3), 0.1)
    x_path = res.x_path[0]
    # l_00 = 0.3 x, g_00 = x: integral samples x at the left endpoints
    want = 0.1 * 0.3 * sum(float(x_path[k][0]) for k in range(3)) + float(x_path[-1][0])
    assert payoff_path(m, 0, 0, res).shape == (1,)
    assert payoff_path(m, 0, 0, res)[0] == pytest.approx(want, abs=1e-15)


# ----------------------------------------------------------- estimators


def test_payoff_matrix_is_deterministic_in_the_seed():
    m = preset("drift-sum-1d")
    profile = StrategyProfile(
        u_strategies=(unit_mix(constant_strategy(m, "u", index=1)),),
        v_strategies=(unit_mix(cycle_strategy(m, "v")),),
    )
    a = payoff_matrix(m, profile, np.zeros(1), h=0.1, samples=40, seed=3)
    b = payoff_matrix(m, profile, np.zeros(1), h=0.1, samples=40, seed=3)
    c = payoff_matrix(m, profile, np.zeros(1), h=0.1, samples=40, seed=4)
    for got, again in zip(a, b):
        np.testing.assert_array_equal(got, again)
    assert a[0][0, 0] != c[0][0, 0]


def test_payoff_matrix_rejects_bad_profiles_and_steps():
    m = preset("two-sided-1d")  # two types on each side, T = 0.4
    ru = unit_mix(constant_strategy(m, "u"))
    rv = unit_mix(constant_strategy(m, "v"))
    full = StrategyProfile(u_strategies=(ru, ru), v_strategies=(rv, rv))
    short = StrategyProfile(u_strategies=(ru,), v_strategies=(rv, rv))
    x0 = np.zeros(1)
    with pytest.raises(ConfigError):
        payoff_matrix(m, short, x0, h=0.1, samples=2)
    with pytest.raises(ConfigError):
        payoff_pq(m, short, [1.0], [0.5, 0.5], x0, h=0.1, samples=2)
    for bad in (
        dict(h=0.3, samples=2),  # does not divide T
        dict(h=0.0, samples=2),
        dict(h=-0.1, samples=2),
        dict(h=float("nan"), samples=2),
        dict(h=0.1, t0=float("nan"), samples=2),
        dict(h=0.1, samples=0),
        dict(h=0.1, samples=2, seed=-1),
    ):
        with pytest.raises(ConfigError):
            payoff_matrix(m, full, x0, **bad)
    with pytest.raises(ConfigError):
        payoff_matrix(m, full, np.array([np.nan]), h=0.1, samples=2)


def test_payoff_pq_is_exactly_bilinear():
    m = preset("two-sided-1d")
    profile = StrategyProfile(
        u_strategies=(
            unit_mix(constant_strategy(m, "u", index=0)),
            unit_mix(cycle_strategy(m, "u")),
        ),
        v_strategies=(
            unit_mix(constant_strategy(m, "v", index=1)),
            unit_mix(cycle_strategy(m, "v")),
        ),
    )
    kw = dict(h=0.05, samples=24, seed=12)
    p = np.array([0.3, 0.7])
    q = np.array([0.25, 0.75])
    got = payoff_pq(m, profile, p, q, np.array([0.1]), **kw)
    ests, _ = payoff_matrix(m, profile, np.array([0.1]), **kw)
    want = 0.0
    for i in range(2):
        for j in range(2):
            want += float(p[i] * q[j]) * ests[i, j]
    assert got.estimate == want  # identical arithmetic, not just close
    assert got.stderr > 0.0


def pairwise_stderr(values):
    mean = pairwise_mean(values)
    return float(np.sqrt(pairwise_sum((values - mean) ** 2) / (values.size - 1) / values.size))


def reference_estimates(model, profile, p, q, x0, *, h, samples, seed):
    """Per-type-pair loop: each (i, j) resolves its own atom pairs anew.

    Returns the estimate and standard error matrices and the
    belief-weighted estimate and standard error, the latter from
    per-sample values summed term by term with weight
    float(p_i q_j) * float(wu wv).
    """
    steps = int(round(model.horizon / h))
    values = np.zeros((samples, model.u_types, model.v_types))
    combined = np.zeros(samples)
    for s in range(samples):
        noise = sample_noise(seed, s, steps, model.noise_dim, h)[None]
        for i, ru in enumerate(profile.u_strategies):
            for j, rv in enumerate(profile.v_strategies):
                for au, wu in zip(ru.atoms, ru.weights):
                    for av, wv in zip(rv.atoms, rv.weights):
                        res = resolve_controls(model, au, av, x0, noise, h)
                        payoff = payoff_path(model, i, j, res)[0]
                        values[s, i, j] += float(wu * wv) * payoff
                        combined[s] += float(p[i] * q[j]) * float(wu * wv) * payoff
    ests = np.empty(values.shape[1:])
    errs = np.empty_like(ests)
    estimate = 0.0
    for i in range(len(p)):
        for j in range(len(q)):
            ests[i, j] = pairwise_mean(values[:, i, j])
            errs[i, j] = pairwise_stderr(values[:, i, j])
            estimate += float(p[i] * q[j]) * ests[i, j]
    return ests, errs, estimate, pairwise_stderr(combined)


def split_mix_case():
    """The mixed profile and belief of acceptance criterion 6."""
    m = preset("one-sided-drift-1d")
    fam1 = [unit_mix(constant_strategy(m, "u", index=k)) for k in (0, 2)]
    fam2 = [unit_mix(cycle_strategy(m, "u"))] * 2
    mixed, belief = split_mix(
        fam1, fam2, Fraction(2, 5), [Fraction(1, 4), Fraction(3, 4)], [Fraction(1, 2)] * 2
    )
    rv = (unit_mix(constant_strategy(m, "v", index=0)),)
    profile = StrategyProfile(u_strategies=tuple(mixed), v_strategies=rv)
    return m, profile, np.array([float(b) for b in belief]), np.array([1.0]), m.horizon / 3


def pure_case():
    m = preset("two-sided-1d")
    profile = StrategyProfile(
        u_strategies=(
            unit_mix(constant_strategy(m, "u", index=0)),
            unit_mix(cycle_strategy(m, "u")),
        ),
        v_strategies=(unit_mix(cycle_strategy(m, "v")), unit_mix(cycle_strategy(m, "v"))),
    )
    return m, profile, np.array([0.3, 0.7]), np.array([0.25, 0.75]), 0.05


@pytest.mark.parametrize("case, stderr_rtol", [(pure_case, 0.0), (split_mix_case, 1e-13)])
def test_one_pass_matches_a_per_type_pair_loop(case, stderr_rtol):
    m, profile, p, q, h = case()
    kw = dict(h=h, samples=60, seed=12)
    x0 = np.array([0.2])
    ests, errs, estimate, stderr = reference_estimates(m, profile, p, q, x0, **kw)
    got_ests, got_errs = payoff_matrix(m, profile, x0, **kw)
    got = payoff_pq(m, profile, p, q, x0, **kw)
    np.testing.assert_array_equal(got_ests, ests)
    np.testing.assert_array_equal(got_errs, errs)
    assert got.estimate == estimate
    assert got.stderr == pytest.approx(stderr, rel=stderr_rtol, abs=0.0)
    assert got.stderr > 0.0


def delayed_case():
    m = preset("two-sided-1d")
    ru = unit_mix(constant_strategy(m, "u", index=1, delay_cells=2))
    rv = unit_mix(cycle_strategy(m, "v", delay_cells=2))
    return m, StrategyProfile(u_strategies=(ru, ru), v_strategies=(rv, rv)), 0.05, 0.2


@functools.lru_cache(maxsize=1)
def two_sided_solve():
    m = preset("two-sided-1d")
    grids = Grids(state=build_state_grid([(-2.0, 2.0)], [21]), p=build_grid(2, 4), q=build_grid(2, 4))
    return m, solve(m, grids, t0=0.0, dt=0.02)


def feedback_case():
    m, result = two_sided_solve()
    fb = feedback_from_field(m, result, "u", [0.3, 0.7], [0.5, 0.5], h=0.02, delay_cells=2)
    rv = unit_mix(cycle_strategy(m, "v"))
    # near x = 1.4 the pick changes with the state and the time
    return m, StrategyProfile(u_strategies=tuple(fb), v_strategies=(rv, rv)), 0.02, 1.4


def observing_case():
    m = preset("two-sided-1d")

    def chase(step, x_obs, opp_obs):
        return m.u_set.values[0] if x_obs[-1][0] > 0 else m.u_set.values[-1]

    def mirror(step, x_obs, opp_obs):
        if len(opp_obs) == 0:
            return m.v_set.values[step % m.v_set.count]
        return m.v_set.values[0] if opp_obs[-1][0] < 0 else m.v_set.values[-1]

    ru = unit_mix(PureStrategy(side="u", delay_cells=2, rule=chase))
    rv = unit_mix(PureStrategy(side="v", delay_cells=3, rule=mirror, observes_controls=True))
    mixed = RandomStrategy(
        atoms=(cycle_strategy(m, "v"), rv.atoms[0]), weights=(Fraction(1, 3), Fraction(2, 3))
    )
    return m, StrategyProfile(u_strategies=(ru, ru), v_strategies=(rv, mixed)), 0.05, 0.2


def split_case():
    m, profile, _, _, h = split_mix_case()
    return m, profile, h, 0.2


def scalar_resolution(model, su, sv, x0, noise, h):
    """The per-path step loop over one path's (steps, noise_dim) increments:
    one rule call and one Euler step at a time."""
    steps = len(noise)
    x = np.empty((steps + 1, model.state_dim))
    x[0] = x0
    u_rows = np.empty((steps, model.u_set.dim))
    v_rows = np.empty((steps, model.v_set.dim))
    for k in range(steps):
        u_rows[k] = strategy_control(su, model.u_set, k, x[: k + 1], v_rows[:k])
        v_rows[k] = strategy_control(sv, model.v_set, k, x[: k + 1], u_rows[:k])
        b = model.drift(k * h, x[k], u_rows[k], v_rows[k])
        sig = model.diffusion(k * h, x[k], u_rows[k], v_rows[k])
        x[k + 1] = x[k] + b * h + sig @ noise[k]
    return x, u_rows, v_rows


def scalar_payoff(model, i, j, x, u, v, h):
    run = 0.0
    for k in range(len(u)):
        run += float(model.running[i][j](k * h, x[k], u[k], v[k])) * h
    return run + float(model.terminal[i][j](x[-1]))


@pytest.mark.parametrize("case", [delayed_case, feedback_case, split_case, observing_case])
def test_batch_matches_a_per_sample_loop(case):
    m, profile, h, x0 = case()
    samples, seed, x0 = 23, 4, np.array([x0])
    steps = int(round(m.horizon / h))
    want = np.zeros((samples, m.u_types, m.v_types))
    for s in range(samples):
        noise = sample_noise(seed, s, steps, m.noise_dim, h)
        for i, ru in enumerate(profile.u_strategies):
            for j, rv in enumerate(profile.v_strategies):
                for au, wu in zip(ru.atoms, ru.weights):
                    for av, wv in zip(rv.atoms, rv.weights):
                        res = resolve_controls(m, au, av, x0, noise[None], h)
                        payoff = payoff_path(m, i, j, res)[0]
                        want[s, i, j] += float(wu * wv) * payoff
                        x, u, v = scalar_resolution(m, au, av, x0, noise, h)
                        np.testing.assert_array_equal(res.x_path[0], x)
                        np.testing.assert_array_equal(res.u_path[0], u)
                        np.testing.assert_array_equal(res.v_path[0], v)
                        assert payoff == scalar_payoff(m, i, j, x, u, v, h)
    got = payoff_samples(m, profile, x0, h=h, samples=samples, seed=seed)
    np.testing.assert_array_equal(got, want)


def test_chunk_size_does_not_change_the_table(monkeypatch):
    for case in (delayed_case, feedback_case, observing_case, split_case):
        m, profile, h, x0 = case()
        tables = []
        for cap in (1, 2**40):  # one sample per chunk, then all of them in one
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", cap)
            tables.append(payoff_samples(m, profile, np.array([x0]), h=h, samples=17, seed=6))
        assert tables[0].tobytes() == tables[1].tobytes()


def test_feedback_refuses_a_start_before_the_first_slice():
    m, result = two_sided_solve()
    late = SolveResult(
        model=m, grids=result.grids, t0=result.times[10], dt=result.dt,
        times=result.times[10:], values=result.values[10:],
    )
    for t0 in (0.0, late.t0 - 1e-6):
        with pytest.raises(ConfigError):
            feedback_from_field(m, late, "u", [0.5, 0.5], [0.5, 0.5], t0=t0, h=0.02)
    # from its own start, the late solve replays the full solve's picks
    x = np.linspace(-2.5, 2.5, 41)[:, None]
    for cell in range(10):
        picks = [
            feedback_from_field(m, r, "u", [0.3, 0.7], [0.5, 0.5], t0=late.t0, h=0.02)[0]
            .atoms[0].select(cell, x)
            for r in (result, late)
        ]
        np.testing.assert_array_equal(picks[0], picks[1])


def test_estimates_do_not_depend_on_thread_count(monkeypatch):
    m = preset("drift-sum-1d")
    profile = StrategyProfile(
        u_strategies=(unit_mix(cycle_strategy(m, "u")),),
        v_strategies=(unit_mix(constant_strategy(m, "v", index=1)),),
    )
    out = {}
    for n in ("1", "4"):
        monkeypatch.setenv("INFOGAME_THREADS", n)
        out[n] = payoff_matrix(m, profile, np.zeros(1), h=0.1, samples=33, seed=8)
    for got, want in zip(out["1"], out["4"]):
        np.testing.assert_array_equal(got, want)


def test_mixture_weight_validation():
    m = preset("drift-sum-1d")
    a = constant_strategy(m, "u", index=0)
    b = constant_strategy(m, "u", index=1)
    with pytest.raises(ConfigError):
        RandomStrategy(atoms=(a, b), weights=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ConfigError):
        RandomStrategy(atoms=(a,), weights=(Fraction(1), Fraction(0)))
    with pytest.raises(ConfigError):
        RandomStrategy(
            atoms=(a, constant_strategy(m, "v")), weights=(Fraction(1, 2), Fraction(1, 2))
        )


# ------------------------------------------------------------ splitting


def test_split_mix_belief_arithmetic():
    m = preset("one-sided-drift-1d")
    fam1 = [unit_mix(constant_strategy(m, "u", index=k)) for k in (0, 1)]
    fam2 = [unit_mix(constant_strategy(m, "u", index=k)) for k in (2, 0)]
    mixed, belief = split_mix(
        fam1, fam2, Fraction(1, 3), [Fraction(1, 2), Fraction(1, 2)], [1, 0]
    )
    assert belief == (Fraction(5, 6), Fraction(1, 6))
    # type 0: mass 1/3 * 1/2 from fam1 and 2/3 * 1 from fam2, renormalized by 5/6
    assert mixed[0].weights == (Fraction(1, 5), Fraction(4, 5))
    # type 1: fam2 has zero mass there, so only fam1's atom survives at weight 1
    assert mixed[1].weights == (Fraction(1), Fraction(0))
    assert sum(mixed[0].weights) == 1


def test_split_mix_zero_mass_keeps_first_family():
    m = preset("one-sided-drift-1d")
    fam1 = [unit_mix(constant_strategy(m, "u", index=0))] * 2
    fam2 = [unit_mix(constant_strategy(m, "u", index=1))] * 2
    mixed, belief = split_mix(fam1, fam2, Fraction(1, 2), [1, 0], [1, 0])
    assert belief == (Fraction(1), Fraction(0))
    assert mixed[1] is fam1[1]


def test_split_mix_rejects_bad_inputs():
    m = preset("one-sided-drift-1d")
    fam = [unit_mix(constant_strategy(m, "u"))] * 2
    with pytest.raises(ConfigError):
        split_mix(fam, fam, Fraction(3, 2), [1, 0], [1, 0])
    with pytest.raises(ConfigError):
        split_mix(fam, fam, Fraction(1, 2), [Fraction(1, 2), Fraction(1, 3)], [1, 0])
    with pytest.raises(ConfigError):
        split_mix(fam, fam, Fraction(1, 2), [1, 0], [1])


def test_split_mix_reproduces_the_payoff_split_on_a_tree():
    """Playing the merged mixture under the merged belief equals the convex
    combination of the two original informed payoffs."""
    m = preset("one-sided-drift-1d")
    tree = TreeGame(model=m, x0=np.array([0.2]), t0=0.0, steps=5, h=0.1)
    fam1 = [unit_mix(constant_strategy(m, "u", index=k)) for k in (0, 2)]
    fam2 = [unit_mix(cycle_strategy(m, "u"))] * 2
    rv = (unit_mix(constant_strategy(m, "v", index=0)),)
    a = Fraction(2, 5)
    p1 = [Fraction(1, 4), Fraction(3, 4)]
    p2 = [Fraction(1, 2), Fraction(1, 2)]
    mixed, belief = split_mix(fam1, fam2, a, p1, p2)
    q = np.array([1.0])
    lhs = exact_payoff_pq(
        tree,
        StrategyProfile(u_strategies=tuple(mixed), v_strategies=rv),
        np.array([float(b) for b in belief]),
        q,
    )
    v1 = exact_payoff_pq(
        tree,
        StrategyProfile(u_strategies=tuple(fam1), v_strategies=rv),
        np.array([float(b) for b in p1]),
        q,
    )
    v2 = exact_payoff_pq(
        tree,
        StrategyProfile(u_strategies=tuple(fam2), v_strategies=rv),
        np.array([float(b) for b in p2]),
        q,
    )
    want = float(a) * v1 + float(1 - a) * v2
    assert lhs == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------- field feedback


def test_feedback_from_field_is_deterministic_and_admissible():
    m = preset("one-sided-drift-1d")
    grids = Grids(
        state=build_state_grid([(-1.5, 1.5)], [31]),
        p=build_grid(2, 4),
        q=build_grid(1, 1),
    )
    result = solve(m, grids, t0=0.0, dt=0.005)
    h = 0.025  # five solver steps per simulation step
    strategies = feedback_from_field(
        m, result, "u", [0.5, 0.5], [1.0], h=h, delay_cells=2
    )
    assert len(strategies) == m.u_types
    su = strategies[0].atoms[0]
    sv = constant_strategy(m, "v", index=0)
    noise = sample_noise(seed=21, sample_index=0, steps=20, noise_dim=1, h=h)[None]
    res1 = resolve_controls(m, su, sv, np.array([0.3]), noise, h)
    res2 = resolve_controls(m, su, sv, np.array([0.3]), noise, h)
    np.testing.assert_array_equal(res1.x_path, res2.x_path)
    np.testing.assert_array_equal(res1.u_path, res2.u_path)
    for row in res1.u_path[0]:
        m.u_set.index_of(row)  # raises if not an admissible point
