"""Frozen control-scan values and structural identities.

Reference values were computed by enumerating the control tables by
hand; they pin both the minimax orders and the sign with which the
running term enters each variant.  The batched kernel is checked bitwise
against a scalar loop over points and control pairs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from infogame.errors import ConfigError
from infogame.hamiltonian import _gaps, ham_bellman_inf_sup, pair_table, sample_isaacs_gap
from infogame.model import preset, running_matrix

PRESETS = (
    "drift-sum-1d",
    "coupled-1d",
    "static-bilinear",
    "running-matrix",
    "running-matrix-informed",
    "one-sided-drift-1d",
    "two-sided-1d",
)


def one_point(model, grad, hess, p=None, q=None, run_sign=-1.0):
    """Control-pair table at x = 0 for a 1-d state; beliefs default to uniform."""
    p = np.full(model.u_types, 1.0 / model.u_types) if p is None else np.asarray(p, dtype=float)
    q = np.full(model.v_types, 1.0 / model.v_types) if q is None else np.asarray(q, dtype=float)
    return pair_table(
        model, 0.0, np.zeros(1), np.atleast_1d(np.asarray(grad, dtype=float)),
        np.atleast_2d(np.asarray(hess, dtype=float)), p, q, run_sign,
    )


def inf_sup(table):
    """min over u of max over v."""
    return float(table.max(axis=-1).min(axis=-1))


def sup_inf(table):
    """max over v of min over u."""
    return float(table.min(axis=-2).max(axis=-1))


def test_drift_sum_saddle_cancels():
    m = preset("drift-sum-1d")
    # b = u + v over {-1,0,1}^2: minimax of (u+v) grad is 0 for any grad
    assert inf_sup(one_point(m, 2.0, 0.0)) == 0.0
    assert sup_inf(one_point(m, 2.0, 0.0)) == 0.0
    table = one_point(m, -3.7, 0.0)
    assert inf_sup(table) - sup_inf(table) == 0.0


def test_diffusion_term_is_half_trace():
    m = preset("drift-sum-1d")  # sigma = 1
    assert inf_sup(one_point(m, 0.0, 2.0)) == 1.0
    assert inf_sup(one_point(m, 0.0, -4.0)) == -2.0


def test_constant_running_enters_negatively():
    m = preset(
        "static-bilinear",
        l=[[{"name": "const", "params": {"c": 1.0}}] * 2] * 2,
    )
    # literal convention: H carries -sum l p q, so l = c gives -c
    assert inf_sup(one_point(m, 0.0, 0.0)) == -1.0
    assert sup_inf(one_point(m, 0.0, 0.0)) == -1.0
    # game-role variant carries +sum l p q
    uniform = np.full(2, 0.5)
    assert ham_bellman_inf_sup(m, 0.0, np.zeros(1), np.zeros(1), np.zeros((1, 1)), uniform, uniform) == 1.0


def test_coupled_game_order_gap():
    m = preset("coupled-1d")  # b = 4 u v over {-1,1}^2
    table = one_point(m, 1.0, 0.0)
    assert inf_sup(table) == 4.0
    assert sup_inf(table) == -4.0
    # the Isaacs gap is inf-sup minus sup-inf of one table
    assert inf_sup(table) - sup_inf(table) == 8.0


def test_pair_table_shape_and_beliefs():
    m = preset("running-matrix-informed")
    t = one_point(m, 0.0, 0.0, [1.0, 0.0], [1.0], run_sign=1.0)
    assert t.shape == (2, 2)
    # l_0(u, v) = u + 0.4 v at the four corners
    np.testing.assert_allclose(t, [[-1.4, -0.6], [0.6, 1.4]], atol=1e-15)
    batch = pair_table(
        m, np.zeros((3, 1)), np.zeros((3, 1, 1)), np.zeros((1, 4, 1)), np.zeros((1, 1, 1)),
        np.array([1.0, 0.0]), np.array([1.0]), 1.0,
    )
    assert batch.shape == (3, 4, 2, 2)
    assert np.array_equal(batch, np.broadcast_to(t, batch.shape))


def reference_table(model, t, x, grad, hess, p, q, run_sign):
    """One point and one control pair at a time, in the kernel's order."""
    n = model.state_dim
    out = np.empty((model.u_set.count, model.v_set.count))
    for a, u in enumerate(model.u_set.values):
        for b, v in enumerate(model.v_set.values):
            drift = model.drift(t, x, u, v)
            sig = model.diffusion(t, x, u, v)
            cov = sig @ sig.T
            total = 0.0
            for k in range(n):
                total = total + drift[k] * grad[k]
                total = total + 0.5 * cov[k, k] * hess[k, k]
            for k in range(n):
                for l in range(k + 1, n):
                    total = total + cov[k, l] * hess[k, l]
            if run_sign != 0.0 and model.has_running:
                lmat = running_matrix(model, t, x, u, v)
                run = 0.0
                for i in range(model.u_types):
                    for j in range(model.v_types):
                        run = run + lmat[i, j] * p[i] * q[j]
                total = total + run_sign * run
            out[a, b] = total
    return out


def random_batch(model, rng, size):
    n = model.state_dim
    raw = rng.standard_normal((size, n, n))
    return (
        rng.uniform(0.0, model.horizon, size),
        rng.uniform(-2.0, 2.0, (size, n)),
        rng.standard_normal((size, n)),
        0.5 * (raw + np.swapaxes(raw, -1, -2)),
        rng.dirichlet(np.ones(model.u_types), size),
        rng.dirichlet(np.ones(model.v_types), size),
    )


@pytest.mark.parametrize("name", PRESETS)
def test_pair_table_matches_a_per_pair_loop(name):
    m = preset(name)
    rng = np.random.default_rng(11)
    t, x, grad, hess, p, q = random_batch(m, rng, 40)
    for run_sign in (-1.0, 0.0, 1.0):
        batch = pair_table(m, t, x, grad, hess, p, q, run_sign)
        assert batch.shape == (40, m.u_set.count, m.v_set.count)
        for s in range(40):
            ref = reference_table(m, t[s], x[s], grad[s], hess[s], p[s], q[s], run_sign)
            assert np.array_equal(batch[s], ref), (name, run_sign, s)


@pytest.mark.parametrize("name", PRESETS)
def test_bellman_reduction_is_the_batched_min_max(name):
    m = preset(name)
    t, x, grad, hess, p, q = random_batch(m, np.random.default_rng(5), 40)
    got = ham_bellman_inf_sup(m, t, x, grad, hess, p, q)
    assert got.shape == (40,)
    assert np.array_equal(got, pair_table(m, t, x, grad, hess, p, q, 1.0).max(-1).min(-1))


def c_ordered_table(model, t, x, grad, hess, p, q, run_sign):
    """The kernel's sums, one control pair at a time, written into a
    C-ordered (*batch, |U|, |V|) array: the reference layout whose
    reductions the pair-major view must match bit for bit."""
    n = model.state_dim
    batch = np.broadcast_shapes(
        np.shape(t), x.shape[:-1], grad.shape[:-1], hess.shape[:-2], p.shape[:-1], q.shape[:-1]
    )
    out = np.empty(batch + (model.u_set.count, model.v_set.count))
    for a, u in enumerate(model.u_set.values):
        for b, v in enumerate(model.v_set.values):
            drift = np.asarray(model.drift(t, x, u, v), dtype=float)
            sig = np.asarray(model.diffusion(t, x, u, v), dtype=float)
            cov = np.einsum("...ik,...jk->...ij", sig, sig)
            total = 0.0
            for k in range(n):
                total = total + drift[..., k] * grad[..., k]
                total = total + 0.5 * cov[..., k, k] * hess[..., k, k]
            for k in range(n):
                for l in range(k + 1, n):
                    total = total + cov[..., k, l] * hess[..., k, l]
            if run_sign != 0.0 and model.has_running:
                lmat = running_matrix(model, t, x, u, v)
                run = 0.0
                for i in range(model.u_types):
                    for j in range(model.v_types):
                        run = run + lmat[..., i, j] * p[..., i] * q[..., j]
                total = total + run_sign * run
            out[..., a, b] = total
    return out


def planar_model():
    """two-sided-1d's controls and costs on a 2-d state, with a drift and a
    diffusion that depend on both controls and a noise cross term, so the
    trace has an off-diagonal part; u = -1 and u = 1 share a diffusion."""

    def drift(t, x, u, v):
        x = np.asarray(x, dtype=float)
        return np.stack([np.full(x.shape[:-1], u[0] + v[0]), u[0] * x[..., 1] - v[0]], axis=-1)

    def diffusion(t, x, u, v):
        x = np.asarray(x, dtype=float)
        sig = np.zeros(x.shape + (2,))
        sig[..., 0, 0] = 0.5 + 0.25 * u[0] * u[0]
        sig[..., 1, 0] = 0.5 * v[0]
        sig[..., 1, 1] = 0.25 + 0.125 * np.tanh(x[..., 0])
        return sig

    return replace(preset("two-sided-1d"), state_dim=2, noise_dim=2,
                   drift=drift, diffusion=diffusion)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", [preset("two-sided-1d"), planar_model()], ids=["1d", "2d"])
def test_pair_major_table_reduces_like_a_c_ordered_one(model):
    # a (6, 5) batch: zero jets, where every pair ties on the running term
    # or on 0.0, small integer jets, where the drift ties pairs exactly,
    # and random jets; at run_sign 0 a zero jet ties all pairs at +0.0
    rng = np.random.default_rng(7)
    n = model.state_dim
    shape = (6, 5)
    t, x, grad, hess, p, q = (
        a.reshape(shape + a.shape[1:]) for a in random_batch(model, rng, 30)
    )
    grad[0] = 0.0
    hess[0] = 0.0
    grad[1] = rng.integers(-2, 3, (5, n))
    hess[1] = 0.0
    hess[2] = np.broadcast_to(np.eye(n), (5, n, n))
    p[3] = q[3] = 0.5
    for run_sign in (-1.0, 0.0, 1.0):
        table = pair_table(model, t, x, grad, hess, p, q, run_sign)
        want = c_ordered_table(model, t, x, grad, hess, p, q, run_sign)
        assert same_bits(table, want), run_sign
        assert not np.any(np.signbit(table) & (table == 0.0))
        for reduce in (
            lambda tab: tab.max(axis=-1).min(axis=-1),
            lambda tab: tab.min(axis=-2).max(axis=-1),
            lambda tab: np.argmin(tab.max(axis=-1), axis=-1),  # the feedback picks
            lambda tab: np.argmax(tab.min(axis=-2), axis=-1),
        ):
            assert same_bits(reduce(table), reduce(want)), run_sign
    ties = c_ordered_table(model, t, x, grad, hess, p, q, 0.0)[0]
    assert np.all(ties == 0.0)
    assert same_bits(ham_bellman_inf_sup(model, t, x, grad, hess, p, q),
                     want.max(axis=-1).min(axis=-1))
    minus = c_ordered_table(model, t, x, grad, hess, p, q, -1.0)
    assert same_bits(_gaps(pair_table(model, t, x, grad, hess, p, q, -1.0)),
                     minus.max(axis=-1).min(axis=-1) - minus.min(axis=-2).max(axis=-1))


def test_dual_variants_swap_roles():
    """Reflection identity: negating the jet and the running sign negates
    the table, so the +sum l p q scans with swapped optimization roles
    are minus the literal-sign Hamiltonians at the reflected jet."""
    rng = np.random.default_rng(2)
    for name in PRESETS:
        m = preset(name)
        t, x, grad, hess, p, q = random_batch(m, rng, 30)
        plus = pair_table(m, t, x, grad, hess, p, q, 1.0)
        assert np.array_equal(plus, -pair_table(m, t, x, -grad, -hess, p, q, -1.0)), name
        min_v_max_u = plus.max(axis=-2).min(axis=-1)
        max_u_min_v = plus.min(axis=-1).max(axis=-1)
        reflected = pair_table(m, t, x, -grad, -hess, p, q, -1.0)
        for s in range(30):
            assert min_v_max_u[s] == -sup_inf(reflected[s])
            assert max_u_min_v[s] == -inf_sup(reflected[s])
            assert max_u_min_v[s] <= min_v_max_u[s]


def test_decoupled_dual_variants_agree():
    m = preset("two-sided-1d")
    t, x, grad, hess, p, q = random_batch(m, np.random.default_rng(4), 10)
    table = pair_table(m, t, x, grad, np.zeros_like(hess), p, q, 1.0)
    # separable controls: both orders of the game-role scan agree
    np.testing.assert_allclose(
        table.max(axis=-1).min(axis=-1), table.min(axis=-2).max(axis=-1), rtol=0, atol=1e-12
    )


def test_monotone_in_hessian():
    m = preset("one-sided-drift-1d")
    low, high = ham_bellman_inf_sup(
        m, 0.0, np.zeros(1), np.full(1, 0.3), np.array([[[-1.0]], [[2.0]]]),
        np.array([0.5, 0.5]), np.array([1.0]),
    )
    assert low <= high


def test_running_term_bilinear_in_beliefs():
    m = preset("running-matrix")
    corners = {}
    for i in range(2):
        for j in range(2):
            corners[(i, j)] = one_point(m, 0.0, 0.0, np.eye(2)[i], np.eye(2)[j], run_sign=1.0)
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    blended = one_point(m, 0.0, 0.0, p, q, run_sign=1.0)
    manual = sum(
        p[i] * q[j] * corners[(i, j)] for i in range(2) for j in range(2)
    )
    np.testing.assert_allclose(blended, manual, atol=1e-14)


def test_sampled_gap_documented_unit_query():
    m = preset("coupled-1d")
    rep = sample_isaacs_gap(m, samples=64, seed=0)
    # first query is fixed: unit gradient, zero hessian, box centre
    assert rep["unit_query_gap"] == 8.0
    assert rep["max_sampled_gap"] >= 8.0 or rep["samples"] == 1
    rep2 = sample_isaacs_gap(m, samples=64, seed=0)
    assert rep == rep2
    m2 = preset("two-sided-1d")
    clean = sample_isaacs_gap(m2, samples=256, seed=0)
    assert clean["unit_query_gap"] == 0.0
    assert clean["max_sampled_gap"] <= 1e-12


def uniform(k):
    return np.full(k, 1.0 / k)


def gap(model, t, x, grad, hess, p, q):
    """Isaacs gap of one query, from a single-point pair_table."""
    table = pair_table(model, t, np.asarray(x, dtype=float), np.asarray(grad, dtype=float),
                       np.asarray(hess, dtype=float), p, q, -1.0)
    return inf_sup(table) - sup_inf(table)


@pytest.mark.parametrize("name", PRESETS)
def test_sampled_gap_is_the_max_over_single_queries(name):
    m = preset(name)
    rep = sample_isaacs_gap(m, samples=50, seed=3, x_box=(-1.0, 2.0), t_range=(0.1, 0.3))
    # the same queries, drawn in the documented order, one at a time
    rng = np.random.default_rng(np.random.SeedSequence(3))
    gaps = [gap(m, 0.1, [0.5], [1.0], [[0.0]], uniform(m.u_types), uniform(m.v_types))]
    for _ in range(49):
        x = rng.uniform(-1.0, 2.0, size=1)
        grad = rng.standard_normal(1)
        raw = rng.standard_normal((1, 1))
        p = rng.dirichlet(np.ones(m.u_types))
        q = rng.dirichlet(np.ones(m.v_types))
        t = float(rng.uniform(0.1, 0.3))
        gaps.append(gap(m, t, x, grad, 0.5 * (raw + raw.T), p, q))
    assert rep == {"unit_query_gap": gaps[0], "max_sampled_gap": max(gaps), "samples": 50}
    with pytest.raises(ConfigError):
        sample_isaacs_gap(m, samples=4, seed=-1)
