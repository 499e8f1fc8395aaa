"""Frozen control-scan values and structural identities.

Reference values were computed by enumerating the control tables by
hand; they pin both the minimax orders and the sign with which the
running term enters the game-role table and the literal form.  The
batched kernel is checked bitwise against a scalar loop over points and
control pairs; the literal form, with -sum l p q, lives only here, in
`reference_table` and `c_ordered_table`, as the reference that the
Isaacs audit's mirrored reading must match bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from infogame.errors import ConfigError
from infogame.hamiltonian import _gaps, ham_bellman_inf_sup, pair_table, sample_isaacs_gap
from infogame.model import model_from_config, preset, running_matrix

PRESETS = (
    "drift-sum-1d",
    "coupled-1d",
    "static-bilinear",
    "running-matrix",
    "running-matrix-informed",
    "one-sided-drift-1d",
    "two-sided-1d",
)


def one_point(model, grad, hess, p=None, q=None):
    """Game-role control-pair table at x = 0 for a 1-d state; beliefs
    default to uniform."""
    p = np.full(model.u_types, 1.0 / model.u_types) if p is None else np.asarray(p, dtype=float)
    q = np.full(model.v_types, 1.0 / model.v_types) if q is None else np.asarray(q, dtype=float)
    return pair_table(
        model, 0.0, np.zeros(1), np.atleast_1d(np.asarray(grad, dtype=float)),
        np.atleast_2d(np.asarray(hess, dtype=float)), p, q,
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
    uniform = np.full(2, 0.5)
    zero = (0.0, np.zeros(1), np.zeros(1), np.zeros((1, 1)), uniform, uniform)
    # literal convention: H carries -sum l p q, so l = c gives -c
    literal = c_ordered_table(m, *zero, -1.0)
    assert inf_sup(literal) == -1.0
    assert sup_inf(literal) == -1.0
    # the game-role table carries +sum l p q, and at the (zero) mirrored
    # jet it is minus the literal one
    assert inf_sup(one_point(m, 0.0, 0.0)) == 1.0
    assert ham_bellman_inf_sup(m, *zero) == 1.0
    assert np.array_equal(one_point(m, -0.0, -0.0), -literal)


def test_coupled_game_order_gap():
    m = preset("coupled-1d")  # b = 4 u v over {-1,1}^2
    table = one_point(m, 1.0, 0.0)
    assert inf_sup(table) == 4.0
    assert sup_inf(table) == -4.0
    # the Isaacs gap is inf-sup minus sup-inf of one table, which the
    # audit reads with the roles swapped at the mirrored jet
    assert inf_sup(table) - sup_inf(table) == 8.0
    assert _gaps(one_point(m, -1.0, -0.0)) == 8.0


def test_pair_table_shape_and_beliefs():
    m = preset("running-matrix-informed")
    t = one_point(m, 0.0, 0.0, [1.0, 0.0], [1.0])
    assert t.shape == (2, 2)
    # l_0(u, v) = u + 0.4 v at the four corners
    np.testing.assert_allclose(t, [[-1.4, -0.6], [0.6, 1.4]], atol=1e-15)
    batch = pair_table(
        m, np.zeros((3, 1)), np.zeros((3, 1, 1)), np.zeros((1, 4, 1)), np.zeros((1, 1, 1)),
        np.array([1.0, 0.0]), np.array([1.0]),
    )
    assert batch.shape == (3, 4, 2, 2)
    assert np.array_equal(batch, np.broadcast_to(t, batch.shape))


def reference_table(model, t, x, grad, hess, p, q, run_sign):
    """One point and one control pair at a time, in the kernel's order;
    run_sign +1 is the kernel's game-role table, -1 the literal form."""
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
            if model.has_running:
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
    batch = pair_table(m, t, x, grad, hess, p, q)
    assert batch.shape == (40, m.u_set.count, m.v_set.count)
    for s in range(40):
        ref = reference_table(m, t[s], x[s], grad[s], hess[s], p[s], q[s], 1.0)
        assert np.array_equal(batch[s], ref), (name, s)


@pytest.mark.parametrize("name", PRESETS)
def test_bellman_reduction_is_the_batched_min_max(name):
    m = preset(name)
    t, x, grad, hess, p, q = random_batch(m, np.random.default_rng(5), 40)
    got = ham_bellman_inf_sup(m, t, x, grad, hess, p, q)
    assert got.shape == (40,)
    assert np.array_equal(got, pair_table(m, t, x, grad, hess, p, q).max(-1).min(-1))


def c_ordered_table(model, t, x, grad, hess, p, q, run_sign):
    """The kernel's sums, one control pair at a time, written into a
    C-ordered (*batch, |U|, |V|) array: the reference layout whose
    reductions the pair-major view must match bit for bit.  run_sign +1
    is the kernel's game-role table, -1 the literal form."""
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
            if model.has_running:
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
    # a (6, 5) batch: zero jets, where every pair ties on the running term,
    # small integer jets, where the drift ties pairs exactly, and random
    # jets; without running costs a zero jet ties all pairs at +0.0
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
    for game in (model, replace(model, has_running=False)):
        table = pair_table(game, t, x, grad, hess, p, q)
        want = c_ordered_table(game, t, x, grad, hess, p, q, 1.0)
        assert same_bits(table, want), game.has_running
        assert not np.any(np.signbit(table) & (table == 0.0))
        for reduce in (
            lambda tab: tab.max(axis=-1).min(axis=-1),
            lambda tab: tab.min(axis=-2).max(axis=-1),
            lambda tab: np.argmin(tab.max(axis=-1), axis=-1),  # the feedback picks
            lambda tab: np.argmax(tab.min(axis=-2), axis=-1),
        ):
            assert same_bits(reduce(table), reduce(want)), game.has_running
    assert np.all(table[0] == 0.0)  # the running-free zero jets tie
    want = c_ordered_table(model, t, x, grad, hess, p, q, 1.0)
    assert same_bits(ham_bellman_inf_sup(model, t, x, grad, hess, p, q),
                     want.max(axis=-1).min(axis=-1))
    minus = c_ordered_table(model, t, x, grad, hess, p, q, -1.0)
    assert same_bits(_gaps(pair_table(model, t, x, -grad, -hess, p, q)),
                     minus.max(axis=-1).min(axis=-1) - minus.min(axis=-2).max(axis=-1))


def test_dual_variants_swap_roles():
    """Reflection identity: negating the jet and the running sign negates
    the table, so the +sum l p q scans with swapped optimization roles
    are minus the literal-sign Hamiltonians at the reflected jet."""
    rng = np.random.default_rng(2)
    for name in PRESETS:
        m = preset(name)
        t, x, grad, hess, p, q = random_batch(m, rng, 30)
        plus = pair_table(m, t, x, grad, hess, p, q)
        reflected = c_ordered_table(m, t, x, -grad, -hess, p, q, -1.0)
        assert np.array_equal(plus, -reflected), name
        min_v_max_u = plus.max(axis=-2).min(axis=-1)
        max_u_min_v = plus.min(axis=-1).max(axis=-1)
        for s in range(30):
            assert min_v_max_u[s] == -sup_inf(reflected[s])
            assert max_u_min_v[s] == -inf_sup(reflected[s])
            assert max_u_min_v[s] <= min_v_max_u[s]


def test_decoupled_dual_variants_agree():
    m = preset("two-sided-1d")
    t, x, grad, hess, p, q = random_batch(m, np.random.default_rng(4), 10)
    table = pair_table(m, t, x, grad, np.zeros_like(hess), p, q)
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
            corners[(i, j)] = one_point(m, 0.0, 0.0, np.eye(2)[i], np.eye(2)[j])
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    blended = one_point(m, 0.0, 0.0, p, q)
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


def literal_gaps(model, t, x, grad, hess, p, q):
    """Isaacs gaps of the literal form, min-max minus max-min, per point."""
    table = c_ordered_table(model, t, x, grad, hess, p, q, -1.0)
    return table.max(axis=-1).min(axis=-1) - table.min(axis=-2).max(axis=-1)


@pytest.mark.parametrize("name", PRESETS)
def test_audit_gap_is_the_literal_min_max_minus_max_min(name):
    m = preset(name)
    t, x, grad, hess, p, q = random_batch(m, np.random.default_rng(13), 200)
    grad[:20] = hess[:20] = 0.0  # zero jets
    grad[20:30], hess[20:30], p[20:30], q[20:30] = 1.0, 0.0, uniform(m.u_types), uniform(m.v_types)
    assert same_bits(_gaps(pair_table(m, t, x, -grad, -hess, p, q)),
                     literal_gaps(m, t, x, grad, hess, p, q))


def three_type_model():
    """A 3x3-type game on drift-sum-1d with running costs."""
    return model_from_config({
        "preset": "drift-sum-1d",
        "params": {"sigma": 0.5},
        "I": 3,
        "J": 3,
        "T": 0.4,
        "g": [[{"name": "tanh", "params": {"center": c, "scale": 1.5, "amp": a}}
               for a in (1.0, -0.8, 0.6)] for c in (-0.5, 0.0, 0.5)],
        "l": [[{"name": "separated", "params": {"au": au, "av": av, "c": 0.1 * au * av}}
               for av in (0.5, -0.5, 0.2)] for au in (0.6, -0.6, 0.2)],
    })


def nine_type_model():
    """A 9x1-type game with coupled running costs: long Dirichlet draws."""
    return model_from_config({
        "preset": "drift-sum-1d",
        "I": 9,
        "J": 1,
        "T": 1.0,
        "g": [["zero"]] * 9,
        "l": [[{"name": "bilinear-uv", "params": {"c": 0.3 * (i - 4)}}] for i in range(9)],
    })


AUDITED = {name: lambda name=name: preset(name) for name in PRESETS}
AUDITED["3x3-types"] = three_type_model
AUDITED["9x1-types"] = nine_type_model
AUDITED["planar"] = planar_model


@pytest.mark.parametrize("name", list(AUDITED))
def test_sampled_gap_is_the_max_over_single_queries(name):
    m = AUDITED[name]()
    n, samples = m.state_dim, 1200
    rep = sample_isaacs_gap(m, samples=samples, seed=3, x_box=(-1.0, 2.0), t_range=(0.1, 0.3))
    # the same queries, drawn in the documented order, one at a time
    rng = np.random.default_rng(np.random.SeedSequence(3))
    t, x = np.full(samples, 0.1), np.full((samples, n), 0.5)
    grad, hess = np.ones((samples, n)), np.zeros((samples, n, n))
    p, q = np.tile(uniform(m.u_types), (samples, 1)), np.tile(uniform(m.v_types), (samples, 1))
    for s in range(1, samples):
        x[s] = rng.uniform(-1.0, 2.0, size=n)
        grad[s] = rng.standard_normal(n)
        raw = rng.standard_normal((n, n))
        hess[s] = 0.5 * (raw + raw.T)
        p[s] = rng.dirichlet(np.ones(m.u_types))
        q[s] = rng.dirichlet(np.ones(m.v_types))
        t[s] = rng.uniform(0.1, 0.3)
    gaps = literal_gaps(m, t, x, grad, hess, p, q).tolist()
    assert rep == {"unit_query_gap": gaps[0], "max_sampled_gap": max(gaps), "samples": samples}
    with pytest.raises(ConfigError):
        sample_isaacs_gap(m, samples=4, seed=-1)


@pytest.mark.parametrize("x_box, t_range", [
    ((-np.inf, 1.0), None),
    ((0.0, np.nan), None),
    ((-1e308, 1e308), None),  # finite bounds, overflowing span
    ((1.0, -1.0), None),
    ((-2.0, 2.0), (0.0, np.inf)),
    ((-2.0, 2.0), (0.3, 0.1)),
])
def test_sampled_gap_refuses_a_span_it_cannot_draw(x_box, t_range):
    # Generator.uniform refused these (OverflowError or ValueError) once it
    # drew; the whole-array draws refuse them first, at any sample count
    for samples in (1, 4):
        with pytest.raises(ConfigError, match="spans must be finite"):
            sample_isaacs_gap(preset("two-sided-1d"), samples=samples, seed=0,
                              x_box=x_box, t_range=t_range)
