"""Exact finite minimax Hamiltonians and Isaacs diagnostics.

One kernel, `pair_table`, scans the full control grid for a whole batch
of points and returns the table over control pairs of

    <b, grad> + tr(hess sigma sigma^T) / 2 + run_sign * sum_ij l_ij p_i q_j,

so min/max values and the gap between the two orders are exact for the
declared finite control sets.  Everything else is a min/max reduction of
that table.  The table is filled pair-major, one contiguous batch per
control pair, and returned as a strided (..., |U|, |V|) view: reductions
over the two pair axes then run over leading memory axes, elementwise
across the batch, which numpy does far faster than over short trailing
ones.  Reduce the view; a caller that needs C-ordered bytes copies it.
max, min, argmax and argmin are exact selections, so the layout changes
no value and no tie-break.  The running term enters with one of two signs:

* run_sign = -1 is the form in which the Isaacs condition for the
  asymmetric-information equation is stated.  The sampled audit
  `sample_isaacs_gap` reduces it both ways: the gap is the min over u of
  the max over v minus the max over v of the min over u.
* run_sign = +1 keeps the game roles (u minimizes) with the running
  term +sum l_ij p_i q_j: the form under which smooth value fields
  satisfy the dynamic-programming equation pointwise.  Its min-max
  reduction, `ham_bellman_inf_sup`, is what the solver step and both
  dual residual audits evaluate; the feedback replay reads the table.

The two are mirror images: pair_table(grad, hess, +1) equals
-pair_table(-grad, -hess, -1) to the bit, so the min-max of one is minus
the max-min of the other.
"""

from __future__ import annotations

import numpy as np

from ._util import _MEMORY_CAP_BYTES
from .errors import ConfigError
from .model import GameModel, running_matrix


def is_probability_vector(w: np.ndarray) -> bool:
    """Entries >= -1e-12 that sum to 1 within 1e-9; NaN and inf fail."""
    return bool(np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9)


def _belief_contraction(lmat: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_ij l_ij p_i q_j over (..., I, J), (..., I) and (..., J).

    Summed from zero in (i, j) row-major order as (l_ij p_i) q_j, which is
    bitwise what einsum("...ij,ai,bj->...ab") gives on a grid of belief
    points, whatever the layout of the batch.
    """
    total = 0.0
    for i in range(lmat.shape[-2]):
        for j in range(lmat.shape[-1]):
            total = total + lmat[..., i, j] * p[..., i] * q[..., j]
    return total


def pair_table(
    model: GameModel, t, x, grad, hess, p, q, run_sign: float
) -> np.ndarray:
    """Table over control pairs, shape (..., |U|, |V|), for a batch of points.

    x, grad: (..., n); hess: (..., n, n), symmetric; p: (..., I);
    q: (..., J); t a float or an array broadcasting against x[..., 0].
    The batch shape is the broadcast of all leading shapes.  Each entry is
    <b, grad> + tr(hess sigma sigma^T) / 2 + run_sign * sum_ij l_ij p_i q_j,
    summed from zero in that order with the trace taken as diagonal terms
    then the upper triangle, so a batch equals its points one at a time.
    Starting from +0.0, no entry is -0.0.

    The result is a strided view of a pair-major (|U|, |V|, ...) buffer,
    meant to be reduced over its last two axes, not read as C-ordered.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = model.state_dim
    batch = np.broadcast_shapes(
        np.shape(t), x.shape[:-1], grad.shape[:-1], hess.shape[:-2], p.shape[:-1], q.shape[:-1]
    )
    out = np.empty((model.u_set.count, model.v_set.count) + batch)  # pair-major
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
                total = total + run_sign * _belief_contraction(lmat, p, q)
            out[a, b] = total
    return np.moveaxis(out, (0, 1), (-2, -1))


def _gaps(table: np.ndarray) -> np.ndarray:
    gap = table.max(axis=-1).min(axis=-1) - table.min(axis=-2).max(axis=-1)
    assert np.all(gap >= 0.0)
    return gap


def ham_bellman_inf_sup(model: GameModel, t, x, grad, hess, p, q) -> np.ndarray:
    """Game-role min over u of max over v with +sum l p q, per batch point."""
    return pair_table(model, t, x, grad, hess, p, q, run_sign=1.0).max(axis=-1).min(axis=-1)


def sample_isaacs_gap(
    model: GameModel,
    *,
    samples: int,
    seed: int,
    x_box: tuple[float, float] = (-2.0, 2.0),
    t_range: tuple[float, float] | None = None,
) -> dict:
    """Deterministic sampled Isaacs diagnostic.

    The documented unit query (grad = ones, hess = 0, uniform beliefs at
    the box center and t = t_range start) is always evaluated first; the
    report carries its gap and the max over all sampled queries.  The
    queries are drawn one at a time in a fixed order and evaluated in one
    batch.  A batch whose queries and control-pair table would pass the
    2 GiB cap is refused before it is drawn.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    n = model.state_dim
    # t, x, grad, hess, p and q, then the (|U|, |V|) table, per query
    floats = (1 + 2 * n + n * n + model.u_types + model.v_types
              + model.u_set.count * model.v_set.count)
    if samples * floats * 8 > _MEMORY_CAP_BYTES:
        raise ConfigError(f"{samples} Isaacs samples are above the 2 GiB cap")
    t_lo, t_hi = t_range if t_range is not None else (0.0, model.horizon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.full(samples, float(t_lo))
    x = np.full((samples, n), 0.5 * (x_box[0] + x_box[1]))
    grad = np.ones((samples, n))
    hess = np.zeros((samples, n, n))
    p = np.full((samples, model.u_types), 1.0 / model.u_types)
    q = np.full((samples, model.v_types), 1.0 / model.v_types)
    for s in range(1, samples):
        x[s] = rng.uniform(x_box[0], x_box[1], size=n)
        grad[s] = rng.standard_normal(n)
        raw = rng.standard_normal((n, n))
        hess[s] = 0.5 * (raw + raw.T)
        p[s] = rng.dirichlet(np.ones(model.u_types))
        q[s] = rng.dirichlet(np.ones(model.v_types))
        t[s] = rng.uniform(t_lo, t_hi)
    gaps = _gaps(pair_table(model, t, x, grad, hess, p, q, run_sign=-1.0))
    return {
        "unit_query_gap": float(gaps[0]),
        "max_sampled_gap": float(gaps.max()),
        "samples": samples,
    }
