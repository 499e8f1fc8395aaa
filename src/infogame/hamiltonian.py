"""Exact finite minimax Hamiltonians and Isaacs diagnostics.

One kernel, `pair_table`, scans the full control grid for a whole batch
of points and returns the game-role table over control pairs (u
minimizes, v maximizes) of

    <b, grad> + tr(hess sigma sigma^T) / 2 + sum_ij l_ij p_i q_j,

so min/max values and the gap between the two orders are exact for the
declared finite control sets.  Everything else is a min/max reduction of
that table.  The table is filled pair-major, one contiguous batch per
control pair, and returned as a strided (..., |U|, |V|) view: reductions
over the two pair axes then run over leading memory axes, elementwise
across the batch, which numpy does far faster than over short trailing
ones.  Reduce the view; a caller that needs C-ordered bytes copies it.
max, min, argmax and argmin are exact selections, so the layout changes
no value and no tie-break.  Its min-max reduction, `ham_bellman_inf_sup`,
is what the solver step and both dual residual audits evaluate; the
feedback replay reads the table.

The Isaacs condition is stated for the literal form, with -sum l p q,
which is bit for bit minus this table at the mirrored jet (-grad, -hess),
so `sample_isaacs_gap` reads the table there with the roles swapped.
"""

from __future__ import annotations

import numpy as np

from ._util import _MEMORY_CAP_BYTES
from .errors import ConfigError
from .model import GameModel, running_matrix


def is_probability_vector(w: np.ndarray) -> bool:
    """Entries >= -1e-12 that sum to 1 within 1e-9; NaN and inf fail."""
    return bool(np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9)


def pair_table(model: GameModel, t, x, grad, hess, p, q) -> np.ndarray:
    """Table over control pairs, shape (..., |U|, |V|), for a batch of points.

    x, grad: (..., n); hess: (..., n, n), symmetric; p: (..., I);
    q: (..., J); t a float or an array broadcasting against x[..., 0].
    The batch shape is the broadcast of all leading shapes.  Each entry is
    <b, grad> + tr(hess sigma sigma^T) / 2 + sum_ij l_ij p_i q_j,
    summed from zero in that order with the trace taken as diagonal terms
    then the upper triangle, and the running term summed from zero on its
    own in (i, j) row-major order as (l_ij p_i) q_j, so a batch equals its
    points one at a time.  Starting from +0.0, no entry is -0.0.

    The result is a strided view of a pair-major (|U|, |V|, ...) buffer,
    meant to be reduced over its last two axes, not read as C-ordered.
    """
    x, grad, hess, p, q = (np.asarray(a, dtype=float) for a in (x, grad, hess, p, q))
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
            if model.has_running:
                lmat = running_matrix(model, t, x, u, v)
                run = 0.0
                for i in range(model.u_types):
                    for j in range(model.v_types):
                        run = run + lmat[..., i, j] * p[..., i] * q[..., j]
                total = total + run
            out[a, b] = total
    return np.moveaxis(out, (0, 1), (-2, -1))


def _gaps(table: np.ndarray) -> np.ndarray:
    """Literal-form Isaacs gaps from the game-role table at mirrored jets."""
    gap = table.max(axis=-2).min(axis=-1) - table.min(axis=-1).max(axis=-1)
    assert np.all(gap >= 0.0)
    return gap


def ham_bellman_inf_sup(model: GameModel, t, x, grad, hess, p, q) -> np.ndarray:
    """Game-role min over u of max over v with +sum l p q, per batch point."""
    return pair_table(model, t, x, grad, hess, p, q).max(axis=-1).min(axis=-1)


def _dirichlet(draws: np.ndarray) -> np.ndarray:
    """Rows of exponential draws normalized as `Generator.dirichlet` does."""
    acc = 0.0
    for j in range(draws.shape[-1]):
        acc = acc + draws[:, j]
    return draws * (1.0 / acc)[:, None]


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
    report carries its gap and the max over all sampled queries.  Each
    later query takes the stream's draws that `uniform` x, `standard_normal`
    grad and raw hessian, `dirichlet` p and q and `uniform` t calls would,
    by four generator calls into preallocated rows, then scaled and
    normalized as whole arrays with numpy's own formulas.  A span that is
    not finite and >= 0, or a batch past the 2 GiB cap, is refused first.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    t_lo, t_hi = t_range if t_range is not None else (0.0, model.horizon)
    x_span, t_span = float(x_box[1]) - float(x_box[0]), float(t_hi) - float(t_lo)
    if not (0.0 <= x_span < np.inf and 0.0 <= t_span < np.inf):
        raise ConfigError(f"Isaacs sample spans must be finite and >= 0: {x_box!r}, {t_range!r}")
    n, types = model.state_dim, model.u_types + model.v_types
    # per query t, x, the normal and exponential draws, hess, p, q and the table
    floats = 1 + 2 * n + 2 * n * n + 2 * types + model.u_set.count * model.v_set.count
    if samples * floats * 8 > _MEMORY_CAP_BYTES:
        raise ConfigError(f"{samples} Isaacs samples are above the 2 GiB cap")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.empty(samples)
    x = np.empty((samples, n))
    normal = np.zeros((samples, n + n * n))  # grad, then the raw hessian row-major
    expo = np.ones((samples, types))  # p's draws, then q's
    for s in range(1, samples):
        rng.random(out=x[s])
        rng.standard_normal(out=normal[s])
        rng.standard_exponential(out=expo[s])
        t[s] = rng.random()
    x = float(x_box[0]) + x_span * x
    x[0] = 0.5 * (x_box[0] + x_box[1])
    t = float(t_lo) + t_span * t
    t[0] = t_lo
    # the mirrored jets -grad and -hess; the unit query's grad is ones
    np.negative(normal, out=normal)
    normal[0, :n] = -1.0
    raw = normal[:, n:].reshape(samples, n, n)
    hess = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    p = _dirichlet(expo[:, : model.u_types])
    q = _dirichlet(expo[:, model.u_types :])
    gaps = _gaps(pair_table(model, t, x, normal[:, :n], hess, p, q))
    return {
        "unit_query_gap": float(gaps[0]),
        "max_sampled_gap": float(gaps.max()),
        "samples": samples,
    }
