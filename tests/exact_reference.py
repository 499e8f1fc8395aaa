"""Closed-form values of presets: exact references for the grid solver.

`one-sided-drift-1d`.  The uninformed player has one control, so
revealing costs the informed player nothing and w = sum_i p_i V_i, with
V_i type i's complete-information value.  Type 1 pays X_T + 0.3 int X and
type 2 the negative, and the drift is the minimizer's u in {-1, 0, 1}, so
each type drives X at unit speed in its favour and the noise, which enters
a linear payoff with mean zero, drops out.  With tau = T - t:

    w(t, x, p) = (2 p_1 - 1) x (1 + 0.3 tau) - tau - 0.15 tau^2.

`two-sided-1d`.  The dynamics b = u + v and sigma do not depend on x, the
terminal costs are delta_ij x and the running costs a_i u + b_j v do not
depend on x either.  So the field splits as

    w(t, x, p, q) = (p . q) x + phi(t, p, q),

where phi solves the state-free game whose running costs add the
bilinear part's drift term: (delta_ij + a_i) u + (delta_ij + b_j) v, with
zero terminal costs.  (p . q) x is linear in p and in q separately, so
the split survives the envelopes; on the grid it holds away from the box
walls, whose mirror ghosts bend the linear part.
"""

from __future__ import annotations

import numpy as np

from infogame.model import preset_config


def one_sided_drift_value(t, x, p, horizon):
    """w(t, x, p) of `one-sided-drift-1d`, p of shape (..., 2)."""
    tau = horizon - t
    return (2.0 * np.asarray(p)[..., 0] - 1.0) * x * (1.0 + 0.3 * tau) - tau - 0.15 * tau**2


def two_sided_state_free_config() -> dict:
    """The `static-1d` game of phi, built from the `two-sided-1d` preset:
    its controls, zero terminal costs and the running costs
    `separated` with au = delta_ij + a_i and av = delta_ij + b_j."""
    cfg = preset_config("two-sided-1d")
    a = [row[0]["params"]["au"] for row in cfg["l"]]
    b = [cost["params"]["av"] for cost in cfg["l"][0]]
    controls = [-1.0, 0.0, 1.0]  # drift-sum-1d's default, on both sides
    cfg["preset"] = "static-1d"
    cfg["params"] = {"controls_u": controls, "controls_v": controls}
    cfg["g"] = [["zero"] * len(b) for _ in a]
    cfg["l"] = [
        [
            {"name": "separated", "params": {"au": (i == j) + ai, "av": (i == j) + bj, "c": 0.0}}
            for j, bj in enumerate(b)
        ]
        for i, ai in enumerate(a)
    ]
    return cfg


def two_sided_split(x, p, q, phi):
    """(p . q) x + phi on every (t, x, p, q) node: x (nx,), p (P, I),
    q (Q, J) and phi (nt, P, Q) give shape (nt, nx, P, Q)."""
    bilinear = np.asarray(p) @ np.asarray(q).T  # (P, Q)
    return bilinear * np.asarray(x)[None, :, None, None] + np.asarray(phi)[:, None]
