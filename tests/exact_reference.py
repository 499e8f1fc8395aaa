"""Closed-form values of presets: exact references for the grid solver.

`one-sided-drift-1d`.  The uninformed player has one control, so
revealing costs the informed player nothing and w = sum_i p_i V_i, with
V_i type i's complete-information value.  Type 1 pays X_T + 0.3 int X and
type 2 the negative, and the drift is the minimizer's u in {-1, 0, 1}, so
each type drives X at unit speed in its favour and the noise, which enters
a linear payoff with mean zero, drops out.  With tau = T - t:

    w(t, x, p) = (2 p_1 - 1) x (1 + 0.3 tau) - tau - 0.15 tau^2.
"""

from __future__ import annotations

import numpy as np


def one_sided_drift_value(t, x, p, horizon):
    """w(t, x, p) of `one-sided-drift-1d`, p of shape (..., 2)."""
    tau = horizon - t
    return (2.0 * np.asarray(p)[..., 0] - 1.0) * x * (1.0 + 0.3 * tau) - tau - 0.15 * tau**2
