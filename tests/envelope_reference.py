"""Per-row lower convex envelopes: a bitwise reference for `transform.vex_rows`.

The library takes one batched route.  This module keeps a row-at-a-time
route with the same arithmetic and no shared screen or chain:
- the fixed-point screen gathers the midpoint triples of one row;
- on two components a scalar monotone chain keeps the lower hull and
  each node off it takes the chord between its nearest hull nodes;
- on three or more it runs `_affine_fit` and then, on each row that is
  neither convex nor affine, its own Qhull lower hull (with the scaled
  retry) and the maximum of that row's facet planes, with the hull nodes
  restored to their exact input values.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from infogame import transform
from infogame.errors import ConfigError, NumericsError

FIXED_POINT_TOL = 1e-12
DOWNWARD_TOL = 1e-12


def convexity_violation(grid, values):
    """Worst midpoint excess of one row over the triple set, 0 without triples."""
    if grid.triples.shape[0] == 0:
        return 0.0
    lo = values[grid.triples[:, 0]]
    mid = values[grid.triples[:, 1]]
    hi = values[grid.triples[:, 2]]
    return float(np.max(mid - 0.5 * (lo + hi)))


def chain_lower_hull(xs, ys):
    """Indices of the lower hull of (xs, ys), xs strictly increasing; a
    node is popped only on a negative cross product, so collinear nodes
    stay."""
    keep = []
    for i in range(xs.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross < 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def vex_row(grid, values):
    """Lower convex envelope of one row."""
    values = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    if convexity_violation(grid, values) <= FIXED_POINT_TOL * scale:
        return values.copy()
    if grid.dim == 2:
        xs = grid.numerators[:, 0]  # 0..N ascending by lexicographic order
        keep = chain_lower_hull(xs.astype(float), values)
        out = values.copy()
        for a, b in zip(keep[:-1], keep[1:]):
            xa, xb = int(xs[a]), int(xs[b])
            for idx in range(a + 1, b):
                x = int(xs[idx])
                out[idx] = (values[a] * (xb - x) + values[b] * (x - xa)) / (xb - xa)
        return out
    if transform._affine_fit(grid, values) is not None:
        return values.copy()
    return hull_envelope(grid, values)


def _lifted_hull(grid, values, scale):
    """Qhull of (reduced coordinates, w / scale) and the mask of its
    downward facets."""
    hull = ConvexHull(np.column_stack([grid.points[:, :-1], values / scale]))
    return hull, hull.equations[:, -2] < -DOWNWARD_TOL


def lower_facets(grid, values):
    """(gradients, offsets, member mask) of the lower facets of one row.

    Each facet is the affine map q -> <g, q> + c on reduced coordinates;
    the mask marks the nodes that span some facet.  A row whose raw hull
    fails or has no downward facet is hulled again with w divided by its
    scale, and the facets are scaled back.
    """
    try:
        hull, down = _lifted_hull(grid, values, 1.0)
    except QhullError:
        down = None
    scale = 1.0
    if down is None or not down.any():
        scale = max(1.0, float(np.max(np.abs(values))))
        try:
            hull, down = _lifted_hull(grid, values, scale)
        except QhullError as exc:
            raise NumericsError(f"lifted hull failed: {exc}") from exc
        if not down.any():
            raise ConfigError("degenerate lifted hull: no downward facets")
    low = hull.equations[down]
    grads = -low[:, :-2] * scale / low[:, -2:-1]
    offs = -low[:, -1] * scale / low[:, -2]
    members = np.zeros(values.shape, dtype=bool)
    members[hull.simplices[down]] = True
    return grads, offs, members


def hull_envelope(grid, values):
    """Lower convex envelope of one row that is not affine: the maximum of
    its facet planes, capped by the row, exact on the hull nodes."""
    grads, offs, members = lower_facets(grid, values)
    planes = grid.points[:, :-1] @ grads.T + offs  # (npoints, nfacets)
    out = np.minimum(planes.max(axis=1), values)
    out[members] = values[members]
    return out


def vex_table(grid, rows):
    """`vex_row` of every row of a (rows, npoints) table."""
    return np.array([vex_row(grid, row) for row in rows]).reshape(np.shape(rows))


def chain_slopes(grid, values):
    """Slopes, on the first coordinate, between consecutive hull nodes of
    one row on a two-component lattice, in chain order."""
    xs = grid.numerators[:, 0].astype(float)
    keep = chain_lower_hull(xs, values)
    return [
        (values[b] - values[a]) / ((xs[b] - xs[a]) / grid.resolution)
        for a, b in zip(keep[:-1], keep[1:])
    ]
