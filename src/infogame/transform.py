"""Convex duality on simplex grids: conjugates, envelopes, biconjugates.

For a function w tabulated on a simplex grid, the convex conjugate in the
belief variable is w*(s) = max_p <s, p> - w(p) and the concave conjugate
is w#(s) = min_q <s, q> - w(q), both evaluated exactly by scanning the
grid.  Lower convex envelopes (vex) take one route, `vex_rows`, which
envelopes a whole (rows, npoints) table: certified-convex rows are
screened out in one gather, the rest share one vectorised monotone chain
on two-component simplices, and on larger ones the non-affine rows go to
one `_LowerHull` (built, and scipy.spatial imported, only when a row needs
it): one Qhull call per row; the plane arithmetic once per pass.  `vex_p`
is the one-row case, the upper concave envelope (cav) is -vex(-w), and
`facet_slope_probes` reads its slopes from the same batched facets.

Each hull is one raw Qhull run: scipy's `_Qhull`, the object that
scipy.spatial's convex-hull class builds itself, with that class's own
options ("i" output, "Qt" triangulated facets, and "Qx" on clouds of 5
or more coordinates).  It gives the class's `equations` and `simplices`
bit for bit, without the volume and area pass, the bound reductions and
the point copy that the class adds and no caller reads.

Envelope values at the simplex vertices never change, envelopes are
idempotent, and the biconjugate computed from facet-slope probes
reproduces vex exactly up to roundoff.
"""

from __future__ import annotations

import numpy as np

from ._util import round_decimals, sorted_unique
from .errors import ConfigError, NumericsError
from .simplex import SimplexGrid, convexity_violations

_AFFINE_RTOL = 1e-11
# rows whose batched affine residual is within this factor of the tolerance
# get the exact per-row fit
_AFFINE_GUARD = 100.0
_FIXED_POINT_TOL = 1e-12
_DOWNWARD_TOL = 1e-12  # a lower facet's unit normal has w component below -this
_FLOAT_MAX = float(np.finfo(float).max)


def _row_bound(grid: SimplexGrid) -> float:
    """B, the largest magnitude of a value `_check_rows` accepts on grid."""
    if grid.dim <= 2:
        return _FLOAT_MAX / (4 * grid.resolution)
    return _FLOAT_MAX * _DOWNWARD_TOL / (1 + np.sqrt(2))


def _check_rows(grid: SimplexGrid, rows: np.ndarray) -> np.ndarray:
    """rows as a (rows, npoints) float table whose values are finite and at
    most B in magnitude, so that no step of the envelope overflows.

    With F the largest float and |w| <= M <= B: the fixed-point screen's
    mid - (lo + hi) / 2 is at most 2M.  On two-component lattices of
    resolution N the chain's cross products are at most 4NM, and its
    interpolations and chord slopes at most 2NM, so B = F / (4N).  On
    larger simplices the hull of the cloud (reduced p, w / s), s <= max(1, M),
    keeps a lower facet only when its unit normal (n, n_w, c) has
    n_w < -_DOWNWARD_TOL; the scaled gradient n s / -n_w is at most
    max(1, M) / _DOWNWARD_TOL per component, the offset c s / -n_w at most
    sqrt(2) max(1, M) / _DOWNWARD_TOL (the facet passes through a cloud
    point, of norm at most sqrt(2) max(1, M / s)), and so a plane at a node,
    whose reduced coordinates sum to at most 1, at most
    (1 + sqrt(2)) max(1, M) / _DOWNWARD_TOL: B = F * _DOWNWARD_TOL / (1 + sqrt(2)).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != grid.npoints:
        raise ConfigError(
            f"rows shape {rows.shape} does not match grid (rows, {grid.npoints})"
        )
    bound = _row_bound(grid)
    # a NaN fails both comparisons
    if not (-bound <= rows.min(initial=0.0) and rows.max(initial=0.0) <= bound):
        raise ConfigError(f"tabulated values must be finite and at most {bound:g} in magnitude")
    return rows


def _check_values(grid: SimplexGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.npoints,):
        raise ConfigError(
            f"values shape {values.shape} does not match grid ({grid.npoints},)"
        )
    return _check_rows(grid, values[None])[0]


def _fixed_points(grid: SimplexGrid, rows: np.ndarray) -> np.ndarray:
    """Mask of the rows certified convex to within the fixed-point tolerance.

    Such rows are returned as they are; this keeps every envelope route
    idempotent bitwise instead of up to hull-recomputation roundoff.
    """
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1))
    return convexity_violations(grid, rows) <= _FIXED_POINT_TOL * scale


def _chain_rows(grid: SimplexGrid, ys: np.ndarray) -> np.ndarray:
    """Mask of each row's lower-hull nodes on a two-component lattice.

    The monotone chain keeps one stack per row; each pass of the inner
    loop tests the rows whose top two entries may still be popped, and
    pops only on a cross product `< 0.0`, so collinear nodes stay on the
    hull and keep their exact input values.
    """
    n_rows, n = ys.shape
    xf = grid.numerators[:, 0].astype(float)  # 0..N ascending by lexicographic order
    every = np.arange(n_rows)
    stack = np.empty((n_rows, n), dtype=np.intp)
    height = np.zeros(n_rows, dtype=np.intp)
    for i in range(n):
        live = every[height >= 2]
        while live.size:
            a = stack[live, height[live] - 2]
            b = stack[live, height[live] - 1]
            cross = (xf[b] - xf[a]) * (ys[live, i] - ys[live, a]) - (
                ys[live, b] - ys[live, a]
            ) * (xf[i] - xf[a])
            live = live[cross < 0.0]
            height[live] -= 1
            live = live[height[live] >= 2]
        stack[every, height] = i
        height += 1
    on_hull = np.zeros((n_rows, n), dtype=bool)
    filled = np.arange(n) < height[:, None]
    on_hull[np.nonzero(filled)[0], stack[filled]] = True
    return on_hull


def _vex_dim2_rows(grid: SimplexGrid, ys: np.ndarray) -> np.ndarray:
    """Lower convex envelope of every row of ys on a two-component lattice."""
    on_hull = _chain_rows(grid, ys)
    n = ys.shape[1]
    xs = grid.numerators[:, 0]
    # every node lies between its nearest hull nodes on either side; the
    # first and last nodes are always on the hull
    pos = np.arange(n)
    left = np.maximum.accumulate(np.where(on_hull, pos, 0), axis=1)
    right = np.minimum.accumulate(np.where(on_hull, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    r, k = np.nonzero(~on_hull)
    a, b = left[r, k], right[r, k]
    xa, xb, x = xs[a], xs[b], xs[k]
    out = ys.copy()
    out[r, k] = (ys[r, a] * (xb - x) + ys[r, b] * (x - xa)) / (xb - xa)
    return out


def _affine_fit(grid: SimplexGrid, values: np.ndarray) -> np.ndarray | None:
    """Coefficients (c_1..c_{dim-1}, c_0) if w is affine on the grid."""
    reduced = grid.points[:, :-1]
    design = np.column_stack([reduced, np.ones(grid.npoints)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = np.max(np.abs(design @ coef - values))
    scale = max(1.0, float(np.max(np.abs(values))))
    if resid <= _AFFINE_RTOL * scale:
        return coef
    return None


def _affine_rows(grid: SimplexGrid, rows: np.ndarray, scale: np.ndarray):
    """(mask, coefficients): the rows that `_affine_fit` accepts, and its
    (rows, dim) coefficients for them, zero on the other rows.

    One batched least-squares residual of the rows divided by their scale
    clears every row whose residual exceeds the tolerance by more than
    the guard factor; the rows left run `_affine_fit` itself, once each,
    so the decision and the coefficients are exactly its own.  The
    products are elementwise einsum loops, not a BLAS call that grows
    with the row count.
    """
    design = np.column_stack([grid.points[:, :-1], np.ones(grid.npoints)])
    unit = rows / scale[:, None]
    coef = np.einsum("kj,rj->rk", np.linalg.pinv(design), unit)
    resid = np.max(np.abs(np.einsum("jk,rk->rj", design, coef) - unit), axis=1)
    affine = np.zeros(rows.shape[0], dtype=bool)
    coefs = np.zeros((rows.shape[0], grid.dim))
    for k in np.flatnonzero(~(resid > _AFFINE_GUARD * _AFFINE_RTOL)):
        fit = _affine_fit(grid, rows[k])
        if fit is not None:
            affine[k], coefs[k] = True, fit
    return affine, coefs


class _LowerHull:
    """Lower hulls of lifted point clouds (reduced coordinates, w) on one grid.

    scipy.spatial is imported when the object is built, never at module
    import, and the reduced coordinates of the cloud are written once.
    One Qhull call per row; the plane arithmetic once per pass, over the
    facets of all the rows of that pass.

    A hull is scipy's private `_Qhull` run as scipy.spatial's convex-hull
    class runs it (options as in the module docstring), then `triangulate`
    and the facet array.  The class itself is not used: its extra passes
    cost about a tenth of a hull and are never read.  scipy types `_Qhull`
    in its own `_qhull.pyi` but does not promise it; `test_transform.py`
    pins this route to the class, bit for bit, on 3-, 4- and 5-type
    lattices.
    """

    def __init__(self, grid: SimplexGrid):
        from scipy.spatial._qhull import QhullError, _Qhull

        self._qhull, self._qhull_error = _Qhull, QhullError
        self._options = b"Qx" if grid.dim >= 5 else b""
        self.reduced = grid.points[:, :-1]
        self._cloud = np.empty((grid.npoints, grid.dim))
        self._cloud[:, :-1] = self.reduced

    def _hull(self, values: np.ndarray, scale: float):
        """(equations, simplices) of the cloud with w divided by scale; an
        equation (normal..., offset) has normal . y + offset <= 0 inside."""
        self._cloud[:, -1] = values / scale
        qhull = self._qhull(b"i", self._cloud, self._options, required_options=b"Qt")
        try:
            qhull.triangulate()
            simplices, _, equations, _, _ = qhull.get_simplex_facet_array()
        finally:
            qhull.close()
        return equations, simplices

    def lower_facets(self, rows: np.ndarray):
        """(gradients, offsets, starts, member mask) of the lower facets of
        every row of a (rows, npoints) table with no affine row.

        Facet f is the affine map q -> <g_f, q> + c_f on reduced
        coordinates, and row k owns the facets from starts[k] to
        starts[k + 1]; the mask marks the nodes that span a facet of their
        row.  The row loop only builds hulls.
        """
        scales = np.ones(rows.shape[0])
        equations, simplices = [], []
        for k, values in enumerate(rows):
            try:
                eqs, simps = self._hull(values, 1.0)
            except self._qhull_error:
                eqs = None
            if eqs is None or not (eqs[:, -2] < -_DOWNWARD_TOL).any():
                # values far larger than the unit lattice can defeat Qhull's precision
                # checks, or leave every lower facet's unit normal too close to
                # horizontal to pass the test; the cloud with w scaled down has the same facets
                scales[k] = max(1.0, float(np.max(np.abs(values))))
                try:
                    eqs, simps = self._hull(values, scales[k])
                except self._qhull_error as exc:
                    raise NumericsError(f"lifted hull failed: {exc}") from exc
                if not (eqs[:, -2] < -_DOWNWARD_TOL).any():
                    raise ConfigError("degenerate lifted hull: no downward facets")
            equations.append(eqs)
            simplices.append(simps)
        owner = np.repeat(np.arange(rows.shape[0]), [len(eqs) for eqs in equations])
        stacked = np.concatenate(equations)
        down = stacked[:, -2] < -_DOWNWARD_TOL
        low, owner = stacked[down], owner[down]
        scale = scales[owner]
        grads = -low[:, :-2] * scale[:, None] / low[:, -2:-1]
        offs = -low[:, -1] * scale / low[:, -2]
        members = np.zeros(rows.shape, dtype=bool)
        members[owner[:, None], np.concatenate(simplices)[down]] = True
        return grads, offs, np.searchsorted(owner, np.arange(rows.shape[0])), members


def vex_p(grid: SimplexGrid, values: np.ndarray) -> np.ndarray:
    """Lower convex envelope of w restricted to the grid nodes."""
    return vex_rows(grid, _check_values(grid, values)[None])[0]


def vex_rows(grid: SimplexGrid, rows: np.ndarray) -> np.ndarray:
    """Lower convex envelope of every row of a (rows, npoints) table.

    Each row's envelope depends on that row alone.  The fixed-point
    screen runs on all rows with one gather.  On two-component simplices
    the remaining rows share one vectorised hull; on larger ones a
    batched affine screen drops the affine rows, and the rows left share
    one `_LowerHull`: one Qhull call per row; the plane arithmetic once
    per pass.  The concave form is -vex_rows(grid, -rows).
    """
    rows = _check_rows(grid, rows)
    out = rows.copy()
    todo = np.flatnonzero(~_fixed_points(grid, rows))
    if not todo.size:
        return out
    if grid.dim == 2:
        out[todo] = _vex_dim2_rows(grid, rows[todo])
        return out
    scale = np.maximum(1.0, np.max(np.abs(rows[todo]), axis=1))
    todo = todo[~_affine_rows(grid, rows[todo], scale)[0]]
    if not todo.size:
        return out
    hull, values = _LowerHull(grid), rows[todo]
    grads, offs, starts, members = hull.lower_facets(values)
    planes = np.empty((grid.npoints, offs.size))
    for a, b in zip(starts, [*starts[1:], offs.size]):
        # one product per row: BLAS picks its FMA pattern by shape, so a stacked one moves last bits
        np.matmul(hull.reduced, grads[a:b].T, out=planes[:, a:b])
    planes += offs
    env = np.minimum(np.maximum.reduceat(planes, starts, axis=1).T, values)
    out[todo] = np.where(members, values, env)  # hull nodes keep their exact input values
    return out


def cav_q(grid: SimplexGrid, values: np.ndarray) -> np.ndarray:
    """Upper concave envelope: cav(w) = -vex(-w)."""
    values = _check_values(grid, values)
    return -vex_p(grid, -values)


def facet_slope_probes(grid: SimplexGrid, values: np.ndarray) -> np.ndarray:
    """Slope vectors of the envelope facets of one row or of each row of a
    (rows, npoints) stack, padded to full coordinates.

    The result is the sorted union over the rows; among slopes that differ
    only in the sign of a zero it keeps the first, in row order.  A slope
    g on reduced coordinates (first dim-1 components) acts on the simplex
    as the full vector (g, 0); adding any multiple of the all-ones vector
    changes neither envelopes nor subdifferentials.
    """
    values = np.asarray(values, dtype=float)
    rows = _check_values(grid, values)[None] if values.ndim == 1 else _check_rows(grid, values)
    if grid.dim == 1:
        return np.zeros((1, 1))
    if grid.dim == 2:
        # the chords between consecutive hull nodes of each row
        xs = grid.numerators[:, 0].astype(float)
        r, k = np.nonzero(_chain_rows(grid, rows))
        same = r[1:] == r[:-1]
        r, a, b = r[:-1][same], k[:-1][same], k[1:][same]
        slopes = (rows[r, b] - rows[r, a]) / ((xs[b] - xs[a]) / grid.resolution)
        slopes = np.unique(slopes, return_index=True)[0]
        return np.column_stack([slopes, np.zeros(slopes.size)])
    # an affine row has one slope; any other row its lower facets' gradients
    affine, coefs = _affine_rows(grid, rows, np.maximum(1.0, np.max(np.abs(rows), axis=1)))
    parts = list(np.column_stack([coefs[:, :-1], np.zeros(rows.shape[0])])[:, None])
    hulled = np.flatnonzero(~affine)
    if hulled.size:
        grads, _, starts, _ = _LowerHull(grid).lower_facets(rows[hulled])
        probes = round_decimals(np.column_stack([grads, np.zeros(grads.shape[0])]), 12)
        for k, row_probes in zip(hulled, np.split(probes, starts[1:])):
            parts[k] = sorted_unique(row_probes, axis=0)
    return np.unique(np.vstack([np.empty((0, grid.dim)), *parts]), axis=0, return_index=True)[0]


def coordinate_difference_probes(dim: int) -> np.ndarray:
    probes = [np.zeros(dim)]
    for a in range(dim):
        for b in range(dim):
            if a != b:
                e = np.zeros(dim)
                e[a] = 1.0
                e[b] = -1.0
                probes.append(e)
    return np.array(probes)


def biconjugate_p(grid: SimplexGrid, values: np.ndarray) -> np.ndarray:
    """Biconjugate from facet-slope probes; equals vex_p up to roundoff."""
    values = _check_values(grid, values)
    if _fixed_points(grid, values[None])[0]:
        return values.copy()
    probes = np.vstack([facet_slope_probes(grid, values), coordinate_difference_probes(grid.dim)])
    scores = grid.points @ probes.T - values[:, None]  # (npoints, nprobes)
    conj = scores.max(axis=0)
    return np.max(grid.points @ probes.T - conj[None, :], axis=1)
