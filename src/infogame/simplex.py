"""Barycentric lattices on probability simplices.

A grid of resolution N over the simplex of probability vectors with I
components is the set {k/N : k integer vector >= 0, sum k = N}.  Points
are stored by their exact integer numerators; float coordinates are a
derived view, so neighbour and midpoint relations never suffer roundoff.

Discrete convexity is certified on the collinear midpoint triples
(p - h, p, p + h) with h = (e_a - e_b)/N: a tabulated function whose
midpoint value never exceeds the average of its neighbours along every
such direction is the restriction of a convex piecewise-linear function
on the standard triangulation of the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._util import _MEMORY_CAP_BYTES
from .errors import ConfigError

# peak bytes of `build_grid` per lattice point and per midpoint triple (a
# point has at most dim (dim - 1) / 2 triples): its Python rows, index and
# triple lists.  Measured peaks are about 400 bytes per point at dim 2 and
# 600 at dim 3, below the 512 and 1024 this bound gives.
_BUILD_BYTES = 256


@dataclass(frozen=True)
class SimplexGrid:
    dim: int
    resolution: int
    numerators: np.ndarray  # (npoints, dim) int, lexicographic rows
    points: np.ndarray  # (npoints, dim) float, numerators / resolution
    triples: np.ndarray  # (ntriples, 3) indices (minus, mid, plus)
    _index: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def npoints(self) -> int:
        return self.numerators.shape[0]

    def index_of(self, numerator: tuple[int, ...]) -> int:
        return self._index[tuple(int(k) for k in numerator)]

    def vertex_index(self, component: int) -> int:
        """Index of the unit vector putting all mass on one component."""
        if not 0 <= component < self.dim:
            raise ConfigError(f"vertex component {component} out of range")
        key = [0] * self.dim
        key[component] = self.resolution
        return self._index[tuple(key)]


def _lattice(dim: int, total: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(total,)]
    out: list[tuple[int, ...]] = []
    for first in range(total + 1):
        for rest in _lattice(dim - 1, total - first):
            out.append((first,) + rest)
    return out


def build_grid(dim: int, resolution: int) -> SimplexGrid:
    if dim < 1:
        raise ConfigError(f"simplex dimension must be >= 1, got {dim}")
    if resolution < 1:
        raise ConfigError(f"simplex resolution must be >= 1, got {resolution}")
    npoints = comb(resolution + dim - 1, dim - 1)
    if npoints * (1 + dim * (dim - 1) // 2) * _BUILD_BYTES > _MEMORY_CAP_BYTES:
        raise ConfigError(
            f"a lattice of {npoints} points (dim {dim}, resolution {resolution}) "
            "is above the 2 GiB cap"
        )
    rows = _lattice(dim, resolution)
    numerators = np.array(rows, dtype=np.int64)
    assert numerators.shape[0] == npoints
    index = {row: i for i, row in enumerate(rows)}
    points = numerators.astype(float) / float(resolution)

    triples: list[tuple[int, int, int]] = []
    for mid, row in enumerate(rows):
        for a in range(dim):
            for b in range(a + 1, dim):
                # step h = e_a - e_b; both neighbours must stay on the lattice
                if row[a] >= 1 and row[b] >= 1:
                    lo = list(row)
                    lo[a] -= 1
                    lo[b] += 1
                    hi = list(row)
                    hi[a] += 1
                    hi[b] -= 1
                    triples.append((index[tuple(lo)], mid, index[tuple(hi)]))
    triple_arr = (
        np.array(triples, dtype=np.int64)
        if triples
        else np.empty((0, 3), dtype=np.int64)
    )
    return SimplexGrid(
        dim=dim,
        resolution=resolution,
        numerators=numerators,
        points=points,
        triples=triple_arr,
        _index=index,
    )


def discrete_convexity_violation(grid: SimplexGrid, values: np.ndarray) -> float:
    """Worst midpoint excess over the collinear triple set.

    Returns max over triples of w(mid) - (w(lo) + w(hi))/2; a result <= 0
    certifies discrete convexity.  Grids without triples (a single point,
    or resolution too small to host one) report 0.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.npoints,):
        raise ConfigError(
            f"values shape {values.shape} does not match grid ({grid.npoints},)"
        )
    return float(convexity_violations(grid, values))


def convexity_violations(grid: SimplexGrid, rows: np.ndarray) -> np.ndarray:
    """`discrete_convexity_violation` of every row along the last axis.

    One gather over the triple set for the whole (..., npoints) table; the
    result has shape rows.shape[:-1].
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1:] != (grid.npoints,):
        raise ConfigError(
            f"rows shape {rows.shape} does not end in the grid size {grid.npoints}"
        )
    if grid.triples.shape[0] == 0:
        return np.zeros(rows.shape[:-1])
    lo = rows[..., grid.triples[:, 0]]
    mid = rows[..., grid.triples[:, 1]]
    hi = rows[..., grid.triples[:, 2]]
    return np.max(mid - 0.5 * (lo + hi), axis=-1)
