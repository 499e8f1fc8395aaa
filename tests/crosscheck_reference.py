"""Per-opponent-node primal crosscheck: a bitwise reference for
`dualcheck.primal_crosscheck`.

The library sorts one table per group of opponent belief nodes and finds
every (opponent node, probe) pair's extremal node from it.  This module
keeps the route one opponent node at a time with the same arithmetic:
- each opponent node's block of w, shape (nt, *shape, K), is sorted on
  its own, one stable argsort per own-belief column, and every probe's
  first argmin is read from that block alone;
- the primal jets at the picks are gathered from that block, and the
  conjugate rows are queued from that opponent node.
"""

from __future__ import annotations

import numpy as np

from infogame import dualcheck
from infogame.solver import _jets


def extremal_nodes(block, lifts, sense, core):
    """Per probe, the first minimum of sense * (w - <probe, r>) over the
    interior (t, node, r) of one opponent node's block (nt, *shape, K),
    as a flat index into the block."""
    width = block.shape[-1]
    values = block.reshape(-1, width)[core]
    values = values if sense > 0 else -values
    order = np.argsort(values, axis=0, kind="stable")
    ranked = np.take_along_axis(values, order, axis=0)  # (P, K), each column ascending
    first = core[np.minimum.accumulate(order, axis=0)]
    lift = lifts if sense > 0 else -lifts
    head = ranked[0] - lift  # (probes, K): each column's least objective
    best = head.min(axis=1)
    pr, col = np.nonzero(head == best[:, None])
    c, least = lift[pr, col], best[pr]
    tie, past = np.zeros(pr.size, dtype=np.intp), np.full(pr.size, len(ranked))
    while np.any(past - tie > 1):
        mid = (tie + past) // 2
        hit = ranked[mid, col] - c <= least
        tie, past = np.where(hit, mid, tie), np.where(hit, past, mid)
    flat = np.full(len(lifts), np.iinfo(np.intp).max)
    np.minimum.at(flat, pr, first[tie, col] * width + col)
    return flat


def primal_crosscheck(result, *, probes_p, probes_q, tol):
    """`dualcheck.primal_crosscheck`, one opponent node at a time."""
    stack = dualcheck._stack(result)
    grids = result.grids
    nodes = np.array(dualcheck._core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    interior = np.zeros(stack.shape[:-2], dtype=bool)
    interior[(slice(1, -1), *nodes.T)] = True
    core = np.flatnonzero(interior)

    worst = []
    pairs = []
    disagreements = 0
    for own, opp, sense, probes, oriented in dualcheck._sides(stack, grids, probes_p, probes_q):
        primal = np.full(opp.npoints * probes.shape[0], -np.inf)
        dual = np.full(primal.size, -np.inf)
        primal_rows = dualcheck._Rows(result, sense, np.add)
        dual_rows = dualcheck._Rows(result, sense, np.subtract)
        lifts = dualcheck._lifts(own, probes)
        chunk = np.arange(len(lifts))
        for jo in range(opp.npoints):
            block = oriented[..., jo]  # (nt, *shape, own npoints)
            first = extremal_nodes(block, lifts, sense, core)
            ti, *node, c = np.unravel_index(first, block.shape)
            node = np.stack(node, axis=-1)
            points = dualcheck._jet_points(grids.state, ti, node)
            jet = block[(*points, c)]  # (S + 2, picks)
            xi_t = (jet[-2] - jet[-1]) / (2.0 * result.dt)
            grad, hess = _jets(grids.state, jet[:-2])
            target = jo * probes.shape[0] + chunk
            primal_rows.add(
                primal, target, ti, node, grad, hess, own.points[c], opp.points[jo], xi_t,
            )
            dualcheck._queue_conjugate(
                dual_rows, own, opp, oriented, jo, lifts, ti, node, points, dual, target,
            )
        primal_rows.flush()
        dual_rows.flush()
        side_worst = -np.inf
        for residual, best in zip(primal.tolist(), dual.tolist()):
            side_worst = max(side_worst, residual)
            if (residual <= tol) != (best >= -tol):
                disagreements += 1
        worst.append(sense * side_worst)
        pairs.append(primal.size)

    return dualcheck.CrosscheckReport(
        tolerance=tol,
        worst_min_side=float(worst[0]),
        worst_max_side=float(worst[1]),
        disagreements=disagreements,
        pairs_min_side=pairs[0],
        pairs_max_side=pairs[1],
    )

