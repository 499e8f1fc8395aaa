"""Residual audits certifying a solved field as a dual solution.

Two independent routes, never merged:

* Conjugate route.  For each slope probe and each fixed opponent belief
  node, tabulate the conjugate stack over (t, x), form discrete jets by
  central differences, and evaluate

      residual = xi_t - H(t, x, -xi_x, -X, p, q)

  with p running over the conjugate argmax set and H the game-role
  Hamiltonian `hamiltonian.ham_bellman_inf_sup` (min over u of max over
  v).  The convex-side stack max_p <phat, p> - w must keep the best
  residual >= -tol at every audited node (supersolution direction); the
  concave-side stack min_q <qhat, q> - w must keep it <= tol
  (subsolution direction).

* Primal route.  For each probe pair the best interior node of
  w - <phat, p> over (t, x, p) is located on the raw field and the jet
  of w itself is tested there: xi_t + H(t, x, xi_x, X, p*, q) <= tol at
  minima, and >= -tol at the mirrored maxima in q.  Verdicts are
  compared against the conjugate route at the same node; the audits
  agree on sound fields.

Both routes sample interior nodes at distance >= L*(T - t0) from the
walls of every moving state axis: the box truncates a whole-space
equation, so residuals closer to a wall measure the reflecting boundary
condition, not the equation.  Audits are further capped by a
deterministic stride over the run (opponent node, probe, t, node) so
runtime stays bounded; uniform defects (time-affine perturbations) are
visible at every node, so subsampling cannot hide them, and a single
shifted slice shows at the audited nodes of its two neighbours.

Every audit reads the solve's field stack, `SolveResult.values`, in
place: `_stack` only checks it (three slices or more, every value
finite).  Both audits work a side at a time, and neither forms a whole
(t, x) conjugate stack or the jets of one.  The conjugate route takes
one opponent belief node at a time: at each audited pick
`_queue_conjugate` gathers w on the pick's `_jet_points` only (the
solver's state stencil at t, then the centre at t + 1 and t - 1), scores
<probe, r> - w there, takes the max over the own beliefs (min on the q
side), keeps the time difference of the last two points and forms the
state jets with the solver's `_jets`, the HJB step's own differences.
Picks are core nodes, so no mirror ghost is read, and every step is
pointwise in (t, x): the residuals are those of the whole stack bit for
bit.  The crosscheck takes a group of opponent nodes at a time: each
(opponent node, probe) pair's first-occurrence argmin over (t, node,
belief) comes from the (belief, opponent node) columns of w sorted once
per group (`_extremal_nodes`), and w's own jets at the picks from one
gather of their `_jet_points`.  The audited rows of a side queue in
`_Rows` and reach `ham_bellman_inf_sup` in a few batched calls.
`_BLOCK_FLOATS` (1 MB of floats) caps a chunk's stencil gather, a kernel
table and a crosscheck sort table, so the working set does not grow with
the number of probes, checks or opponent nodes.  The conjugate route
folds one minimum per (opponent node, probe), which the report keeps as
`pair_residuals_super` and `pair_residuals_sub`; the audited pairs are
tracked apart from those values, so a NaN residual makes its side's
scalar residual NaN and the side fail.  The reductions keep the
per-probe order (opponent node, probe, t, node), so the reports do not
depend on the chunking.  The probe lifts <probe, r> are one BLAS product
per probe (`_lifts`).  The probe sets are deduplicated by
`_util.sorted_unique`, so a check never imports numpy.ma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import round_decimals, sorted_unique
from .errors import ConfigError
from .hamiltonian import ham_bellman_inf_sup
from .solver import SolveResult, StateGrid, _jets, _stencil, _stencil_points
from .transform import coordinate_difference_probes, facet_slope_probes

_DEFAULT_MAX_CHECKS = 10_000
_TIE_TOL = 1e-9
# state nodes per slice whose envelope facets seed the probes
_PROBE_SLICE_NODES = 5
_PROBE_CAP = 64
# floats per stencil gather (picks, stencil, K), kernel table (rows, |U|,
# |V|) and crosscheck sort table (interior (t, node) pairs, K, opponent
# nodes).  Each call and gather has a fixed cost, so the cap is 1 MB: on
# check-2type's input (20,480 checks) the audits make 6 kernel calls and
# 12 conjugate gathers, one per (side, opponent node) on the conjugate
# route and one per side on the crosscheck, where 2**14 made 16 kernel
# calls and 2**16 still makes 8.  The price is peak memory, mostly the
# kernel table and its temporaries: about 10,000 rows of |U| |V| floats
# per call there, and 1.2 MB more peak RSS than at 2**14
_BLOCK_FLOATS = 2**17


@dataclass(frozen=True)
class DualCheckReport:
    tolerance: float
    supersolution_residual: float  # min over audited nodes, passes when >= -tol
    subsolution_residual: float  # max over audited nodes, passes when <= tol
    supersolution_ok: bool
    subsolution_ok: bool
    checks_super: int
    checks_sub: int
    probes_p: np.ndarray
    probes_q: np.ndarray
    # per (opponent belief node, probe) pair, the min (super) or max (sub)
    # over its audited nodes; NaN where the stride audits none of them, or
    # where a residual is NaN: then the side's scalar residual is NaN and
    # its _ok False
    pair_residuals_super: np.ndarray  # (q nodes, p probes)
    pair_residuals_sub: np.ndarray  # (p nodes, q probes)


@dataclass(frozen=True)
class CrosscheckReport:
    tolerance: float
    worst_min_side: float  # max over pairs of the primal residual at minima, <= tol passes
    worst_max_side: float  # min over pairs of the primal residual at maxima, >= -tol passes
    disagreements: int
    pairs_min_side: int
    pairs_max_side: int


def default_tolerance(result: SolveResult) -> float:
    spacing = [
        dx
        for ax, dx in zip(result.grids.state.axes, result.grids.state.spacing)
        if ax.size > 1
    ]
    dx = max(spacing) if spacing else 0.0
    return 10.0 * (dx + result.dt) * result.model.lipschitz_bound


def _stack(result: SolveResult) -> np.ndarray:
    """result.values, checked: at least three slices, every value finite."""
    if len(result.values) < 3:
        raise ConfigError("residual audits need at least three time slices")
    if not np.all(np.isfinite(result.values)):
        raise ConfigError("residual audits need a finite value field")
    return result.values


def _core_nodes(result: SolveResult) -> list[tuple[int, ...]]:
    """Interior nodes at distance >= L*(T - t0) from every moving wall.

    The state box truncates a whole-space equation behind reflecting
    ghosts, so PDE residuals only mean anything outside the layer the
    boundary condition can reach; near-wall residuals are O(1) artifacts
    on otherwise sound fields.  Frozen axes keep their single node.
    """
    grid = result.grids.state
    depth = result.model.lipschitz_bound * (
        result.model.horizon - float(result.times[0])
    )
    ranges: list[list[int]] = []
    for ax in grid.axes:
        if ax.size == 1:
            ranges.append([ax.size - 1])
            continue
        if ax.size == 2:
            raise ConfigError("residual audits need at least three nodes per moving axis")
        lo, hi = float(ax[0]) + depth, float(ax[-1]) - depth
        idx = [k for k in range(1, ax.size - 1) if lo <= float(ax[k]) <= hi]
        if not idx:
            raise ConfigError(
                "no audit core: every moving state axis must extend "
                "L*(T - t0) beyond the region to certify"
            )
        ranges.append(idx)
    out: list[tuple[int, ...]] = [()]
    for r in ranges:
        out = [node + (i,) for node in out for i in r]
    return out


def build_probes(result: SolveResult, side: str) -> np.ndarray:
    """Envelope facet slopes of the terminal and earliest slices, plus
    coordinate differences; deterministic and capped."""
    stack = _stack(result)
    grids = result.grids
    flat = stack.reshape(stack.shape[0], -1, grids.p.npoints, grids.q.npoints)
    nx = flat.shape[1]
    picks = sorted_unique(np.linspace(0, nx - 1, num=min(_PROBE_SLICE_NODES, nx)).astype(int))
    # rows in (slice, picked node, opponent node) order, latest slice first
    block = flat[[-1, 0]][:, picks]
    if side == "p":
        grid, rows = grids.p, np.swapaxes(block, -1, -2).reshape(-1, grids.p.npoints)
    elif side == "q":
        grid, rows = grids.q, -block.reshape(-1, grids.q.npoints)
    else:
        raise ConfigError("side must be 'p' or 'q'")
    probes = np.vstack([coordinate_difference_probes(grid.dim), facet_slope_probes(grid, rows)])
    return sorted_unique(round_decimals(probes, 12), axis=0)[:_PROBE_CAP]


def _jet_points(grid: StateGrid, ti: np.ndarray, nodes: np.ndarray) -> tuple:
    """Index arrays, each (S + 2, picks), of picks at time indices ti and
    (picks, ndim) state indices nodes: the `_stencil` points at ti, then
    the centre at ti + 1 and at ti - 1.  Picks are core nodes, off every
    moving wall, so no point is a mirror ghost."""
    points = _stencil_points(grid, nodes)
    rows = np.r_[np.arange(len(points[0])), 0, 0]
    shifts = np.zeros((len(rows), 1), dtype=int)
    shifts[-2:, 0] = 1, -1
    return (ti + shifts, *(axis[rows] for axis in points))


def _support(scores: np.ndarray, best, sense: int) -> np.ndarray:
    """Mask of the near-optimal beliefs along the first axis, ties included."""
    tie = _TIE_TOL * np.maximum(1.0, np.max(np.abs(scores), axis=0))
    if sense > 0:
        return scores >= best - tie
    return scores <= best + tie


def _sides(stack, grids, probes_p, probes_q):
    """(own grid, opponent grid, sense, probes, stack) per side, the stack
    viewed with the opponent's belief axis last; sense is +1 on the convex
    p side and -1 on the concave q side."""
    yield grids.p, grids.q, 1, np.asarray(probes_p, dtype=float), stack
    yield grids.q, grids.p, -1, np.asarray(probes_q, dtype=float), np.swapaxes(stack, -1, -2)


def _lifts(own, probes: np.ndarray) -> np.ndarray:
    """<probe, r> over the own beliefs r, shape (probes, K).

    Each probe is lifted by its own (K, d) x (d, 1) product, the BLAS call
    that `np.tensordot(own.points, probe, axes=(1, 0))` makes after its
    reshapes, so the bits are tensordot's without its Python wrapper.  One
    matrix product over all probes is not used: on 3-type lattices it
    rounds some lifts differently.
    """
    return np.stack([np.dot(own.points, probe.reshape(-1, 1)).reshape(-1) for probe in probes])


def _extremal_nodes(block: np.ndarray, lifts: np.ndarray, sense: int, core: np.ndarray, size: int):
    """(pairs, flat index) over consecutive chunks of at most size pairs.

    block is w at G opponent beliefs, shape (nt, *shape, K, G), and core
    the ascending flat positions of the interior (t, node) pairs in
    (nt, *shape).  Pair g * len(lifts) + probe is opponent node g and that
    probe; its index is the first minimum of sense * (w - <probe, r>) at g
    over the flattened (t, node, own belief r) axes of (nt, *shape, K),
    interior pairs only: the minima of w - <probe, r> on the convex side
    (sense +1), the maxima on the concave one.

    No (probes, t, node, r) block is scored.  The objective is
    fl(v - c) with v = sense * w and c = sense * <probe, r>, bitwise
    sense * (w - <probe, r>), and it is monotone in v.  So each column
    (r, g) of v, sorted once, has its least objective at its head, the
    columns whose head attains a pair's minimum hold every minimum, and in
    such a column the minima are the sorted prefix whose fl(v - c) equals
    the head's, found by bisection on that same expression.  The index is
    the least position in those prefixes, read from the columns' running
    minima of positions.
    """
    width, groups = block.shape[-2:]
    ranked = block.reshape(-1, width, groups)[core]  # (P, K, G)
    if sense < 0:
        np.negative(ranked, out=ranked)
    order = np.argsort(ranked, axis=0, kind="stable")
    ranked.sort(axis=0, kind="stable")  # each column ascending, as ranked[order] reads it
    # the least row of core among the j + 1 smallest of each column
    first = np.minimum.accumulate(order, axis=0, out=order)
    heads = ranked[0].T  # (G, K)
    lifts = lifts if sense > 0 else -lifts
    for lo in range(0, groups * len(lifts), size):
        pairs = np.arange(lo, min(lo + size, groups * len(lifts)))
        group, probe = np.divmod(pairs, len(lifts))
        lift = lifts[probe]
        head = heads[group] - lift  # (pairs, K): each column's least objective
        best = head.min(axis=1)
        pr, col = np.nonzero(head == best[:, None])
        g, c, least = group[pr], lift[pr, col], best[pr]
        # ranked[tie, col, g] attains the minimum and ranked[past, col, g] does not
        tie, past = np.zeros(pr.size, dtype=np.intp), np.full(pr.size, len(ranked))
        while np.any(past - tie > 1):
            mid = (tie + past) // 2
            hit = ranked[mid, col, g] - c <= least
            tie, past = np.where(hit, mid, tie), np.where(hit, past, mid)
        flat = np.full(pairs.size, np.iinfo(np.intp).max)
        np.minimum.at(flat, pr, core[first[tie, col, g]] * width + col)
        yield pairs, flat


class _Rows:
    """Kernel rows of one audit route, evaluated in capped batches.

    Rows are queued in blocks.  Each row folds sense * combine(xi, H) by
    maximum into out[target] of its block, H the game-role Hamiltonian
    `ham_bellman_inf_sup` at the row's (t, x, grad, hess, p, q).  A call
    takes at most _BLOCK_FLOATS // (|U| |V|) rows, so a block may span
    two calls; a block's done(out) runs once all its rows are in, blocks
    in the order they were queued, a block without rows included.  The
    kernel is pointwise, so the batching changes no bit.
    """

    def __init__(self, result: SolveResult, sense: int, combine):
        self.result, self.sense, self.combine = result, sense, combine
        model = result.model
        self.cap = max(1, _BLOCK_FLOATS // (model.u_set.count * model.v_set.count))
        self.blocks: list[tuple] = []  # (out, done, (target, t, x, grad, hess, p, q, xi))
        self.count = 0

    def add(self, out, target, ti, nodes, grad, hess, own_points, opp_points, xi, done=None):
        """Queue rows at time indices ti and (rows, ndim) state indices nodes;
        opp_points is one opponent belief or one per row."""
        grid = self.result.grids.state
        x = np.stack([ax[i] for ax, i in zip(grid.axes, nodes.T)], axis=-1)
        opp = np.broadcast_to(opp_points, (len(target), opp_points.shape[-1]))
        p, q = (own_points, opp) if self.sense > 0 else (opp, own_points)
        self.blocks.append((out, done, (target, self.result.times[ti], x, grad, hess, p, q, xi)))
        self.count += len(target)
        while self.count >= self.cap:
            self._call()

    def flush(self) -> None:
        while self.blocks:
            self._call()

    def _call(self) -> None:
        """Evaluate the first min(cap, count) queued rows in one kernel call;
        blocks without rows that follow them are settled with them."""
        take = min(self.cap, self.count)
        parts = []
        size = 0
        while self.blocks and (size < take or not len(self.blocks[0][2][0])):
            out, done, cols = self.blocks[0]
            n = len(cols[0])
            if size + n > take:  # split the block; its done waits for the rest
                n = take - size
                self.blocks[0] = (out, done, tuple(col[n:] for col in cols))
                done, cols = None, tuple(col[:n] for col in cols)
            else:
                self.blocks.pop(0)
            parts.append((out, done, cols))
            size += n
        value = np.empty(0)
        if take:
            columns = list(zip(*(cols for _, _, cols in parts)))
            t, x, grad, hess, p, q, xi = (np.concatenate(col) for col in columns[1:])
            ham = ham_bellman_inf_sup(self.result.model, t, x, grad, hess, p, q)
            value = self.sense * self.combine(xi, ham)
        lo = 0
        for out, done, cols in parts:
            hi = lo + len(cols[0])
            np.maximum.at(out, cols[0], value[lo:hi])
            if done is not None:
                done(out)
            lo = hi
        self.count -= take


def _queue_conjugate(
    rows: _Rows, own, opp, oriented, jo, lifts, ti, nodes, out, target, done=None
) -> None:
    """Queue the conjugate-route rows of audited picks.

    oriented is w with the opponent's belief axis last; pick k is the core
    (t, node) pair (ti[k], nodes[k]) at opponent node jo (or jo[k]) of the
    probe whose lift <probe, r> is lifts[k], and its residual folds into
    out[target[k]].  Only the pick's `_jet_points` are scored: the conjugate is the max of
    <probe, r> - w over the own beliefs r on the convex side (sense +1)
    and the min on the concave one, its jets are `solver._jets` of the
    state stencil and the time difference of the last two points, and at
    the centre sense * (xi_t - H(t, x, -xi_x, -X, p, q)) is maximized
    over the near-optimal beliefs.

    The scores are written belief-major, a C-ordered (K, S + 2, picks)
    array, so the max or min over beliefs and the support's tie scale
    reduce over the leading axis and the conjugate comes out stencil
    first, as `_jets` reads it; the support mask is read transposed, so
    the rows queue in (pick, belief) order.  The gather itself is
    (S + 2, picks, K), one belief row per stencil point.
    """
    grid = rows.result.grids.state
    gathered = np.moveaxis(oriented[(*_jet_points(grid, ti, nodes), slice(None), jo)], -1, 0)
    scores = np.subtract(lifts.T[:, None, :], gathered, order="C")
    conj = scores.max(axis=0) if rows.sense > 0 else scores.min(axis=0)
    xi_t = (conj[-2] - conj[-1]) / (2.0 * rows.result.dt)
    grad, hess = _jets(grid, conj[:-2])
    sel, cand = np.nonzero(_support(scores[:, 0], conj[0], rows.sense).T)
    rows.add(
        out, target[sel], ti[sel], nodes[sel], -grad[sel], -hess[sel],
        own.points[cand], opp.points[jo if np.ndim(jo) == 0 else jo[sel]], xi_t[sel], done,
    )


def _check_tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tol!r}")


def check_dual_solution(
    result: SolveResult,
    *,
    probes_p: np.ndarray | None = None,
    probes_q: np.ndarray | None = None,
    tol: float | None = None,
    max_checks: int = _DEFAULT_MAX_CHECKS,
) -> DualCheckReport:
    """Conjugate-route residual audit of both dual inequalities."""
    stack = _stack(result)
    grids = result.grids
    if max_checks < 1:
        raise ConfigError("max_checks must be >= 1")
    probes_p = build_probes(result, "p") if probes_p is None else probes_p
    probes_q = build_probes(result, "q") if probes_q is None else probes_q
    tol = default_tolerance(result) if tol is None else tol
    _check_tolerance(tol)
    nodes = np.array(_core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    per_block = (stack.shape[0] - 2) * len(nodes)  # (interior t, node) pairs per conjugate

    worst = []
    checked = []
    pair_residuals = []
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        total = probes.shape[0] * opp.npoints * per_block
        stride = max(1, int(np.ceil(total / max_checks)))
        npr = probes.shape[0]
        lifts = _lifts(own, probes)
        # probes per chunk: each audits at most ceil(per_block / stride)
        # picks, and each pick gathers its stencil's own-belief rows
        gather = -(-per_block // stride) * (len(_stencil(grids.state)) + 2) * own.npoints
        size = max(1, _BLOCK_FLOATS // gather)
        mins = np.full((opp.npoints, npr), np.nan)  # per (opponent node, probe)
        audited_pairs = np.zeros(mins.shape, dtype=bool)
        rows = _Rows(result, sense, np.subtract)
        side_checked = 0
        for jo in range(opp.npoints):
            # audited pairs: every stride-th (interior t, node) of the run
            # over (opponent node, probe, t, node)
            picks = [
                np.arange(-(jo * npr + r) * per_block % stride, per_block, stride)
                for r in range(npr)
            ]
            audited = [r for r in range(npr) if picks[r].size]
            audited_pairs[jo, audited] = True
            for lo in range(0, len(audited), size):
                chunk = audited[lo : lo + size]
                sizes = [picks[r].size for r in chunk]
                run = np.concatenate([picks[r] for r in chunk])

                def fold(best, at=(jo, chunk), starts=np.cumsum([0] + sizes[:-1])):
                    mins[at] = np.minimum.reduceat(best, starts)

                _queue_conjugate(
                    rows, own, opp, oriented, jo,
                    np.repeat(lifts[chunk], sizes, axis=0),
                    run // len(nodes) + 1, nodes[run % len(nodes)],
                    np.full(run.size, -np.inf), np.arange(run.size), fold,
                )
                side_checked += run.size
        rows.flush()
        side = mins[audited_pairs].tolist()  # in (opponent node, probe) order
        side_worst = np.nan if np.isnan(side).any() else min(side, default=np.inf)
        worst.append(sense * side_worst)
        checked.append(side_checked)
        pair_residuals.append(sense * mins)

    sup_res, sub_res = worst
    return DualCheckReport(
        tolerance=tol,
        supersolution_residual=sup_res,
        subsolution_residual=sub_res,
        supersolution_ok=bool(sup_res >= -tol),
        subsolution_ok=bool(sub_res <= tol),
        checks_super=checked[0],
        checks_sub=checked[1],
        probes_p=np.asarray(probes_p, dtype=float),
        probes_q=np.asarray(probes_q, dtype=float),
        pair_residuals_super=pair_residuals[0],
        pair_residuals_sub=pair_residuals[1],
    )


def primal_crosscheck(
    result: SolveResult,
    *,
    probes_p: np.ndarray | None = None,
    probes_q: np.ndarray | None = None,
    tol: float | None = None,
) -> CrosscheckReport:
    """Primal-route audit at extremal interior nodes, compared with the
    conjugate route at the same nodes."""
    stack = _stack(result)
    grids = result.grids
    probes_p = build_probes(result, "p") if probes_p is None else probes_p
    probes_q = build_probes(result, "q") if probes_q is None else probes_q
    tol = default_tolerance(result) if tol is None else tol
    _check_tolerance(tol)
    nodes = np.array(_core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    interior = np.zeros(stack.shape[:-2], dtype=bool)
    interior[(slice(1, -1), *nodes.T)] = True
    core = np.flatnonzero(interior)
    stencil = len(_stencil(grids.state)) + 2

    worst = []
    pairs = []
    disagreements = 0
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        # per (opponent node, probe) pair, in that order: sense times the
        # primal residual, and the conjugate route's best at the same node
        npr = probes.shape[0]
        primal = np.full(opp.npoints * npr, -np.inf)
        dual = np.full(primal.size, -np.inf)
        primal_rows = _Rows(result, sense, np.add)
        dual_rows = _Rows(result, sense, np.subtract)
        lifts = _lifts(own, probes)
        # opponent nodes per sorted table, and pairs per chunk: each pick
        # gathers its stencil's own-belief rows
        group = max(1, _BLOCK_FLOATS // (core.size * own.npoints))
        size = max(1, _BLOCK_FLOATS // (stencil * own.npoints))
        for lo in range(0, opp.npoints, group):
            block = oriented[..., lo : lo + group]  # (nt, *shape, own npoints, G)
            for pair, first in _extremal_nodes(block, lifts, sense, core, size):
                target = lo * npr + pair
                jo, probe = np.divmod(target, npr)
                ti, *node, c = np.unravel_index(first, block.shape[:-1])
                node = np.stack(node, axis=-1)
                jet = oriented[(*_jet_points(grids.state, ti, node), c, jo)]  # (S + 2, picks)
                xi_t = (jet[-2] - jet[-1]) / (2.0 * result.dt)
                grad, hess = _jets(grids.state, jet[:-2])
                primal_rows.add(
                    primal, target, ti, node, grad, hess, own.points[c], opp.points[jo], xi_t,
                )
                _queue_conjugate(
                    dual_rows, own, opp, oriented, jo, lifts[probe], ti, node, dual, target,
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

    return CrosscheckReport(
        tolerance=tol,
        worst_min_side=float(worst[0]),
        worst_max_side=float(worst[1]),
        disagreements=disagreements,
        pairs_min_side=pairs[0],
        pairs_max_side=pairs[1],
    )
