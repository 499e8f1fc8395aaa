"""Residual audits certifying a solved field as a dual solution.

Two independent routes, never merged:

* Conjugate route.  For each slope probe and each fixed opponent belief
  node, tabulate the conjugate stack over (t, x), form discrete jets by
  central differences, and evaluate

      residual = xi_t - H(t, x, -xi_x, -X, p, q)

  with p running over the conjugate argmax set and H the game-role
  Hamiltonian `hamiltonian.ham_bellman_inf_sup` (run_sign = +1, min over
  u of max over v).  The convex-side stack max_p <phat, p> - w must keep
  the best residual >= -tol at every audited node (supersolution
  direction); the concave-side stack min_q <qhat, q> - w must keep it
  <= tol (subsolution direction).

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

Both audits work a side at a time, one opponent belief node at a time.
The conjugate route never forms a whole (t, x) conjugate stack: at each
audited pick `_queue_conjugate` gathers w on the pick's jet stencil only
(the centre, t +- 1 and the state neighbours of `_stencil`), scores
<probe, r> - w there, takes the max over the own beliefs (min on the q
side) and forms the jets with the solver's difference expressions
(`_stencil_jets`).  Every step is pointwise in (t, x), so the residuals
are those of the whole stack bit for bit.  The crosscheck scores no
whole block either: its first-occurrence argmin over (t, node, belief)
comes from each belief column of w sorted once per opponent node
(`_extremal_nodes`), and w's own jets at each pick come from the pick's
stencil at its belief, the same way.  Neither audit forms the jets of a
whole stack.  The audited rows of a side
queue in `_Rows` and reach `ham_bellman_inf_sup` in a few batched calls.
One constant, _BLOCK_FLOATS, caps the floats of a chunk's stencil gather
and of the kernel table of one call, so the working set does not grow
with the number of probes or checks.  The reductions keep the per-probe
order (opponent node, probe, t, node), so the reports do not depend on
the chunking.  The probe sets are deduplicated by `_util.sorted_unique`,
so a check never imports numpy.ma.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ._util import sorted_unique
from .errors import ConfigError
from .hamiltonian import ham_bellman_inf_sup
from .solver import SolveResult, StateGrid
from .transform import coordinate_difference_probes, facet_slope_probes

_DEFAULT_MAX_CHECKS = 10_000
_TIE_TOL = 1e-9
# state nodes per slice whose envelope facets seed the probes
_PROBE_SLICE_NODES = 5
_PROBE_CAP = 64
# floats per stencil gather (picks, stencil, K) and per kernel table
# (rows, |U|, |V|): bounds the audits' working set
_BLOCK_FLOATS = 2**14
# (result, its checked field stack) inside a `stacked` block
_HELD: ContextVar[tuple[SolveResult, np.ndarray] | None] = ContextVar("_HELD", default=None)


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


@contextmanager
def stacked(result: SolveResult):
    """Stack and check result's fields once for every audit of result run
    inside the block, instead of once per audit call."""
    token = _HELD.set((result, _stack(result)))
    try:
        yield
    finally:
        _HELD.reset(token)


def _stack(result: SolveResult) -> np.ndarray:
    held = _HELD.get()
    if held is not None and held[0] is result:
        return held[1]
    if len(result.fields) < 3:
        raise ConfigError("residual audits need at least three time slices")
    stack = np.stack([f.values for f in result.fields])
    if not np.all(np.isfinite(stack)):
        raise ConfigError("residual audits need a finite value field")
    stack.flags.writeable = False  # a `stacked` block hands the same array to every audit
    return stack


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
    return sorted_unique(np.round(probes, 12), axis=0)[:_PROBE_CAP]


def _stencil(grid: StateGrid) -> tuple[np.ndarray, np.ndarray]:
    """Time shifts (S,) and state offsets (S, n) of a jet stencil.

    The points are the centre, t + 1 and t - 1, then x + e_k and x - e_k
    for each axis k, then x + e_k + e_l, x + e_k - e_l, x - e_k + e_l and
    x - e_k - e_l for each axis pair k < l.  A frozen axis takes the
    centre's index, as `solver._shift` does.
    """
    n = grid.ndim
    e = np.diag([int(ax.size > 1) for ax in grid.axes])  # e_k, zero on a frozen axis
    offsets = [np.zeros(n, dtype=int)] * 3
    for k in range(n):
        offsets += [e[k], -e[k]]
    for k in range(n):
        for l in range(k + 1, n):
            offsets += [e[k] + e[l], e[k] - e[l], -e[k] + e[l], -e[k] - e[l]]
    shifts = np.zeros(len(offsets), dtype=int)
    shifts[1:3] = 1, -1
    return shifts, np.array(offsets)


def _stencil_points(grid: StateGrid, ti: np.ndarray, nodes: np.ndarray) -> tuple:
    """Index arrays, each (picks, S), of the `_stencil` points of picks at
    time indices ti and (picks, ndim) state indices nodes."""
    shifts, offsets = _stencil(grid)
    return (ti[:, None] + shifts, *np.moveaxis(nodes[:, None, :] + offsets, -1, 0))


def _stencil_jets(grid: StateGrid, values: np.ndarray, dt: float):
    """xi_t (m,), grad (m, n) and hess (m, n, n) from the (m, S) values of
    m picks' `_stencil` points.

    The expressions and their operand order are those of the solver's
    stencils (`solver._derivatives`, `solver._hessians`) and of the time
    difference over a whole stack, so at an interior time and a node off
    every moving wall, where `solver._shift` takes no mirror ghost, each
    jet is bitwise the whole stack's.
    """
    n = grid.ndim
    centre = values[:, 0]
    xi_t = (values[:, 1] - values[:, 2]) / (2.0 * dt)
    grad = np.empty((len(values), n))
    hess = np.empty((len(values), n, n))
    for k in range(n):
        dx = grid.spacing[k]
        up, down = values[:, 3 + 2 * k], values[:, 4 + 2 * k]
        grad[:, k] = (up - down) / (2.0 * dx)
        hess[:, k, k] = (up - 2.0 * centre + down) / (dx * dx)
    col = 3 + 2 * n
    for k in range(n):
        for l in range(k + 1, n):
            pp, pm, mp, mm = values[:, col : col + 4].T
            hess[:, k, l] = hess[:, l, k] = (pp - pm - mp + mm) / (
                4.0 * grid.spacing[k] * grid.spacing[l]
            )
            col += 4
    return xi_t, grad, hess


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


def _beliefs(sense: int, own: np.ndarray, opp: np.ndarray):
    """(p, q) from the own side's beliefs and the opponent's."""
    return (own, opp) if sense > 0 else (opp, own)


def _lifts(own, probes: np.ndarray) -> np.ndarray:
    """<probe, r> over the own beliefs r, shape (probes, K).  Each probe is
    lifted by its own tensordot, as one matrix product over all probes may
    round differently."""
    return np.stack([np.tensordot(own.points, probe, axes=(1, 0)) for probe in probes])


def _extremal_nodes(block: np.ndarray, lifts: np.ndarray, sense: int, core: np.ndarray, size: int):
    """(chunk, flat index) over consecutive chunks of at most size probes.

    block is w at one opponent belief, shape (nt, *shape, K), and core the
    ascending flat positions of the interior (t, node) pairs in
    (nt, *shape).  Per probe, the index is the first minimum of
    sense * (w - <probe, r>) over the flattened (t, node, own belief r)
    axes, interior pairs only: the minima of w - <probe, r> on the convex
    side (sense +1), the maxima on the concave one.

    No (probes, t, node, r) block is scored.  The objective is
    fl(v - c) with v = sense * w and c = sense * <probe, r>, bitwise
    sense * (w - <probe, r>), and it is monotone in v.  So each column r
    of v, sorted once, has its least objective at its head, the columns
    whose head attains a probe's minimum hold every minimum, and in such a
    column the minima are the sorted prefix whose fl(v - c) equals the
    head's, found by bisection on that same expression.  The index is the
    least position in those prefixes, read from the columns' running
    minima of positions.
    """
    width = block.shape[-1]
    values = block.reshape(-1, width)[core]
    values = values if sense > 0 else -values
    order = np.argsort(values, axis=0, kind="stable")
    ranked = np.take_along_axis(values, order, axis=0)  # (P, K), each column ascending
    first = core[np.minimum.accumulate(order, axis=0)]  # least position among the j + 1 smallest
    for lo in range(0, len(lifts), size):
        chunk = np.arange(lo, min(lo + size, len(lifts)))
        lift = lifts[chunk] if sense > 0 else -lifts[chunk]
        head = ranked[0] - lift  # (probes, K): each column's least objective
        best = head.min(axis=1)
        pr, col = np.nonzero(head == best[:, None])
        c, least = lift[pr, col], best[pr]
        # ranked[tie, col] attains the minimum and ranked[past, col] does not
        tie, past = np.zeros(pr.size, dtype=np.intp), np.full(pr.size, len(ranked))
        while np.any(past - tie > 1):
            mid = (tie + past) // 2
            hit = ranked[mid, col] - c <= least
            tie, past = np.where(hit, mid, tie), np.where(hit, past, mid)
        flat = np.full(chunk.size, np.iinfo(np.intp).max)
        np.minimum.at(flat, pr, first[tie, col] * width + col)
        yield chunk, flat


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
        self.times = result.times  # a property that stacks every field's t
        model = result.model
        self.cap = max(1, _BLOCK_FLOATS // (model.u_set.count * model.v_set.count))
        self.blocks: list[tuple] = []  # (out, done, (target, t, x, grad, hess, p, q, xi))
        self.count = 0

    def add(self, out, target, ti, nodes, grad, hess, own_points, opp_point, xi, done=None):
        """Queue rows at time indices ti and (rows, ndim) state indices nodes."""
        grid = self.result.grids.state
        x = np.stack([ax[i] for ax, i in zip(grid.axes, nodes.T)], axis=-1)
        opp = np.broadcast_to(opp_point, (len(target), opp_point.size))
        p, q = _beliefs(self.sense, own_points, opp)
        self.blocks.append((out, done, (target, self.times[ti], x, grad, hess, p, q, xi)))
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
    rows: _Rows, own, opp_point, block, lifts, ti, nodes, out, target, done=None
) -> None:
    """Queue the conjugate-route rows of audited picks.

    block is w at one opponent belief, shape (nt, *shape, K); pick k is
    the core (t, node) pair (ti[k], nodes[k]) of the probe whose lift
    <probe, r> is lifts[k], and its residual folds into out[target[k]].
    Only the pick's `_stencil` is scored: the conjugate is the max of
    <probe, r> - w over the own beliefs r on the convex side (sense +1)
    and the min on the concave one, and at the centre
    sense * (xi_t - H(t, x, -xi_x, -X, p, q)) is maximized over the
    near-optimal beliefs.

    The scores are written belief-major, a C-ordered (K, picks, S) array,
    so the max or min over beliefs and the support's tie scale reduce
    over the leading axis; the support mask is read transposed, so the
    rows queue in (pick, belief) order.  The gather itself stays
    (picks, S, K), one contiguous belief row per stencil point.
    """
    grid = rows.result.grids.state
    gathered = np.moveaxis(block[_stencil_points(grid, ti, nodes)], -1, 0)
    scores = np.subtract(lifts.T[:, :, None], gathered, order="C")
    conj = scores.max(axis=0) if rows.sense > 0 else scores.min(axis=0)
    xi_t, grad, hess = _stencil_jets(grid, conj, rows.result.dt)
    sel, cand = np.nonzero(_support(scores[..., 0], conj[:, 0], rows.sense).T)
    rows.add(
        out, target[sel], ti[sel], nodes[sel], -grad[sel], -hess[sel],
        own.points[cand], opp_point, xi_t[sel], done,
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
    if probes_p is None:
        probes_p = build_probes(result, "p")
    if probes_q is None:
        probes_q = build_probes(result, "q")
    if tol is None:
        tol = default_tolerance(result)
    _check_tolerance(tol)
    nodes = np.array(_core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    per_block = (stack.shape[0] - 2) * len(nodes)  # (interior t, node) pairs per conjugate

    worst = []
    checked = []
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        total = probes.shape[0] * opp.npoints * per_block
        stride = max(1, int(np.ceil(total / max_checks)))
        npr = probes.shape[0]
        lifts = _lifts(own, probes)
        # probes per chunk: each audits at most ceil(per_block / stride)
        # picks, and each pick gathers its stencil's own-belief rows
        gather = -(-per_block // stride) * len(_stencil(grids.state)[0]) * own.npoints
        size = max(1, _BLOCK_FLOATS // gather)
        mins: list[float] = []  # per audited (opponent node, probe), in that order
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
            for lo in range(0, len(audited), size):
                chunk = audited[lo : lo + size]
                sizes = [picks[r].size for r in chunk]
                run = np.concatenate([picks[r] for r in chunk])

                def fold(best, starts=np.cumsum([0] + sizes[:-1])):
                    mins.extend(np.minimum.reduceat(best, starts).tolist())

                _queue_conjugate(
                    rows, own, opp.points[jo], oriented[..., jo],
                    np.repeat(lifts[chunk], sizes, axis=0),
                    run // len(nodes) + 1, nodes[run % len(nodes)],
                    np.full(run.size, -np.inf), np.arange(run.size), fold,
                )
                side_checked += run.size
        rows.flush()
        side_worst = np.inf
        for m in mins:
            side_worst = min(side_worst, m)
        worst.append(sense * side_worst)
        checked.append(side_checked)

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
    if probes_p is None:
        probes_p = build_probes(result, "p")
    if probes_q is None:
        probes_q = build_probes(result, "q")
    if tol is None:
        tol = default_tolerance(result)
    _check_tolerance(tol)
    nodes = np.array(_core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    interior = np.zeros(stack.shape[:-2], dtype=bool)
    interior[(slice(1, -1), *nodes.T)] = True
    core = np.flatnonzero(interior)
    stencil = len(_stencil(grids.state)[0])

    worst = []
    pairs = []
    disagreements = 0
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        # per (opponent node, probe) pair, in that order: sense times the
        # primal residual, and the conjugate route's best at the same node
        primal = np.full(opp.npoints * probes.shape[0], -np.inf)
        dual = np.full(primal.size, -np.inf)
        primal_rows = _Rows(result, sense, np.add)
        dual_rows = _Rows(result, sense, np.subtract)
        lifts = _lifts(own, probes)
        # probes per chunk: each pick gathers its stencil's own-belief rows
        size = max(1, _BLOCK_FLOATS // (stencil * own.npoints))
        for jo in range(opp.npoints):
            block = oriented[..., jo]  # (nt, *shape, own npoints)
            for chunk, first in _extremal_nodes(block, lifts, sense, core, size):
                ti, *node, c = np.unravel_index(first, block.shape)
                node = np.stack(node, axis=-1)
                at = (*_stencil_points(grids.state, ti, node), c[:, None])
                xi_t, grad, hess = _stencil_jets(grids.state, block[at], result.dt)
                target = jo * probes.shape[0] + chunk
                primal_rows.add(
                    primal, target, ti, node, grad, hess, own.points[c], opp.points[jo], xi_t,
                )
                _queue_conjugate(
                    dual_rows, own, opp.points[jo], block, lifts[chunk], ti, node, dual, target,
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
