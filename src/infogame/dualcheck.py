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

Jets are central differences over a whole (t, x) stack at once.  One
helper, `_conjugate_residuals`, runs the conjugate route for one (side,
opponent node, probe): it builds the stack's jets once and evaluates
every requested (t, node), with its tie-support, in one batched
`ham_bellman_inf_sup` call.  The audit hands it the strided picks of a
probe, one probe at a time to keep memory flat; the crosscheck hands it
its one extremal node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hamiltonian import ham_bellman_inf_sup
from .solver import SolveResult, StateGrid, _derivatives, _hessians
from .transform import coordinate_difference_probes, facet_slope_probes

_DEFAULT_MAX_CHECKS = 10_000
_TIE_TOL = 1e-9
# state nodes per slice whose envelope facets seed the probes
_PROBE_SLICE_NODES = 5
_PROBE_CAP = 64


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


def _stack(result: SolveResult) -> tuple[np.ndarray, np.ndarray]:
    if len(result.fields) < 3:
        raise ConfigError("residual audits need at least three time slices")
    stack = np.stack([f.values for f in result.fields])
    return stack, result.times


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
    stack, _ = _stack(result)
    grids = result.grids
    if side == "p":
        grid, opp = grids.p, grids.q
    elif side == "q":
        grid, opp = grids.q, grids.p
    else:
        raise ConfigError("side must be 'p' or 'q'")
    flat = stack.reshape(stack.shape[0], -1, grids.p.npoints, grids.q.npoints)
    nx = flat.shape[1]
    picks = np.unique(np.linspace(0, nx - 1, num=min(_PROBE_SLICE_NODES, nx)).astype(int))
    rows = [coordinate_difference_probes(grid.dim)]
    for ti in (flat.shape[0] - 1, 0):
        for xi in picks:
            for jo in range(opp.npoints):
                if side == "p":
                    values = flat[ti, xi, :, jo]
                else:
                    values = -flat[ti, xi, jo, :]
                rows.append(facet_slope_probes(grid, values))
    probes = np.unique(np.round(np.vstack(rows), 12), axis=0)
    return probes[:_PROBE_CAP]


def _stack_jets(grid: StateGrid, stack: np.ndarray, dt: float):
    """Central-difference jets of a (t, *shape) stack at every interior time.

    Returns xi_t over (nt - 2, *shape), grad over (nt - 2, *shape, n) and
    hess over (nt - 2, *shape, n, n); index 0 is the slice at t index 1.
    """
    inner = np.moveaxis(stack[1:-1], 0, -1)  # state axes lead, as the stencils expect
    grad, second, mixed = _derivatives(grid, inner)
    xi_t = (stack[2:] - stack[:-2]) / (2.0 * dt)
    grad = np.moveaxis(np.stack(grad, axis=-1), -2, 0)
    hess = np.moveaxis(_hessians(grid, second, mixed), -3, 0)
    return xi_t, grad, hess


def _support(scores: np.ndarray, best, sense: int) -> np.ndarray:
    """Mask of the near-optimal beliefs along the last axis, ties included."""
    tie = _TIE_TOL * np.maximum(1.0, np.max(np.abs(scores), axis=-1))
    if sense > 0:
        return scores >= (best - tie)[..., None]
    return scores <= (best + tie)[..., None]


def _sides(stack, grids, probes_p, probes_q):
    """(own grid, opponent grid, sense, probes, stack) per side, the stack
    viewed with the opponent's belief axis last; sense is +1 on the convex
    p side and -1 on the concave q side."""
    yield grids.p, grids.q, 1, np.asarray(probes_p, dtype=float), stack
    yield grids.q, grids.p, -1, np.asarray(probes_q, dtype=float), np.swapaxes(stack, -1, -2)


def _beliefs(sense: int, own: np.ndarray, opp: np.ndarray):
    """(p, q) from the own side's beliefs and the opponent's."""
    return (own, opp) if sense > 0 else (opp, own)


def _conjugate_residuals(result, own, opp_point, scores, sense, ti, nodes) -> np.ndarray:
    """Conjugate-route residual of one probe at the given (t, node) pairs.

    scores is <probe, r> - w at one opponent belief opp_point, shape
    (nt, *shape, own npoints); ti holds interior time indices and nodes
    the matching (k, n) state indices.  The conjugate stack is the max of
    scores over the own beliefs r on the convex side (sense +1) and the
    min on the concave one; at each pair, sense * (xi_t - H(t, x, -xi_x,
    -X, p, q)) is maximized over the near-optimal beliefs.
    """
    conj = scores.max(axis=-1) if sense > 0 else scores.min(axis=-1)
    grid = result.grids.state
    xi_t, grad, hess = _stack_jets(grid, conj, result.dt)
    at = (ti, *nodes.T)
    jet = (ti - 1, *nodes.T)
    rows, cand = np.nonzero(_support(scores[at], conj[at], sense))
    p, q = _beliefs(sense, own.points[cand], opp_point)
    x = np.stack([ax[i] for ax, i in zip(grid.axes, nodes.T)], axis=-1)
    residual = xi_t[jet][rows] - ham_bellman_inf_sup(
        result.model, result.times[ti][rows], x[rows], -grad[jet][rows], -hess[jet][rows], p, q
    )
    best = np.full(ti.size, -np.inf)
    np.maximum.at(best, rows, sense * residual)
    return best


def check_dual_solution(
    result: SolveResult,
    *,
    probes_p: np.ndarray | None = None,
    probes_q: np.ndarray | None = None,
    tol: float | None = None,
    max_checks: int = _DEFAULT_MAX_CHECKS,
) -> DualCheckReport:
    """Conjugate-route residual audit of both dual inequalities."""
    stack, _ = _stack(result)
    grids = result.grids
    if max_checks < 1:
        raise ConfigError("max_checks must be >= 1")
    if probes_p is None:
        probes_p = build_probes(result, "p")
    if probes_q is None:
        probes_q = build_probes(result, "q")
    if tol is None:
        tol = default_tolerance(result)
    nodes = np.array(_core_nodes(result), dtype=int).reshape(-1, grids.state.ndim)
    per_block = (stack.shape[0] - 2) * len(nodes)  # (interior t, node) pairs per conjugate

    worst = []
    checked = []
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        total = probes.shape[0] * opp.npoints * per_block
        stride = max(1, int(np.ceil(total / max_checks)))
        side_worst = np.inf
        side_checked = 0
        for jo in range(opp.npoints):
            block = oriented[..., jo]  # (nt, *shape, own npoints)
            for r, probe in enumerate(probes):
                # audited pairs: every stride-th (interior t, node) of the
                # run over (opponent node, probe, t, node)
                first = -(jo * probes.shape[0] + r) * per_block % stride
                picks = np.arange(first, per_block, stride)
                if picks.size == 0:
                    continue
                # <probe, r> - w over the own belief axis, shape (nt, *shape, K)
                scores = np.tensordot(own.points, probe, axes=(1, 0)) - block
                best = _conjugate_residuals(
                    result, own, opp.points[jo], scores, sense,
                    picks // len(nodes) + 1, nodes[picks % len(nodes)],
                )
                side_worst = min(side_worst, float(best.min()))
                side_checked += picks.size
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
    model = result.model
    stack, times = _stack(result)
    grids = result.grids
    if probes_p is None:
        probes_p = build_probes(result, "p")
    if probes_q is None:
        probes_q = build_probes(result, "q")
    if tol is None:
        tol = default_tolerance(result)
    nodes = _core_nodes(result)
    nt = stack.shape[0]
    shape = stack.shape[1:-2]
    interior_mask = np.zeros((nt,) + shape, dtype=bool)
    for ti in range(1, nt - 1):
        for node in nodes:
            interior_mask[(ti, *node)] = True
    mesh = grids.state.mesh()

    worst = []
    pairs = []
    disagreements = 0
    for own, opp, sense, probes, oriented in _sides(stack, grids, probes_p, probes_q):
        side_worst = -np.inf
        side_pairs = 0
        for jo in range(opp.npoints):
            block = oriented[..., jo]  # (nt, *shape, own npoints)
            for probe in probes:
                lift = np.tensordot(own.points, probe, axes=(1, 0))
                # minima of w - <probe, r> on the convex side, maxima on the concave one
                masked = np.where(interior_mask[..., None], sense * (block - lift), np.inf)
                ti, *node, c = np.unravel_index(int(np.argmin(masked)), masked.shape)
                jet = (ti - 1, *node)
                side_pairs += 1
                xi_t, grad, hess = _stack_jets(grids.state, block[..., c], result.dt)
                p, q = _beliefs(sense, own.points[c], opp.points[jo])
                primal = xi_t[jet] + ham_bellman_inf_sup(
                    model, times[ti], mesh[tuple(node)], grad[jet], hess[jet], p, q
                )
                side_worst = max(side_worst, float(sense * primal))
                # conjugate route at the same (t, x) node
                dual = _conjugate_residuals(
                    result, own, opp.points[jo], lift - block, sense,
                    np.array([ti]), np.array([node]),
                )
                if (sense * primal <= tol) != (dual[0] >= -tol):
                    disagreements += 1
        worst.append(sense * side_worst)
        pairs.append(side_pairs)

    return CrosscheckReport(
        tolerance=tol,
        worst_min_side=float(worst[0]),
        worst_max_side=float(worst[1]),
        disagreements=disagreements,
        pairs_min_side=pairs[0],
        pairs_max_side=pairs[1],
    )
