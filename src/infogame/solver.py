"""Backward finite-difference scheme on a state grid times belief simplices.

The value field w(t, x, p, q) is integrated backward from the terminal
slice w(T, x, p, q) = sum_ij p_i q_j g_ij(x) by an explicit monotone step

    w(t) = w(t + dt) + dt * H_num(t + dt, x, Dw, D2w, p, q)

followed by a dual projection (lower convex envelope in p, then upper
concave envelope in q).  H_num is a Lax-Friedrichs-dissipated exact
minimax over the finite control grid: first derivatives by central
differences, second derivatives by central/four-point stencils, and an
added dissipation sized from the declared drift bound so that every
branch of the scan is a monotone function of the neighbouring values.
The diffusion term is evaluated inside the scan (each control pair
carries its own sigma sigma^T), which is strictly monotone under the CFL
condition

    dt <= c * min(dx^2 / (n sigma_max^2), dx / b_max),  c <= 1/2,

checked together with the sharper total-stencil-weight bound before any
step runs.  Boundaries use zero-gradient mirror ghosts; assertions about
solved values are made on interior cores away from the numerical domain
of dependence of the boundary.

The solver owns the library's one jet stencil.  `_stencil` gives the
state offsets (the centre, x +- e_k, four mixed points per axis pair),
`_stencil_points` their index arrays, in which a mirror ghost is an
index reflection, and `_jets` the gradient and Hessian from values
gathered there, stencil axis first.  The HJB step gathers every node's
stencil; the feedback replay (`simulator.feedback_from_field`) and both
dual audits (`dualcheck`) gather theirs the same way and difference them
with `_jets`, so the scheme and the residual that audits it share one
discretisation.

The exact minimax is one `hamiltonian.ham_bellman_inf_sup` call over
every (x, p, q) cell of the slice: the min-max reduction of the
control-pair table.  The running term enters H_num as
+sum_ij l_ij p_i q_j: that is the sign under which smooth
complete-information values satisfy the scheme's equation pointwise and
pure running cost integrates to elapsed time.

The projection runs in two stages: vex and cav of the stepped slice,
then cav of the vexed slice (the projected field) and vex of the caved
one (the commutation diagnostic).  Each pass hands the slice's rows to
`transform.vex_rows` as one (rows, npoints) table, the second stage only
the rows the first did not already envelope; on p and q lattices of the
same dim and resolution a stage's two passes share one call.
The convexity certificates are one batched gather over the lattice
triples.  The solver, like the rest of the library, runs on the calling
thread only; INFOGAME_THREADS changes none of its results or timings.

A solve holds its field as one array: `SolveResult.values`, shape
(nt, *state shape, P, Q), ascending in time with the terminal slice last,
beside `SolveResult.times` (nt,).  `solve` fills it in place from the
terminal slice back; each time is the previous one minus dt, so the
times carry the rounding of the repeated subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transform
from ._util import _MEMORY_CAP_BYTES
from .errors import ConfigError, NumericsError
from .hamiltonian import ham_bellman_inf_sup, sample_isaacs_gap
from .model import GameModel, restrict_to_types, terminal_matrix
from .simplex import SimplexGrid, build_grid, convexity_violations

# largest sampled Isaacs gap a solve accepts
_ISAACS_TOL = 1e-10
# h divides a time span into whole steps when they fill it within this
# share of max(1, span)
_WHOLE_STEPS_TOL = 1e-9


@dataclass(frozen=True)
class StateGrid:
    axes: tuple[np.ndarray, ...]
    spacing: np.ndarray  # (n,), uniform per axis

    def __post_init__(self):
        for ax, dx in zip(self.axes, self.spacing):
            if ax.size > 1:
                gaps = np.diff(ax)
                if np.max(np.abs(gaps - dx)) > 1e-12 * max(1.0, abs(dx)):
                    raise ConfigError("state grid spacing must be uniform")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(ax[0]), float(ax[-1])) for ax in self.axes)

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape (*shape, ndim)."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(grids, axis=-1)


def build_state_grid(bounds, counts) -> StateGrid:
    """Uniform axes over the bounds.  A grid whose node coordinates
    (`mesh`) would pass the 2 GiB cap is refused before any axis is built."""
    counts = [int(m) for m in counts]
    if any(m < 1 for m in counts):
        raise ConfigError("state grid needs at least one node per axis")
    if math.prod(counts) * len(counts) * 8 > _MEMORY_CAP_BYTES:
        raise ConfigError(f"a state grid of {counts} nodes is above the 2 GiB cap")
    axes = []
    spacing = []
    for (lo, hi), m in zip(bounds, counts):
        if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(hi - lo)):
            raise ConfigError(f"state bounds must be finite, got ({lo!r}, {hi!r})")
        if m == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
            spacing.append(1.0)  # placeholder, no derivatives on this axis
        else:
            if not hi > lo:
                raise ConfigError("state bounds must satisfy hi > lo")
            axes.append(np.linspace(lo, hi, m))
            spacing.append((hi - lo) / (m - 1))
    return StateGrid(axes=tuple(axes), spacing=np.asarray(spacing, dtype=float))


@dataclass(frozen=True)
class Grids:
    state: StateGrid
    p: SimplexGrid
    q: SimplexGrid


@dataclass
class SolveResult:
    model: GameModel
    grids: Grids
    t0: float
    dt: float
    times: np.ndarray  # (nt,), ascending; times[-1] is the horizon
    values: np.ndarray  # (nt, *state shape, P, Q); values[-1] is the terminal slice
    diagnostics: dict = field(default_factory=dict)


def terminal_field(model: GameModel, grids: Grids) -> np.ndarray:
    """The terminal slice sum_ij p_i q_j g_ij(x), shape (*state shape, P, Q)."""
    _check_grids(model, grids)
    mesh = grids.state.mesh()
    gmat = terminal_matrix(model, mesh)  # (*shape, I, J)
    return np.einsum("...ij,ai,bj->...ab", gmat, grids.p.points, grids.q.points)


def _whole_steps(span: float, h: float) -> int:
    """The number of steps of h that fill span, or 0 when h does not divide
    it into whole steps within 1e-9 relative to max(1, span)."""
    if not math.isfinite(span / h):  # a tiny h; round() of inf raises OverflowError
        return 0
    steps = int(round(span / h))
    if steps < 1 or abs(steps * h - span) > _WHOLE_STEPS_TOL * max(1.0, span):
        return 0
    return steps


def _time_rounding(times) -> tuple[float, float]:
    """The rounding a solved time grid may carry: the whole-steps tolerance
    over its span, and one ulp of its largest time, which each backward
    step of t may add."""
    span = times[-1] - times[0]
    return _WHOLE_STEPS_TOL * max(1.0, span), float(np.spacing(max(abs(times[0]), abs(times[-1]))))


def _check_grids(model: GameModel, grids: Grids) -> None:
    if grids.state.ndim != model.state_dim:
        raise ConfigError("state grid dimension does not match the model")
    if grids.p.dim != model.u_types or grids.q.dim != model.v_types:
        raise ConfigError("simplex grid dimensions must equal the model type counts")
    for ax in grids.state.axes:
        if ax.size == 1 and (model.drift_bound > 0 or model.diffusion_bound > 0):
            raise ConfigError(
                "single-node state axes are only allowed for static dynamics"
            )


def cfl_limit(model: GameModel, grid: StateGrid, cfl_factor: float = 0.5) -> float:
    if not 0 < cfl_factor <= 0.5:
        raise ConfigError("cfl factor must lie in (0, 1/2]")
    n = grid.ndim
    limit = np.inf
    for ax, dx in zip(grid.axes, grid.spacing):
        if ax.size == 1:
            continue
        if model.diffusion_bound > 0:
            # D * D, not D**2: a Python float's ** 2 raises OverflowError,
            # the product saturates to inf and validate_time_step refuses
            limit = min(limit, dx * dx / (n * (model.diffusion_bound * model.diffusion_bound)))
        if model.drift_bound > 0:
            limit = min(limit, dx / model.drift_bound)
    return cfl_factor * limit


def validate_time_step(
    model: GameModel, grid: StateGrid, dt: float, cfl_factor: float = 0.5
) -> None:
    if dt <= 0:
        raise ConfigError("dt must be positive")
    limit = cfl_limit(model, grid, cfl_factor)
    if dt > limit * (1 + 1e-12):
        raise ConfigError(
            f"CFL violation: dt = {dt:g} exceeds limit {limit:g} "
            f"(factor {cfl_factor:g})"
        )
    # stencil weights must leave the center coefficient nonnegative
    weight = 0.0
    for ax, dx in zip(grid.axes, grid.spacing):
        if ax.size == 1:
            continue
        weight += dt * (
            model.drift_bound / dx + (model.diffusion_bound * model.diffusion_bound) / (dx * dx)
        )
    if weight > 1.0 + 1e-12:
        raise ConfigError(
            f"monotonicity violation: total stencil weight {weight:g} exceeds 1"
        )


def _stencil(grid: StateGrid) -> np.ndarray:
    """State offsets (S, n) of the jet stencil: the centre, then x + e_k
    and x - e_k for each axis k, then x + e_k + e_l, x + e_k - e_l,
    x - e_k + e_l and x - e_k - e_l for each axis pair k < l.  A frozen
    axis has e_k = 0, so its points keep the centre's index."""
    n = grid.ndim
    e = np.diag([int(ax.size > 1) for ax in grid.axes])
    offsets = [np.zeros(n, dtype=int)]
    for k in range(n):
        offsets += [e[k], -e[k]]
    for k in range(n):
        for l in range(k + 1, n):
            offsets += [e[k] + e[l], e[k] - e[l], -e[k] + e[l], -e[k] - e[l]]
    return np.array(offsets)


def _stencil_points(grid: StateGrid, nodes: np.ndarray) -> tuple:
    """Index arrays, one per state axis, each (S, *nodes.shape[:-1]), of the
    `_stencil` points of the (..., n) state indices nodes.

    Zero-gradient mirror ghosts are index reflection: -1 reads 1 and m
    reads m - 2 on an axis of m nodes.
    """
    points = nodes + _stencil(grid).reshape(-1, *[1] * (nodes.ndim - 1), grid.ndim)
    return tuple(
        (m - 1) - np.abs((m - 1) - np.abs(points[..., k])) for k, m in enumerate(grid.shape)
    )


def _jets(grid: StateGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grad (..., n) and hess (..., n, n) from values (S, ...) on the
    `_stencil` points: central first differences, the three-point second
    difference on the diagonal and the four-point mixed one off it."""
    n = grid.ndim
    centre = values[0]
    grad = np.empty(centre.shape + (n,))
    hess = np.empty(centre.shape + (n, n))
    for k in range(n):
        dx = grid.spacing[k]
        up, down = values[1 + 2 * k], values[2 + 2 * k]
        grad[..., k] = (up - down) / (2.0 * dx)
        hess[..., k, k] = (up - 2.0 * centre + down) / (dx * dx)
    row = 1 + 2 * n
    for k in range(n):
        for l in range(k + 1, n):
            pp, pm, mp, mm = values[row : row + 4]
            hess[..., k, l] = hess[..., l, k] = (pp - pm - mp + mm) / (
                4.0 * grid.spacing[k] * grid.spacing[l]
            )
            row += 4
    return grad, hess


def hjb_step(
    model: GameModel,
    grids: Grids,
    t: float,
    values: np.ndarray,
    dt: float,
    *,
    cfl_factor: float = 0.5,
) -> np.ndarray:
    """One explicit backward step from the slice at t to the one at t - dt:
    values + dt * H_num, H_num the dissipated exact minimax over the
    control grid in the game sign convention, with coefficients evaluated
    at the data time t and every node's jet from its `_stencil`."""
    validate_time_step(model, grids.state, dt, cfl_factor)
    grid = grids.state
    nodes = np.moveaxis(np.indices(grid.shape), 0, -1)
    grad, hess = _jets(grid, values[_stencil_points(grid, nodes)])
    ham = ham_bellman_inf_sup(
        model,
        t,
        grid.mesh()[..., None, None, :],
        grad,
        hess,
        grids.p.points[:, None, :],
        grids.q.points[None, :, :],
    )
    if model.drift_bound > 0:
        for k in range(grid.ndim):
            if grid.axes[k].size > 1:
                ham = ham + (0.5 * model.drift_bound * grid.spacing[k]) * hess[..., k, k]
    stepped = values + dt * ham
    if not np.all(np.isfinite(stepped)):
        raise NumericsError(f"non-finite values after step to t = {t - dt:g}")
    return stepped


@dataclass(frozen=True)
class ProjectionResult:
    values: np.ndarray
    convexity_violation_p: float
    concavity_violation_q: float
    residual: float
    commutation_residual: float


def _envelope_stage(
    p: SimplexGrid, q: SimplexGrid, vex_in: np.ndarray, cav_in: np.ndarray, first=None
) -> tuple[np.ndarray, np.ndarray]:
    """(vex in p of vex_in, cav in q of cav_in), both (cells, P, Q).

    On lattices of the same dim and resolution both passes share one
    `transform.vex_rows` call: each row's envelope depends on that row
    alone.  For the same reason a stage given `first`, the (input, vexed,
    caved) arrays of an earlier stage, envelopes only the rows that
    differ bit for bit from the input's row at the same position (-0.0 is
    not +0.0); every other row takes the earlier stage's envelope of it.
    A one-point lattice's pass is the identity.
    """
    if first is None:
        p_rows = np.moveaxis(vex_in, 1, 2).reshape(-1, p.npoints)  # rows over (x, q)
        q_rows = -cav_in.reshape(-1, q.npoints)  # rows over (x, p); cav is -vex(-w)
    else:  # only the new rows are copied out of the inputs
        seen, seen_vexed, seen_caved = first
        p_new = _differs(vex_in, seen, axis=1)
        q_new = _differs(cav_in, seen, axis=2)
        p_rows, q_rows = np.moveaxis(vex_in, 1, 2)[p_new], -cav_in[q_new]
    if p.npoints > 1 and (p.dim, p.resolution) == (q.dim, q.resolution):
        both = transform.vex_rows(p, np.concatenate([p_rows, q_rows]))
        p_rows, q_rows = both[: len(p_rows)], both[len(p_rows) :]
    else:
        if p.npoints > 1:
            p_rows = transform.vex_rows(p, p_rows)
        if q.npoints > 1:
            q_rows = transform.vex_rows(q, q_rows)
    if first is not None:
        p_new_rows, q_new_rows = p_rows, q_rows
        # the earlier p-envelope is a view of its (x, q) rows: without the
        # copy, the scatter would write into it
        p_rows, q_rows = np.moveaxis(seen_vexed, 1, 2).copy(), -seen_caved
        p_rows[p_new], q_rows[q_new] = p_new_rows, q_new_rows
    vexed = np.moveaxis(p_rows.reshape(-1, q.npoints, p.npoints), 2, 1)
    return vexed, -q_rows.reshape(cav_in.shape)


def _differs(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Mask of the rows along axis in which a and b differ bit for bit."""
    return np.any(a.view(np.int64) != b.view(np.int64), axis=axis)


def _certificates(p: SimplexGrid, q: SimplexGrid, values: np.ndarray) -> tuple[float, float]:
    flat = values.reshape(-1, p.npoints, q.npoints)
    worst_p = np.max(convexity_violations(p, np.moveaxis(flat, 1, 2)))
    worst_q = np.max(convexity_violations(q, -flat))
    return max(0.0, float(worst_p)), max(0.0, float(worst_q))


def dual_project(p: SimplexGrid, q: SimplexGrid, values: np.ndarray) -> ProjectionResult:
    """Lower convex envelope in p then upper concave envelope in q of
    values (..., P, Q) on the lattices p and q.

    The second envelope is a supremum of p-convex candidates over a
    p-independent feasible set, so it preserves the first certificate;
    both certificates therefore hold to roundoff.  The residual of the
    opposite composition is reported as the commutation diagnostic.

    Two `_envelope_stage` calls give both compositions: the first
    envelopes the values in p and in q, the second the q-envelope in p
    and the p-envelope in q.  The second envelopes only its new rows: a
    row of the q-envelope that is bit for bit the values' row at the same
    (x, q) takes the first stage's p-envelope of it, and likewise in q.
    On equal lattices each stage is one `transform.vex_rows` call; with a
    one-point lattice one stage is all.
    No state grid is read: the tree oracle projects its levels here too.
    """
    work = values.reshape(-1, p.npoints, q.npoints)
    vexed, caved = _envelope_stage(p, q, work, work)
    commutation = 0.0
    if p.npoints > 1 and q.npoints > 1:
        other, projected = _envelope_stage(p, q, caved, vexed, first=(work, vexed, caved))
        commutation = float(np.max(np.abs(projected - other), initial=0.0))
    else:  # the one-point side's pass is the identity
        projected = vexed if q.npoints == 1 else caved
    projected = projected.reshape(values.shape)
    residual = float(np.max(np.abs(projected - values), initial=0.0))
    worst_p, worst_q = _certificates(p, q, projected)
    return ProjectionResult(
        values=projected,
        convexity_violation_p=worst_p,
        concavity_violation_q=worst_q,
        residual=residual,
        commutation_residual=commutation,
    )


def solve(
    model: GameModel,
    grids: Grids,
    *,
    t0: float,
    dt: float,
    seed: int = 0,
    isaacs_samples: int = 1000,
    cfl_factor: float = 0.5,
) -> SolveResult:
    _check_grids(model, grids)
    if not (np.isfinite(t0) and t0 < model.horizon):
        raise ConfigError("t0 must be finite and lie before the horizon")
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError("dt must be positive and finite")
    span = model.horizon - t0
    steps = _whole_steps(span, dt)
    if not steps:
        raise ConfigError(
            f"dt = {dt:g} does not divide the time span {span:g} into whole steps"
        )
    if not (model.horizon - dt < model.horizon and t0 + dt > t0):
        # the steps would leave t unchanged, and the slices share one time
        raise ConfigError(
            f"dt = {dt:g} is below the float resolution of the times in [{t0:g}, {model.horizon:g}]"
        )
    cells = int(np.prod(grids.state.shape)) * grids.p.npoints * grids.q.npoints
    if (steps + 1) * cells * 8 > _MEMORY_CAP_BYTES:
        raise ConfigError("value-field memory above the 2 GiB cap; coarsen the grids")
    validate_time_step(model, grids.state, dt, cfl_factor)
    gap_report = sample_isaacs_gap(
        model,
        samples=isaacs_samples,
        seed=seed,
        x_box=(
            min(lo for lo, _ in grids.state.bounds),
            max(hi for _, hi in grids.state.bounds),
        ),
        t_range=(t0, model.horizon),
    )
    if gap_report["max_sampled_gap"] > _ISAACS_TOL:
        raise ConfigError(
            f"Isaacs gap {gap_report['unit_query_gap']:g} at the unit query "
            f"(max sampled {gap_report['max_sampled_gap']:g}) exceeds tolerance "
            f"{_ISAACS_TOL:g}; min-max and max-min orders disagree"
        )

    times = np.empty(steps + 1)
    values = np.empty((steps + 1, *grids.state.shape, grids.p.npoints, grids.q.npoints))
    times[-1], values[-1] = model.horizon, terminal_field(model, grids)
    max_abs = float(np.max(np.abs(values[-1])))
    proj_residuals: list[float] = []
    commutation_residuals: list[float] = []
    cert_p: list[float] = []
    cert_q: list[float] = []
    for k in range(steps - 1, -1, -1):
        t = times[k + 1]
        stepped = hjb_step(model, grids, t, values[k + 1], dt, cfl_factor=cfl_factor)
        proj = dual_project(grids.p, grids.q, stepped)
        stepped = proj.values
        proj_residuals.append(proj.residual)
        commutation_residuals.append(proj.commutation_residual)
        cert_p.append(proj.convexity_violation_p)
        cert_q.append(proj.concavity_violation_q)
        if not np.all(np.isfinite(stepped)):
            raise NumericsError(f"non-finite values at t = {t - dt:g}")
        times[k], values[k] = t - dt, stepped
        max_abs = max(max_abs, float(np.max(np.abs(stepped))))

    value_bound = model.terminal_bound + span * model.running_bound
    diagnostics = {
        "steps": steps,
        "dt": dt,
        "t0": t0,
        "cfl_limit": cfl_limit(model, grids.state, cfl_factor),
        "cfl_factor": cfl_factor,
        "isaacs": gap_report,
        "projection_residuals": proj_residuals,
        "commutation_residuals": commutation_residuals,
        "convexity_violations_p": cert_p,
        "concavity_violations_q": cert_q,
        "max_abs_value": max_abs,
        "value_bound": value_bound,
    }
    return SolveResult(
        model=model, grids=grids, t0=t0, dt=dt, times=times, values=values,
        diagnostics=diagnostics,
    )


def classical_solve(
    model: GameModel,
    state_grid: StateGrid,
    i: int,
    j: int,
    *,
    t0: float,
    dt: float,
    seed: int = 0,
    isaacs_samples: int = 1000,
    cfl_factor: float = 0.5,
) -> SolveResult:
    """Complete-information solve for one type pair on singleton simplices.

    It is `solve` on 1x1 belief lattices, where `dual_project` is the
    identity: the values are bitwise those of the unprojected steps, and
    the diagnostics' per-step projection residuals and certificates are
    zeros.
    """
    sub = restrict_to_types(model, i, j)
    grids = Grids(state=state_grid, p=build_grid(1, 1), q=build_grid(1, 1))
    return solve(
        sub,
        grids,
        t0=t0,
        dt=dt,
        seed=seed,
        isaacs_samples=isaacs_samples,
        cfl_factor=cfl_factor,
    )
