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

The exact minimax is one `hamiltonian.ham_bellman_inf_sup` call over
every (x, p, q) cell of the slice: the min-max reduction of the
control-pair table.  The running term enters H_num as
+sum_ij l_ij p_i q_j: that is the sign under which smooth
complete-information values satisfy the scheme's equation pointwise and
pure running cost integrates to elapsed time.

The projection runs in two stages: vex and cav of the stepped slice,
then cav of the vexed slice (the projected field) and vex of the caved
one (the commutation diagnostic).  Each pass hands the whole slice to
`transform.vex_rows` as one (rows, npoints) table; on p and q lattices
of the same dim and resolution a stage's two passes share one call.
The convexity certificates are one batched gather over the lattice
triples.  The solver, like the rest of the library, runs on the calling
thread only; INFOGAME_THREADS changes none of its results or timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transform
from .errors import ConfigError, NumericsError
from .hamiltonian import ham_bellman_inf_sup, sample_isaacs_gap
from .model import GameModel, restrict_to_types, terminal_matrix
from .simplex import SimplexGrid, build_grid, convexity_violations

_MEMORY_CAP_BYTES = 2 * 1024**3
# largest sampled Isaacs gap a solve accepts
_ISAACS_TOL = 1e-10


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
    axes = []
    spacing = []
    for (lo, hi), m in zip(bounds, counts):
        m = int(m)
        if m < 1:
            raise ConfigError("state grid needs at least one node per axis")
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


@dataclass(frozen=True)
class ValueField:
    t: float
    values: np.ndarray  # (*state shape, n_p_points, n_q_points)
    convexity_violation_p: float = 0.0
    concavity_violation_q: float = 0.0
    projection_residual: float = 0.0
    commutation_residual: float = 0.0


@dataclass
class SolveResult:
    model: GameModel
    grids: Grids
    t0: float
    dt: float
    fields: list[ValueField]  # ascending time, fields[-1] is the terminal slice
    diagnostics: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.fields])

    def field_at(self, t: float, tol: float = 1e-9) -> ValueField:
        for f in self.fields:
            if abs(f.t - t) <= tol:
                return f
        raise KeyError(f"no solved slice at t = {t}")


def terminal_field(model: GameModel, grids: Grids) -> ValueField:
    _check_grids(model, grids)
    mesh = grids.state.mesh()
    gmat = terminal_matrix(model, mesh)  # (*shape, I, J)
    values = np.einsum("...ij,ai,bj->...ab", gmat, grids.p.points, grids.q.points)
    return ValueField(t=model.horizon, values=values)


def _time_rounding(times) -> tuple[float, float]:
    """The rounding a solved time grid may carry: the 1e-9 relative
    divisibility tolerance over its span, and one ulp of its largest time,
    which each backward step of t may add."""
    span = times[-1] - times[0]
    return 1e-9 * max(1.0, span), float(np.spacing(max(abs(times[0]), abs(times[-1]))))


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


def _shift(values: np.ndarray, axis: int, direction: int) -> np.ndarray:
    """Neighbour values with zero-gradient mirror ghosts at the boundary."""
    m = values.shape[axis]
    if m == 1:
        return values
    idx = np.arange(m) + direction
    if direction > 0:
        idx[-1] = m - 2
    else:
        idx[0] = 1
    return np.take(values, idx, axis=axis)


def _derivatives(grid: StateGrid, values: np.ndarray):
    n = grid.ndim
    grad = []
    second = []
    for k in range(n):
        dx = grid.spacing[k]
        up = _shift(values, k, +1)
        down = _shift(values, k, -1)
        grad.append((up - down) / (2.0 * dx))
        second.append((up - 2.0 * values + down) / (dx * dx))
    mixed = {}
    for k in range(n):
        for l in range(k + 1, n):
            pp = _shift(_shift(values, k, +1), l, +1)
            pm = _shift(_shift(values, k, +1), l, -1)
            mp = _shift(_shift(values, k, -1), l, +1)
            mm = _shift(_shift(values, k, -1), l, -1)
            mixed[(k, l)] = (pp - pm - mp + mm) / (
                4.0 * grid.spacing[k] * grid.spacing[l]
            )
    return grad, second, mixed


def _hessians(grid: StateGrid, second, mixed) -> np.ndarray:
    """Stack the stencil second derivatives into (..., n, n) matrices."""
    n = grid.ndim
    hess = np.empty(second[0].shape + (n, n))
    for k in range(n):
        hess[..., k, k] = second[k]
    for (k, l), d2 in mixed.items():
        hess[..., k, l] = hess[..., l, k] = d2
    return hess


def numerical_hamiltonian(
    model: GameModel, grids: Grids, t: float, values: np.ndarray
) -> np.ndarray:
    """Dissipated exact minimax over the control grid, game sign convention."""
    grid = grids.state
    grad, second, mixed = _derivatives(grid, values)
    ham = ham_bellman_inf_sup(
        model,
        t,
        grid.mesh()[..., None, None, :],
        np.stack(grad, axis=-1),
        _hessians(grid, second, mixed),
        grids.p.points[:, None, :],
        grids.q.points[None, :, :],
    )
    if model.drift_bound > 0:
        for k in range(grid.ndim):
            if grid.axes[k].size > 1:
                ham = ham + (0.5 * model.drift_bound * grid.spacing[k]) * second[k]
    return ham


def hjb_step(
    model: GameModel,
    grids: Grids,
    w_next: ValueField,
    dt: float,
    *,
    cfl_factor: float = 0.5,
    validate: bool = True,
) -> ValueField:
    """One explicit backward step; coefficients evaluated at the data time."""
    if validate:
        validate_time_step(model, grids.state, dt, cfl_factor)
    ham = numerical_hamiltonian(model, grids, w_next.t, w_next.values)
    values = w_next.values + dt * ham
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite values after step to t = {w_next.t - dt:g}")
    return ValueField(t=w_next.t - dt, values=values)


@dataclass(frozen=True)
class ProjectionResult:
    values: np.ndarray
    convexity_violation_p: float
    concavity_violation_q: float
    residual: float
    commutation_residual: float


def _envelope_stage(
    grids: Grids, vex_in: np.ndarray, cav_in: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(vex in p of vex_in, cav in q of cav_in), both (cells, P, Q).

    On lattices of the same dim and resolution both passes share one
    `transform.vex_rows` call: each row's envelope depends on that row
    alone.  A one-point lattice's pass is the identity.
    """
    np_pts, nq_pts = grids.p.npoints, grids.q.npoints
    p_rows = np.moveaxis(vex_in, 1, 2).reshape(-1, np_pts)  # rows over (x, q)
    q_rows = -cav_in.reshape(-1, nq_pts)  # rows over (x, p); cav is -vex(-w)
    if np_pts > 1 and (grids.p.dim, grids.p.resolution) == (grids.q.dim, grids.q.resolution):
        both = transform.vex_rows(grids.p, np.concatenate([p_rows, q_rows]))
        p_rows, q_rows = both[: len(p_rows)], both[len(p_rows) :]
    else:
        if np_pts > 1:
            p_rows = transform.vex_rows(grids.p, p_rows)
        if nq_pts > 1:
            q_rows = transform.vex_rows(grids.q, q_rows)
    vexed = np.moveaxis(p_rows.reshape(-1, nq_pts, np_pts), 2, 1)
    return vexed, -q_rows.reshape(cav_in.shape)


def _certificates(grids: Grids, values: np.ndarray) -> tuple[float, float]:
    flat = values.reshape(-1, grids.p.npoints, grids.q.npoints)
    worst_p = np.max(convexity_violations(grids.p, np.moveaxis(flat, 1, 2)))
    worst_q = np.max(convexity_violations(grids.q, -flat))
    return max(0.0, float(worst_p)), max(0.0, float(worst_q))


def dual_project(grids: Grids, values: np.ndarray) -> ProjectionResult:
    """Lower convex envelope in p then upper concave envelope in q.

    The second envelope is a supremum of p-convex candidates over a
    p-independent feasible set, so it preserves the first certificate;
    both certificates therefore hold to roundoff.  The residual of the
    opposite composition is reported as the commutation diagnostic.

    Two `_envelope_stage` calls give both compositions: the first
    envelopes the slice in p and in q, the second the q-envelope in p and
    the p-envelope in q.  On equal lattices each stage is one
    `transform.vex_rows` call; with a one-point lattice one stage is all.
    """
    work = values.reshape(-1, grids.p.npoints, grids.q.npoints)
    vexed, caved = _envelope_stage(grids, work, work)
    commutation = 0.0
    if grids.p.npoints > 1 and grids.q.npoints > 1:
        other, projected = _envelope_stage(grids, caved, vexed)
        commutation = float(np.max(np.abs(projected - other), initial=0.0))
    else:  # the one-point side's pass is the identity
        projected = vexed if grids.q.npoints == 1 else caved
    projected = projected.reshape(values.shape)
    residual = float(np.max(np.abs(projected - values), initial=0.0))
    worst_p, worst_q = _certificates(grids, projected)
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
    project: bool = True,
) -> SolveResult:
    _check_grids(model, grids)
    if not (np.isfinite(t0) and t0 < model.horizon):
        raise ConfigError("t0 must be finite and lie before the horizon")
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError("dt must be positive and finite")
    span = model.horizon - t0
    steps = int(round(span / dt))
    if steps < 1 or abs(steps * dt - span) > 1e-9 * max(1.0, span):
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

    fields = [terminal_field(model, grids)]
    proj_residuals: list[float] = []
    commutation_residuals: list[float] = []
    cert_p: list[float] = []
    cert_q: list[float] = []
    for _ in range(steps):
        stepped = hjb_step(model, grids, fields[-1], dt, cfl_factor=cfl_factor,
                           validate=False)
        if project:
            proj = dual_project(grids, stepped.values)
            stepped = ValueField(
                t=stepped.t,
                values=proj.values,
                convexity_violation_p=proj.convexity_violation_p,
                concavity_violation_q=proj.concavity_violation_q,
                projection_residual=proj.residual,
                commutation_residual=proj.commutation_residual,
            )
            proj_residuals.append(proj.residual)
            commutation_residuals.append(proj.commutation_residual)
            cert_p.append(proj.convexity_violation_p)
            cert_q.append(proj.concavity_violation_q)
        if not np.all(np.isfinite(stepped.values)):
            raise NumericsError(f"non-finite values at t = {stepped.t:g}")
        fields.append(stepped)

    fields.reverse()
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
        "max_abs_value": float(max(np.max(np.abs(f.values)) for f in fields)),
        "value_bound": value_bound,
    }
    return SolveResult(
        model=model, grids=grids, t0=t0, dt=dt, fields=fields, diagnostics=diagnostics
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
    """Complete-information solve for one type pair on singleton simplices."""
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
        project=False,
    )
