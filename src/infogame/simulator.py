"""Monte Carlo play of delayed-response strategies.

Strategies respond on a coarse cell grid: a strategy with delay m acts on
cells of m time steps and its response on a cell may depend only on the
state path up to the cell start (and, when it observes controls, on the
opponent controls strictly before the cell start).  Under that delay the
pair of strategies resolves to a unique pair of control paths cell by
cell, starting from the constant path on the first cell.

Randomized strategies are finite atom lists with exact rational weights.
The batch is the simulator's only shape: `resolve_controls` plays an
(S, steps, noise_dim) stack of increments and `payoff_path` scores it as
(S,); one path plays as a batch of one.  `sample_noise` draws one
sample's (steps, noise_dim) increments.  `payoff_samples` is the one pass
over the samples.  It plays them in chunks, each a batch of (S, ...)
arrays that moves through the time steps together: every sample draws
its own stream from (seed, sample index), each distinct pure pair is
resolved once per chunk, and every type pair that plays the resolved
paths is scored on them.  These common random numbers make mixtures and
belief combinations exactly bilinear in the weights.  At each step the
dynamics and running costs are evaluated once per distinct control pair,
on the rows that play it; `_pair_rows` finds those pairs with
`_util.sorted_unique`, so a request never imports numpy.ma.  The model
callables are elementwise in x at a fixed pair, so every path has the
bits it would have alone, whatever the chunk size.

The built-in families (`constant_strategy`, `cycle_strategy`,
`feedback_from_field`) read only the state at the cell start.  Each is
one batched `select(cell, x)` that maps a cell-start step and the (S, n)
cell-start states to control indices; its per-path `rule` is a thin
adapter over it.  Any other rule is called per sample inside the same
step loop.  The feedback strategy replays a solved field: its minimax
control for every solved (t-slice, state node) comes from one batched
`hamiltonian.pair_table` call when the strategy is built, so each cell of
a batch is one table gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._util import _MEMORY_CAP_BYTES, pairwise_mean, pairwise_sum, sorted_unique
from .errors import ConfigError
from .hamiltonian import pair_table
from .model import GameModel
from .solver import SolveResult, _check_grids, _jets, _stencil_points, _time_rounding, _whole_steps

# bytes of per-sample path arrays that one chunk of `payoff_samples` holds
_CHUNK_BYTES = 2**24


@dataclass(frozen=True)
class PureStrategy:
    """Delayed-response rule for one side.

    rule(step, x_obs, opp_obs) -> control point; x_obs holds path nodes up
    to the current cell start, opp_obs the opponent controls strictly
    before it (None unless observes_controls).

    select(cell, x) -> control indices, optional: the batched form of a
    rule that reads only the cell-start state, for the cell-start step
    `cell` and cell-start states x of shape (S, n).  When it is set, the
    engine calls it once per cell for a whole batch and `rule` must be its
    per-path adapter.
    """

    side: str  # "u" or "v"
    delay_cells: int
    rule: Callable
    observes_controls: bool = False
    select: Callable | None = None

    def __post_init__(self):
        if self.side not in ("u", "v"):
            raise ConfigError("strategy side must be 'u' or 'v'")
        if not isinstance(self.delay_cells, int) or self.delay_cells < 1:
            raise ConfigError("delay_cells must be an integer >= 1")


@dataclass(frozen=True)
class RandomStrategy:
    """Finite mixture of pure strategies with exact rational weights."""

    atoms: tuple[PureStrategy, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ConfigError("atoms and weights must be nonempty and equal length")
        weights = tuple(Fraction(w) for w in self.weights)
        if any(w < 0 for w in weights):
            raise ConfigError("weights must be nonnegative")
        if sum(weights) != 1:
            raise ConfigError(f"weights must sum to 1 exactly, got {sum(weights)}")
        sides = {a.side for a in self.atoms}
        if len(sides) != 1:
            raise ConfigError("all atoms of a mixture must play the same side")
        object.__setattr__(self, "weights", weights)

    @property
    def side(self) -> str:
        return self.atoms[0].side


@dataclass(frozen=True)
class StrategyProfile:
    """One randomized strategy per own type for each side."""

    u_strategies: tuple[RandomStrategy, ...]
    v_strategies: tuple[RandomStrategy, ...]

    def __post_init__(self):
        if any(s.side != "u" for s in self.u_strategies) or any(
            s.side != "v" for s in self.v_strategies
        ):
            raise ConfigError("profile sides are inconsistent")


def sample_noise(
    seed: int,
    sample_index: int,
    steps: int,
    noise_dim: int,
    h: float,
    kind: str = "gaussian",
) -> np.ndarray:
    """One sample's increments (steps, noise_dim), from the stream derived
    from (seed, sample index)."""
    if h <= 0 or steps < 1 or seed < 0:
        raise ConfigError("noise needs steps >= 1, h > 0 and seed >= 0")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(sample_index,))
    )
    if kind == "gaussian":
        return rng.standard_normal((steps, noise_dim)) * np.sqrt(h)
    if kind == "rademacher":
        return (2.0 * rng.integers(0, 2, size=(steps, noise_dim)) - 1.0) * np.sqrt(h)
    raise ConfigError(f"unknown noise kind {kind!r}")


def observation_window(strategy: PureStrategy, step: int) -> int:
    """Path index of the strategy's cell start at the given step."""
    return (step // strategy.delay_cells) * strategy.delay_cells


def _rule_index(
    strategy: PureStrategy, controls, step: int, x_path: np.ndarray, opp_path: np.ndarray | None
) -> int:
    """Index in `controls` of the rule's output under the delay discipline."""
    end = observation_window(strategy, step)
    x_obs = x_path[: end + 1]
    opp_obs = None
    if strategy.observes_controls:
        if opp_path is None:
            raise ConfigError("strategy observes controls but none were supplied")
        opp_obs = opp_path[:end]
    return controls.index_of(strategy.rule(step, x_obs, opp_obs))


def strategy_control(
    strategy: PureStrategy,
    controls,
    step: int,
    x_path: np.ndarray,
    opp_path: np.ndarray | None,
):
    """Evaluate a rule under the delay discipline and canonicalize output.

    The library plays every path through `resolve_controls`; this one-step
    form stays for the per-step references in the tests, and because the
    `perfbench` trace binds a span to it by name."""
    return controls.values[_rule_index(strategy, controls, step, x_path, opp_path)]


@dataclass(frozen=True)
class Resolution:
    """Resolved paths of a batch of S samples."""

    t0: float
    h: float
    x_path: np.ndarray  # (S, steps + 1, n)
    u_path: np.ndarray  # (S, steps, u dim)
    v_path: np.ndarray  # (S, steps, v dim)
    pair_path: np.ndarray  # (S, steps): a * |V| + b for control pair (a, b)


def _pair_rows(pairs: np.ndarray):
    """(pair, rows) for each distinct pair code; rows is a full slice when
    one pair covers the batch."""
    first = pairs.flat[0]
    if np.all(pairs == first):
        return [(int(first), slice(None))]
    return [(int(c), pairs == c) for c in sorted_unique(pairs)]


def _step_indices(strategy, controls, k, x, opp_rows, own) -> np.ndarray:
    """Control indices of one side at step k for every path of the batch."""
    if strategy.select is None:
        return np.array(
            [_rule_index(strategy, controls, k, x[s, : k + 1], opp_rows[s, :k]) for s in range(len(x))]
        )
    if k % strategy.delay_cells:
        return own[:, k - 1]
    return strategy.select(k, x[:, k])


def resolve_controls(
    model: GameModel,
    strat_u: PureStrategy,
    strat_v: PureStrategy,
    x0,
    increments: np.ndarray,
    h: float,
    t0: float = 0.0,
) -> Resolution:
    """Cell-by-cell fixed point of the two delayed responses.

    increments is an (S, steps, noise_dim) batch, one path per sample.
    Each step moves the whole batch: drift and diffusion are evaluated
    once per distinct control pair, on its rows.
    """
    if strat_u.side != "u" or strat_v.side != "v":
        raise ConfigError("resolve_controls needs a u strategy and a v strategy")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.state_dim,) or not np.all(np.isfinite(x0)):
        raise ConfigError("x0 must be finite and match the model state dimension")
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[2] != model.noise_dim:
        raise ConfigError("increments must be an (S, steps, noise_dim) batch")
    batch, steps = inc.shape[:2]
    u_set, v_set = model.u_set, model.v_set
    x = np.empty((batch, steps + 1, model.state_dim))
    x[:, 0] = x0
    u_idx = np.empty((batch, steps), dtype=np.intp)
    v_idx = np.empty((batch, steps), dtype=np.intp)
    u_rows = np.empty((batch, steps, u_set.dim))
    v_rows = np.empty((batch, steps, v_set.dim))
    for k in range(steps):
        u_idx[:, k] = _step_indices(strat_u, u_set, k, x, v_rows, u_idx)
        u_rows[:, k] = u_set.values[u_idx[:, k]]
        v_idx[:, k] = _step_indices(strat_v, v_set, k, x, u_rows, v_idx)
        v_rows[:, k] = v_set.values[v_idx[:, k]]
        t_k = t0 + k * h
        for pair, rows in _pair_rows(u_idx[:, k] * v_set.count + v_idx[:, k]):
            u, v = u_set.values[pair // v_set.count], v_set.values[pair % v_set.count]
            x_k = x[rows, k]
            b = np.asarray(model.drift(t_k, x_k, u, v), dtype=float)
            sig = np.asarray(model.diffusion(t_k, x_k, u, v), dtype=float)
            dw = inc[rows, k]
            # summed from 0.0 term by term, as sig @ dw is for one noise
            # axis, so no batch size changes a bit
            shock = 0.0
            for e in range(model.noise_dim):
                shock = shock + sig[..., e] * dw[:, None, e]
            x[rows, k + 1] = x_k + b * h + shock
    pairs = u_idx * v_set.count + v_idx
    return Resolution(t0=t0, h=h, x_path=x, u_path=u_rows, v_path=v_rows, pair_path=pairs)


def payoff_path(model: GameModel, i: int, j: int, res: Resolution) -> np.ndarray:
    """Left-rule running integral plus terminal cost along each path, (S,).

    The running cost is evaluated once per distinct control pair, on every
    (path, step) that plays it, and summed over the steps in order.
    """
    pairs = res.pair_path
    run = np.zeros(pairs.shape[0])
    if model.has_running:
        lfn = model.running[i][j]
        u_set, v_set = model.u_set, model.v_set
        t = np.broadcast_to(res.t0 + np.arange(pairs.shape[1]) * res.h, pairs.shape)
        x = res.x_path[:, :-1]
        cost = np.empty(pairs.shape)
        for pair, rows in _pair_rows(pairs):
            u, v = u_set.values[pair // v_set.count], v_set.values[pair % v_set.count]
            cost[rows] = lfn(t[rows], x[rows], u, v)
        cost *= res.h
        for k in range(pairs.shape[1]):
            run = run + cost[:, k]
    return run + model.terminal[i][j](res.x_path[:, -1])


@dataclass(frozen=True)
class PayoffEstimate:
    estimate: float
    stderr: float


def _steps_for(model: GameModel, t0: float, h: float) -> int:
    if not (math.isfinite(h) and h > 0) or not math.isfinite(t0):
        raise ConfigError(f"need a finite h > 0 and t0, got h = {h!r}, t0 = {t0!r}")
    span = model.horizon - t0
    # one sample's noise array holds steps x noise_dim doubles
    if not span / h * model.noise_dim * 8 <= _MEMORY_CAP_BYTES:
        raise ConfigError(
            f"h = {h:g} over the span {span:g} needs a noise array above the 2 GiB cap"
        )
    steps = _whole_steps(span, h)
    if not steps:
        raise ConfigError(f"h = {h:g} does not divide the span {span:g} into whole steps")
    return steps


def _path_bytes(model: GameModel, steps: int) -> int:
    """Bytes that one path of a resolved batch holds: the noise, the states,
    both control paths and their indices, per step."""
    widths = model.noise_dim + model.state_dim + model.u_set.dim + model.v_set.dim + 4
    return 8 * (steps + 1) * widths


def payoff_samples(
    model: GameModel,
    profile: StrategyProfile,
    x0,
    *,
    t0: float = 0.0,
    h: float,
    samples: int,
    seed: int = 0,
    kind: str = "gaussian",
) -> np.ndarray:
    """Each sample's mixture payoff for every type pair, shape (samples, |I|, |J|).

    Entry [s, i, j] is 0.0 plus float(wu * wv) * payoff summed over the
    atom pairs of types (i, j) in atom order, on sample s's noise path.
    The samples run in chunks of at most `_CHUNK_BYTES` of path arrays;
    each chunk resolves every distinct pure pair once, as one batch.
    """
    if len(profile.u_strategies) != model.u_types or len(profile.v_strategies) != model.v_types:
        raise ConfigError("the profile needs one strategy per type on each side")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if samples * model.u_types * model.v_types * 8 > _MEMORY_CAP_BYTES:
        raise ConfigError(f"{samples} samples need a payoff table above the 2 GiB cap")
    steps = _steps_for(model, t0, h)
    terms = [
        (i, j, float(wu * wv), au, av)
        for i, ru in enumerate(profile.u_strategies)
        for j, rv in enumerate(profile.v_strategies)
        for au, wu in zip(ru.atoms, ru.weights)
        for av, wv in zip(rv.atoms, rv.weights)
    ]
    chunk = max(1, _CHUNK_BYTES // _path_bytes(model, steps))
    out = np.zeros((samples, model.u_types, model.v_types))
    for start in range(0, samples, chunk):
        stop = min(samples, start + chunk)
        noise = np.stack(
            [sample_noise(seed, s, steps, model.noise_dim, h, kind) for s in range(start, stop)]
        )
        cache: dict[tuple[int, int], Resolution] = {}
        block = out[start:stop]
        for i, j, weight, pure_u, pure_v in terms:
            key = (id(pure_u), id(pure_v))
            if key not in cache:
                cache[key] = resolve_controls(model, pure_u, pure_v, x0, noise, h, t0)
            block[:, i, j] += weight * payoff_path(model, i, j, cache[key])
    return out


def _estimate(values: np.ndarray) -> PayoffEstimate:
    m = values.size
    mean = pairwise_mean(values)
    if m > 1:
        var = pairwise_sum((values - mean) ** 2) / (m - 1)
        stderr = float(np.sqrt(max(var, 0.0) / m))
    else:
        stderr = 0.0
    return PayoffEstimate(estimate=mean, stderr=stderr)


def matrix_estimate(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-type-pair estimates and standard errors of a `payoff_samples` table."""
    ests = np.empty(table.shape[1:])
    errs = np.empty_like(ests)
    for i, j in np.ndindex(ests.shape):
        est = _estimate(table[:, i, j])
        ests[i, j] = est.estimate
        errs[i, j] = est.stderr
    return ests, errs


def pq_estimate(table: np.ndarray, p, q) -> PayoffEstimate:
    """Belief-weighted estimate of a `payoff_samples` table.

    The estimate is the exact combination sum_ij p_i q_j estimate_ij in
    (i, j) order; the standard error comes from the per-sample combined
    values under common random numbers.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != table.shape[1:2] or q.shape != table.shape[2:]:
        raise ConfigError("belief shapes do not match the model type counts")
    estimate = 0.0
    combined = np.zeros(table.shape[0])
    for i in range(p.size):
        for j in range(q.size):
            weight = float(p[i] * q[j])
            estimate += weight * pairwise_mean(table[:, i, j])
            combined = combined + weight * table[:, i, j]
    return PayoffEstimate(estimate=estimate, stderr=_estimate(combined).stderr)


def payoff_matrix(
    model: GameModel,
    profile: StrategyProfile,
    x0,
    *,
    t0: float = 0.0,
    h: float,
    samples: int,
    seed: int = 0,
    kind: str = "gaussian",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type-pair estimates and standard errors under one noise budget."""
    return matrix_estimate(
        payoff_samples(model, profile, x0, t0=t0, h=h, samples=samples, seed=seed, kind=kind)
    )


def payoff_pq(
    model: GameModel,
    profile: StrategyProfile,
    p,
    q,
    x0,
    *,
    t0: float = 0.0,
    h: float,
    samples: int,
    seed: int = 0,
    kind: str = "gaussian",
) -> PayoffEstimate:
    """Belief-weighted payoff: exactly bilinear in (p, q) at fixed seed."""
    return pq_estimate(
        payoff_samples(model, profile, x0, t0=t0, h=h, samples=samples, seed=seed, kind=kind),
        p,
        q,
    )


def split_mix(
    strategies: Sequence[RandomStrategy],
    strategies_alt: Sequence[RandomStrategy],
    mix: Fraction | int | str,
    belief: Sequence[Fraction | int | str],
    belief_alt: Sequence[Fraction | int | str],
) -> tuple[tuple[RandomStrategy, ...], tuple[Fraction, ...]]:
    """Reweighted concatenation matching a belief split, exactly rational.

    Given per-type mixtures for beliefs p and p' and a mixing weight a,
    returns per-type mixtures and the belief a p + (1-a) p' such that
    playing the mixture under the combined belief reproduces the
    a / (1-a) randomization between the two originals.  Types with zero
    combined mass keep the first family's mixture unchanged.
    """
    a = Fraction(mix)
    if not 0 <= a <= 1:
        raise ConfigError("mix weight must lie in [0, 1]")
    p = [Fraction(w) for w in belief]
    p_alt = [Fraction(w) for w in belief_alt]
    if len(p) != len(strategies) or len(p_alt) != len(strategies_alt):
        raise ConfigError("belief length must match the per-type strategy lists")
    if len(p) != len(p_alt):
        raise ConfigError("both beliefs must have the same length")
    if any(w < 0 for w in p + p_alt) or sum(p) != 1 or sum(p_alt) != 1:
        raise ConfigError("beliefs must be exact probability vectors")
    mixed_beliefs = tuple(a * pi + (1 - a) * pj for pi, pj in zip(p, p_alt))
    out: list[RandomStrategy] = []
    for i, (first, second) in enumerate(zip(strategies, strategies_alt)):
        mass = mixed_beliefs[i]
        if mass == 0:
            out.append(first)
            continue
        atoms = first.atoms + second.atoms
        weights = tuple(a * p[i] / mass * w for w in first.weights) + tuple(
            (1 - a) * p_alt[i] / mass * w for w in second.weights
        )
        out.append(RandomStrategy(atoms=atoms, weights=weights))
    return tuple(out), mixed_beliefs


def _cell_start_strategy(controls, side: str, delay_cells: int, select: Callable) -> PureStrategy:
    """A strategy whose per-path rule is `select` on a batch of one path."""

    def rule(step, x_obs, opp_obs):
        cell = (step // delay_cells) * delay_cells
        return controls.values[select(cell, np.asarray(x_obs)[-1:])[0]]

    return PureStrategy(side=side, delay_cells=delay_cells, rule=rule, select=select)


def constant_strategy(
    model: GameModel, side: str, index: int = 0, delay_cells: int = 1
) -> PureStrategy:
    controls = model.u_set if side == "u" else model.v_set
    if not 0 <= index < controls.count:
        raise ConfigError(f"control index {index} out of range")
    return _cell_start_strategy(
        controls, side, delay_cells, lambda cell, x: np.full(len(x), index)
    )


def cycle_strategy(
    model: GameModel, side: str, delay_cells: int = 1
) -> PureStrategy:
    """Deterministically cycles through the control set, one point per cell."""
    controls = model.u_set if side == "u" else model.v_set

    def select(cell, x):
        return np.full(len(x), (cell // delay_cells) % controls.count)

    return _cell_start_strategy(controls, side, delay_cells, select)


def feedback_from_field(
    model: GameModel,
    result: SolveResult,
    side: str,
    p0,
    q0,
    *,
    t0: float | None = None,
    h: float | None = None,
    delay_cells: int = 1,
) -> list[RandomStrategy]:
    """Markov minimax selection from a solved field at a frozen belief.

    The picks are computed once for every solved (t-slice, state node):
    the jets of the field at the frozen belief pair, gathered on every
    node's `solver._stencil` and differenced by `solver._jets` as in the
    HJB step, feed the dissipation-free control table of
    `hamiltonian.pair_table`,
    and each side takes its minimax selection (first index on ties).  The
    play starts at t0 (the solve's t0 by default) and steps by h (the
    solve's dt by default); at each cell start the rule looks up the pick
    of the solved slice nearest to the time played and of the nearest
    state node.  A t0 before the first slice, beyond the rounding of the
    solve's time grid, is refused.  Every own type receives the same
    degenerate mixture.
    """
    if side not in ("u", "v"):
        raise ConfigError("side must be 'u' or 'v'")
    _check_grids(model, result.grids)
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    if p0.shape != (model.u_types,) or q0.shape != (model.v_types,):
        raise ConfigError("belief shapes do not match the model type counts")
    times = result.times
    tol, ulp = _time_rounding(times)
    start = result.t0 if t0 is None else float(t0)
    if not start >= times[0] - (tol + len(times) * ulp):
        raise ConfigError(
            f"the play starts at t0 = {start!r}, before the solve's first slice at {times[0]!r}"
        )
    grids = result.grids
    grid = grids.state
    p_idx = int(np.argmin(np.linalg.norm(grids.p.points - p0[None, :], axis=1)))
    q_idx = int(np.argmin(np.linalg.norm(grids.q.points - q0[None, :], axis=1)))
    slab = np.moveaxis(result.values[..., p_idx, q_idx], 0, -1)  # state axes, then t
    nodes = np.moveaxis(np.indices(grid.shape), 0, -1)
    grad, hess = _jets(grid, slab[_stencil_points(grid, nodes)])
    table = pair_table(
        model,
        times,
        grid.mesh()[..., None, :],
        grad,
        hess,
        grids.p.points[p_idx],
        grids.q.points[q_idx],
    )  # (*shape, nt, |U|, |V|)
    if side == "u":
        controls, picks = model.u_set, np.argmin(table.max(axis=-1), axis=-1)
    else:
        controls, picks = model.v_set, np.argmax(table.min(axis=-2), axis=-1)
    step_h = result.dt if h is None else float(h)

    def select(cell, x):
        ti = int(np.argmin(np.abs(times - (start + cell * step_h))))
        node = tuple(
            np.clip(np.rint((x[:, k] - ax[0]) / dx), 0, ax.size - 1).astype(np.intp)
            if ax.size > 1
            else np.zeros(len(x), dtype=np.intp)
            for k, (ax, dx) in enumerate(zip(grid.axes, grid.spacing))
        )
        return picks[node + (ti,)]

    own_types = model.u_types if side == "u" else model.v_types
    pure = _cell_start_strategy(controls, side, delay_cells, select)
    return [RandomStrategy(atoms=(pure,), weights=(Fraction(1),)) for _ in range(own_types)]
