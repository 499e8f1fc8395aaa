"""Exact values on small binary-noise trees.

Replaces the Gaussian increments with symmetric +/-sqrt(h) branches so
every expectation is a finite sum.  Trees are capped at depth 6 and
(|U| |V| 2^d)^depth <= 1e7 nodes; within the cap, payoffs of delayed
strategies and the backward recursion are computed exactly (up to float
arithmetic), giving an independent reference for the Monte Carlo
estimators and the grid solver.

`belief_recursion` is the one backward recursion, for every tree.  On a
p lattice and a q lattice it alternates a pointwise stage minimax with
the grid solver's dual projection, Cav_q Vex_p (`solver.dual_project`):

    V_K(x, p, q) = p^T g(x) q
    V_k(x, p, q) = Cav_q Vex_p [ min_u max_v ( p^T l(t_k, x, u, v) q h
                                               + mean_eps V_{k+1}(x', p, q) ) ]

with g and l the (I, J) tables of the types' costs.  A one-point
lattice's envelope is the identity, so a one-point q lattice (one v
type) gives the one-sided recursion V_k = Vex_p[...] of an informed
minimizer, and two one-point lattices give the complete-information
recursion of one type pair (`classical_backward`).

Each level is swept forward once, `TreeGame.branch_next` stepping its
whole state array per control pair.  States are keyed by their exact float
bytes in first-reached order (0.0 and -0.0 stay distinct), and each
(state, u, v) branch keeps the rows of its children in the next level.

min-then-max is the documented order; for cost structures where the
stage game has no value the recursion still computes exactly this upper
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import ConfigError, NumericsError
from .model import GameModel, restrict_to_types, running_matrix, terminal_matrix
from .simplex import SimplexGrid, build_grid
from .simulator import PureStrategy, StrategyProfile, strategy_control
from .solver import _whole_steps, dual_project
from .transform import _row_bound

_TREE_NODE_CAP = 1e7
_TREE_DEPTH_CAP = 6


def noise_branches(noise_dim: int) -> np.ndarray:
    """All sign patterns of the increment, lexicographic, shape (2^d, d)."""
    rows = list(itertools.product((-1.0, 1.0), repeat=noise_dim))
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class TreeGame:
    model: GameModel
    x0: np.ndarray
    t0: float
    steps: int
    h: float
    branches: np.ndarray = field(init=False)

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.model.state_dim,) or not np.all(np.isfinite(x0)):
            raise ConfigError("x0 must be finite and match the model state dimension")
        object.__setattr__(self, "x0", x0)
        if self.steps < 1:
            raise ConfigError("tree needs at least one step")
        if self.steps > _TREE_DEPTH_CAP:
            raise ConfigError(f"tree depth capped at {_TREE_DEPTH_CAP}")
        if not (math.isfinite(self.h) and self.h > 0) or not math.isfinite(self.t0):
            raise ConfigError(f"need a finite h > 0 and t0, got h = {self.h!r}, t0 = {self.t0!r}")
        fanout = self.model.u_set.count * self.model.v_set.count * 2**self.model.noise_dim
        if fanout**self.steps > _TREE_NODE_CAP:
            raise ConfigError(
                f"tree of {fanout}^{self.steps} nodes exceeds the cap {_TREE_NODE_CAP:g}"
            )
        if _whole_steps(self.model.horizon - self.t0, self.h) != self.steps:
            end = self.t0 + self.steps * self.h
            raise ConfigError(
                f"t0 + steps * h = {end:g} must equal the horizon {self.model.horizon:g}"
            )
        object.__setattr__(self, "branches", noise_branches(self.model.noise_dim))

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.h

    def branch_next(self, k: int, x: np.ndarray, u, v) -> np.ndarray:
        """Child states for every sign pattern, (..., n) to (..., 2^d, n)."""
        t = self.time_at(k)
        b = np.asarray(self.model.drift(t, x, u, v), dtype=float)
        sig = np.asarray(self.model.diffusion(t, x, u, v), dtype=float)
        inc = self.branches * math.sqrt(self.h)  # (2^d, d)
        return x[..., None, :] + b[..., None, :] * self.h + inc @ np.swapaxes(sig, -1, -2)


def exact_payoff_tree(
    tree: TreeGame, i: int, j: int, strat_u: PureStrategy, strat_v: PureStrategy
) -> float:
    """Exact expected payoff of a pure strategy pair on the tree."""
    model = tree.model
    if not (0 <= i < model.u_types and 0 <= j < model.v_types):
        raise ConfigError(f"type pair ({i}, {j}) out of range")
    if strat_u.side != "u" or strat_v.side != "v":
        raise ConfigError("exact_payoff_tree needs a u strategy and a v strategy")
    gfn = model.terminal[i][j]
    lfn = model.running[i][j] if model.has_running else None
    fan = tree.branches.shape[0]

    def recurse(k: int, x_path: np.ndarray, u_rows: np.ndarray, v_rows: np.ndarray, acc: float) -> float:
        if k == tree.steps:
            return acc + float(gfn(x_path[-1]))
        u = strategy_control(strat_u, model.u_set, k, x_path, v_rows)
        v = strategy_control(strat_v, model.v_set, k, x_path, u_rows)
        t_k = tree.time_at(k)
        if lfn is not None:
            acc = acc + float(lfn(t_k, x_path[-1], u, v)) * tree.h
        children = tree.branch_next(k, x_path[-1], u, v)
        u_next = np.vstack([u_rows, u[None, :]])
        v_next = np.vstack([v_rows, v[None, :]])
        total = 0.0
        for child in children:
            total += recurse(k + 1, np.vstack([x_path, child[None, :]]), u_next, v_next, acc)
        return total / fan

    x_path = tree.x0[None, :]
    u_rows = np.empty((0, model.u_set.dim))
    v_rows = np.empty((0, model.v_set.dim))
    return recurse(0, x_path, u_rows, v_rows, 0.0)


def exact_payoff_pq(tree: TreeGame, profile: StrategyProfile, p, q) -> float:
    """Belief-weighted exact payoff of a full profile."""
    model = tree.model
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (model.u_types,) or q.shape != (model.v_types,):
        raise ConfigError("belief shapes do not match the model type counts")
    if len(profile.u_strategies) != model.u_types or len(profile.v_strategies) != model.v_types:
        raise ConfigError("profile length does not match the model type counts")
    total = 0.0
    for i, ru in enumerate(profile.u_strategies):
        for j, rv in enumerate(profile.v_strategies):
            if p[i] == 0.0 or q[j] == 0.0:
                continue
            # weighted sum of pure-pair tree payoffs, weights multiplied exactly
            mixed = 0.0
            for au, wu in zip(ru.atoms, ru.weights):
                for av, wv in zip(rv.atoms, rv.weights):
                    mixed += float(wu * wv) * exact_payoff_tree(tree, i, j, au, av)
            total += float(p[i] * q[j]) * mixed
    return total


def _sweep(tree: TreeGame) -> tuple[tuple[dict[bytes, np.ndarray], ...], list, list]:
    """Per level: the reachable states by their float bytes, the same as one
    (S, n) array, and the rows of each (state, u, v) branch's children in
    the next level, shape (S, |U|, |V|, 2^d)."""
    u_set, v_set = tree.model.u_set, tree.model.v_set
    states, xs, rows = [{tree.x0.tobytes(): tree.x0}], [tree.x0[None, :]], []
    for k in range(tree.steps):
        children = np.stack(
            [tree.branch_next(k, xs[k], u, v) for u in u_set.values for v in v_set.values], axis=1
        )  # (S, |U| |V|, 2^d, n), in the order the children are first reached
        flat = children.reshape(-1, tree.x0.size)
        keys = [child.tobytes() for child in flat]
        states.append(dict(zip(keys, flat)))  # equal keys hold equal bytes
        xs.append(np.array(list(states[-1].values())))
        row_of = {key: r for r, key in enumerate(states[-1])}
        index = np.array([row_of[key] for key in keys])
        rows.append(index.reshape(-1, u_set.count, v_set.count, tree.branches.shape[0]))
    return tuple(states), xs, rows


@dataclass(frozen=True)
class BeliefResult:
    values: np.ndarray  # (P, Q) at the root
    levels: tuple[dict[bytes, np.ndarray], ...]  # per level, state bytes -> (P, Q)
    states: tuple[dict[bytes, np.ndarray], ...]


def belief_recursion(tree: TreeGame, p_grid: SimplexGrid, q_grid: SimplexGrid) -> BeliefResult:
    """The tree's value on the p_grid x q_grid belief lattice: from the
    terminal p^T g q, each level's stage minimax of p^T l q h plus the
    mean over the children, then `dual_project`'s Cav_q Vex_p.  min_u max_v
    is reduced pair by pair.  The running costs are weighed over the
    lattices state by state: one product for a level moves the last bits."""
    model = tree.model
    if p_grid.dim != model.u_types or q_grid.dim != model.v_types:
        raise ConfigError("belief lattice dimensions must equal the model type counts")
    pts, qts = p_grid.points, q_grid.points
    bound = min(_row_bound(p_grid), _row_bound(q_grid))

    def weigh(costs):  # p^T costs q, (..., I, J) to (..., P, Q); an einsum changes the bits
        return np.stack([costs[..., j] @ pts.T for j in range(model.v_types)], axis=-1) @ qts.T

    def per_state(costs, x):  # (S, I, J), also from costs that return one number for any x
        return np.array(np.broadcast_to(costs, (x.shape[0], model.u_types, model.v_types)))

    # states and values near the float limit overflow to inf or nan, which
    # the stage check below reports as a numerics failure
    with np.errstate(over="ignore", invalid="ignore"):
        states, xs, rows = _sweep(tree)
        value = weigh(per_state(terminal_matrix(model, xs[-1]), xs[-1]))
    levels = [{} for _ in range(tree.steps)] + [dict(zip(states[-1], value))]
    for k in range(tree.steps - 1, -1, -1):
        def branch(a, u, b, v):  # the children's mean plus the running term, (S, P, Q)
            ev = 0.0
            for child in rows[k][:, a, b].T:
                ev = ev + value[child]
            ev = ev / tree.branches.shape[0]
            if model.has_running:
                costs = per_state(running_matrix(model, tree.time_at(k), xs[k], u, v), xs[k])
                ev = ev + np.array([weigh(c) for c in costs]) * tree.h
            return ev

        # min over u of max over v, pair by pair, then one projection for the level
        with np.errstate(over="ignore", invalid="ignore"):
            stage = reduce(np.minimum, (
                reduce(np.maximum, (branch(a, u, b, v) for b, v in enumerate(model.v_set.values)))
                for a, u in enumerate(model.u_set.values)
            ))
        if not np.all(np.abs(stage) <= bound):  # a NaN fails too
            raise NumericsError(
                "the tree's stage values overflowed: they are not finite, or above "
                f"the envelopes' bound {bound:g} in magnitude"
            )
        value = dual_project(p_grid, q_grid, stage).values
        levels[k] = dict(zip(states[k], value))
    return BeliefResult(values=levels[0][tree.x0.tobytes()], levels=tuple(levels), states=states)


def classical_backward(tree: TreeGame, i: int = 0, j: int = 0) -> BeliefResult:
    """Complete-information recursion of type pair (i, j), min over u of
    max over v: `belief_recursion` of the game restricted to that pair, on
    one-point lattices, whose values are (1, 1).

    Only legal when the minimax order provably cannot matter, which this
    checks through the model's decoupled flag.
    """
    if not tree.model.decoupled:
        raise ConfigError(
            "classical_backward requires decoupled controls; the minimax order is ambiguous otherwise"
        )
    sub = replace(tree, model=restrict_to_types(tree.model, i, j))
    return belief_recursion(sub, build_grid(1, 1), build_grid(1, 1))
