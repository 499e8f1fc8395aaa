"""Per-node tree recursions: bitwise references for the `oracle` module.

`exact_payoff_tree` is the node-by-node payoff of a pure pair: it walks
every path of the tree, resolves both controls at each node with
`simulator.strategy_control`, accumulates the running cost along the path
and averages the children in sign order.  The library plays all the
paths as one simulator batch instead.

`belief_recursion` is the per-state reference for `oracle.belief_recursion`.

The library sweeps each tree level once: it steps the whole level per
control pair, records where each branch's children sit in the next level,
and reduces min_u max_v pair by pair.  This module keeps the
state-at-a-time route with the same arithmetic:
- each (state, u, v) branch is stepped on its own, once to find the next
  level's states and again to look its children's values up by their
  float bytes;
- each state's stage is a (|U|, |V|, P, Q) table reduced by the max over
  v, then the min over u;
- the running costs are evaluated and weighed per (state, u, v).
"""

from __future__ import annotations

import math

import numpy as np

from infogame.model import running_matrix, terminal_matrix
from infogame.oracle import BeliefResult
from infogame.simulator import strategy_control
from infogame.solver import dual_project


def exact_payoff_tree(tree, i, j, strat_u, strat_v):
    """Exact expected payoff of a pure strategy pair, one node at a time."""
    model = tree.model
    gfn = model.terminal[i][j]
    lfn = model.running[i][j] if model.has_running else None
    fan = tree.branches.shape[0]

    def recurse(k, x_path, u_rows, v_rows, acc):
        if k == tree.steps:
            return acc + float(gfn(x_path[-1]))
        u = strategy_control(strat_u, model.u_set, k, x_path, v_rows)
        v = strategy_control(strat_v, model.v_set, k, x_path, u_rows)
        if lfn is not None:
            acc = acc + float(lfn(tree.time_at(k), x_path[-1], u, v)) * tree.h
        u_next = np.vstack([u_rows, u[None, :]])
        v_next = np.vstack([v_rows, v[None, :]])
        total = 0.0
        for child in branch_next(tree, k, x_path[-1], u, v):
            total += recurse(k + 1, np.vstack([x_path, child[None, :]]), u_next, v_next, acc)
        return total / fan

    empty_u, empty_v = np.empty((0, model.u_set.dim)), np.empty((0, model.v_set.dim))
    return recurse(0, tree.x0[None, :], empty_u, empty_v, 0.0)


def branch_next(tree, k, x, u, v):
    """Child states of one state for every sign pattern, shape (2^d, n)."""
    t = tree.time_at(k)
    b = np.asarray(tree.model.drift(t, x, u, v), dtype=float)
    sig = np.asarray(tree.model.diffusion(t, x, u, v), dtype=float)
    inc = tree.branches * math.sqrt(tree.h)
    return x[None, :] + b[None, :] * tree.h + inc @ sig.T


def forward_states(tree):
    """Reachable states per level, keyed by the exact float bytes."""
    model = tree.model
    levels = [{tree.x0.tobytes(): tree.x0}]
    for k in range(tree.steps):
        nxt = {}
        for x in levels[k].values():
            for u in model.u_set.values:
                for v in model.v_set.values:
                    for child in branch_next(tree, k, x, u, v):
                        nxt.setdefault(child.tobytes(), child)
        levels.append(nxt)
    return tuple(levels)


def stage_table(tree, k, x, level, running):
    """Stage values over control pairs, shape (|U|, |V|, ...): the mean of
    the children's values in `level` plus running(t_k, x, u, v) * h, or
    the mean alone when `running` is None."""
    model = tree.model
    t_k = tree.time_at(k)
    table = []
    for u in model.u_set.values:
        row = []
        for v in model.v_set.values:
            children = branch_next(tree, k, x, u, v)
            ev = 0.0
            for child in children:
                ev = ev + level[child.tobytes()]
            ev = ev / children.shape[0]
            if running is not None:
                ev = ev + running(t_k, x, u, v) * tree.h
            row.append(ev)
        table.append(row)
    return np.array(table)


def belief_recursion(tree, p_grid, q_grid):
    """The tree's value on the belief lattices, one state at a time."""
    model = tree.model
    pts, qts = p_grid.points, q_grid.points

    def weigh(costs):
        return np.stack([costs[..., j] @ pts.T for j in range(model.v_types)], axis=-1) @ qts.T

    def running(t, x, u, v):
        return weigh(running_matrix(model, t, x, u, v))

    states = forward_states(tree)
    last = states[tree.steps]
    terminal = weigh(np.array([terminal_matrix(model, x) for x in last.values()]))
    levels = [{} for _ in range(tree.steps)] + [dict(zip(last.keys(), terminal))]
    for k in range(tree.steps - 1, -1, -1):
        stage = np.array([
            stage_table(tree, k, x, levels[k + 1], running if model.has_running else None)
            .max(axis=1).min(axis=0)
            for x in states[k].values()
        ])
        levels[k] = dict(zip(states[k].keys(), dual_project(p_grid, q_grid, stage).values))
    return BeliefResult(values=levels[0][tree.x0.tobytes()], levels=tuple(levels), states=states)
