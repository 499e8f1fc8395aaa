"""Per-state tree recursion: a bitwise reference for `oracle.belief_recursion`.

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
from infogame.solver import dual_project


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
