"""In-memory span recorder for one traced call into infogame.

`install()` rebinds each function in `SPANS` to a timing wrapper in every
loaded infogame module that holds a reference to it, including names
bound with ``from ... import``.  Each span records wall time
(`perf_counter`) and the CPU time of the thread it ran on (`thread_time`).
Spans nest through a per-thread stack; a task that `_util.parallel_map`
hands to a pool worker opens a `util.parallel_map.task` span whose parent
is the `parallel_map` span that submitted it, so worker time is charged to
the pool and not to the caller's self time.

Spans stay in per-thread `array` buffers (six doubles each) until
`Recorder.report()` computes, per span name, the call count, inclusive
seconds, self seconds (duration minus the union of the child intervals,
on any thread) and wait seconds (wall minus CPU time of the span's own
thread outside its same-thread children: time spent waiting for the GIL,
the scheduler or, for `util.parallel_map`, the pool's workers).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

SPANS = {
    "cli": ("main", "load_solve"),
    "solver": ("solve", "terminal_field", "hjb_step", "dual_project"),
    "transform": ("vex_p", "cav_q", "facet_slope_probes"),
    "simplex": ("discrete_convexity_violation",),
    "hamiltonian": ("sample_isaacs_gap", "ham_bellman_inf_sup", "pair_table"),
    "model": ("running_matrix",),
    "dualcheck": ("build_probes", "check_dual_solution", "primal_crosscheck"),
    "simulator": (
        "payoff_matrix",
        "payoff_pq",
        "sample_noise",
        "resolve_controls",
        "strategy_control",
        "payoff_path",
    ),
    "_util": ("parallel_map",),
}


def span_name(module: str, fn: str) -> str:
    """Metric name of a traced function; metric names start with a letter."""
    return f"{module.lstrip('_')}.{fn}"


SPAN_NAMES = tuple(span_name(mod, fn) for mod, fns in SPANS.items() for fn in fns)
POOL = span_name("_util", "parallel_map")
TASK = f"{POOL}.task"
_NAMES = SPAN_NAMES + (TASK,)
_FIELDS = 6  # name index, span id, parent id (-1 for none), start, end, thread CPU


class Recorder:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[tuple[int, array]] = []  # (thread ident, records)
        self.vex_changed: list[bool] = []
        self.noise_samples: list[tuple[int, int]] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.records = array("d")
            self._buffers.append((threading.get_ident(), local.records))
        return local

    def _run(self, code: int, fn, args, kwargs, *, sid: int | None = None, parent: int | None = None):
        local = self._state()
        stack = local.stack
        if parent is None:
            parent = stack[-1] if stack else -1
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            local.records.extend((code, sid, parent, t0, t1, cpu1 - cpu0))

    def _wrap(self, name: str, fn):
        code = _NAMES.index(name)
        if name == POOL:
            return self._wrap_pool(code, fn)
        observe = {
            "transform.vex_p": lambda args, out: self.vex_changed.append(not np.array_equal(out, args[1])),
            "simulator.sample_noise": lambda args, out: self.noise_samples.append(args[:2]),
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._run(code, fn, args, kwargs)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _wrap_pool(self, code: int, fn):
        task_code = _NAMES.index(TASK)

        @functools.wraps(fn)
        def traced(worker, items):
            # the pool span's id is drawn first so that its tasks can name it
            # as parent from whichever thread runs them
            sid = next(self._ids)

            def submitted(item):
                return self._run(task_code, worker, (item,), {}, parent=sid)

            return self._run(code, fn, (submitted, items), {}, sid=sid)

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded infogame modules."""
        modules = [m for k, m in sys.modules.items() if k == "infogame" or k.startswith("infogame.")]
        for mod_name, fns in SPANS.items():
            home = sys.modules[f"infogame.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(span_name(mod_name, fn_name), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def records(self) -> tuple[np.ndarray, np.ndarray]:
        """All spans as an (n, 6) array plus the thread ident of each row."""
        rows, threads = [], []
        for ident, buf in self._buffers:
            block = np.frombuffer(buf, dtype=float).reshape(-1, _FIELDS)
            rows.append(block)
            threads.append(np.full(block.shape[0], ident, dtype=np.int64))
        if not rows:
            return np.empty((0, _FIELDS)), np.empty(0, dtype=np.int64)
        return np.concatenate(rows), np.concatenate(threads)

    def report(self) -> dict:
        """Per-name totals plus the derived shares; see the module docstring."""
        recs, threads = self.records()
        return summarize(recs, threads, self.vex_changed, self.noise_samples)


def _union_by_parent(parent_pos: np.ndarray, start: np.ndarray, end: np.ndarray, n: int) -> np.ndarray:
    """Length of the union of child intervals, per parent row position."""
    out = np.zeros(n)
    has = parent_pos >= 0
    if not np.any(has):
        return out
    par, s, e = parent_pos[has], start[has], end[has]
    order = np.lexsort((s, par))
    par, s, e = par[order], s[order], e[order]
    # shift each parent's group by a gap longer than the whole trace so a
    # running maximum never carries from one group into the next
    group = np.unique(par, return_inverse=True)[1]
    origin = s.min()
    gap = 2.0 * float(max(e.max() - origin, 1.0))
    s_off, e_off = s - origin + group * gap, e - origin + group * gap
    prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e_off)[:-1]))
    first = np.concatenate(([True], par[1:] != par[:-1]))
    prev_end[first] = -np.inf
    covered = np.maximum(0.0, e_off - np.maximum(s_off, prev_end))
    np.add.at(out, par, covered)
    return out


def summarize(recs: np.ndarray, threads: np.ndarray, vex_changed, noise_samples) -> dict:
    n = recs.shape[0]
    code = recs[:, 0].astype(int)
    sid = recs[:, 1].astype(np.int64)
    parent = recs[:, 2].astype(np.int64)
    start, end, cpu = recs[:, 3], recs[:, 4], recs[:, 5]
    dur = end - start
    pos = np.full(int(sid.max()) + 1 if n else 0, -1, dtype=np.int64)
    pos[sid] = np.arange(n)
    parent_pos = np.where(parent >= 0, pos[np.maximum(parent, 0)], -1)

    self_s = dur - _union_by_parent(parent_pos, start, end, n)
    same_thread = (parent_pos >= 0) & (threads == threads[np.maximum(parent_pos, 0)])
    child_cpu = np.zeros(n)
    child_dur = np.zeros(n)
    np.add.at(child_cpu, parent_pos[same_thread], cpu[same_thread])
    np.add.at(child_dur, parent_pos[same_thread], dur[same_thread])
    self_cpu = cpu - child_cpu
    # time the span's own thread spent off the CPU outside its children
    wait = (dur - child_dur) - self_cpu

    out: dict[str, float] = {}
    for k, name in enumerate(_NAMES):
        mask = code == k
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.s"] = float(dur[mask].sum())
        out[f"{name}.self_s"] = float(self_s[mask].sum())
        out[f"{name}.wait_s"] = float(wait[mask].sum())
        if name == TASK:
            out[f"{name}.cpu_s"] = float(cpu[mask].sum())

    roots = parent_pos < 0
    root_thread = threads[roots][0] if np.any(roots) else 0
    pool = code == _NAMES.index(POOL)
    # wall covered by named spans: self time along the calling thread plus
    # the part of each pool span its workers' tasks covered
    out["covered_s"] = float(self_s[threads == root_thread].sum() + (dur[pool] - self_s[pool]).sum())
    out["root_s"] = float(dur[roots].sum())
    out["self_cpu_s"] = float(self_cpu.sum())
    out["vex_changed"] = int(sum(vex_changed))
    out["noise_samples"] = len(set(noise_samples))
    return out
