"""Shared helpers: the memory cap, deterministic reductions,
`sorted_unique`, `round_decimals` and the thread pool knob.

`_MEMORY_CAP_BYTES` is the library's one memory cap: a request whose
arrays would pass it is refused with a ConfigError before they are
allocated.

Reductions always use the same pairwise tree, so their results depend
only on the values and their order.  No part of the library uses the
pool any more: the solver and the simulator run on the calling thread.
`parallel_map` and `thread_count` (INFOGAME_THREADS: unset or "0" picks an
automatic worker count, any other integer is used verbatim) stay because
the `perfbench` harness imports them; the thread pool module is imported
inside `parallel_map`, so no request loads it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

_MEMORY_CAP_BYTES = 2 * 1024**3


def thread_count() -> int:
    raw = os.environ.get("INFOGAME_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"INFOGAME_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError(f"INFOGAME_THREADS must be >= 0, got {n}")
    if n == 0:
        return min(4, os.cpu_count() or 1)
    return n


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map preserving input order; worker count from INFOGAME_THREADS.  The
    thread pool is imported here, so a run that never maps never loads it."""
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def pairwise_sum(values: np.ndarray) -> float:
    """Sum by a fixed balanced pairwise tree in index order.

    The reduction tree depends only on the length, never on how the values
    were produced, which keeps multi-threaded runs bit-identical to serial
    ones.
    """
    buf = np.asarray(values, dtype=float).ravel().copy()
    n = buf.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        buf[:half] = buf[:half] + buf[half : 2 * half]
        if n % 2:
            buf[half] = buf[n - 1]
            n = half + 1
        else:
            n = half
    return float(buf[0])


def pairwise_mean(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("mean of empty array")
    return pairwise_sum(values) / values.size


def sorted_unique(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """np.unique(values, axis=axis), bytes included, without numpy.ma.

    Without an index, inverse or count output, numpy 2.4's `np.unique`
    asks `np.ma.is_masked` whether it may take its hash path, and that
    imports numpy.ma (15 to 30 ms warm) inside every `simulate` and
    `check` request.  Asking for the counts skips that question and takes
    numpy's sort path: the same in-place sort that the plain call runs on
    float and row tables, so among rows that differ only in the sign of a
    zero it keeps the same one; integers have a single representation.
    """
    return np.unique(values, axis=axis, return_counts=True)[0]


def round_decimals(values: np.ndarray, decimals: int) -> np.ndarray:
    """np.round(values, decimals), bit for bit, wherever that does not
    overflow; elsewhere the values as they are, with no warning.

    np.round scales by 10**decimals, rounds to an integer and scales back,
    so a value past F / 10**decimals (F the largest float) comes back as
    inf.  Such a value is an integer, a multiple of 10**-decimals already.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        fits = np.isfinite(values * 10.0**decimals)  # the product np.round forms
    return np.where(fits, np.round(np.where(fits, values, 0.0), decimals), values)


def sha256_hex(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()
