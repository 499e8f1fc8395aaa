"""Shared helpers: deterministic reductions and the thread pool knob.

Reductions always use the same pairwise tree, so their results depend
only on the values and their order.  No part of the library uses the
pool any more: the solver and the simulator run on the calling thread.
`parallel_map` and `thread_count` (INFOGAME_THREADS: unset or "0" picks an
automatic worker count, any other integer is used verbatim) stay because
the `perfbench` harness imports them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


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
    """Map preserving input order; worker count from INFOGAME_THREADS."""
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
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


def sha256_hex(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()
