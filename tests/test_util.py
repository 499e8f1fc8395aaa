from __future__ import annotations

import math
import os
import warnings

import numpy as np
import pytest

from infogame._util import (
    pairwise_mean,
    pairwise_sum,
    parallel_map,
    round_decimals,
    sorted_unique,
    thread_count,
)
from infogame.errors import ConfigError


def test_pairwise_sum_matches_fsum_closely():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1000) * 1e6
    exact = math.fsum(values)
    assert abs(pairwise_sum(values) - exact) < 1e-4
    # naive left fold is allowed to be worse, pairwise must not be
    naive = 0.0
    for v in values:
        naive += v
    assert abs(pairwise_sum(values) - exact) <= abs(naive - exact) + 1e-6


def test_pairwise_sum_is_order_of_evaluation_fixed():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(257)
    assert pairwise_sum(values) == pairwise_sum(values.copy())


def test_pairwise_sum_edge_sizes():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.5])) == 3.5
    assert pairwise_sum(np.array([1.0, 2.0])) == 3.0
    assert pairwise_mean(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sorted_unique_is_np_unique_bytewise():
    rng = np.random.default_rng(5)
    for ints in (rng.integers(0, 9, 40), np.full(30, 7), np.array([3]), np.arange(25)[::-1]):
        assert _same_bytes(sorted_unique(ints), np.unique(ints))
    # more than 16 rows, so the sort takes numpy's introsort and not only
    # insertion sort; the rows repeat and some differ only in a zero's sign
    base = np.round(rng.standard_normal((12, 3)), 1)
    base[:4, 1] = 0.0
    signed = base[:4].copy()
    signed[:, 1] = -0.0
    for table in (
        np.vstack([base, signed, base[::-1], signed[::-1]]),
        np.vstack([signed, base, signed]),
        np.round(rng.standard_normal((60, 2)), 0),  # integers and +-0.0 only
    ):
        table = table[rng.permutation(len(table))]
        assert len(table) > 16
        assert _same_bytes(sorted_unique(table, axis=0), np.unique(table, axis=0))


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("INFOGAME_THREADS", raising=False)
    auto = thread_count()
    assert 1 <= auto <= 4
    monkeypatch.setenv("INFOGAME_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("INFOGAME_THREADS", "0")
    assert thread_count() == auto
    monkeypatch.setenv("INFOGAME_THREADS", "zebra")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.setenv("INFOGAME_THREADS", "-1")
    with pytest.raises(ConfigError):
        thread_count()


def test_parallel_map_preserves_order(monkeypatch):
    items = list(range(41))
    monkeypatch.setenv("INFOGAME_THREADS", "4")
    assert parallel_map(lambda k: k * k, items) == [k * k for k in items]
    monkeypatch.setenv("INFOGAME_THREADS", "1")
    assert parallel_map(lambda k: k * k, items) == [k * k for k in items]


def test_round_decimals_is_np_round_wherever_that_does_not_overflow():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(10_000) * 10.0 ** rng.integers(-20, 300, 10_000)
    limit = np.finfo(float).max / 1e12
    edge = np.array([limit, np.nextafter(limit, 0.0), np.nextafter(limit, np.inf), 0.0, 5e-324])
    values = np.concatenate([values, edge, -edge, [np.inf, -np.inf, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = round_decimals(values, 12)
    with np.errstate(over="ignore"):
        want = np.round(values, 12)
    fits = np.isfinite(want)
    assert 0 < fits.sum() < values.size - 3
    assert got[fits].tobytes() == want[fits].tobytes()
    # past F / 1e12 a float is an integer, which the rounding keeps
    assert got[~fits].tobytes() == values[~fits].tobytes()
