"""Envelope and conjugate transforms against independent references.

The lower-envelope reference used for cross-checking is a direct linear
program over affine minorants: vex(w)(p) is the largest value at p among
affine functions dominated by w on the lattice.  That route shares no
code with the hull construction under test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import envelope_reference as ref
from infogame import transform
from infogame.errors import ConfigError
from infogame.simplex import build_grid, convexity_violations, discrete_convexity_violation
from infogame.transform import (
    biconjugate_p,
    cav_q,
    coordinate_difference_probes,
    facet_slope_probes,
    vex_p,
    vex_rows,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def lp_envelope(grid, values):
    """Best affine minorant value at each lattice point, solved as an LP."""
    out = np.empty(grid.npoints)
    A = np.column_stack([np.ones(grid.npoints), grid.points])
    for k in range(grid.npoints):
        c = -np.concatenate([[1.0], grid.points[k]])
        res = linprog(c, A_ub=A, b_ub=values, bounds=[(None, None)] * (grid.dim + 1),
                      method="highs")
        assert res.status == 0
        out[k] = -res.fun
    return out


def test_hand_hull_interval():
    # table over p_1 = 0, 1/4, 1/2, 3/4, 1; the midpoint lies above the
    # chord between its neighbours and must drop to 0.15
    grid = build_grid(2, 4)
    values = np.array([1.0, 0.2, 0.6, 0.1, 1.0])
    env = vex_p(grid, values)
    np.testing.assert_allclose(env, [1.0, 0.2, 0.15, 0.1, 1.0], rtol=0, atol=1e-15)
    # hull nodes keep their exact input floats
    assert env[0] == values[0] and env[1] == values[1]
    assert env[3] == values[3] and env[4] == values[4]


def test_vertex_values_always_survive():
    # envelopes fix simplex vertices: no convex combination reaches them
    for dim in (2, 3):
        grid = build_grid(dim, 3)
        rng = np.random.default_rng(dim)
        values = rng.standard_normal(grid.npoints)
        env = vex_p(grid, values)
        for c in range(dim):
            k = grid.vertex_index(c)
            assert env[k] == values[k]


def test_envelope_against_lp_dim2():
    grid = build_grid(2, 8)
    rng = np.random.default_rng(7)
    for _ in range(5):
        values = rng.standard_normal(grid.npoints)
        np.testing.assert_allclose(vex_p(grid, values), lp_envelope(grid, values),
                                   rtol=0, atol=1e-9)


def test_envelope_against_lp_dim3():
    grid = build_grid(3, 5)
    rng = np.random.default_rng(11)
    for _ in range(4):
        values = rng.standard_normal(grid.npoints)
        np.testing.assert_allclose(vex_p(grid, values), lp_envelope(grid, values),
                                   rtol=0, atol=1e-9)


def test_envelope_against_lp_dim4():
    grid = build_grid(4, 3)
    rng = np.random.default_rng(13)
    values = rng.standard_normal(grid.npoints)
    np.testing.assert_allclose(vex_p(grid, values), lp_envelope(grid, values),
                               rtol=0, atol=1e-9)


def test_affine_tables_are_fixed_points():
    grid = build_grid(3, 6)
    values = grid.points @ np.array([0.3, -1.1, 0.4]) + 2.0
    np.testing.assert_array_equal(vex_p(grid, values), values)
    np.testing.assert_array_equal(cav_q(grid, values), values)


def test_envelope_idempotent_and_dominated():
    grid = build_grid(3, 4)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.npoints)
    env = vex_p(grid, values)
    assert np.all(env <= values + 1e-12)
    np.testing.assert_allclose(vex_p(grid, env), env, rtol=0, atol=1e-10)
    assert discrete_convexity_violation(grid, env) <= 1e-10


def test_cav_is_reflected_vex():
    grid = build_grid(2, 5)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(grid.npoints)
    np.testing.assert_array_equal(cav_q(grid, values), -vex_p(grid, -values))
    assert np.all(cav_q(grid, values) >= values - 1e-12)


def test_biconjugate_recovers_envelope():
    for dim, resolution in ((2, 7), (3, 4)):
        grid = build_grid(dim, resolution)
        rng = np.random.default_rng(17 + dim)
        values = rng.standard_normal(grid.npoints)
        np.testing.assert_allclose(
            biconjugate_p(grid, values), vex_p(grid, values), rtol=0, atol=1e-9
        )


def test_probe_helpers():
    grid = build_grid(2, 4)
    values = np.array([1.0, 0.2, 0.6, 0.1, 1.0])
    probes = facet_slope_probes(grid, values)
    # hull p_1-slopes: (0.2-1)/0.25 = -3.2, (0.1-0.2)/0.5 = -0.2, (1-0.1)/0.25 = 3.6
    assert sorted(p[0] for p in probes) == pytest.approx([-3.2, -0.2, 3.6])
    cd = coordinate_difference_probes(3)
    assert cd.shape == (7, 3)
    assert {tuple(row) for row in cd} >= {(1.0, -1.0, 0.0), (0.0, -1.0, 1.0)}


def test_subdifferential_certificates():
    """Every maximizer p of <s, p> - w(p) is a subgradient of the conjugate:
    w*(s) + <p, s' - s> <= w*(s') for every probe s'."""
    grid = build_grid(2, 6)
    rng = np.random.default_rng(21)
    values = vex_p(grid, rng.standard_normal(grid.npoints))
    probes = facet_slope_probes(grid, values)
    scores = grid.points @ probes.T - values[:, None]  # (npoints, nprobes)
    conj = scores.max(axis=0)
    for r, s in enumerate(probes):
        for k in np.flatnonzero(scores[:, r] >= conj[r] - 1e-12):
            margin = conj[r] + (probes - s) @ grid.points[k] - conj
            assert np.max(margin) <= 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_envelope_properties_random(seed, dim, resolution):
    grid = build_grid(dim, resolution)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3, 3, grid.npoints)
    env = vex_p(grid, values)
    assert np.all(env <= values + 1e-12)
    assert discrete_convexity_violation(grid, env) <= 1e-10
    again = vex_p(grid, env)
    np.testing.assert_allclose(again, env, rtol=0, atol=1e-10)


ROW_KINDS = ("random", "ties", "collinear", "affine", "near-convex")


def _integer_affine(grid, rng):
    """Affine in the numerators with integer coefficients: exact in floats."""
    coef = rng.integers(-3, 4, grid.dim).astype(float)
    return grid.numerators @ coef + float(rng.integers(-5, 6))


def _table_row(grid, kind, rng):
    if kind == "random":
        return rng.uniform(-3, 3, grid.npoints)
    if kind == "ties":
        return rng.integers(-2, 3, grid.npoints).astype(float)
    if kind == "collinear":
        # bumps on an affine base: the hull runs through collinear nodes, whose
        # cross products are often exactly 0.0 and whose chord values differ
        # from the stored ones in the last bit
        bumps = rng.integers(0, 3, grid.npoints) * (rng.random(grid.npoints) < 0.3)
        return _table_row(grid, "affine", rng) + bumps
    if kind == "affine":
        return grid.points @ rng.standard_normal(grid.dim) + rng.standard_normal()
    # near-convex: an exact affine row with one midpoint raised by a share of
    # the fixed-point tolerance, or by just over it
    row = _integer_affine(grid, rng)
    if grid.triples.shape[0]:
        scale = max(1.0, float(np.max(np.abs(row))))
        share = rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 3.0)])
        row[rng.choice(grid.triples[:, 1])] += share * 1e-12 * scale
    return row


@st.composite
def envelope_tables(draw):
    dim = draw(st.sampled_from((2, 3)))
    grid = build_grid(dim, draw(st.integers(1, 16 if dim == 2 else 6)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid, kinds, np.array([_table_row(grid, kind, rng) for kind in kinds])


@given(envelope_tables())
@settings(max_examples=150, deadline=None)
def test_vex_rows_is_bitwise_the_per_row_envelope(case):
    grid, kinds, rows = case
    want = ref.vex_table(grid, rows)
    assert np.array_equal(vex_rows(grid, rows), want)
    assert np.array_equal(np.array([vex_p(grid, r) for r in rows]), want)
    cav = -ref.vex_table(grid, -rows)
    assert np.array_equal(-vex_rows(grid, -rows), cav)
    assert np.array_equal(np.array([cav_q(grid, r) for r in rows]), cav)
    per_row = [ref.convexity_violation(grid, r) for r in rows]
    batched = convexity_violations(grid, rows)
    assert np.array_equal(batched, per_row)
    assert [discrete_convexity_violation(grid, r) for r in rows] == per_row
    assert np.max(batched) == max(per_row)
    for kind, row, viol in zip(kinds, rows, per_row):
        if kind == "near-convex" and viol <= 1e-12 * max(1.0, float(np.max(np.abs(row)))):
            # inside the fixed-point tolerance: returned as is
            assert grid.triples.shape[0] == 0 or viol > 0.0
            assert np.array_equal(vex_rows(grid, row[None, :])[0], row)


def test_vex_rows_validates_its_table():
    grid = build_grid(2, 4)
    with pytest.raises(ConfigError):
        vex_rows(grid, np.zeros(grid.npoints))
    with pytest.raises(ConfigError):
        vex_rows(grid, np.zeros((3, grid.npoints + 1)))
    rows = np.zeros((3, grid.npoints))
    rows[1, 2] = np.inf
    with pytest.raises(ConfigError):
        vex_rows(grid, rows)
    # the magnitude bound: at it every envelope is finite, one float past it
    # is refused
    big = np.finfo(float).max
    for grid, bound in ((grid, big / 16), (build_grid(3, 2), big * 1e-12 / (1 + np.sqrt(2)))):
        signs = np.where(np.arange(grid.npoints) % 3 == 1, -1.0, 1.0)
        for sign in (1.0, -1.0):
            rows = sign * bound * np.vstack([signs, -signs, np.ones(grid.npoints)])
            assert np.all(np.isfinite(vex_rows(grid, rows)))
            assert np.all(np.isfinite(-vex_rows(grid, -rows)))
            rows[0, 1] = sign * np.nextafter(bound, np.inf)
            with pytest.raises(ConfigError, match="magnitude"):
                vex_rows(grid, rows)


def test_badly_scaled_table_keeps_its_envelope():
    # one huge spike defeats Qhull's precision checks on the raw lifted
    # cloud; the envelope is the zero plane through the other nodes
    grid = build_grid(4, 2)
    values = np.zeros(grid.npoints)
    values[grid.index_of((1, 1, 0, 0))] = 103180732427961.0
    np.testing.assert_array_equal(vex_p(grid, values), np.zeros(grid.npoints))


def _tall_rows():
    """Gaussian rows on a 3-type resolution-4 lattice scaled by 10^U(12, 14):
    most of their lifted clouds are so tall that every lower facet's unit
    normal is nearly horizontal."""
    grid = build_grid(3, 4)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((500, grid.npoints)) * 10.0 ** rng.uniform(12, 14, (500, 1))
    return grid, rows


def test_tall_tables_are_not_refused():
    grid, rows = _tall_rows()
    envs = vex_rows(grid, rows)
    assert np.all(envs <= rows)
    scale = np.max(np.abs(rows), axis=1)
    assert np.max(convexity_violations(grid, envs) / scale) <= 1e-13
    assert np.array_equal(envs, ref.vex_table(grid, rows))


def test_convexify_takes_a_tall_table(tmp_path):
    from infogame.cli import main

    grid, rows = _tall_rows()
    w = rows[0]
    table = tmp_path / "table.csv"
    lines = ["p_1,p_2,p_3,w"] + [
        ",".join(repr(float(v)) for v in (*grid.points[k], w[k])) for k in range(grid.npoints)
    ]
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "env.csv"
    assert main(["convexify", "--table", str(table), "--out", str(out), "--mode", "vex"]) == 0
    got = np.array([float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]])
    np.testing.assert_array_equal(got, vex_p(grid, w))


def _guard_band_row(grid):
    """An exact affine row plus a midpoint bump of 3e-12 x scale: it fails
    the 1e-12 fixed-point screen, but `_affine_fit` accepts it."""
    row = grid.numerators @ np.arange(1.0, grid.dim + 1.0) - 2.0
    scale = max(1.0, float(np.max(np.abs(row))))
    row[grid.triples[0, 1]] += 3e-12 * scale
    assert discrete_convexity_violation(grid, row) > 1e-12 * scale
    assert transform._affine_fit(grid, row) is not None
    return row


def test_vex_rows_keeps_guard_band_rows_bitwise():
    for dim, resolution in ((3, 6), (4, 3)):
        grid = build_grid(dim, resolution)
        row = _guard_band_row(grid)
        assert np.array_equal(vex_p(grid, row), row)
        rows = np.array([row, -row, 2.0 * row])
        assert np.array_equal(vex_rows(grid, rows), ref.vex_table(grid, rows))


def test_vex_rows_matches_vex_p_on_four_types():
    grid = build_grid(4, 3)
    rng = np.random.default_rng(23)
    spike = np.zeros(grid.npoints)
    spike[grid.index_of((1, 1, 1, 0))] = 1e14  # takes the scaled Qhull retry
    rows = np.vstack([rng.uniform(-3, 3, (20, grid.npoints)), spike, -spike])
    expected = ref.vex_table(grid, rows)
    assert np.array_equal(vex_rows(grid, rows), expected)
    assert np.array_equal(np.array([vex_p(grid, r) for r in rows]), expected)
    assert np.array_equal(-vex_rows(grid, -rows), -ref.vex_table(grid, -rows))


def test_vex_rows_is_bitwise_the_per_row_envelope_on_a_solve_sized_stack(monkeypatch):
    # one pass of a 3-type solve hulls hundreds of rows at once; the batched
    # plane arithmetic must give each row its own facets, scale and members
    grid = build_grid(3, 6)
    rng = np.random.default_rng(53)
    kinds = [ROW_KINDS[k % len(ROW_KINDS)] for k in range(1000)]
    rows = np.array([_table_row(grid, kind, rng) for kind in kinds])
    convex = np.sum(grid.points**2, axis=1)
    spike = np.zeros(grid.npoints)
    spike[grid.index_of((1, 2, 3))] = 1e14  # -spike takes the scaled retry under vex, +spike under cav
    rows = np.vstack([rows[:400], -spike, rows[400:700], convex, spike, 3.0 * convex - 1.0,
                      rows[700:], _guard_band_row(grid)])
    scaled = []
    hull = transform._LowerHull._hull

    def spy(self, values, scale):
        scaled.append(scale != 1.0)
        return hull(self, values, scale)

    monkeypatch.setattr(transform._LowerHull, "_hull", spy)
    for sign in (1.0, -1.0):
        scaled.clear()
        got = sign * vex_rows(grid, sign * rows)
        assert sum(scaled) == 1  # the one downward spike
        assert got.tobytes() == (sign * ref.vex_table(grid, sign * rows)).tobytes()


def _count_hulls(monkeypatch) -> list:
    """A list that gains an entry per `_LowerHull._hull` call; any call to
    `ConvexHull` fails, since the library runs Qhull without it."""
    import scipy.spatial
    import scipy.spatial._qhull

    hulls = []
    hull = transform._LowerHull._hull

    def counting(self, values, scale):
        hulls.append(1)
        return hull(self, values, scale)

    def refuse(*args, **kwargs):
        raise AssertionError("the envelopes must not build a ConvexHull")

    monkeypatch.setattr(transform._LowerHull, "_hull", counting)
    for module in (scipy.spatial, scipy.spatial._qhull):
        monkeypatch.setattr(module, "ConvexHull", refuse)
    return hulls


def test_vex_rows_builds_one_hull_per_remaining_row(monkeypatch):
    grid = build_grid(3, 6)
    rng = np.random.default_rng(29)
    hulls = _count_hulls(monkeypatch)
    fits = []

    def refuse(*args, **kwargs):
        raise AssertionError("vex_rows must not run a per-row helper")

    exact_fit = transform._affine_fit

    def counting_fit(grid, values):
        fits.append(1)
        return exact_fit(grid, values)

    monkeypatch.setattr(transform, "_affine_fit", counting_fit)
    for name in ("vex_p", "cav_q", "_check_values", "facet_slope_probes"):
        monkeypatch.setattr(transform, name, refuse)
    random_rows = rng.uniform(-3, 3, (7, grid.npoints))
    convex = np.sum(grid.points**2, axis=1)  # screened as a fixed point
    rows = np.vstack([random_rows, convex, _guard_band_row(grid)])
    fits.clear()
    out = vex_rows(grid, rows)
    assert len(hulls) == 7  # the random rows; none is convex or affine
    assert len(fits) == 1  # only the guard-band row gets the exact fit
    assert np.array_equal(out[7:], rows[7:])


def _spike_row(grid, sign):
    """Zero but for sign * 1e14 at the first node that is not a vertex."""
    row = np.zeros(grid.npoints)
    row[np.flatnonzero(grid.numerators.max(axis=1) < grid.resolution)[0]] = sign * 1e14
    return row


@pytest.mark.parametrize("dim,resolution", [(3, 6), (4, 3), (5, 2)])
def test_raw_qhull_gives_convex_hull_arrays_bit_for_bit(dim, resolution):
    # `_LowerHull` runs scipy's private `_Qhull` as ConvexHull does; this
    # pins its arrays to ConvexHull's, on both sides of the "Qx" rule (a
    # 5-type lattice lifts to 5 coordinates), at scale 1 and at the
    # scaled retry's scale, for rows that take each branch
    from scipy.spatial import ConvexHull, QhullError

    grid = build_grid(dim, resolution)
    rng = np.random.default_rng(67 + dim)
    rows = [*rng.uniform(-3, 3, (6, grid.npoints)), _spike_row(grid, 1.0), _spike_row(grid, -1.0),
            np.sum(grid.points**2, axis=1), _guard_band_row(grid)]
    hull = transform._LowerHull(grid)
    flat = 0  # raw hulls that fail or have no downward facet: the retry's branch
    for row in rows:
        for scale in (1.0, max(1.0, float(np.max(np.abs(row))))):
            cloud = np.column_stack([grid.points[:, :-1], row / scale])
            try:
                want = ConvexHull(cloud)
            except QhullError:
                flat += 1
                with pytest.raises(QhullError):
                    hull._hull(row, scale)
                continue
            equations, simplices = hull._hull(row, scale)
            flat += not (equations[:, -2] < -1e-12).any()
            assert equations.dtype == want.equations.dtype and equations.shape == want.equations.shape
            assert simplices.dtype == want.simplices.dtype and simplices.shape == want.simplices.shape
            assert equations.tobytes() == want.equations.tobytes()
            assert simplices.tobytes() == want.simplices.tobytes()
    assert flat >= 1  # the downward spike at scale 1


def test_vex_rows_is_bitwise_the_per_row_envelope_on_five_types():
    grid = build_grid(5, 2)
    rng = np.random.default_rng(71)
    kinds = [ROW_KINDS[k % len(ROW_KINDS)] for k in range(40)]
    rows = np.array([_table_row(grid, kind, rng) for kind in kinds]
                    + [_spike_row(grid, 1.0), _spike_row(grid, -1.0), _guard_band_row(grid)])
    for sign in (1.0, -1.0):
        assert vex_rows(grid, sign * rows).tobytes() == ref.vex_table(grid, sign * rows).tobytes()


def _first_union(parts):
    """Sorted union of probe arrays that keeps, among rows equal up to the
    sign of a zero, the first one met."""
    first = {}
    for part in parts:
        for probe in part:
            first.setdefault(tuple(probe), None)
    return np.array(sorted(first))


def _signed_zero_row(grid):
    row = np.zeros(grid.npoints)
    row[1::2] = -0.0
    return row


@pytest.mark.parametrize("dim,resolution", [(2, 9), (3, 4), (4, 3)])
def test_facet_slope_probes_stack_is_the_union_of_its_rows(dim, resolution):
    grid = build_grid(dim, resolution)
    rng = np.random.default_rng(37 + dim)
    kinds = ("random", "ties", "collinear", "affine") * 3
    rows = np.array([_table_row(grid, kind, rng) for kind in kinds] + [_signed_zero_row(grid)])
    single = [facet_slope_probes(grid, row) for row in rows]
    for order in (slice(None), slice(None, None, -1), slice(-1, None)):
        got = facet_slope_probes(grid, rows[order])
        want = _first_union(single[order])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if dim == 2:
        # one row's probes are the chords of its hull, with the first zero kept
        for row, probes in zip(rows, single):
            want = np.array(sorted(set(ref.chain_slopes(grid, row))))
            assert probes.tobytes() == np.column_stack([want, np.zeros(want.size)]).tobytes()
        assert np.signbit(single[-1][0, 0])  # 0.0 -> -0.0 is the first chord


def test_facet_slope_probes_builds_one_hull_per_non_affine_row(monkeypatch):
    grid = build_grid(3, 5)
    rng = np.random.default_rng(41)
    rows = np.vstack([
        rng.uniform(-3, 3, (4, grid.npoints)),
        _table_row(grid, "affine", rng),
        np.sum(grid.points**2, axis=1),  # convex but not affine: it needs a hull
    ])
    hulls, builds = _count_hulls(monkeypatch), []

    class CountingLowerHull(transform._LowerHull):
        def __init__(self, grid):
            builds.append(1)
            super().__init__(grid)

    monkeypatch.setattr(transform, "_LowerHull", CountingLowerHull)
    facet_slope_probes(grid, rows)
    assert len(hulls) == 5 and len(builds) == 1


def test_facet_slope_probes_fits_only_the_rows_the_screen_accepts(monkeypatch):
    grid = build_grid(3, 5)
    rng = np.random.default_rng(43)
    affine = _table_row(grid, "affine", rng)
    rows = np.vstack([
        rng.uniform(-3, 3, (3, grid.npoints)),
        affine,
        np.sum(grid.points**2, axis=1),
        _guard_band_row(grid),
        -affine,
    ])
    want = np.vstack([facet_slope_probes(grid, row) for row in rows])
    accepted, fitted = [], []
    screen, fit = transform._affine_rows, transform._affine_fit

    def spy_screen(grid, rows, scale):
        mask, coefs = screen(grid, rows, scale)
        accepted.extend(row.tobytes() for row in rows[mask])
        return mask, coefs

    def spy_fit(grid, values):
        fitted.append(values.tobytes())
        return fit(grid, values)

    monkeypatch.setattr(transform, "_affine_rows", spy_screen)
    monkeypatch.setattr(transform, "_affine_fit", spy_fit)
    got = facet_slope_probes(grid, rows)
    assert sorted(accepted) == sorted(r.tobytes() for r in rows[[3, 5, 6]])
    # one exact fit per accepted row, which also gives its slope
    assert sorted(fitted) == sorted(accepted)
    assert got.tobytes() == np.unique(want, axis=0, return_index=True)[0].tobytes()


def test_facet_slope_probes_validates_its_rows():
    grid = build_grid(3, 3)
    for bad in (np.zeros(grid.npoints + 1), np.zeros((2, grid.npoints - 1)), np.zeros((1, 1, grid.npoints))):
        with pytest.raises(ConfigError):
            facet_slope_probes(grid, bad)
    rows = np.zeros((2, grid.npoints))
    rows[1, 0] = np.nan
    with pytest.raises(ConfigError):
        facet_slope_probes(grid, rows)


def test_facet_slope_probes_of_huge_rows_are_finite_without_a_warning():
    # a 3-type row alternating +-7e295 passes the envelope's bound, and its
    # facet slopes reach 2.8e296: rounding them to 12 decimals by np.round
    # overflowed to inf
    grid = build_grid(3, 2)
    row = 7e295 * (-1.0) ** np.arange(grid.npoints)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probes = facet_slope_probes(grid, row)
    assert np.all(np.isfinite(probes))
    assert np.abs(probes).max() > np.finfo(float).max / 1e12


def test_cli_solve_does_not_import_scipy_spatial(tmp_path):
    script = (
        "import sys\n"
        "import infogame.cli\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "code = infogame.cli.main(['solve', '--preset', 'two-sided-1d', '--nx', '11',\n"
        "    '--np', '3', '--nq', '3', '--steps', '1', '--t0', '0.35', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "assert 'scipy.spatial' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_facet_slope_probes_of_affine_rows_does_not_import_scipy_spatial():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from infogame.simplex import build_grid\n"
        "from infogame.transform import facet_slope_probes\n"
        "grid = build_grid(3, 6)\n"
        "rng = np.random.default_rng(59)\n"
        "rows = rng.standard_normal((40, 3)) @ grid.points.T + rng.standard_normal((40, 1))\n"
        "probes = facet_slope_probes(grid, rows)\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "sys.stdout.write(probes.tobytes().hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    grid = build_grid(3, 6)
    rng = np.random.default_rng(59)
    rows = rng.standard_normal((40, 3)) @ grid.points.T + rng.standard_normal((40, 1))
    fits = [transform._affine_fit(grid, row) for row in rows]
    want = np.unique([np.append(fit[:-1], 0.0) for fit in fits], axis=0, return_index=True)[0]
    assert bytes.fromhex(proc.stdout) == want.tobytes() == facet_slope_probes(grid, rows).tobytes()
