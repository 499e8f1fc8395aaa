from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infogame.errors import ConfigError, InvalidControlError
from infogame.model import (
    _DYNAMICS,
    _RUNNING,
    _TERMINAL,
    ControlSet,
    model_from_config,
    preset,
    preset_config,
    resolved_config,
    restrict_to_types,
    running_matrix,
    terminal_matrix,
)


def test_control_set_canonicalizes_and_validates():
    cs = ControlSet(values=[-1.0, 0.0, 1.0])
    assert cs.values.shape == (3, 1)
    assert cs.index_of(0.0) == 1
    assert cs.index_of([1.0]) == 2
    with pytest.raises(InvalidControlError):
        cs.index_of(0.25)
    with pytest.raises(ConfigError):
        ControlSet(values=[1.0, 1.0])
    with pytest.raises(ConfigError):
        ControlSet(values=[np.nan])


def test_resolved_config_fills_defaults_and_rejects_unknowns():
    cfg = {"preset": "drift-sum-1d", "I": 1, "J": 1, "T": 1.0, "g": [["linear"]]}
    out = resolved_config(cfg)
    assert out["l"] == [["zero"]]
    assert out["params"] == {}
    # resolved output is itself a valid config
    assert resolved_config(out) == out
    with pytest.raises(ConfigError):
        resolved_config({**cfg, "extra": 1})
    with pytest.raises(ConfigError):
        resolved_config({**cfg, "params": {"bogus": 2}})
    with pytest.raises(ConfigError):
        resolved_config({**cfg, "preset": "nope"})
    with pytest.raises(ConfigError):
        resolved_config({**cfg, "g": [["linear", "zero"]]})
    with pytest.raises(ConfigError):
        resolved_config({**cfg, "T": -2.0})
    bad_cost = {**cfg, "g": [[{"name": "linear", "params": {"zz": 1}}]]}
    with pytest.raises(ConfigError):
        model_from_config(bad_cost)


def test_preset_catalog_builds():
    for name in (
        "drift-sum-1d",
        "coupled-1d",
        "static-bilinear",
        "running-matrix",
        "running-matrix-informed",
        "one-sided-drift-1d",
        "two-sided-1d",
    ):
        m = preset(name)
        assert m.horizon > 0
        assert m.u_set.count >= 1 and m.v_set.count >= 1
    with pytest.raises(ConfigError):
        preset_config("missing-preset")
    with pytest.raises(ConfigError):
        preset("drift-sum-1d", bogus=1)


def test_drift_sum_dynamics_vectorized():
    m = preset("drift-sum-1d")
    x = np.linspace(-1, 1, 7)[:, None]
    u, v = m.u_set.values[m.u_set.index_of([1.0])], m.v_set.values[m.v_set.index_of([-1.0])]
    # a float t and an array t over the batch give the same values
    for t in (0.0, np.linspace(0.0, m.horizon, 7)):
        b = np.asarray(m.drift(t, x, u, v), dtype=float)
        sig = np.asarray(m.diffusion(t, x, u, v), dtype=float)
        np.testing.assert_array_equal(b, np.zeros_like(x))
        np.testing.assert_array_equal(sig, np.ones(x.shape + (m.noise_dim,)))


def test_cost_matrices():
    m = preset("two-sided-1d")
    x = np.array([[0.5], [-0.25]])
    g = terminal_matrix(m, x)
    assert g.shape == (2, 2, 2)
    np.testing.assert_array_equal(g[:, 0, 0], x[:, 0])
    np.testing.assert_array_equal(g[:, 0, 1], 0.0)
    l = running_matrix(m, 0.0, x, np.array([1.0]), np.array([-1.0]))
    # separated preset: au * u + av * v
    assert l[0, 0, 0] == pytest.approx(0.6 - 0.5)
    assert l[0, 1, 0] == pytest.approx(-0.6 - 0.5)


RUNNING_PRESETS = (
    "zero",
    {"name": "const", "params": {"c": -0.7}},
    {"name": "bilinear-uv", "params": {"c": 1.5}},
    {"name": "separated", "params": {"au": 0.3, "av": -0.2, "c": 0.1}},
    {"name": "state-linear", "params": {"a": 0.4, "c": -0.3}},
)


def nested_stacks(costs, *args):
    """The (..., I, J) cost matrix as two levels of np.stack."""
    rows = [[np.asarray(cost(*args), dtype=float) for cost in row] for row in costs]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cost", [*RUNNING_PRESETS, "mixed"])
def test_cost_matrices_equal_nested_stacks(cost):
    # each running preset in every entry of a 2 x 3 game, then all five
    # presets in one game
    row = list(RUNNING_PRESETS) if cost == "mixed" else [cost] * 5
    cfg = {
        "preset": "drift-sum-1d", "I": 2, "J": 3, "T": 1.0,
        "g": [["linear", "abs", "tanh"], ["zero", "linear", "abs"]],
        "l": [row[:3], row[2:]],
    }
    m = model_from_config(cfg)
    rng = np.random.default_rng(2)
    for x in (rng.uniform(-2, 2, (4, 1)), rng.uniform(-2, 2, (2, 3, 1)), np.array([0.5])):
        for u in m.u_set.values:
            for v in m.v_set.values:
                want = nested_stacks(m.running, 0.1, x, u, v)
                assert same_bits(running_matrix(m, 0.1, x, u, v), want)
        assert same_bits(terminal_matrix(m, x), nested_stacks(m.terminal, x))


@pytest.mark.parametrize("entry", [0, 3])
def test_cost_matrix_entries_of_another_shape_raise(entry):
    # a scalar entry among (3,) entries: first, or last, where writing it
    # into the matrix would broadcast it without a shape check
    m = preset("running-matrix")
    costs = [cost for row in m.running for cost in row]
    costs[entry] = lambda t, x, u, v: 1.0
    uneven = replace(m, running=(tuple(costs[:2]), tuple(costs[2:])))
    u, v = m.u_set.values[0], m.v_set.values[0]
    with pytest.raises(ValueError):
        nested_stacks(uneven.running, 0.0, np.zeros((3, 1)), u, v)
    with pytest.raises(ValueError):
        running_matrix(uneven, 0.0, np.zeros((3, 1)), u, v)


def test_coupled_running_cost_flags_model():
    m = preset("running-matrix")
    assert m.has_running and not m.decoupled
    m2 = preset("two-sided-1d")
    assert m2.has_running and m2.decoupled


def test_restrict_to_types():
    m = preset("two-sided-1d")
    r = restrict_to_types(m, 0, 1)
    assert (r.u_types, r.v_types) == (1, 1)
    x = np.array([0.7])
    assert r.terminal[0][0](x) == m.terminal[0][1](x)
    with pytest.raises(ConfigError):
        restrict_to_types(m, 2, 0)


def test_horizon_and_bounds():
    m = preset("one-sided-drift-1d")
    assert m.drift_bound == 1.0
    assert m.diffusion_bound == 0.5
    assert m.lipschitz_bound >= 1.0
    assert m.horizon == 0.5


@pytest.mark.parametrize("count", ["I", "J"])
def test_a_boolean_type_count_is_refused(count):
    # bool is an int subclass: true once resolved as a type count of 1
    cfg = {"preset": "drift-sum-1d", "I": 1, "J": 1, "T": 1.0, "g": [["linear"]], count: True}
    with pytest.raises(ConfigError, match="I and J must be integers >= 1"):
        resolved_config(cfg)


TABLES = {"dynamics": _DYNAMICS, "terminal": _TERMINAL, "running": _RUNNING}
PRESET_ENTRIES = [(kind, name) for kind, table in TABLES.items() for name in table]


def config_with(kind, name, params):
    """A 1 x 1 game that uses preset `name` of its kind with `params`."""
    cfg = {"preset": "drift-sum-1d", "params": {}, "I": 1, "J": 1, "T": 1.0, "g": [["zero"]]}
    if kind == "dynamics":
        cfg.update(preset=name, params=params)
    else:
        cfg["g" if kind == "terminal" else "l"] = [[{"name": name, "params": params}]]
    return cfg


@pytest.mark.parametrize("kind, name", PRESET_ENTRIES, ids=[f"{k}-{n}" for k, n in PRESET_ENTRIES])
def test_every_preset_builds_from_its_defaults_and_refuses_an_unknown_key(kind, name):
    model_from_config(config_with(kind, name, {}))
    where = "preset" if kind == "dynamics" else f"{kind} preset"
    with pytest.raises(ConfigError, match=re.escape(f"{where} {name}: unknown keys ['bogus']")):
        model_from_config(config_with(kind, name, {"bogus": 1.0}))


def test_the_running_bounds_cover_controls_beyond_two():
    # |u| = |v| = 5: the bounds once assumed |u|, |v| <= 2 for every set
    cfg = {
        "preset": "static-1d", "params": {"controls_u": [-5.0, 5.0], "controls_v": [-3.0, 3.0]},
        "I": 1, "J": 2, "T": 0.5, "g": [["zero", "zero"]],
        "l": [[{"name": "separated", "params": {"au": 1.0, "av": -2.0, "c": 0.5}},
               {"name": "bilinear-uv", "params": {"c": -2.0}}]],
    }
    m = model_from_config(cfg)
    worst = max(
        abs(float(cost(0.0, np.zeros(1), u, v)))
        for row in m.running for cost in row for u in m.u_set.values for v in m.v_set.values
    )
    assert worst == 30.0
    assert m.running_bound >= worst


README_HEADINGS = {
    "dynamics": "Dynamics presets:",
    "terminal": "Terminal cost presets:",
    "running": "Running cost presets:",
}


def readme_rows(kind: str) -> dict:
    """Each preset row of the README's table for `kind`, by preset name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Model configs\n", 1)[1].split("\n## ", 1)[0]
    block = section.split(README_HEADINGS[kind], 1)[1].strip().split("\n\n", 1)[0]
    rows = [line for line in block.splitlines() if line.startswith("| `")]
    return {row.split("`")[1]: row for row in rows}


def shown(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:g}" for v in value) + "]"
    return f"{value:g}"


@pytest.mark.parametrize("kind", TABLES)
def test_the_readme_states_every_preset_parameter_and_default(kind):
    rows = readme_rows(kind)
    assert sorted(rows) == sorted(TABLES[kind])
    for name, (defaults, _) in TABLES[kind].items():
        params = rows[name].split("|")[2]
        assert params.count("=") == len(defaults), rows[name]
        for key, default in defaults.items():
            assert f"`{key}` = {shown(default)}" in params, (name, key)
