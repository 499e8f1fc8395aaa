"""Game models: dynamics, finite control sets, type-indexed costs.

A model describes a two-player zero-sum diffusion game in which the first
player (controls u, minimizing) privately knows a type i and the second
player (controls v, maximizing) privately knows a type j.  Dynamics
b(t,x,u,v) and sigma(t,x,u,v) are shared; terminal costs g_ij(x) and
running costs l_ij(t,x,u,v) are tabulated per type pair.

All model callables are vectorized over the state: x has shape (..., n),
drift returns (..., n), diffusion (..., n, d), costs (...,).  t may be a
float or an array that broadcasts against x[..., 0]; no preset reads it,
so every preset accepts both.  Controls are always passed as 1-D arrays,
one row of the owning control set.

Configs are plain JSON objects with keys: preset, params, I, J, T, g, l.
"preset" names a dynamics preset; "g" and "l" are I x J matrices of cost
preset references (a bare name or {"name": ..., "params": {...}}).
Unknown keys anywhere are an error.  Each preset is declared once, in the
table of its kind (_DYNAMICS, _TERMINAL, _RUNNING), as its parameters'
defaults and a builder.  Declared bounds hold on the box |x_k| <= 4 that
shipped grids stay inside, and running-cost bounds for controls within
max(2, the largest |control| of each set).
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidControlError

_BOUND_RADIUS = 4.0
_MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class ControlSet:
    """Finite list of admissible control points, one row per point."""

    values: np.ndarray  # (count, dim)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1:
            raise ConfigError("control set must be a nonempty (count, dim) array")
        if not np.all(np.isfinite(values)):
            raise ConfigError("control points must be finite")
        if len({tuple(row) for row in values}) != values.shape[0]:
            raise ConfigError("control points must be distinct")
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def radius(self) -> float:
        """The largest |coordinate| of any point."""
        return float(np.max(np.abs(self.values)))

    def index_of(self, point) -> int:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.dim,):
            raise InvalidControlError(
                f"control shape {point.shape} does not match set dim {self.dim}"
            )
        dist = np.max(np.abs(self.values - point[None, :]), axis=1)
        hit = int(np.argmin(dist))
        if dist[hit] > _MEMBERSHIP_TOL:
            raise InvalidControlError(f"control {point!r} is not in the declared set")
        return hit


@dataclass(frozen=True)
class GameModel:
    state_dim: int
    noise_dim: int
    drift: Callable
    diffusion: Callable
    u_set: ControlSet
    v_set: ControlSet
    u_types: int
    v_types: int
    terminal: tuple  # (u_types, v_types) nested tuple of callables g_ij(x)
    running: tuple  # same shape, callables l_ij(t, x, u, v)
    horizon: float
    has_running: bool
    decoupled: bool
    lipschitz_bound: float
    drift_bound: float
    diffusion_bound: float
    terminal_bound: float
    running_bound: float
    config: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.u_types < 1 or self.v_types < 1:
            raise ConfigError("type counts must be >= 1")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if len(self.terminal) != self.u_types or any(
            len(row) != self.v_types for row in self.terminal
        ):
            raise ConfigError("terminal cost matrix shape must be (I, J)")
        if len(self.running) != self.u_types or any(
            len(row) != self.v_types for row in self.running
        ):
            raise ConfigError("running cost matrix shape must be (I, J)")


def _cost_matrix(costs: tuple, *args) -> np.ndarray:
    """Each costs[i][j](*args), written into one (..., I, J) array.

    Every entry must have the first entry's shape, as np.stack requires.
    """
    out = None
    for i, row in enumerate(costs):
        for j, cost in enumerate(row):
            value = np.asarray(cost(*args), dtype=float)
            if out is None:
                out = np.empty(value.shape + (len(costs), len(row)))
            elif value.shape != out.shape[:-2]:
                raise ValueError("all input arrays must have the same shape")
            out[..., i, j] = value
    return out


def terminal_matrix(model: GameModel, x) -> np.ndarray:
    """Stack of terminal costs, shape (..., I, J)."""
    return _cost_matrix(model.terminal, np.asarray(x, dtype=float))


def running_matrix(model: GameModel, t: float, x, u, v) -> np.ndarray:
    """Stack of running costs at one control pair, shape (..., I, J)."""
    return _cost_matrix(model.running, t, np.asarray(x, dtype=float), u, v)


def restrict_to_types(model: GameModel, i: int, j: int) -> GameModel:
    """Complete-information restriction: single type pair (i, j)."""
    if not (0 <= i < model.u_types and 0 <= j < model.v_types):
        raise ConfigError(f"type pair ({i}, {j}) out of range")
    return replace(
        model,
        u_types=1,
        v_types=1,
        terminal=((model.terminal[i][j],),),
        running=((model.running[i][j],),),
    )


# ---------------------------------------------------------------------------
# presets: each table maps a name to (defaults, builder); dynamics builders
# return GameModel fields, cost builders a _Cost


def _preset(table: dict, name: str, params: dict, where: str, **context):
    """Build preset `name` of `table`: refuse a key its defaults lack, read
    each parameter over its default in their order (a list default makes a
    ControlSet), and call the builder with `context` and the values by name.
    """
    defaults, builder = table[name]
    _require_keys(params, set(defaults), f"{where} {name}")
    values = {
        key: ControlSet(_numbers(params, key, default))
        if isinstance(default, list)
        else _number(params, key, default)
        for key, default in defaults.items()
    }
    return builder(**context, **values)


def _scalar_dynamics(rate, sigma: float, u_set, v_set, drift_bound: float, decoupled: bool) -> dict:
    """GameModel's dynamics fields for dX = rate(u, v) dt + sigma dW, X scalar."""

    def drift(t, x, u, v):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, rate(u, v))

    def diffusion(t, x, u, v):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape + (1,), sigma)

    return dict(
        state_dim=1, noise_dim=1, drift=drift, diffusion=diffusion, u_set=u_set, v_set=v_set,
        drift_bound=drift_bound, diffusion_bound=abs(sigma), decoupled=decoupled,
    )


_DYNAMICS = {
    "drift-sum-1d": (
        {"sigma": 1.0, "controls": [-1.0, 0.0, 1.0]},
        lambda sigma, controls: _scalar_dynamics(
            lambda u, v: float(u[0] + v[0]), sigma, controls, controls, 2.0 * controls.radius, True
        ),
    ),
    "coupled-1d": (
        {"coupling": 4.0, "sigma": 1.0, "controls": [-1.0, 1.0]},
        lambda coupling, sigma, controls: _scalar_dynamics(
            lambda u, v: coupling * float(u[0] * v[0]), sigma, controls, controls,
            abs(coupling) * controls.radius * controls.radius, False,
        ),
    ),
    "static-1d": (
        {"controls_u": [0.0], "controls_v": [0.0]},
        lambda controls_u, controls_v: _scalar_dynamics(
            lambda u, v: 0.0, 0.0, controls_u, controls_v, 0.0, True
        ),
    ),
    "controlled-drift-1d": (
        {"controls_u": [-1.0, 0.0, 1.0], "controls_v": [0.0], "sigma": 0.5},
        lambda controls_u, controls_v, sigma: _scalar_dynamics(
            lambda u, v: float(u[0]), sigma, controls_u, controls_v, controls_u.radius, True
        ),
    ),
}


@dataclass(frozen=True)
class _Cost:
    fn: Callable
    bound: float
    lipschitz: float
    decoupled: bool
    is_zero: bool = False


_TERMINAL = {
    "zero": ({}, lambda: _Cost(
        lambda x: np.zeros(np.asarray(x).shape[:-1]), 0.0, 0.0, True, True
    )),
    "const": ({"c": 1.0}, lambda c: _Cost(
        lambda x: np.full(np.asarray(x).shape[:-1], c), abs(c), 0.0, True
    )),
    "linear": ({"a": 1.0, "c": 0.0}, lambda a, c: _Cost(
        lambda x: a * np.asarray(x, dtype=float)[..., 0] + c,
        abs(a) * _BOUND_RADIUS + abs(c),
        abs(a),
        True,
    )),
    "abs": ({"center": 0.0, "scale": 1.0}, lambda center, scale: _Cost(
        lambda x: scale * np.abs(np.asarray(x, dtype=float)[..., 0] - center),
        abs(scale) * (_BOUND_RADIUS + abs(center)),
        abs(scale),
        True,
    )),
    "tanh": ({"center": 0.0, "scale": 1.0, "amp": 1.0}, lambda center, scale, amp: _Cost(
        lambda x: amp * np.tanh(scale * (np.asarray(x, dtype=float)[..., 0] - center)),
        abs(amp),
        abs(amp * scale),
        True,
    )),
}

# Running builders also take `radius`, a pair (ru, rv) with |u| <= ru and
# |v| <= rv on the game's control sets, for the bounds of costs that read
# the controls.
_RUNNING = {
    "zero": ({}, lambda radius: _Cost(
        lambda t, x, u, v: np.zeros(np.asarray(x).shape[:-1]), 0.0, 0.0, True, True
    )),
    "const": ({"c": 1.0}, lambda radius, c: _Cost(
        lambda t, x, u, v: np.full(np.asarray(x).shape[:-1], c), abs(c), 0.0, True
    )),
    "bilinear-uv": ({"c": 1.0}, lambda radius, c: _Cost(
        lambda t, x, u, v: np.full(np.asarray(x).shape[:-1], c * float(np.dot(u, v))),
        abs(c) * radius[0] * radius[1],
        0.0,
        False,
    )),
    "separated": ({"au": 0.0, "av": 0.0, "c": 0.0}, lambda radius, au, av, c: _Cost(
        lambda t, x, u, v: np.full(np.asarray(x).shape[:-1], au * float(u[0]) + av * float(v[0]) + c),
        abs(au) * radius[0] + abs(av) * radius[1] + abs(c),
        0.0,
        True,
    )),
    "state-linear": ({"a": 1.0, "c": 0.0}, lambda radius, a, c: _Cost(
        lambda t, x, u, v: a * np.asarray(x, dtype=float)[..., 0] + c,
        abs(a) * _BOUND_RADIUS + abs(c),
        abs(a),
        True,
    )),
}


def _number(params: dict, key: str, default: float | None) -> float:
    value = params.get(key, default)
    # the range test also refuses nan, infinities and ints too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _numbers(params: dict, key: str, default: list) -> np.ndarray:
    values = params.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return np.array([_number({key: v}, key, None) for v in values], dtype=float)


def _require_keys(params: dict, allowed: set, where: str) -> None:
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be an object")
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _cost(table: dict, ref, kind: str, **context) -> _Cost:
    """The cost a reference names: a bare name or {"name": ..., "params": {...}}."""
    if isinstance(ref, str):
        name, params = ref, {}
    elif isinstance(ref, dict):
        unknown = set(ref) - {"name", "params"}
        if unknown:
            raise ConfigError(f"{kind} cost reference: unknown keys {sorted(unknown)}")
        if not isinstance(ref.get("name"), str):
            raise ConfigError(f"{kind} cost reference needs a string 'name'")
        name, params = ref["name"], ref.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{kind} cost reference: params must be an object")
    else:
        raise ConfigError(f"{kind} cost reference must be a string or object, got {type(ref).__name__}")
    if name not in table:
        raise ConfigError(f"unknown {kind} cost preset {name!r}")
    return _preset(table, name, params, f"{kind} preset", **context)


# ---------------------------------------------------------------------------
# config -> model

_CONFIG_KEYS = {"preset", "params", "I", "J", "T", "g", "l"}


def resolved_config(cfg: dict) -> dict:
    """Validated copy of a config with defaults made explicit."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    for key in ("preset", "I", "J", "T", "g"):
        if key not in cfg:
            raise ConfigError(f"config: missing required key {key!r}")
    if not isinstance(cfg["preset"], str) or cfg["preset"] not in _DYNAMICS:
        raise ConfigError(
            f"unknown dynamics preset {cfg['preset']!r}; "
            f"known: {sorted(_DYNAMICS)}"
        )
    params = cfg.get("params", {})
    _require_keys(params, set(_DYNAMICS[cfg["preset"]][0]), f"preset {cfg['preset']}")
    i_count, j_count = cfg["I"], cfg["J"]
    # bool is an int subclass; true would pass for a type count of 1
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (i_count, j_count)):
        raise ConfigError("I and J must be integers >= 1")
    horizon = _number(cfg, "T", None)
    if not horizon > 0:
        raise ConfigError("T must be a positive number")

    def check_matrix(mat, kind):
        if (
            not isinstance(mat, list)
            or len(mat) != i_count
            or any(not isinstance(row, list) or len(row) != j_count for row in mat)
        ):
            raise ConfigError(f"{kind} must be an {i_count} x {j_count} matrix of cost references")

    check_matrix(cfg["g"], "g")
    if "l" in cfg:
        check_matrix(cfg["l"], "l")
    return {
        "preset": cfg["preset"],
        "params": copy.deepcopy(params),
        "I": i_count,
        "J": j_count,
        "T": horizon,
        "g": copy.deepcopy(cfg["g"]),
        "l": copy.deepcopy(cfg.get("l", [["zero"] * j_count for _ in range(i_count)])),
    }


def model_from_config(cfg: dict) -> GameModel:
    cfg = resolved_config(cfg)
    dyn = _preset(_DYNAMICS, cfg["preset"], cfg["params"], "preset")
    # the running bounds hold for |u| <= ru and |v| <= rv; 2 is the floor
    # the shipped bounds were declared with
    radius = (max(2.0, dyn["u_set"].radius), max(2.0, dyn["v_set"].radius))
    terminal_costs = [[_cost(_TERMINAL, ref, "terminal") for ref in row] for row in cfg["g"]]
    running_costs = [[_cost(_RUNNING, ref, "running", radius=radius) for ref in row]
                     for row in cfg["l"]]
    terminal = [c for row in terminal_costs for c in row]
    running = [c for row in running_costs for c in row]
    decoupled = dyn.pop("decoupled") and all(c.decoupled for c in running)

    return GameModel(
        **dyn,
        u_types=cfg["I"],
        v_types=cfg["J"],
        terminal=tuple(tuple(c.fn for c in row) for row in terminal_costs),
        running=tuple(tuple(c.fn for c in row) for row in running_costs),
        horizon=cfg["T"],
        has_running=any(not c.is_zero for c in running),
        decoupled=decoupled,
        lipschitz_bound=max([1.0] + [c.lipschitz for c in terminal + running]),
        terminal_bound=max(c.bound for c in terminal),
        running_bound=max(c.bound for c in running),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# named full-game presets

_GAME_PRESETS: dict[str, dict] = {
    "drift-sum-1d": {
        "preset": "drift-sum-1d",
        "I": 1,
        "J": 1,
        "T": 1.0,
        "g": [["linear"]],
    },
    "coupled-1d": {
        "preset": "coupled-1d",
        "I": 1,
        "J": 1,
        "T": 1.0,
        "g": [["linear"]],
    },
    "static-bilinear": {
        "preset": "static-1d",
        "I": 2,
        "J": 2,
        "T": 0.5,
        "g": [
            [{"name": "const", "params": {"c": 1.0}}, {"name": "const", "params": {"c": -1.0}}],
            [{"name": "const", "params": {"c": -1.0}}, {"name": "const", "params": {"c": 1.0}}],
        ],
    },
    "running-matrix": {
        "preset": "static-1d",
        "params": {"controls_u": [-1.0, 1.0], "controls_v": [-1.0, 1.0]},
        "I": 2,
        "J": 2,
        "T": 0.5,
        "g": [["zero", "zero"], ["zero", "zero"]],
        "l": [
            [{"name": "bilinear-uv", "params": {"c": 1.0}},
             {"name": "bilinear-uv", "params": {"c": -1.0}}],
            [{"name": "bilinear-uv", "params": {"c": 0.5}},
             {"name": "bilinear-uv", "params": {"c": 2.0}}],
        ],
    },
    "running-matrix-informed": {
        "preset": "static-1d",
        "params": {"controls_u": [-1.0, 1.0], "controls_v": [-1.0, 1.0]},
        "I": 2,
        "J": 1,
        "T": 0.6,
        "g": [
            [{"name": "const", "params": {"c": 0.25}}],
            [{"name": "const", "params": {"c": -0.5}}],
        ],
        "l": [
            [{"name": "separated", "params": {"au": 1.0, "av": 0.4, "c": 0.0}}],
            [{"name": "separated", "params": {"au": -1.0, "av": 0.4, "c": 0.0}}],
        ],
    },
    "one-sided-drift-1d": {
        "preset": "controlled-drift-1d",
        "params": {"controls_u": [-1.0, 0.0, 1.0], "controls_v": [0.0], "sigma": 0.5},
        "I": 2,
        "J": 1,
        "T": 0.5,
        "g": [
            [{"name": "linear", "params": {"a": 1.0, "c": 0.0}}],
            [{"name": "linear", "params": {"a": -1.0, "c": 0.0}}],
        ],
        "l": [
            [{"name": "state-linear", "params": {"a": 0.3, "c": 0.0}}],
            [{"name": "state-linear", "params": {"a": -0.3, "c": 0.0}}],
        ],
    },
    "two-sided-1d": {
        "preset": "drift-sum-1d",
        "params": {"sigma": 0.5},
        "I": 2,
        "J": 2,
        "T": 0.4,
        "g": [
            [{"name": "linear", "params": {"a": 1.0, "c": 0.0}}, "zero"],
            ["zero", {"name": "linear", "params": {"a": 1.0, "c": 0.0}}],
        ],
        "l": [
            [{"name": "separated", "params": {"au": 0.6, "av": 0.5, "c": 0.0}},
             {"name": "separated", "params": {"au": 0.6, "av": -0.5, "c": 0.0}}],
            [{"name": "separated", "params": {"au": -0.6, "av": 0.5, "c": 0.0}},
             {"name": "separated", "params": {"au": -0.6, "av": -0.5, "c": 0.0}}],
        ],
    },
}


def preset_config(name: str) -> dict:
    if name not in _GAME_PRESETS:
        raise ConfigError(f"unknown game preset {name!r}; known: {sorted(_GAME_PRESETS)}")
    return copy.deepcopy(_GAME_PRESETS[name])


def preset(name: str, **overrides) -> GameModel:
    cfg = preset_config(name)
    for key, val in overrides.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = val
    return model_from_config(cfg)
