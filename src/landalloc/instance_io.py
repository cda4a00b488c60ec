"""Instance files (.landalloc.json) and the synthetic instance generator.

The JSON schema is versioned and hand-editable:

    {
      "version": 1,
      "uses": [{"id": 0, "name": "residential"}, ...],
      "plots": [{"id": 0, "floors": 2, "floor_space": 240.0,
                 "neighbors": [1], "locked": false, "actual_uses": [0, 1]}, ...],
      "compat": [[1.0, -0.5], ...],        # K x K
      "price": [[...], ...],               # N x K, full-plot prices
      "gamma": 0.3, "mu": 0.2,
      "price_min": ..., "price_max": ...
    }

The reader checks JSON types (InstanceSchemaError) and that neighbor ids
name plots (DanglingNeighborError). Every other range, such as K^floors <=
2^62 per plot (62 floors at K = 2, 39 at K = 3, 23 at K = 6), is checked
by `ProblemInstance`; its ValueError, which names the field's path, is
raised as InstanceRangeError (`plots[0].actual_uses[1]: code outside 0..1`).

Serialization is canonical (sorted keys, two-space indent, repr floats), so
save(load(x)) round-trips byte-stably and generated files are reproducible
per seed.

The generator stands in for the unpublished real dataset: a W x H grid of
plots with rook adjacency, spatially clustered actual uses, a symmetric
compatibility matrix with unit diagonal, and prices with a center-distance
trend. The price box brackets the actual total price (upper bound +9.7%,
lower bound -1.65% by default).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .model import LandUse, Plot, ProblemInstance, check_field_kinds, is_integer

SCHEMA_VERSION = 1

_DEFAULT_USE_NAMES = ("residential", "commercial", "office")


class InstanceError(ValueError):
    """Base class for instance-file problems."""


class InstanceSchemaError(InstanceError):
    """Missing or wrongly typed fields."""


class InstanceRangeError(InstanceError):
    """Well-formed fields with out-of-range values."""


class DanglingNeighborError(InstanceError):
    """A neighbor id that names no plot."""


def canonical_dumps(obj: Any, compact: bool = False) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, repr floats."""
    if compact:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# schema <-> model


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "uses": [{"id": u.id, "name": u.name} for u in inst.uses],
        "plots": [
            {
                "id": p.id,
                "floors": p.floor_count,
                "floor_space": float(p.total_floor_space),
                "neighbors": list(p.neighbors),
                "locked": bool(p.locked),
                "actual_uses": [int(u) for u in p.actual_uses],
            }
            for p in inst.plots
        ],
        "compat": [[float(v) for v in row] for row in inst.compat],
        "price": [[float(v) for v in row] for row in inst.price],
        "gamma": inst.gamma,
        "mu": inst.mu,
        "price_min": inst.price_min,
        "price_max": inst.price_max,
    }


def instance_to_json(inst: ProblemInstance) -> str:
    return canonical_dumps(instance_to_dict(inst))


def save_instance(inst: ProblemInstance, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(instance_to_json(inst), encoding="utf-8")
    return path


# A plot's fields and their JSON types.
_PLOT_FIELDS = (
    ("id", int), ("floors", int), ("floor_space", float),
    ("neighbors", list), ("locked", bool), ("actual_uses", list),
)


def _require(doc: dict, key: str, kind, path: str = ""):
    """doc[key] if it is a JSON value of `kind`; `path`, "" or ending in a dot, locates `doc`."""
    if key not in doc:
        raise InstanceSchemaError(f"missing field {path}{key}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InstanceSchemaError(f"{path}{key}: expected a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InstanceSchemaError(f"{path}{key}: expected an integer")
        return value
    if not isinstance(value, kind):
        raise InstanceSchemaError(f"{path}{key}: expected {kind.__name__}")
    return value


def instance_from_dict(doc: dict) -> ProblemInstance:
    """The instance `doc` describes. Only JSON types are checked here; ranges are
    `ProblemInstance`'s, but for the neighbor-id bound (DanglingNeighborError),
    tested in the loop that the neighbor ids' integer test needs anyway."""
    if not isinstance(doc, dict):
        raise InstanceSchemaError("document root must be an object")
    version = _require(doc, "version", int)
    if version != SCHEMA_VERSION:
        raise InstanceSchemaError(f"version: unsupported version {version}")
    uses = []
    for k, u in enumerate(_require(doc, "uses", list)):
        if not isinstance(u, dict):
            raise InstanceSchemaError(f"uses[{k}]: expected an object")
        uses.append(LandUse(_require(u, "id", int, f"uses[{k}]."), _require(u, "name", str, f"uses[{k}].")))
    plots_doc = _require(doc, "plots", list)
    plots = []
    for idx, p in enumerate(plots_doc):
        path = f"plots[{idx}]."
        if not isinstance(p, dict):
            raise InstanceSchemaError(f"plots[{idx}]: expected an object")
        pid, floors, space, neighbors, locked, actual = [
            _require(p, key, kind, path) for key, kind in _PLOT_FIELDS
        ]
        for t, code in enumerate(actual):
            if type(code) is not int:  # a JSON integer; bool is refused too
                raise InstanceSchemaError(f"{path}actual_uses[{t}]: expected an integer")
        for t, j in enumerate(neighbors):
            if type(j) is not int:
                raise InstanceSchemaError(f"{path}neighbors[{t}]: expected an integer")
            if not 0 <= j < len(plots_doc):
                raise DanglingNeighborError(f"{path}neighbors[{t}]: no plot with id {j}")
        plots.append(Plot(pid, floors, space, tuple(neighbors), locked, tuple(actual)))
    compat = _require(doc, "compat", list)
    price = _require(doc, "price", list)
    try:
        compat_arr = np.array(compat, dtype=float)
        price_arr = np.array(price, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceSchemaError(f"compat/price: not numeric matrices ({exc})")
    gamma, mu, price_min, price_max = [
        _require(doc, key, float) for key in ("gamma", "mu", "price_min", "price_max")
    ]
    try:
        return ProblemInstance(plots, uses, compat_arr, price_arr, gamma, mu, price_min, price_max)
    except ValueError as exc:
        raise InstanceRangeError(str(exc))


def parse_instance(text: str | bytes) -> ProblemInstance:
    """Build a validated instance from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSchemaError(f"not valid JSON: {exc}")
    return instance_from_dict(doc)


def load_instance(path: str | Path) -> ProblemInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for the synthetic grid generator; deterministic per rng_seed."""

    grid_width: int
    grid_height: int
    use_count: int = 3
    floor_range: tuple[int, int] = (1, 8)
    locked_fraction: float = 0.05
    base_footprint: float = 150.0
    footprint_jitter: float = 0.3
    cluster_count: int = 6
    use_mix_noise: float = 0.25
    price_trend: float = 0.8
    price_noise: float = 0.15
    gamma: float = 0.30
    mu: float = 0.20
    price_low_factor: float = 0.9835
    price_high_factor: float = 1.097
    rng_seed: int = 0

    def __post_init__(self):
        check_field_kinds(self)
        if len(self.floor_range) != 2 or not all(map(is_integer, self.floor_range)):
            raise ValueError(f"floor_range must be two integers, got {self.floor_range!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.use_count < 2:
            raise ValueError("use_count must be >= 2")
        lo, hi = self.floor_range
        if not 1 <= lo <= hi:
            raise ValueError("floor_range must satisfy 1 <= min <= max")
        if hi > 62 or self.use_count**hi > 2**62:
            raise ValueError(f"floor_range max {hi} at use_count {self.use_count} gives K^f > 2^62")
        if not 0.0 <= self.locked_fraction < 1.0:
            raise ValueError("locked_fraction must be in [0, 1)")
        if not 0.0 <= self.price_noise < 1.0:
            raise ValueError("price_noise must be in [0, 1)")
        if not 0.0 < self.price_low_factor <= self.price_high_factor:
            raise ValueError("price factors must satisfy 0 < low <= high")


def generator_spec_from_dict(doc: dict) -> GeneratorSpec:
    """Build a GeneratorSpec from a JSON document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise InstanceSchemaError("generator spec must be an object")
    known = {f.name for f in fields(GeneratorSpec)}
    unknown = set(doc) - known
    if unknown:
        raise InstanceSchemaError(f"unknown generator spec fields: {sorted(unknown)}")
    doc = dict(doc)
    try:
        if "floor_range" in doc:
            doc["floor_range"] = tuple(doc["floor_range"])
        return GeneratorSpec(**doc)
    except (TypeError, ValueError) as exc:
        raise InstanceRangeError(str(exc))


def _use_name(k: int) -> str:
    return _DEFAULT_USE_NAMES[k] if k < len(_DEFAULT_USE_NAMES) else f"use{k}"


def generate_synthetic(spec: GeneratorSpec) -> ProblemInstance:
    """Grid instance with rook adjacency and clustered actual uses."""
    rng = np.random.default_rng(spec.rng_seed)
    w, h, k = spec.grid_width, spec.grid_height, spec.use_count
    n = w * h
    xs = np.tile(np.arange(w, dtype=float), h)
    ys = np.repeat(np.arange(h, dtype=float), w)

    floors = rng.integers(spec.floor_range[0], spec.floor_range[1] + 1, size=n)
    footprint = spec.base_footprint * (
        1.0 + spec.footprint_jitter * (2.0 * rng.random(n) - 1.0)
    )
    floor_space = floors * footprint

    # Clustered actual uses: anchors pull plots toward a use, noise breaks ties.
    anchor_x = rng.uniform(0, w, size=spec.cluster_count)
    anchor_y = rng.uniform(0, h, size=spec.cluster_count)
    anchor_use = rng.integers(0, k, size=spec.cluster_count)
    sigma = max(w, h) / 3.0
    score = np.zeros((n, k))
    for ax, ay, au in zip(anchor_x, anchor_y, anchor_use):
        d2 = (xs - ax) ** 2 + (ys - ay) ** 2
        score[:, au] += np.exp(-d2 / (2.0 * sigma**2))
    score += 0.1 * rng.random((n, k))
    base_use = score.argmax(axis=1)

    actual = []
    for i in range(n):
        row = np.full(floors[i], base_use[i], dtype=int)
        flip = rng.random(floors[i]) < spec.use_mix_noise
        row[flip] = rng.integers(0, k, size=int(flip.sum()))
        actual.append(tuple(int(v) for v in row))

    locked = np.zeros(n, dtype=bool)
    n_locked = int(spec.locked_fraction * n)
    if n_locked:
        locked[rng.choice(n, size=n_locked, replace=False)] = True

    raw = rng.uniform(-1.0, 1.0, size=(k, k))
    compat = (raw + raw.T) / 2.0
    np.fill_diagonal(compat, 1.0)

    use_base = rng.uniform(0.8, 1.3, size=k)
    dist = np.sqrt(xs**2 + ys**2)
    mult = 1.0 + spec.price_trend * np.exp(-dist / (max(w, h) / 2.0))
    noise = 1.0 + spec.price_noise * (2.0 * rng.random((n, k)) - 1.0)
    price = floor_space[:, None] * use_base[None, :] * mult[:, None] * noise

    plots = []
    for i in range(n):
        x, y = int(xs[i]), int(ys[i])
        sides = ((i - 1, x > 0), (i + 1, x < w - 1), (i - w, y > 0), (i + w, y < h - 1))
        nb = [j for j, inside in sides if inside]
        plots.append(
            Plot(
                id=i,
                floor_count=int(floors[i]),
                total_floor_space=float(floor_space[i]),
                neighbors=tuple(nb),
                locked=bool(locked[i]),
                actual_uses=actual[i],
            )
        )
    uses = [LandUse(m, _use_name(m)) for m in range(k)]
    # Built once, with an open price box: nothing the constructor computes
    # depends on the box. The box then brackets the as-built price, so the
    # as-built map is feasible.
    inst = ProblemInstance(plots, uses, compat, price, spec.gamma, spec.mu, 0.0, math.inf)
    actual_price = inst.actual_objectives[1]
    inst.price_min = float(actual_price * spec.price_low_factor)
    inst.price_max = float(actual_price * spec.price_high_factor)
    return inst
