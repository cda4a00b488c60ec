"""Pareto-front quality indicators: HV, GD, GD+, IGD, IGD+ and the 2-D Pareto sweep.

All indicator math follows the usual printed formulas with p = 2:

    GD(A, Z)   = (1/|A|) * (sum_i d_i^p)^(1/p),   d_i = min_z ||a_i - z||
    GD+(A, Z)  = same with d_i^+ = min_z ||max(a_i - z, 0)||  (minimization)
    IGD / IGD+ = the mirrors with the roles of A and Z swapped

The clamp in the + variants follows the minimization convention, so when
scoring maximization fronts, normalize first and flip coordinates with
``flip_for_minimization`` before calling gd_plus / igd_plus (``indicator_suite``
does the whole pipeline). The 2-D hypervolume works directly on normalized
maximization coordinates against a reference point below the front,
reference (0, 0) by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-objective min/max over the declared reference universe."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_points(cls, points: np.ndarray) -> "NormalizationBounds":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("cannot derive bounds from an empty set")
        return cls(pts.min(axis=0), pts.max(axis=0))


def normalize(points: np.ndarray, bounds: NormalizationBounds) -> np.ndarray:
    """Affine min-max map into [0, 1] per objective; degenerate spans -> 0.5."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    span = bounds.hi - bounds.lo
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (pts - bounds.lo) / span
    return np.where(span > 0, out, 0.5)


def flip_for_minimization(points: np.ndarray) -> np.ndarray:
    """Map normalized maximization coordinates v -> 1 - v."""
    return 1.0 - np.atleast_2d(np.asarray(points, dtype=float))


def hypervolume_2d(front: np.ndarray, ref: Sequence[float] = (0.0, 0.0)) -> float:
    """Area dominated by `front` above `ref` (both objectives maximized).

    Computed by sorting the non-dominated points on the first objective
    and summing disjoint strips; dominated and duplicate points add
    nothing. Every point must be >= ref in both coordinates.
    """
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    if pts.size == 0:
        return 0.0
    ref = np.asarray(ref, dtype=float)
    if np.any(pts < ref):
        raise ValueError("hypervolume reference point must lie below the front")
    pts = pareto_filter(pts)
    # Non-dominated + ascending x means strictly descending y, so the
    # dominated region splits into disjoint strips.
    strips = np.diff(pts[:, 0], prepend=ref[0]) * (pts[:, 1] - ref[1])
    return float(math.fsum(strips))


def pareto_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the unique non-dominated (n, 2) points (maximization), ascending x.

    The points are sorted once by descending (x, y) and swept; of equal
    points, the one with the lowest index survives (the sort is stable).
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    return order[sweep_front(pts[order, 1])][::-1]


def sweep_front(ys: np.ndarray) -> np.ndarray:
    """Non-dominated mask of points in descending (x, y) order: y above every earlier y."""
    keep = np.ones(len(ys), dtype=bool)
    keep[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    return keep


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Unique, mutually non-dominated subset (maximization), ascending x."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 2)
    return pts[pareto_indices(pts)]


def _nearest_powered_mean(points: np.ndarray, others: np.ndarray, p: float, clamp: str) -> float:
    """(1/|points|) * (sum_i min_o dist(points_i, o)^p)^(1/p).

    clamp selects the modified distance: "none" for plain Euclidean,
    "forward" for ||max(point - other, 0)||, "reverse" for
    ||max(other - point, 0)||.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    others = np.atleast_2d(np.asarray(others, dtype=float))
    if points.size == 0 or others.size == 0:
        raise ValueError("indicator sets must be non-empty")
    diff = points[:, None, :] - others[None, :, :]
    if clamp == "forward":
        diff = np.maximum(diff, 0.0)
    elif clamp == "reverse":
        diff = np.maximum(-diff, 0.0)
    d = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    return float((d**p).sum() ** (1.0 / p) / len(points))


def gd(a: np.ndarray, z: np.ndarray, p: float = 2.0) -> float:
    """Generational distance from solution set `a` to reference set `z`."""
    return _nearest_powered_mean(a, z, p, clamp="none")


def gd_plus(a: np.ndarray, z: np.ndarray, p: float = 2.0) -> float:
    """GD with the dominance-aware clamp max(a - z, 0); minimization inputs."""
    return _nearest_powered_mean(a, z, p, clamp="forward")


def igd(z: np.ndarray, a: np.ndarray, p: float = 2.0) -> float:
    """Inverted GD: average distance from each reference point to `a`."""
    return _nearest_powered_mean(z, a, p, clamp="none")


def igd_plus(z: np.ndarray, a: np.ndarray, p: float = 2.0) -> float:
    """IGD with the minimization-convention clamp max(a - z, 0) per component.

    Each reference point's modified distance to a solution counts only the
    components where the solution is worse, so covered references score 0.
    """
    return _nearest_powered_mean(z, a, p, clamp="reverse")


def indicator_suite(
    front: np.ndarray,
    reference: np.ndarray,
    bounds: NormalizationBounds,
    ref_point: Sequence[float] = (0.0, 0.0),
) -> dict[str, float]:
    """HV / GD / GD+ / IGD / IGD+ of a maximization front vs a reference set.

    Both sets are normalized with `bounds`; HV is taken on the normalized
    maximization coordinates against `ref_point`, the distance indicators
    on the flipped (minimization) coordinates per the + clamp convention.
    """
    fn = normalize(front, bounds)
    zn = normalize(reference, bounds)
    fmin = flip_for_minimization(fn)
    zmin = flip_for_minimization(zn)
    return {
        "hv": hypervolume_2d(fn, ref_point),
        "gd": gd(fmin, zmin),
        "gd_plus": gd_plus(fmin, zmin),
        "igd": igd(zmin, fmin),
        "igd_plus": igd_plus(zmin, fmin),
    }
