"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: explicit loops over the printed
formulas, O(n^2) dominance scans, and exhaustive enumeration of small
search spaces. None of it shares code with the library internals beyond
the data types.
"""

from __future__ import annotations

import json
import math

import numpy as np

from landalloc.model import CODE_DTYPE, ProblemInstance


def _plot_floors(inst: ProblemInstance, row, i: int) -> list[int]:
    """Plot i's floor codes in the flat code row `row`, sliced by the plots' floor counts."""
    start = sum(p.floor_count for p in inst.plots[:i])
    return [int(u) for u in row[start : start + inst.plots[i].floor_count]]


def naive_proportions(inst: ProblemInstance, row, i: int) -> list[float]:
    floors = _plot_floors(inst, row, i)
    return [floors.count(m) / len(floors) for m in range(inst.n_uses)]


def naive_compatibility(inst: ProblemInstance, row) -> float:
    k = inst.n_uses
    total = 0.0
    for p in inst.plots:
        xi = naive_proportions(inst, row, p.id)
        for j in p.neighbors:
            xj = naive_proportions(inst, row, j)
            fj = inst.plots[j].total_floor_space
            for l in range(k):
                for m in range(k):
                    total += inst.compat[l, m] * xi[l] * xj[m] * p.total_floor_space * fj
    return total


def naive_price(inst: ProblemInstance, row) -> float:
    total = 0.0
    for p in inst.plots:
        x = naive_proportions(inst, row, p.id)
        for m in range(inst.n_uses):
            total += inst.price[p.id, m] * x[m]
    return total


def naive_area_per_use(inst: ProblemInstance, row) -> list[float]:
    out = [0.0] * inst.n_uses
    for p in inst.plots:
        x = naive_proportions(inst, row, p.id)
        for m in range(inst.n_uses):
            out[m] += x[m] * p.total_floor_space
    return out


def naive_constraint_flags(
    inst: ProblemInstance, row, gamma: float, mu: float
) -> tuple[bool, bool, int, bool]:
    actual = [u for p in inst.plots for u in p.actual_uses]
    areas = naive_area_per_use(inst, row)
    actual_areas = naive_area_per_use(inst, actual)
    area_ok = all(
        (1 - gamma) * actual_areas[m] <= areas[m] <= (1 + gamma) * actual_areas[m]
        for m in range(inst.n_uses)
    )
    price = naive_price(inst, row)
    price_ok = inst.price_min <= price <= inst.price_max
    changed = sum(
        1
        for p in inst.plots
        if _plot_floors(inst, row, p.id) != _plot_floors(inst, actual, p.id)
    )
    budget_ok = changed <= mu * inst.n_plots + 1e-9
    return area_ok, price_ok, changed, budget_ok


def dominates_max(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b)) and tuple(a) != tuple(b)


def naive_fronts(points) -> list[list[int]]:
    """O(n^2)-per-front peeling under maximization dominance."""
    pts = [tuple(p) for p in points]
    remaining = set(range(len(pts)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates_max(pts[j], pts[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def matrix_fronts_oracle(points) -> list[list[int]]:
    """Independent O(n^2) front peeling: row-wise dominance matrix plus a
    full recount of dominators after every peel (no decrement trick)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    dom = np.zeros((n, n), dtype=bool)
    for i in range(n):
        dom[i] = np.all(pts >= pts[i][None, :], axis=1) & np.any(
            pts > pts[i][None, :], axis=1
        )
    # dom[i, j]: j dominates i
    alive = np.ones(n, dtype=bool)
    fronts = []
    while alive.any():
        dominated = (dom & alive[None, :]).any(axis=1)
        front = np.flatnonzero(alive & ~dominated)
        fronts.append(sorted(int(i) for i in front))
        alive[front] = False
    return fronts


def naive_crowding(points) -> list[float]:
    """NSGA-II crowding distances of one front by explicit loops (Deb et al. 2002)."""
    pts = [tuple(float(v) for v in p) for p in points]
    n = len(pts)
    d = [0.0] * n
    for m in range(len(pts[0])):
        order = sorted(range(n), key=lambda i: pts[i][m])  # stable: ties in index order
        span = pts[order[-1]][m] - pts[order[0]][m]
        d[order[0]] = d[order[-1]] = math.inf
        if span > 0:
            for k in range(1, n - 1):
                d[order[k]] += (pts[order[k + 1]][m] - pts[order[k - 1]][m]) / span
    return d


def naive_pareto_set(points) -> set[tuple]:
    pts = [tuple(p) for p in points]
    return {
        p
        for p in pts
        if not any(dominates_max(q, p) for q in pts)
    }


def enumerate_feasible(inst: ProblemInstance, gamma: float | None = None):
    """Exhaustively enumerate unlocked-floor assignments; yields
    (codes, compatibility, price, feasible) using the library evaluator on
    batches (the evaluator itself is oracle-checked separately)."""
    from landalloc.model import evaluate_batch

    gamma = inst.gamma if gamma is None else gamma
    k = inst.n_uses
    free_slots = np.concatenate(
        [
            np.arange(inst.floor_offsets[i], inst.floor_offsets[i + 1])
            for i in range(inst.n_plots)
            if not inst.locked[i]
        ]
    ) if (~inst.locked).any() else np.zeros(0, dtype=np.int64)
    digits = len(free_slots)
    total = k**digits
    if digits * math.log2(k) > 22:
        raise ValueError("search space too large to enumerate")
    lo = (1 - gamma) * inst.actual_areas
    hi = (1 + gamma) * inst.actual_areas
    batch = 8192
    for start in range(0, total, batch):
        chunk = np.arange(start, min(start + batch, total), dtype=np.int64)
        rows = np.tile(inst.actual_codes, (len(chunk), 1))
        v = chunk.copy()
        for t in range(digits - 1, -1, -1):
            rows[:, free_slots[t]] = (v % k).astype(rows.dtype)
            v //= k
        stats = evaluate_batch(inst, inst.codec.encode_rows(rows))
        feas = (
            (stats.areas >= lo).all(axis=1)
            & (stats.areas <= hi).all(axis=1)
            & (stats.price >= inst.price_min)
            & (stats.price <= inst.price_max)
        )
        yield rows, stats.compatibility, stats.price, feas


def brute_force_pareto(inst: ProblemInstance, gamma: float | None = None) -> set[tuple]:
    """Objective pairs of the exhaustively enumerated constrained Pareto set."""
    feasible_pts = []
    for _, comp, price, feas in enumerate_feasible(inst, gamma):
        for c, p, ok in zip(comp, price, feas):
            if ok:
                feasible_pts.append((float(c), float(p)))
    if not feasible_pts:
        return set()
    # sort-based sweep; cross-checked against naive_pareto_set elsewhere
    arr = np.unique(np.array(feasible_pts), axis=0)
    order = np.lexsort((-arr[:, 1], -arr[:, 0]))
    best_y = -np.inf
    keep = []
    for idx in order:
        if arr[idx, 1] > best_y:
            keep.append(idx)
            best_y = arr[idx, 1]
    return {(float(arr[i, 0]), float(arr[i, 1])) for i in keep}


def brute_force_best_scalar(
    inst: ProblemInstance, a_price: float, b_compat: float, gamma: float | None = None
) -> float:
    """Best a*price + b*compatibility over the feasible enumeration."""
    best = -math.inf
    for _, comp, price, feas in enumerate_feasible(inst, gamma):
        vals = a_price * price + b_compat * comp
        if feas.any():
            best = max(best, float(vals[feas].max()))
    return best


def random_instance(
    rng: np.random.Generator,
    n_plots: int = 5,
    k: int = 3,
    max_floors: int = 3,
    locked_fraction: float = 0.0,
) -> ProblemInstance:
    """Small random instance with arbitrary (possibly asymmetric) neighbors."""
    from landalloc.model import LandUse, Plot

    plots = []
    for i in range(n_plots):
        floors = int(rng.integers(1, max_floors + 1))
        others = [j for j in range(n_plots) if j != i]
        n_nb = int(rng.integers(0, len(others) + 1)) if others else 0
        neighbors = tuple(
            sorted(rng.choice(others, size=n_nb, replace=False).tolist())
        ) if n_nb else ()
        plots.append(
            Plot(
                id=i,
                floor_count=floors,
                total_floor_space=float(rng.uniform(50, 300)),
                neighbors=neighbors,
                locked=bool(rng.random() < locked_fraction),
                actual_uses=tuple(int(u) for u in rng.integers(0, k, size=floors)),
            )
        )
    if all(p.locked for p in plots):
        plots[0] = Plot(
            plots[0].id, plots[0].floor_count, plots[0].total_floor_space,
            plots[0].neighbors, False, plots[0].actual_uses,
        )
    uses = [LandUse(m, f"use{m}") for m in range(k)]
    compat = rng.uniform(-1, 1, size=(k, k))
    price = rng.uniform(0, 100, size=(n_plots, k))
    return ProblemInstance(
        plots, uses, compat, price,
        gamma=float(rng.uniform(0.1, 0.6)),
        mu=float(rng.uniform(0.2, 1.0)),
        price_min=0.0,
        price_max=float(price.sum()),
    )


def encode_uses(uses, base: int) -> int:
    """Base-`base` integer for one plot's floor-use vector, MSB first."""
    value = 0
    for u in uses:
        value = value * base + int(u)
    return value


def decode_uses(value: int, base: int, digits: int) -> np.ndarray:
    """Inverse of encode_uses; returns a length-`digits` code array."""
    if not 0 <= value < base**digits:
        raise ValueError(f"value {value} outside [0, {base}^{digits})")
    out = np.zeros(digits, dtype=CODE_DTYPE)
    for t in range(digits - 1, -1, -1):
        value, out[t] = divmod(value, base)
    return out


def _naive_encode(inst: ProblemInstance, codes: np.ndarray) -> np.ndarray:
    """(B, N) int64 plot values of code rows, plot by plot, MSB first."""
    out = np.zeros((len(codes), inst.n_plots), dtype=np.int64)
    for i in range(inst.n_plots):
        for t in range(inst.floor_offsets[i], inst.floor_offsets[i + 1]):
            out[:, i] = out[:, i] * inst.n_uses + codes[:, t]
    return out


def _naive_decode(inst: ProblemInstance, values: np.ndarray) -> np.ndarray:
    """Code rows of (B, N) plot values, by repeated divmod from the last floor."""
    values = values.copy()
    out = np.empty((len(values), inst.total_floors), dtype=inst.actual_codes.dtype)
    for i in range(inst.n_plots):
        for t in range(inst.floor_offsets[i + 1] - 1, inst.floor_offsets[i] - 1, -1):
            values[:, i], out[:, t] = np.divmod(values[:, i], inst.n_uses)
    return out


def _naive_clamp(inst: ProblemInstance, values: np.ndarray) -> np.ndarray:
    top = (inst.n_uses ** inst.floor_counts.astype(np.int64) - 1).astype(float)
    return np.minimum(np.clip(values, 0, None), top).astype(np.int64)


def naive_floyd_picks(inst: ProblemInstance, b: int, budget: int, rng: np.random.Generator):
    """Per row, the plots Floyd's algorithm picks, in round order.

    Over the M unlocked plots, round j = M - take, ..., M - 1 draws
    rng.integers(0, j + 1, size=b); a row that already holds its draw t
    takes j instead. take = min(budget, M).
    """
    ids = inst.unlocked_ids.tolist()
    m = len(ids)
    chosen = [[] for _ in range(b)]
    for j in range(m - min(budget, m), m):
        for row, t in zip(chosen, rng.integers(0, j + 1, size=b).tolist()):
            row.append(j if t in row else t)
    return [[ids[t] for t in row] for row in chosen]


def _picked_entries(inst: ProblemInstance, b: int, budget: int, rng: np.random.Generator):
    """The Floyd picks as (row, plot) pairs, row by row."""
    return [(r, p) for r, row in enumerate(naive_floyd_picks(inst, b, budget, rng)) for p in row]


def naive_random_mutation(
    inst: ProblemInstance, values: np.ndarray, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """The Floyd picks, then one uniform value in [0, K^f - 1] per picked entry, row by row."""
    entries = _picked_entries(inst, len(values), budget, rng)
    highs = np.array([inst.codec.max_values[p] for _, p in entries], dtype=np.int64)
    out = values.copy()
    for (r, p), v in zip(entries, rng.integers(0, highs + 1).tolist()):
        out[r, p] = v
    return out


def naive_polynomial_mutation(
    inst: ProblemInstance, values: np.ndarray, eta: float, budget: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The Floyd picks, then one uniform u per picked entry, row by row.

    Deb's polynomial step delta * (K^f - 1) is computed over the whole
    (B, N) array, in the engine's float formulas, and kept at the picks.
    """
    entries = _picked_entries(inst, len(values), budget, rng)
    u = np.zeros(values.shape)
    picked = np.zeros(values.shape, dtype=bool)
    for (r, p), x in zip(entries, rng.random(len(entries)).tolist()):
        u[r, p] = x
        picked[r, p] = True
    x, high = values.astype(float), inst.codec.max_values.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1, d2 = x / high, (high - x) / high
        exp = 1.0 / (eta + 1.0)
        left = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
        right = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exp
    step = np.where(high > 0, np.where(u < 0.5, left, right) * high, 0.0)
    # |step| <= K^f - 1 <= 2^62, so the sum and the clamp are exact in int64.
    top = inst.n_uses ** inst.floor_counts.astype(np.int64) - 1
    moved = np.clip(values + np.rint(step).astype(np.int64), 0, top)
    return np.where(picked, moved, values)


def naive_msbx_mo_children(
    inst: ProblemInstance, codes: np.ndarray, ops, rng: np.random.Generator
) -> np.ndarray:
    """MSBX_MO's children composed on code rows, one operator after the other.

    Each row x gets a random other row as donor. The mutant is x + round(F *
    donor) per unlocked plot, clamped and decoded, with locked floors from
    x. SBX of (mutant, x) re-encodes both rows; the x-anchored child is
    decoded and its unselected and locked floors are spliced from x. Same
    draws, float formulas and rounding as the engine; plots below 2^53 only.
    """
    n = len(codes)
    donors = rng.integers(0, n - 1, size=n)
    donors += donors >= np.arange(n)
    unlocked_floor = np.repeat(~inst.locked, inst.floor_counts)
    vt = _naive_encode(inst, codes).astype(float)
    vd = _naive_encode(inst, codes[donors]).astype(float)
    moved = _naive_clamp(inst, vt + np.rint(ops.de_scale * vd))
    mutants = np.where(unlocked_floor[None, :], _naive_decode(inst, moved), codes)

    select = (rng.random((n, inst.n_plots)) < ops.crossover_plot_fraction) & ~inst.locked[None, :]
    if not select.any():
        return codes.copy()
    u = np.zeros(select.shape)
    u[select] = rng.random(np.count_nonzero(select))  # flat (row, plot) order
    v1 = _naive_encode(inst, mutants)
    v2 = _naive_encode(inst, codes)
    eta = ops.sbx_eta
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    f1 = v1.astype(float)
    f2 = v2.astype(float)
    c2 = _naive_clamp(inst, np.rint(0.5 * ((1.0 - beta) * f1 + (1.0 + beta) * f2)))
    child = _naive_decode(inst, np.where(select, c2, v2))
    return np.where(np.repeat(select, inst.floor_counts, axis=1), child, codes)


# Run and combined file texts, built from Python lists: the member fields in
# `Population` attribute order, each under its file key.
_RECORD_MEMBER_FIELDS = (
    ("compatibility", "compatibility"), ("price", "price"), ("changed", "changed"),
    ("rank", "rank"), ("crowding", "crowd"), ("feasible", "feasible"),
    ("violation", "violation"),
)


def _compact_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def record_text(label: str, rec, inst: ProblemInstance) -> str:
    """The run-file text of RunRecord `rec`, each floor-use list decoded plot by plot."""
    pop = rec.population
    codes = _naive_decode(inst, pop.values)
    members = []
    for r in range(pop.n):
        member = {key: getattr(pop, name)[r].item() for key, name in _RECORD_MEMBER_FIELDS}
        member["floor_uses"] = codes[r].tolist()
        members.append(member)
    return _compact_json(
        {
            "schema": 1,
            "label": label,
            "algorithm": rec.algorithm,
            "seed": rec.seed,
            "config": rec.config,
            "hv_trace": [float(v) for v in rec.hv_trace],
            "front": [int(i) for i in rec.front_indices],
            "population": members,
        }
    )


def combined_text(label: str, entries: list[dict], inst: ProblemInstance) -> str:
    """The combined-file text of `entries`, each entry's plot values decoded plot by plot."""
    points = [
        {
            "compatibility": e["compatibility"], "price": e["price"], "seed": e["seed"],
            "floor_uses": _naive_decode(inst, e["values"][None, :])[0].tolist(),
        }
        for e in entries
    ]
    return _compact_json({"label": label, "points": points})
