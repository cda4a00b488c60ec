"""The four optimization engines plus the NSGA-II machinery they share.

Engines:

* ``SOA``         generational GA on the scalar fitness a*price + b*compatibility
* ``MSBX_NSGA2``  NSGA-II with random mutation before SBX crossover and
                  polynomial mutation occasionally replacing crossover
* ``CR_DES``      NSGA-II skeleton with uniform crossover where, with some
                  probability, a child is the scaled difference vector of two
                  mating-pool members
* ``MSBX_MO``     DE-flavored loop: every solution is SBX-crossed with itself
                  shifted by a scaled random donor, at the joining plots only

All engines share initialization (one random mutation of the actual map
that redraws 25% of its unlocked plots), binary tournaments over a
half-population mating pool, (mu + lambda) survival, feasible-first
constraint handling, and the relaxation schedule that restores the
original constraints at the final generation. Every run is driven by a
single seeded Generator, so identical (instance, config, seed) produce
bit-identical RunRecords.

A population is one bundle of parallel arrays, both inside the engines and
in the RunRecord: a `Population` is an evaluation (`model.BatchStats`)
extended by its (P, N) plot values and search state. Every operator and
the evaluator work on plot values; floor codes exist only in the run
files, which the harness writes and reads.

Each variation step names, for every child, the parent it keeps its
unselected plots from (its anchor), gathers each child once from it into
one buffer and varies it there in place; offspring are scored from their
anchors' values where that is cheaper (`model.evaluate_near`). These
search values steer selection, survival, the archive and the HV trace;
they agree with a full evaluation to rounding. The final population is
evaluated in full before its feasibility and front are taken, so every
objective a RunRecord stores is an `evaluate_batch` value.

The archive of final-feasible solutions keeps its members' objectives as
`points`, a new array only when a candidate joins, so the per-generation
HV trace holds one array per archive state and measures each state once.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable

import numpy as np

from . import metrics
from .model import (
    BatchStats,
    ProblemInstance,
    area_band,
    area_band_mask,
    check_field_kinds,
    evaluate_batch,
    evaluate_near,
    plot_budget_mask,
    price_box_mask,
)
from .operators import (
    OperatorConfig,
    de_trial_batch,
    polynomial_mutation_batch,
    random_mutation_batch,
    sbx_batch,
    scaled_difference_batch,
    tournament_indices,
    uniform_batch,
)

ALGORITHMS = ("SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO")

@dataclass(frozen=True)
class RelaxationSchedule:
    """Constraint values used during search vs at the final generation."""

    gamma_search: float
    mu_search: float
    gamma_final: float
    mu_final: float

    def __post_init__(self):
        check_field_kinds(self)
        for f in fields(self):  # stored as floats, so a record does not depend on 1 vs 1.0
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        for name in ("gamma_final", "gamma_search"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("mu_final", "mu_search"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @classmethod
    def constant(cls, gamma: float, mu: float) -> "RelaxationSchedule":
        return cls(gamma, mu, gamma, mu)


@dataclass(frozen=True)
class EngineConfig:
    algorithm: str
    population_size: int = 100
    generations: int = 150
    init_change_fraction: float = 0.25
    soa_a: float = 0.5  # weight on price
    soa_b: float = 0.5  # weight on compatibility
    de_child_probability: float = 0.2
    mutation_probability: float = 0.1
    relax: RelaxationSchedule | None = None  # None -> instance gamma/mu, constant
    operator_cfg: OperatorConfig = field(default_factory=OperatorConfig)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_field_kinds(self)
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("init_change_fraction", "de_child_probability", "mutation_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.algorithm == "SOA" and not abs(self.soa_a + self.soa_b - 1.0) <= 1e-9:
            raise ValueError("soa_a + soa_b must equal 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# array-backed population state


@dataclass(eq=False)
class Population(BatchStats):
    """One population: its evaluation plus its plot values and search state.

    Row r is one member: its compatibility and price, per-use floor areas
    (K,), changed-plot count, plot values (N,) as int64, front rank,
    crowding distance, feasibility flag and constraint violation.
    """

    values: np.ndarray
    rank: np.ndarray | None = None
    crowd: np.ndarray | None = None
    feasible: np.ndarray | None = None
    violation: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        self.rank = np.zeros(n, dtype=np.int64) if self.rank is None else self.rank
        self.crowd = np.zeros(n) if self.crowd is None else self.crowd
        self.feasible = np.ones(n, dtype=bool) if self.feasible is None else self.feasible
        self.violation = np.zeros(n) if self.violation is None else self.violation

    @classmethod
    def evaluate(
        cls,
        inst: ProblemInstance,
        values: np.ndarray,
        parent: "Population | None" = None,
        anchors: np.ndarray | None = None,
    ) -> "Population":
        """Score `values` in full, or, given `parent`, row r from member anchors[r] (-1: none)."""
        if parent is None:
            stats = evaluate_batch(inst, values)
        else:
            stats = evaluate_near(inst, values, parent.values, parent, anchors)
        return cls(**vars(stats), values=values)

    @property
    def n(self) -> int:
        return len(self.compatibility)

    def objectives(self) -> np.ndarray:
        return np.column_stack([self.compatibility, self.price])

    def in_band_and_box(self, inst: ProblemInstance, gamma: float) -> np.ndarray:
        """Per member: inside the gamma area band and the price box."""
        return area_band_mask(inst, self.areas, gamma) & price_box_mask(inst, self.price)


Population.columns = attrgetter(*(f.name for f in fields(Population)))


@dataclass
class RunRecord:
    """Outcome of one seeded engine run.

    `hv_trace` is the per-generation hypervolume of the all-time archive of
    solutions feasible under the final (unrelaxed) constraints, normalized
    over the archive's own objective range plus the actual land-use point.
    `front_indices` (int64) point into `population` and select the
    reported, feasible-filtered Pareto front. Wall time is informational
    only and is excluded from canonical serialization.
    """

    algorithm: str
    config: dict
    seed: int
    hv_trace: list[float]
    population: Population
    front_indices: np.ndarray
    wall_time_s: float


# ---------------------------------------------------------------------------
# non-dominated sorting and crowding


def front_ranks(objs, need: int) -> np.ndarray:
    """Pareto front rank (int64) of each of the non-empty (n, 2) points (maximization).

    a dominates b iff a >= b componentwise and a != b; front k holds the
    points non-dominated once fronts 0..k-1 are removed, and equal points
    share a front. Fronts are swept (`metrics.sweep_front`) off the distinct
    points, sorted once by descending (x, y), until at least `need` points
    are ranked; the points not reached read one past the last front swept.
    """
    pts = np.asarray(objs, dtype=float)
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    xs, ys = pts[order, 0], pts[order, 1]
    new = np.ones(len(order), dtype=bool)  # first of its distinct point, in sorted order
    new[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    ids = np.cumsum(new) - 1
    size = np.bincount(ids)
    ys = ys[new]
    rank = np.empty(len(size), dtype=np.int64)
    left = np.arange(len(size))
    front = 0
    while need > 0 and left.size:
        top = metrics.sweep_front(ys[left])
        rank[left[top]] = front
        need -= size[left[top]].sum()
        left = left[~top]
        front += 1
    rank[left] = front
    out = np.empty(len(order), dtype=np.int64)
    out[order] = rank[ids]
    return out


def fast_non_dominated_sort(objs) -> list[list[int]]:
    """Partition two-objective points into Pareto fronts under maximization.

    Front k lists, in ascending order, the indices whose `front_ranks` is
    k, with every point ranked. Infinite coordinates are ordered like any
    other; NaN has no order and is rejected.
    """
    pts = np.atleast_2d(np.asarray(objs, dtype=float))
    if pts.size == 0:
        raise ValueError("cannot sort an empty objective list")
    if pts.shape[1] != 2:
        raise ValueError(f"expected two objectives per point, got {pts.shape[1]}")
    if np.isnan(pts).any():
        raise ValueError("cannot sort NaN objectives")
    rank = front_ranks(pts, len(pts))
    by_front = np.argsort(rank, kind="stable")
    cuts = np.flatnonzero(np.diff(rank[by_front])) + 1
    return [front.tolist() for front in np.split(by_front, cuts)]


def crowding_distance(objs, rank=None) -> np.ndarray:
    """NSGA-II crowding distances within each front of `rank` (default: one front).

    Boundary points get +inf per objective; interior points accumulate
    (next - prev) / (max - min) over their front; a degenerate span adds 0.
    """
    pts = np.atleast_2d(np.asarray(objs, dtype=float))
    if pts.size == 0:
        raise ValueError("front must be non-empty")
    rank = np.zeros(len(pts), dtype=np.int64) if rank is None else np.asarray(rank)
    # Each objective's order sorts by rank first, so the fronts sit at the
    # same positions in every order: take their boundaries once.
    by_rank = np.sort(rank)
    edge = np.ones(len(pts) + 1, dtype=bool)
    edge[1:-1] = by_rank[1:] != by_rank[:-1]
    first, last = edge[:-1], edge[1:]
    bound = first | last
    front_of = np.cumsum(first) - 1
    d = np.zeros(len(pts))
    for m in range(pts.shape[1]):
        order = np.lexsort((pts[:, m], rank))
        v = pts[order, m]
        span = (v[last] - v[first])[front_of]
        d[order[bound]] = np.inf
        inner = np.flatnonzero(~bound & (span > 0))
        d[order[inner]] += (v[inner + 1] - v[inner - 1]) / span[inner]
    return d


# ---------------------------------------------------------------------------
# constraint handling


def _resolved(inst: ProblemInstance, cfg: EngineConfig) -> EngineConfig:
    if cfg.relax is None:
        return replace(cfg, relax=RelaxationSchedule.constant(inst.gamma, inst.mu))
    return cfg


def apply_relaxation_phase(gen: int, cfg: EngineConfig) -> tuple[float, float]:
    """(gamma, mu) in effect at 1-based generation `gen`.

    Search values apply up to generation G-1; the final generation runs
    under the unrelaxed (final) values.
    """
    if cfg.relax is None:
        raise ValueError("relaxation schedule not resolved")
    if not 1 <= gen <= cfg.generations:
        raise ValueError(f"generation {gen} outside [1, {cfg.generations}]")
    r = cfg.relax
    if gen == cfg.generations:
        return (r.gamma_final, r.mu_final)
    return (r.gamma_search, r.mu_search)


def _refresh_pop(inst: ProblemInstance, pop: Population, gamma: float, mu: float) -> None:
    """Set feasible/violation arrays under (gamma, mu).

    Violation is the area excess over `inst.area_scale` plus the price
    excess over `inst.price_scale`; the plot budget participates in the
    flag only. The band and box flags read the same differences: for
    finite floats, lo - a <= 0 iff a >= lo, and NaN passes neither.
    """
    lo, hi = area_band(inst, gamma)
    over, under = pop.areas - hi, lo - pop.areas
    price_over, price_under = pop.price - inst.price_max, inst.price_min - pop.price
    pop.feasible = (
        (np.maximum(over, under) <= 0).all(axis=1)
        & (np.maximum(price_over, price_under) <= 0)
        & plot_budget_mask(inst, pop.changed, mu)
    )
    area_excess = (np.maximum(over, 0.0) + np.maximum(under, 0.0)) / inst.area_scale
    price_excess = (np.maximum(price_over, 0.0) + np.maximum(price_under, 0.0)) / inst.price_scale
    pop.violation = area_excess.sum(axis=1) + price_excess


def _rank_and_crowd(pop: Population, need: int) -> int:
    """Feasible-first ranks, and crowding on the fronts up to the need-th member's.

    Feasible members take their `front_ranks(..., need)`; infeasible ones
    follow, one rank per distinct violation in ascending order. Returns
    the need-th member's rank; later fronts are left unread.
    """
    feas = pop.feasible
    objs = pop.objectives()
    if feas.all():
        rank = front_ranks(objs, need)
    else:
        rank = np.empty(pop.n, dtype=np.int64)
        if feas.any():
            rank[feas] = front_ranks(objs[feas], need)
        _, groups = np.unique(pop.violation[~feas], return_inverse=True)
        rank[~feas] = rank[feas].max(initial=-1) + 1 + groups
    pop.rank = rank
    cut = int(np.sort(rank)[need - 1])
    head = np.flatnonzero(rank <= cut)
    pop.crowd[head] = crowding_distance(objs[head], rank[head])
    return cut


def _survivors(pop: Population, target: int) -> Population:
    """Keep `target` members by (rank, index), cutting a front that does not fit by crowding."""
    cut = _rank_and_crowd(pop, target)
    trim = (pop.rank == cut) & (np.count_nonzero(pop.rank <= cut) > target)
    order = np.lexsort((np.where(trim, -pop.crowd, 0.0), pop.rank))
    return pop.take(order[:target])


def _soa_fitness(pop: Population, cfg: EngineConfig) -> np.ndarray:
    return cfg.soa_a * pop.price + cfg.soa_b * pop.compatibility


def _soa_order(pop: Population, cfg: EngineConfig) -> np.ndarray:
    """Members by (feasible, less violation, more fitness), full ties in index order."""
    return np.lexsort((-_soa_fitness(pop, cfg), pop.violation, ~pop.feasible))


# ---------------------------------------------------------------------------
# initialization and the final-feasible archive


def _init_values(inst: ProblemInstance, cfg: EngineConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial value rows: one random mutation of copies of the actual map.

    Each row redraws the value of ceil(init_change_fraction *
    N_unlocked) distinct unlocked plots uniformly. Rows are not screened:
    one outside the price box enters with its violation.
    """
    budget = math.ceil(cfg.init_change_fraction * len(inst.unlocked_ids))
    op_cfg = replace(cfg.operator_cfg, mutation_plot_budget=budget)
    values = np.repeat(inst.actual_values[None, :], cfg.population_size, axis=0)
    random_mutation_batch(values, np.arange(cfg.population_size), op_cfg, inst, rng)
    return values


class _FinalFeasibleArchive:
    """All-time non-dominated set of final-feasible solutions."""

    def __init__(self, inst: ProblemInstance, relax: RelaxationSchedule):
        self.inst = inst
        self.gamma_final = relax.gamma_final
        self.members: Population | None = None
        # The members' objectives, (n, 2); a new array whenever one joins.
        self.points = np.zeros((0, 2))

    def offer(self, candidates: Population) -> None:
        """Merge the in-band candidates, keeping `pareto_indices` order.

        Only joining candidates are copied. When none joins, no member is
        beaten either (members are mutually non-dominated), so nothing is
        copied and `members` and `points` stay the same objects.
        """
        ok = np.flatnonzero(candidates.in_band_and_box(self.inst, self.gamma_final))
        if not ok.size:
            return
        old, m = self.points, len(self.points)
        objs = candidates.objectives()[ok]
        if m:
            # Members ascend in x and descend in y, so the first member whose
            # x is at least a candidate's has the largest y of all such
            # members: if it is at least the candidate's y, the candidate is
            # dominated or equal to a member, and cannot join.
            at = np.searchsorted(old[:, 0], objs[:, 0])
            if at.max() < m and (old[at, 1] >= objs[:, 1]).all():
                return
            objs = np.vstack([old, objs])
        keep = metrics.pareto_indices(objs)
        joins = keep >= m
        if not joins.any():
            return
        self.points = objs[keep]
        new = candidates.take(ok[keep[joins] - m])
        keep[joins] = m + np.arange(new.n)
        self.members = new if self.members is None else self.members.concat(new).take(keep)


def _hv_trace(inst: ProblemInstance, snapshots: list[np.ndarray]) -> list[float]:
    """Per snapshot, the HV of its points normalized over every snapshot and the actual point.

    Consecutive archive states often repeat one array, so each distinct
    array (by identity) is normalized and measured once.
    """
    distinct = {id(s): s for s in snapshots}
    pts = [s for s in distinct.values() if s.size]
    universe = np.vstack(pts + [inst.actual_objectives[None, :]])
    bounds = metrics.NormalizationBounds.from_points(universe)
    hv = {id(s): metrics.hypervolume_2d(metrics.normalize(s, bounds)) for s in pts}
    return [hv.get(id(s), 0.0) for s in snapshots]


# ---------------------------------------------------------------------------
# per-algorithm offspring generation (batched per generation)


def _nsga_pool(pop: Population, rng: np.random.Generator, size: int) -> np.ndarray:
    return tournament_indices((-pop.rank, pop.crowd), size, rng)


def _offspring_mutate_sbx(
    inst: ProblemInstance, cfg: EngineConfig, pop: Population, pool: np.ndarray,
    rng: np.random.Generator, solo_mutation: Callable[..., None],
) -> tuple[np.ndarray, np.ndarray]:
    """Random mutation before SBX; sometimes `solo_mutation` replaces both.

    Pair k's children are rows 2k and 2k + 1 of one buffer, each gathered
    once from its anchor parent; each branch mutates all its rows in one
    call, in child order. An odd population drops the last child.
    """
    lam = cfg.population_size
    n_pairs = (lam + 1) // 2
    anchors = pool[rng.integers(0, len(pool), size=(2, n_pairs)).T.ravel()]
    mutate_only = rng.random(n_pairs) < cfg.mutation_probability
    out = pop.values[anchors]
    crossing = np.repeat(~mutate_only, 2)
    rows = np.flatnonzero(crossing)
    if rows.size:
        random_mutation_batch(out, rows, cfg.operator_cfg, inst, rng)
        sbx_batch(out, rows[::2], 1, cfg.operator_cfg, inst, rng)
    rows = np.flatnonzero(~crossing)
    if rows.size:
        solo_mutation(out, rows, cfg.operator_cfg, inst, rng)
    return out[:lam], anchors[:lam]


def _offspring_cr_des(
    inst: ProblemInstance, cfg: EngineConfig, pop: Population, pool: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover; a DE difference child replaces a pair sometimes.

    Unit k's children, in unit order in one buffer, are a crossover pair
    anchored at its parents a[k] and b[k], or one difference child of them
    with no anchor (-1). Each child is gathered once from a[k] or b[k] and
    varied in place; the buffer holds the one child past the cut at lam.
    """
    lam = cfg.population_size
    de = rng.random(lam) < cfg.de_child_probability
    a = pool[rng.integers(0, len(pool), size=lam)]
    b = pool[rng.integers(0, len(pool), size=lam)]
    unit = np.repeat(np.arange(lam), 2 - de)[: lam + 1]  # each child's unit
    second = np.diff(unit, prepend=-1) == 0
    anchors = np.where(second, b[unit], a[unit])
    out = pop.values[anchors]
    first = np.flatnonzero(~second[:lam])  # the used units' first children
    de = de[: len(first)]
    uniform_batch(out, first[~de], 1, cfg.operator_cfg, inst, rng)
    diffs = first[de]
    out[diffs] = scaled_difference_batch(
        out[diffs], pop.values[b[unit[diffs]]], cfg.operator_cfg.de_scale, inst
    )
    anchors[diffs] = -1
    return out[:lam], anchors[:lam]


def _offspring_msbx_mo(
    inst: ProblemInstance,
    cfg: EngineConfig,
    pop: Population,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Each member's DE trial vector, anchored at it; its mutant is formed only where SBX joins."""
    return de_trial_batch(pop.values, cfg.operator_cfg, inst, rng), np.arange(pop.n)


# The one step in which the engines differ: (inst, cfg, pop, rng) -> offspring
# value rows and, per child, the member of `pop` it is anchored at (-1: none).
_VARIATIONS: dict[str, Callable[..., tuple[np.ndarray, np.ndarray]]] = {
    # Single-objective GA on the weighted raw objectives.
    "SOA": lambda inst, cfg, pop, rng: _offspring_mutate_sbx(
        inst, cfg, pop,
        tournament_indices(
            (pop.feasible, -pop.violation, _soa_fitness(pop, cfg)), cfg.population_size // 2, rng
        ),
        rng, random_mutation_batch,
    ),
    # NSGA-II with random mutation before SBX, polynomial as the solo branch.
    "MSBX_NSGA2": lambda inst, cfg, pop, rng: _offspring_mutate_sbx(
        inst, cfg, pop, _nsga_pool(pop, rng, cfg.population_size // 2), rng,
        polynomial_mutation_batch,
    ),
    # NSGA-II skeleton; uniform crossover plus DE difference children.
    "CR_DES": lambda inst, cfg, pop, rng: _offspring_cr_des(
        inst, cfg, pop, _nsga_pool(pop, rng, cfg.population_size // 2), rng
    ),
    # Scaled-donor mutants crossed with their parents, Pareto-rank survival.
    "MSBX_MO": _offspring_msbx_mo,
}


# ---------------------------------------------------------------------------
# the engine loop


def run_engine(inst: ProblemInstance, cfg: EngineConfig) -> RunRecord:
    """Run the configured algorithm.

    SOA survives by its scalar score; the three others by feasible-first
    fronts and crowding. Beyond that the engines differ only in their
    variation step (`_VARIATIONS`). The returned population carries full
    evaluations, with feasibility under the final (gamma, mu); its ranks
    and crowding are the last survival step's.
    """
    cfg = _resolved(inst, cfg)
    variation = _VARIATIONS[cfg.algorithm]
    soa = cfg.algorithm == "SOA"
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    pop = Population.evaluate(inst, _init_values(inst, cfg, rng))
    gamma, mu = apply_relaxation_phase(1, cfg)
    _refresh_pop(inst, pop, gamma, mu)
    if not soa:
        _rank_and_crowd(pop, pop.n)
    archive = _FinalFeasibleArchive(inst, cfg.relax)
    archive.offer(pop)
    snapshots: list[np.ndarray] = []  # archive.points per generation, repeated while unchanged
    for gen in range(1, cfg.generations + 1):
        gamma, mu = apply_relaxation_phase(gen, cfg)
        # Selection reuses the rank/crowding assigned by the previous
        # survival step, as in canonical NSGA-II.
        values, anchors = variation(inst, cfg, pop, rng)
        offspring = Population.evaluate(inst, values, pop, anchors)
        merged = pop.concat(offspring)
        if gen == cfg.generations and archive.members is not None:
            merged = merged.concat(archive.members)
        _refresh_pop(inst, merged, gamma, mu)
        if soa:
            pop = merged.take(_soa_order(merged, cfg)[: cfg.population_size])
            pop.rank = np.arange(pop.n)
            pop.crowd = np.zeros(pop.n)
        else:
            pop = _survivors(merged, cfg.population_size)
        del merged  # the last generation's also holds the archive
        archive.offer(offspring)
        snapshots.append(archive.points)
    _evaluate_in_full(inst, pop, gamma, mu)
    soa_weights = (cfg.soa_a, cfg.soa_b) if soa else None
    front_indices = final_front_indices(inst, pop, cfg.relax.gamma_final, soa_weights)
    return RunRecord(
        algorithm=cfg.algorithm,
        config=asdict(cfg),
        seed=cfg.seed,
        hv_trace=_hv_trace(inst, snapshots),
        population=pop,
        front_indices=front_indices,
        wall_time_s=time.perf_counter() - t0,
    )


def _evaluate_in_full(inst: ProblemInstance, pop: Population, gamma: float, mu: float) -> None:
    """Replace the search values of `pop` by one full evaluation; refresh under (gamma, mu)."""
    vars(pop).update(vars(evaluate_batch(inst, pop.values)))
    _refresh_pop(inst, pop, gamma, mu)


def final_front_indices(
    inst: ProblemInstance, pop: Population, gamma: float, soa_weights: tuple[float, float] | None
) -> np.ndarray:
    """Feasible-filtered front of the members inside the gamma band and price box.

    Their first non-dominated front in ascending order, duplicates included,
    or under SOA weights (a, b) the best a*price + b*compatibility member.
    """
    ok = np.flatnonzero(pop.in_band_and_box(inst, gamma))
    if not ok.size:
        return ok
    if soa_weights is not None:
        a, b = soa_weights
        return ok[[int(np.argmax(a * pop.price[ok] + b * pop.compatibility[ok]))]]
    return ok[front_ranks(pop.objectives()[ok], 1) == 0]
