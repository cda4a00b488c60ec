"""Variation and selection operators shared by all engines.

Every operator takes and returns (B, N) rows of plot values, a plot's
floor uses as one base-K integer (`model.PlotCodec`). Real-coded SBX,
polynomial mutation and the DE-style scaled operators each compute a
real step per plot, round it half-to-even and add it with
`PlotCodec.clamp`, which clamps into [0, K^f - 1] in integers. The clamp
keeps the near-parent bias that a modulo wrap would destroy, and a zero
step (SBX of equal parents, a zero donor) returns the value as is.
Uniform crossover swaps whole plot values and random mutation redraws a
plot's value uniformly from [0, K^f - 1], which redraws each of its
floors uniformly. The random operators take an explicit numpy Generator
and are deterministic given (inputs, config, seed). Locked plots always
copy through.

Draws are spent only on the entries an operator writes. The mutations pick
min(budget, N_unlocked) distinct unlocked plots per row by Floyd's
algorithm (`_pick_plots_batch`), then draw one value (random mutation) or
one uniform (polynomial mutation) per picked entry, in pick order. SBX
(`_sbx_joins`) draws per-plot participation uniforms, then one uniform per
joining entry in flat (row, plot) order. MSBX_MO's trial vector
(`de_trial_batch`) forms its mutant there only; `scaled_add_batch` stays
the public (B, N) scaled add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# PlotCodec stays importable from here, beside the operators that step its values.
from .model import PlotCodec, ProblemInstance


@dataclass(frozen=True)
class OperatorConfig:
    """Knobs shared by the variation operators.

    sbx_eta / poly_eta are the usual distribution indices (paper gap;
    defaults follow common NSGA-II practice), de_scale is the DE scale
    factor F, crossover_plot_fraction is the per-plot participation /
    swap probability, and mutation_plot_budget caps how many plots one
    mutation may alter.
    """

    sbx_eta: float = 20.0
    poly_eta: float = 20.0
    de_scale: float = 0.5
    crossover_plot_fraction: float = 0.2
    mutation_plot_budget: int = 1

    def __post_init__(self):
        budget = self.mutation_plot_budget
        if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
            raise ValueError(f"mutation_plot_budget must be an integer, got {budget!r}")
        if not 0.0 <= self.crossover_plot_fraction <= 1.0:
            raise ValueError("crossover_plot_fraction must be in [0, 1]")
        if self.sbx_eta <= 0 or self.poly_eta <= 0:
            raise ValueError("distribution indices must be > 0")
        if self.de_scale <= 0:
            raise ValueError("de_scale must be > 0")
        if self.mutation_plot_budget < 0:
            raise ValueError("mutation_plot_budget must be >= 0")


# ---------------------------------------------------------------------------
# selection


def tournament_indices(
    rank: np.ndarray, pool_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Winners of `pool_size` binary tournaments, as indices into `rank`.

    `rank` is a higher-is-better score per member. Each tournament draws
    two members uniformly and independently (a member can meet itself);
    the higher score wins and ties are broken by a fair coin.
    """
    n = len(rank)
    if n == 0:
        raise ValueError("population must be non-empty")
    if pool_size == 0:
        return np.zeros(0, dtype=np.int64)
    a = rng.integers(0, n, size=pool_size)
    b = rng.integers(0, n, size=pool_size)
    coin = rng.random(pool_size) < 0.5
    rank_a, rank_b = rank[a], rank[b]
    return np.where((rank_a > rank_b) | ((rank_a == rank_b) & coin), a, b)


# ---------------------------------------------------------------------------
# crossover


def _sbx_joins(
    b: int, cfg: OperatorConfig, inst: ProblemInstance, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of (B, N) entries joining SBX, drawn per plot, and their 0.5 * (1 - beta)."""
    select = (rng.random((b, inst.n_plots)) < cfg.crossover_plot_fraction) & ~inst.locked[None, :]
    at = np.flatnonzero(select)  # flat (row, plot) indices; gathers beat boolean masks
    u = rng.random(at.size)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** (1.0 / (cfg.sbx_eta + 1.0))
    return at, 0.5 * (1.0 - beta)


def sbx_batch(
    values1: np.ndarray,
    values2: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """SBX over paired (B, N) plot-value rows; each unlocked plot joins independently.

    Plots that do not join keep their parent's value; beta and the
    children are computed at the joining (row, plot) entries only.
    """
    at, weight = _sbx_joins(values1.shape[0], cfg, inst, rng)
    plots = at % inst.n_plots
    v1, v2 = values1.take(at), values2.take(at)
    # The children 0.5 * ((1 +- beta) * v1 + (1 -+ beta) * v2) are v1 + step and v2 - step.
    step = np.rint(weight * (v2 - v1).astype(float))
    child1, child2 = values1.copy(), values2.copy()
    np.put(child1, at, inst.codec.clamp(v1, step, plots))
    np.put(child2, at, inst.codec.clamp(v2, -step, plots))
    return child1, child2


def de_trial_batch(
    values: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """DE trial vectors: each (B, N) row x SBX-crossed with x + round(F * donor), anchored at x.

    Each row's donor is a uniform draw of the other rows. Equal to
    `sbx_batch(scaled_add_batch(values, values[donors], F, inst), values)[1]`
    with the same draws, but the mutant is formed at the joining entries only.
    """
    b, n = values.shape[0], inst.n_plots
    donors = rng.integers(0, b - 1, size=b)
    donors += donors >= np.arange(b)
    at, weight = _sbx_joins(b, cfg, inst, rng)
    rows, plots = np.divmod(at, n)
    x = values.take(at)
    mutant = scaled_add_batch(x, values.take(donors[rows] * n + plots), cfg.de_scale, inst, plots)
    child = values.copy()
    np.put(child, at, inst.codec.clamp(x, -np.rint(weight * (x - mutant).astype(float)), plots))
    return child


def uniform_batch(
    values1: np.ndarray,
    values2: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover over paired (B, N) value rows: each unlocked plot swaps whole."""
    swap = rng.random(values1.shape) < cfg.crossover_plot_fraction
    swap &= ~inst.locked
    return np.where(swap, values2, values1), np.where(swap, values1, values2)


# ---------------------------------------------------------------------------
# mutation


def _pick_plots_batch(
    b: int, budget: int, inst: ProblemInstance, rng: np.random.Generator
) -> np.ndarray:
    """Flat indices into (B, N) rows of min(budget, N_unlocked) distinct unlocked plots per row.

    Floyd's algorithm over the M unlocked plots draws `take` rounds, one
    rng.integers(0, j + 1, size=B) per round j = M - take, ..., M - 1; a
    row whose draw is already taken picks j. Each row gets a uniform
    `take`-subset. Row r's picks are entries r * take ... r * take + take - 1,
    in round order.
    """
    n_unlocked = len(inst.unlocked_ids)
    take = min(budget, n_unlocked)
    rows = np.arange(b)
    picks = np.empty((b, take), dtype=np.int64)
    taken = np.zeros((b, n_unlocked), dtype=bool)
    for i, j in enumerate(range(n_unlocked - take, n_unlocked)):
        t = rng.integers(0, j + 1, size=b)
        t = np.where(taken[rows, t], j, t)
        taken[rows, t] = True
        picks[:, i] = t
    return (rows[:, None] * inst.n_plots + inst.unlocked_ids[picks]).ravel()


def random_mutation_batch(
    values: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """Redraw the (B, N) plot values of up to mutation_plot_budget plots per row, uniformly."""
    at = _pick_plots_batch(values.shape[0], cfg.mutation_plot_budget, inst, rng)
    out = values.copy()
    np.put(out, at, rng.integers(0, inst.codec.max_values[at % inst.n_plots] + 1))
    return out


def polynomial_values(
    values: np.ndarray,
    high: np.ndarray,
    eta: float,
    u: np.ndarray,
) -> np.ndarray:
    """Polynomial-mutation step delta * high of `values` in [0, high]; zero where high is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = values / high
        d2 = (high - values) / high
        exp = 1.0 / (eta + 1.0)
        left = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
        right = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exp
    delta = np.where(u < 0.5, left, right)
    return np.where(high > 0, delta * high, 0.0)


def polynomial_mutation_batch(
    values: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturb the (B, N) plot values of up to mutation_plot_budget plots per row."""
    codec = inst.codec
    at = _pick_plots_batch(values.shape[0], cfg.mutation_plot_budget, inst, rng)
    out = values.copy()
    plots = at % inst.n_plots
    v = values.take(at)
    high = codec.max_values[plots].astype(float)
    step = polynomial_values(v.astype(float), high, cfg.poly_eta, rng.random(at.size))
    np.put(out, at, codec.clamp(v, np.rint(step), plots))
    return out


# ---------------------------------------------------------------------------
# DE-style scaled operators


def scaled_add_batch(
    target: np.ndarray, donor: np.ndarray, f: float, inst: ProblemInstance, plots=None
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: target + round(f * donor), clamped.

    Only the step is float, so a zero donor is the identity; 1-D entries take `plots`.
    """
    moved = inst.codec.clamp(target, np.rint(f * donor.astype(float)), plots)
    return np.where(inst.locked if plots is None else inst.locked[plots], target, moved)


def scaled_difference_batch(
    a: np.ndarray, b: np.ndarray, f: float, inst: ProblemInstance
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: round(f * (a - b)), clamped; locked plots keep a."""
    moved = inst.codec.clamp(0, np.rint(f * (a - b).astype(float)))
    return np.where(inst.locked, a, moved)
