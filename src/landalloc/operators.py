"""Variation and selection operators shared by all engines.

Every operator works on (B, N) rows of plot values, a plot's floor uses
as one base-K integer (`model.PlotCodec`). Real-coded SBX,
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

Draws are spent only on the entries an operator may write. The mutations
pick min(budget, N_unlocked) distinct unlocked plots per row by Floyd's
algorithm (`_pick_plots_batch`), then draw one value (random mutation) or
one uniform (polynomial mutation) per picked entry, in pick order. SBX
draws only at the unlocked entries where its parents differ (a join at an
equal entry is the identity): one participation uniform each, then one
uniform per join, in flat (row, plot) order. Uniform crossover and MSBX_MO's
`de_trial_batch` share `_joins`, one participation uniform per plot and
row; `de_trial_batch` forms its mutant at the joins only.

Each variation kernel has one form, in place: `sbx_batch`, `uniform_batch`,
`random_mutation_batch` and `polynomial_mutation_batch` vary given rows of
a child buffer and return None, so an engine gathers each child once and
varies it where it lies. `de_trial_batch`, the scaled operators and
`tournament_indices` return new arrays and leave their inputs as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# PlotCodec stays importable from here, beside the operators that step its values.
from .model import PlotCodec, ProblemInstance, check_field_kinds


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
        check_field_kinds(self)
        if not 0.0 <= self.crossover_plot_fraction <= 1.0:
            raise ValueError("crossover_plot_fraction must be in [0, 1]")
        if not (self.sbx_eta > 0 and self.poly_eta > 0):
            raise ValueError("distribution indices must be > 0")
        if not 0 < self.de_scale < np.inf:
            raise ValueError(f"de_scale must be finite and > 0, got {self.de_scale!r}")
        if self.mutation_plot_budget < 0:
            raise ValueError("mutation_plot_budget must be >= 0")


# ---------------------------------------------------------------------------
# selection


def tournament_indices(
    keys: tuple[np.ndarray, ...], pool_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Winners of `pool_size` binary tournaments, as member indices.

    `keys` holds higher-is-better arrays with one entry per member,
    compared in order: a later key decides only where the earlier ones tie.
    Each tournament draws two members uniformly and independently (a member
    can meet itself); a tie in every key is broken by a fair coin.
    """
    n = len(keys[0])
    if n == 0:
        raise ValueError("population must be non-empty")
    if pool_size == 0:
        return np.zeros(0, dtype=np.int64)
    a, b = rng.integers(0, n, size=(2, pool_size))
    a_wins = rng.random(pool_size) < 0.5
    for key in reversed(keys):
        key_a, key_b = key[a], key[b]
        a_wins = np.where(key_a == key_b, a_wins, key_a > key_b)
    return np.where(a_wins, a, b)


# ---------------------------------------------------------------------------
# crossover


def _joins(
    rows: np.ndarray, cfg: OperatorConfig, inst: ProblemInstance, rng: np.random.Generator
) -> np.ndarray:
    """Flat (., N) indices of the unlocked entries of `rows` that join, one uniform per plot."""
    b, n = len(rows), inst.n_plots
    select = (rng.random((b, n)) < cfg.crossover_plot_fraction) & inst.unlocked
    at = np.flatnonzero(select)  # flat (row, plot) indices; gathers beat boolean masks
    return at + ((rows - np.arange(b)) * n)[at // n]  # row r's entries, moved to row rows[r]


def _sbx_weight(u: np.ndarray, eta: float) -> np.ndarray:
    """0.5 * (1 - beta), SBX's spread factor beta drawn from the uniforms `u`."""
    return 0.5 * (1.0 - np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))


def sbx_batch(
    out: np.ndarray, rows: np.ndarray, gap: int, cfg: OperatorConfig, inst: ProblemInstance,
    rng: np.random.Generator,
) -> None:
    """SBX, in place, of each row in `rows` of `out` with the row `gap` below it.

    Only the unlocked entries where the parents differ draw, a join at an
    equal entry being the identity: one participation uniform each, then one
    per join, in flat (row, plot) order. The children v1 + step, v2 - step
    (0.5 * ((1 +- beta) * v1 + (1 -+ beta) * v2)) are formed at the joins only.
    """
    n = inst.n_plots
    v1 = out[rows]
    diff = out[rows + gap] - v1
    at = np.flatnonzero((diff != 0) & inst.unlocked)
    at = at[rng.random(at.size) < cfg.crossover_plot_fraction]
    v1, diff, plots = v1.take(at), diff.take(at), at % n
    step = np.rint(_sbx_weight(rng.random(at.size), cfg.sbx_eta) * diff.astype(float))
    at += ((rows - np.arange(len(rows))) * n)[at // n]  # row r's entries, moved to row rows[r]
    out.put(at, inst.codec.clamp(v1, step, plots))
    out.put(at + gap * n, inst.codec.clamp(v1 + diff, -step, plots))


def de_trial_batch(
    values: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """DE trial vectors: each (B, N) row x SBX-crossed with x + round(F * donor), anchored at x.

    Each row's donor is a uniform draw of the other rows. At each joining
    entry x becomes x - round(0.5 * (1 - beta) * (x - mutant)), clamped: SBX's
    child of (mutant, x) anchored at x, with mutant = x + round(F * donor) as
    `scaled_add_batch` forms it. Unlike `sbx_batch`, every unlocked plot draws
    its participation (`_joins`), and the mutant is formed at the joins only.
    """
    b, n = values.shape[0], inst.n_plots
    donors = rng.integers(0, b - 1, size=b)
    donors += donors >= np.arange(b)
    at = _joins(np.arange(b), cfg, inst, rng)
    weight = _sbx_weight(rng.random(at.size), cfg.sbx_eta)
    rows, plots = np.divmod(at, n)
    x = values.take(at)
    mutant = scaled_add_batch(x, values.take(donors[rows] * n + plots), cfg.de_scale, inst, plots)
    child = values.copy()
    np.put(child, at, inst.codec.clamp(x, -np.rint(weight * (x - mutant).astype(float)), plots))
    return child


def uniform_batch(
    out: np.ndarray, rows: np.ndarray, gap: int, cfg: OperatorConfig, inst: ProblemInstance,
    rng: np.random.Generator,
) -> None:
    """Uniform crossover, in place, of each row in `rows` of `out` with the row `gap` below it."""
    at = _joins(rows, cfg, inst, rng)
    v1 = out.take(at)
    out.put(at, out.take(at + gap * inst.n_plots))
    out.put(at + gap * inst.n_plots, v1)


# ---------------------------------------------------------------------------
# mutation


def _pick_plots_batch(
    rows: np.ndarray, budget: int, inst: ProblemInstance, rng: np.random.Generator
) -> np.ndarray:
    """Flat (., N) indices of min(budget, N_unlocked) distinct unlocked plots in each of `rows`.

    Floyd's algorithm over the M unlocked plots draws `take` rounds, one
    rng.integers(0, j + 1, size=B) per round j = M - take, ..., M - 1, for
    the B = len(rows) rows; a row whose draw is already taken picks j. Each
    row gets a uniform `take`-subset. The picks of rows[r] are entries
    r * take ... r * take + take - 1, in round order.
    """
    n_unlocked = len(inst.unlocked_ids)
    take = min(budget, n_unlocked)
    b = len(rows)
    if take == 1:  # one round, which nothing can collide with
        return rows * inst.n_plots + inst.unlocked_ids[rng.integers(0, n_unlocked, size=b)]
    idx = np.arange(b)
    picks = np.empty((b, take), dtype=np.int64)
    taken = np.zeros((b, n_unlocked), dtype=bool)
    for i, j in enumerate(range(n_unlocked - take, n_unlocked)):
        t = rng.integers(0, j + 1, size=b)
        t = np.where(taken[idx, t], j, t)
        taken[idx, t] = True
        picks[:, i] = t
    return (rows[:, None] * inst.n_plots + inst.unlocked_ids[picks]).ravel()


def random_mutation_batch(
    out: np.ndarray, rows: np.ndarray, cfg: OperatorConfig, inst: ProblemInstance,
    rng: np.random.Generator,
) -> None:
    """Redraw, in place and uniformly, up to mutation_plot_budget plot values per row in `rows`."""
    at = _pick_plots_batch(rows, cfg.mutation_plot_budget, inst, rng)
    out.put(at, rng.integers(0, inst.codec.max_values[at % inst.n_plots] + 1))


def polynomial_values(
    values: np.ndarray,
    high: np.ndarray,
    eta: float,
    u: np.ndarray,
) -> np.ndarray:
    """Polynomial-mutation step delta * high of `values` in [0, high]; zero where high is 0."""
    ok = high > 0
    d1 = np.divide(values, high, out=np.zeros_like(high), where=ok)
    d2 = np.divide(high - values, high, out=np.zeros_like(high), where=ok)
    exp = 1.0 / (eta + 1.0)
    left = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
    right = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exp
    return np.where(ok, np.where(u < 0.5, left, right) * high, 0.0)


def polynomial_mutation_batch(
    out: np.ndarray, rows: np.ndarray, cfg: OperatorConfig, inst: ProblemInstance,
    rng: np.random.Generator,
) -> None:
    """Perturb, in place, up to mutation_plot_budget plot values per row in `rows`."""
    codec = inst.codec
    at = _pick_plots_batch(rows, cfg.mutation_plot_budget, inst, rng)
    plots = at % inst.n_plots
    v = out.take(at)
    high = codec.max_values[plots].astype(float)
    step = polynomial_values(v.astype(float), high, cfg.poly_eta, rng.random(at.size))
    out.put(at, codec.clamp(v, np.rint(step), plots))


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
