"""Variation and selection operators shared by all engines.

Plots are recombined on their base-K integer encoding: a floor-use vector
[u_0, ..., u_{f-1}] maps to the integer sum(u_t * K^(f-1-t)), most
significant digit first (so "122" in base 3 is 17), held as int64.
Real-coded SBX, polynomial mutation and the DE-style scaled operators
each compute a real step per plot, round it half-to-even and add it with
`PlotCodec.clamp`, which clamps into [0, K^f - 1] in integers. The clamp
keeps the near-parent bias that a modulo wrap would destroy, and a zero
step (SBX of equal parents, a zero donor) returns the value as is.

Those four operators take and return (B, N) per-plot values; uniform
crossover and random mutation act on (B, total_floors) code rows. An
engine encodes its parents once with `PlotCodec.encode_rows`, chains the
value operators, and decodes the children it keeps once with
`decode_rows`. `decode_rows(encode_rows(x)) == x` for every row of
in-range codes, so the plots an operator leaves alone (locked plots,
SBX's unselected plots) come back bit-exact. The random operators take
an explicit numpy Generator and are deterministic given (inputs, config,
seed). Locked plots always copy through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CODE_DTYPE, ProblemInstance

# PlotCodec's digit table holds at most this many rows (K^w <= 8192).
_TABLE_ROWS = 8192


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
        if not 0.0 <= self.crossover_plot_fraction <= 1.0:
            raise ValueError("crossover_plot_fraction must be in [0, 1]")
        if self.sbx_eta <= 0 or self.poly_eta <= 0:
            raise ValueError("distribution indices must be > 0")
        if self.de_scale <= 0:
            raise ValueError("de_scale must be > 0")
        if self.mutation_plot_budget < 0:
            raise ValueError("mutation_plot_budget must be >= 0")


def encode_uses(uses: Sequence[int], base: int) -> int:
    """Base-`base` integer for a floor-use vector, MSB first."""
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


class PlotCodec:
    """Vectorized base-K codec for a whole instance's flat code layout.

    Plot values are int64: `ProblemInstance` refuses a plot with
    K^f > 2^62, so every K^f - 1 and every sum or difference of two
    values fits.

    Decoding reads a digit table built once per codec: row v holds the w
    base-K digits of v, most significant first, where w is the largest
    width with K^w <= 8192, capped at the tallest plot's floor count
    (w = 8 at K = 3 with 8-floor plots: 6,561 rows of int16). Plots of at
    most w floors decode with one table lookup and no integer division.
    Taller plots are first split into ceil(f_max / w) chunks of w digits
    by % and // of K^w; each chunk is below K^w, so it is looked up in the
    same table. One gather along the flat digit axis then picks every
    floor's digit.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.base = inst.n_uses
        # Floor t of a plot is digit pos[t], counted from the least significant end.
        last = np.repeat(inst.floor_offsets[1:] - 1, inst.floor_counts)
        pos = last - np.arange(inst.total_floors)
        self.place_values = np.int64(self.base) ** pos
        self.max_values = np.int64(self.base) ** inst.floor_counts - 1
        width = 1
        tallest = int(inst.floor_counts.max())
        while width < tallest and self.base ** (width + 1) <= _TABLE_ROWS:
            width += 1
        self._width = width
        # C-order indices of a (K,) * w grid are the digits of 0..K^w - 1.
        self._table = np.indices((self.base,) * width, dtype=CODE_DTYPE).reshape(width, -1).T.copy()
        self._chunks = -(-tallest // width)
        # Digit p sits in chunk p // w at table column w - 1 - p % w; the
        # lookups are laid out as (plot, chunk, column).
        self._columns = (
            inst.floor_plot_index * (self._chunks * width)
            + (pos // width) * width
            + width - 1 - pos % width
        )

    def encode_rows(self, codes: np.ndarray) -> np.ndarray:
        """(B, total_floors) code rows -> (B, N) per-plot integers."""
        weighted = np.atleast_2d(codes).astype(np.int64)
        weighted *= self.place_values  # in place: one fresh (B, floors) array, not two
        return np.add.reduceat(weighted, self.inst.floor_offsets[:-1], axis=1)

    def decode_rows(self, values: np.ndarray) -> np.ndarray:
        """(B, N) per-plot integers -> (B, total_floors) code rows."""
        values = np.atleast_2d(values)
        span = self.base**self._width
        chunks = np.empty(values.shape + (self._chunks,), dtype=np.int64)
        for c in range(self._chunks - 1):  # least significant chunk first
            chunks[..., c] = values % span
            values = values // span
        chunks[..., -1] = values
        digits = self._table.take(chunks, axis=0).reshape(values.shape[0], -1)
        return digits.take(self._columns, axis=1)

    def clamp(self, values: np.ndarray | int, steps: np.ndarray, plots: np.ndarray | None = None) -> np.ndarray:
        """`values` plus the integral float `steps`, clamped into [0, K^f - 1].

        `values` (or the scalar 0) and `steps` are (B, N), or 1-D with
        `plots` giving each entry's plot. The sum is exact int64 arithmetic. A step beyond
        +-2^62 is cut there first, which moves no result and keeps int64
        from overflowing.
        """
        limits = self.max_values if plots is None else self.max_values[plots]
        steps = np.clip(steps, -(2.0**62), 2.0**62).astype(np.int64)
        return values + np.clip(steps, -values, limits - values)


def plot_codec(inst: ProblemInstance) -> PlotCodec:
    """The instance's PlotCodec, built on first use and kept on the instance."""
    codec = getattr(inst, "_plot_codec", None)
    if codec is None:
        codec = PlotCodec(inst)
        inst._plot_codec = codec
    return codec


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
    take_a = rank[a] > rank[b]
    tie = rank[a] == rank[b]
    return np.where(take_a | (tie & coin), a, b)


# ---------------------------------------------------------------------------
# crossover


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
    codec = plot_codec(inst)
    b, n = values1.shape[0], inst.n_plots
    select = (rng.random((b, n)) < cfg.crossover_plot_fraction) & ~inst.locked[None, :]
    u = rng.random((b, n))
    child1 = values1.copy()
    child2 = values2.copy()
    at = np.flatnonzero(select)  # flat (row, plot) indices; gathers beat boolean masks
    if not at.size:
        return child1, child2
    u = u.take(at)
    plots = at % n
    eta = cfg.sbx_eta
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    v1, v2 = values1.take(at), values2.take(at)
    # The children 0.5 * ((1 +- beta) * v1 + (1 -+ beta) * v2) are v1 + step
    # and v2 - step.
    step = np.rint(0.5 * (1.0 - beta) * (v2 - v1).astype(float))
    np.put(child1, at, codec.clamp(v1, step, plots))
    np.put(child2, at, codec.clamp(v2, -step, plots))
    return child1, child2


def uniform_batch(
    codes1: np.ndarray,
    codes2: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover over paired code rows: each unlocked plot swaps whole."""
    codes1 = np.atleast_2d(codes1)
    codes2 = np.atleast_2d(codes2)
    plot_swap = rng.random((codes1.shape[0], inst.n_plots)) < cfg.crossover_plot_fraction
    plot_swap &= ~inst.locked[None, :]
    swap = np.repeat(plot_swap, inst.floor_counts, axis=1)
    out1 = np.where(swap, codes2, codes1)
    out2 = np.where(swap, codes1, codes2)
    return out1.astype(CODE_DTYPE), out2.astype(CODE_DTYPE)


# ---------------------------------------------------------------------------
# mutation


def _pick_plots_batch(
    b: int, budget: int, inst: ProblemInstance, rng: np.random.Generator
) -> np.ndarray:
    """(B, N) bool mask selecting up to `budget` distinct unlocked plots per row."""
    n_unlocked = len(inst.unlocked_ids)
    take = min(budget, n_unlocked)
    mask = np.zeros((b, inst.n_plots), dtype=bool)
    if take == 0:
        return mask
    u = rng.random((b, n_unlocked))
    kth = np.partition(u, take - 1, axis=1)[:, take - 1 : take]
    chosen = u <= kth
    mask[:, inst.unlocked_ids] = chosen
    return mask


def random_mutation_batch(
    codes: np.ndarray,
    cfg: OperatorConfig,
    inst: ProblemInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """Redraw every floor of up to mutation_plot_budget plots per row."""
    codes = np.atleast_2d(codes)
    b = codes.shape[0]
    mask = _pick_plots_batch(b, cfg.mutation_plot_budget, inst, rng)
    fresh = rng.integers(0, inst.n_uses, size=(b, inst.total_floors), dtype=np.int64)
    fmask = np.repeat(mask, inst.floor_counts, axis=1)
    return np.where(fmask, fresh, codes).astype(CODE_DTYPE)


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
    codec = plot_codec(inst)
    b = values.shape[0]
    mask = _pick_plots_batch(b, cfg.mutation_plot_budget, inst, rng)
    u = rng.random((b, inst.n_plots))
    if not mask.any():
        return values.copy()
    step = polynomial_values(values.astype(float), codec.max_values.astype(float), cfg.poly_eta, u)
    return np.where(mask, codec.clamp(values, np.rint(step)), values)


# ---------------------------------------------------------------------------
# DE-style scaled operators


def scaled_add_batch(
    target: np.ndarray, donor: np.ndarray, f: float, inst: ProblemInstance
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: target + round(f * donor), clamped.

    Only the step is computed in float, so a zero donor is the identity.
    """
    moved = plot_codec(inst).clamp(target, np.rint(f * donor.astype(float)))
    return np.where(inst.locked, target, moved)


def scaled_difference_batch(
    a: np.ndarray, b: np.ndarray, f: float, inst: ProblemInstance
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: round(f * (a - b)), clamped; locked plots keep a."""
    moved = plot_codec(inst).clamp(0, np.rint(f * (a - b).astype(float)))
    return np.where(inst.locked, a, moved)
