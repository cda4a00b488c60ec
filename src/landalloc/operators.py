"""Variation and selection operators shared by all engines.

Plots are recombined on their base-K integer encoding: a floor-use vector
[u_0, ..., u_{f-1}] maps to the integer sum(u_t * K^(f-1-t)), most
significant digit first (so "122" in base 3 is 17). Real-coded SBX,
polynomial mutation and the DE-style scaled operators act on these
integers, then round half-to-even and clamp back into [0, K^f - 1], which
keeps the near-parent bias that a modulo wrap would destroy.

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

# int64 holds K^f - 1 as long as f * log2(K) stays below 63 bits; taller
# buildings fall back to python-int (object dtype) arithmetic.
_INT64_BITS = 62

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

    Uses int64 arithmetic when every plot's code range fits, otherwise
    python-int (object dtype) arithmetic, so tall buildings never
    overflow.

    Decoding reads a digit table built once per codec: row v holds the w
    base-K digits of v, most significant first, where w is the largest
    width with K^w <= 8192, capped at the tallest plot's floor count
    (w = 8 at K = 3 with 8-floor plots: 6,561 rows of int16). Plots of at
    most w floors decode with one table lookup and no integer division.
    Taller plots are first split into ceil(f_max / w) chunks of w digits
    by % and // of K^w; each chunk is below K^w, so it is looked up in the
    same table, on either dtype. One gather along the flat digit axis
    then picks every floor's digit.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.base = inst.n_uses
        self.digits = inst.floor_counts
        bits = inst.floor_counts * np.log2(self.base)
        self._exact = bool(np.all(bits <= _INT64_BITS))
        dtype = np.int64 if self._exact else object
        place = np.empty(inst.total_floors, dtype=dtype)
        for i in range(inst.n_plots):
            lo, hi = inst.floor_offsets[i], inst.floor_offsets[i + 1]
            f = hi - lo
            col = [self.base ** int(f - 1 - t) for t in range(f)]
            place[lo:hi] = np.array(col, dtype=dtype)
        self.place_values = place
        self.max_values = np.array(
            [self.base ** int(f) - 1 for f in inst.floor_counts], dtype=dtype
        )
        width = 1
        tallest = int(inst.floor_counts.max())
        while width < tallest and self.base ** (width + 1) <= _TABLE_ROWS:
            width += 1
        self._width = width
        # C-order indices of a (K,) * w grid are the digits of 0..K^w - 1.
        self._table = np.indices((self.base,) * width, dtype=CODE_DTYPE).reshape(width, -1).T.copy()
        self._chunks = -(-tallest // width)
        # Digit p of plot i, counted from the least significant end, sits in
        # chunk p // w at table column w - 1 - p % w; the lookups are laid
        # out as (plot, chunk, column).
        last = np.repeat(inst.floor_offsets[1:] - 1, inst.floor_counts)
        pos = last - np.arange(inst.total_floors)
        self._columns = (
            inst.floor_plot_index * (self._chunks * width)
            + (pos // width) * width
            + width - 1 - pos % width
        )

    def encode_rows(self, codes: np.ndarray) -> np.ndarray:
        """(B, total_floors) code rows -> (B, N) per-plot integers."""
        codes = np.atleast_2d(codes)
        weighted = codes.astype(self.place_values.dtype)
        weighted *= self.place_values  # in place: one fresh (B, floors) array, not two
        if self.inst.n_plots == 0:
            return np.zeros((codes.shape[0], 0), dtype=self.place_values.dtype)
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

    def clamp(self, values: np.ndarray, plots: np.ndarray | None = None) -> np.ndarray:
        """Clamp rounded reals into [0, K^f - 1] as codec integers.

        `values` is (B, N), or 1-D with `plots` giving each entry's plot.
        The bound is applied in integers: K^f - 1 above 2^53 has no exact
        float.
        """
        limits = self.max_values if plots is None else self.max_values[plots]
        if self._exact:
            # Every limit is below 2^62, so the clip keeps the cast exact.
            return np.minimum(np.clip(values, 0.0, 2.0**62).astype(np.int64), limits)
        return np.minimum(np.maximum(_py_ints(values), 0), limits)

    def add_clamped(self, values: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """(B, N) values plus integral float `steps`, clamped into [0, K^f - 1].

        The sum is exact integer arithmetic. A step beyond +-2^62 is cut
        there first, which moves no result and keeps int64 from
        overflowing.
        """
        if self._exact:
            steps = np.clip(steps, -(2.0**62), 2.0**62).astype(np.int64)
            return values + np.clip(steps, -values, self.max_values - values)
        return np.minimum(np.maximum(values + _py_ints(steps), 0), self.max_values)


# Integral floats -> python ints, exactly, for the object-dtype codec path.
_py_ints = np.frompyfunc(int, 1, 1)


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
    f1 = values1.take(at).astype(float)
    f2 = values2.take(at).astype(float)
    np.put(child1, at, codec.clamp(np.rint(0.5 * ((1.0 + beta) * f1 + (1.0 - beta) * f2)), plots))
    np.put(child2, at, codec.clamp(np.rint(0.5 * ((1.0 - beta) * f1 + (1.0 + beta) * f2)), plots))
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
    low: np.ndarray,
    high: np.ndarray,
    eta: float,
    u: np.ndarray,
) -> np.ndarray:
    """Bounded polynomial-mutation step; degenerate domains pass through."""
    span = high.astype(float) - low.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (values - low.astype(float)) / span
        d2 = (high.astype(float) - values) / span
        exp = 1.0 / (eta + 1.0)
        left = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
        right = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exp
    delta = np.where(u < 0.5, left, right)
    return np.where(span > 0, values + delta * span, values)


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
    low = np.zeros(inst.n_plots)
    high = codec.max_values.astype(float)
    perturbed = polynomial_values(values.astype(float), low, high, cfg.poly_eta, u)
    return np.where(mask, codec.clamp(np.rint(perturbed)), values)


# ---------------------------------------------------------------------------
# DE-style scaled operators


def scaled_add_batch(
    target: np.ndarray, donor: np.ndarray, f: float, inst: ProblemInstance
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: target + round(f * donor), clamped.

    Only the step is computed in float, so a zero donor is the identity.
    """
    moved = plot_codec(inst).add_clamped(target, np.rint(f * donor.astype(float)))
    return np.where(inst.locked, target, moved)


def scaled_difference_batch(
    a: np.ndarray, b: np.ndarray, f: float, inst: ProblemInstance
) -> np.ndarray:
    """Per unlocked plot of (B, N) values: round(f * (a - b)), clamped; locked plots keep a."""
    moved = plot_codec(inst).clamp(np.rint(f * (a - b).astype(float)))
    return np.where(inst.locked, a, moved)
