"""Problem model: plots, land uses, objectives and constraints.

A problem instance describes N plots, each carrying one building with f_i
floors, a K-use catalog, a K x K compatibility matrix, an N x K full-plot
price matrix, and the constraint parameters (area band gamma, plot-change
budget mu, and the price box). A land-use map is one row of N plot
values: plot i's floor uses [u_0, ..., u_{f-1}] as the base-K integer
sum(u_t * K^(f-1-t)), most significant digit first (so "122" in base 3
is 17), held as int64. `evaluate_batch` scores a (B, N) batch of value
rows from each plot's per-use floor counts, which `PlotCodec` reads
straight off the values; the induced per-plot use proportions drive both
objectives. Floor codes, one flat row of `total_floors` use codes with
plot i's floors at `row[floor_offsets[i]:floor_offsets[i+1]]`, are the
form maps take in files: `PlotCodec` converts between the two, and
`codes_in_range_mask` checks code rows read from outside the program.

`evaluate_near` scores rows that were copied from rows already scored
(a child and its anchor parent): a row that differs from its anchor in a
few plots is updated from the anchor's values over those plots and the
edges that touch them (`evaluate_delta`), which agrees with a full
evaluation to rounding (about 1e-15 relative per step); every other row
goes through `evaluate_batch`, whose values do not depend on the batch a
row is evaluated in.

Everything here is deterministic. An instance is not changed after
construction, except that `_edge_buffers` keeps `evaluate_batch`'s scratch
arrays on it and `generate_synthetic` sets its price box after building it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

import numpy as np

CODE_DTYPE = np.int16


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_field_kinds(obj) -> None:
    """Refuse a dataclass's `int` field that is no integer, or `float` field no number.

    Booleans are neither and NaN is no number; each class checks its own ranges.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and not is_integer(v):
            raise ValueError(f"{f.name} must be an integer, got {v!r}")
        if f.type == "float" and not (isinstance(v, (float, np.floating)) and v == v or is_integer(v)):
            raise ValueError(f"{f.name} must be a number, got {v!r}")


@dataclass(frozen=True)
class LandUse:
    """One land-use category; codes must be dense 0..K-1."""

    id: int
    name: str


@dataclass(frozen=True)
class Plot:
    """A parcel holding one building of `floor_count` floors.

    `actual_uses` is the as-built floor-use vector (length = floor_count);
    locked plots (schools, hospitals, ...) must keep it in every solution.
    """

    id: int
    floor_count: int
    total_floor_space: float
    neighbors: tuple[int, ...]
    locked: bool = False
    actual_uses: tuple[int, ...] = ()


class ProblemInstance:
    """Immutable bundle of plots, uses, matrices and constraint parameters.

    Construction validates the structural invariants (among them at
    least one plot, and K^f <= 2^62 for every plot of f floors, so a
    plot's base-K value fits int64) and precomputes the flat floor layout,
    the instance's `PlotCodec` (`codec`), the as-built map's plot values
    (`actual_values`) and its per-use areas, so that objective evaluation
    and constraint checks are single vectorized passes.
    """

    def __init__(
        self,
        plots: Sequence[Plot],
        uses: Sequence[LandUse],
        compat: np.ndarray,
        price: np.ndarray,
        gamma: float,
        mu: float,
        price_min: float,
        price_max: float,
    ):
        self.plots = tuple(plots)
        self.uses = tuple(uses)
        self.compat = np.asarray(compat, dtype=float)
        self.price = np.asarray(price, dtype=float)
        self.gamma = float(gamma)
        self.mu = float(mu)
        self.price_min = float(price_min)
        self.price_max = float(price_max)
        self._validate()
        self._precompute()

    def _validate(self) -> None:
        """Check every range invariant, naming the field's path in the file format."""
        n, k = len(self.plots), len(self.uses)
        if n == 0:
            raise ValueError("need at least one plot")
        if k < 2:
            raise ValueError("uses: need at least two land-use types")
        if [u.id for u in self.uses] != list(range(k)):
            raise ValueError("uses: ids must be dense 0..K-1 in order")
        if self.compat.shape != (k, k):
            raise ValueError(f"compat must be {k}x{k}, got {self.compat.shape}")
        if not np.all(np.isfinite(self.compat)):
            raise ValueError("compat entries must be finite")
        if self.price.shape != (n, k):
            raise ValueError(f"price must be {n}x{k}, got {self.price.shape}")
        if not np.all(np.isfinite(self.price) & (self.price >= 0)):
            raise ValueError("price entries must be finite and non-negative")
        if not self.gamma >= 0:  # negated so that NaN fails, as below
            raise ValueError("gamma must be >= 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must be in [0, 1]")
        if not self.price_min <= self.price_max:
            raise ValueError("price_min must be <= price_max")
        for i, p in enumerate(self.plots):
            path = f"plots[{i}]"
            if p.id != i:
                raise ValueError(f"{path}.id: must equal position {i}")
            if p.floor_count < 1:
                raise ValueError(f"{path}.floors: must be >= 1")
            if p.floor_count > 62 or k**p.floor_count > 2**62:
                raise ValueError(f"plot {i}: {p.floor_count} floors at K = {k} give K^f > 2^62")
            if not 0 < p.total_floor_space < np.inf:
                raise ValueError(f"{path}.floor_space: must be finite and > 0")
            if len(p.actual_uses) != p.floor_count:
                raise ValueError(f"{path}.actual_uses: length must equal floors")
            for t, code in enumerate(p.actual_uses):
                if not 0 <= code < k:
                    raise ValueError(f"{path}.actual_uses[{t}]: code outside 0..{k - 1}")
            for t, j in enumerate(p.neighbors):
                if not 0 <= j < n:
                    raise ValueError(f"{path}.neighbors[{t}]: no plot with id {j}")
                if j == i:
                    raise ValueError(f"{path}.neighbors[{t}]: self-neighborhood")

    def _precompute(self) -> None:
        n = len(self.plots)
        self.floor_counts = np.array([p.floor_count for p in self.plots], dtype=np.int64)
        self.floor_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.floor_counts, out=self.floor_offsets[1:])
        self.total_floors = int(self.floor_offsets[-1])
        self.floor_plot_index = np.repeat(np.arange(n, dtype=np.int64), self.floor_counts)
        self.floor_space = np.array([p.total_floor_space for p in self.plots], dtype=float)
        self.locked = np.array([p.locked for p in self.plots], dtype=bool)
        self.unlocked = ~self.locked
        self.unlocked_ids = np.flatnonzero(self.unlocked)
        # Ordered neighbor pairs exactly as stored; J(i) is never symmetrized.
        ei, ej = [], []
        for p in self.plots:
            ei.extend([p.id] * len(p.neighbors))
            ej.extend(p.neighbors)
        self.edge_i = np.array(ei, dtype=np.int64)
        self.edge_j = np.array(ej, dtype=np.int64)
        # Plot i lists the plots edge_j[out_ptr[i]:out_ptr[i+1]] (edges are
        # stored plot by plot), and is listed by in_nbrs[in_ptr[i]:in_ptr[i+1]].
        self.out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_i, minlength=n), out=self.out_ptr[1:])
        self.in_nbrs = self.edge_i[np.argsort(self.edge_j, kind="stable")]
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_j, minlength=n), out=self.in_ptr[1:])
        # Per floor of each plot: its floor space, and its price per use (K, N).
        self.area_per_floor = self.floor_space / self.floor_counts
        self.price_per_floor = np.ascontiguousarray((self.price / self.floor_counts[:, None]).T)
        self.actual_codes = np.concatenate(
            [np.asarray(p.actual_uses, dtype=CODE_DTYPE) for p in self.plots]
        )
        self.codec = PlotCodec(self)
        self.actual_values = self.codec.encode_rows(self.actual_codes)[0]
        stats = evaluate_batch(self, self.actual_values[None, :])
        self.actual_areas = stats.areas[0]
        # The as-built map's (compatibility, price), the row layout of `Population.objectives()`.
        self.actual_objectives = np.array([stats.compatibility[0], stats.price[0]])
        # Normalizer of the area violation: the as-built areas (a zero area
        # falls back to the mean positive one); `price_scale` is the price's.
        positive = self.actual_areas[self.actual_areas > 0]
        fallback = positive.mean() if positive.size else 1.0
        self.area_scale = np.where(self.actual_areas > 0, self.actual_areas, fallback)
        # Work estimates for evaluate_near, in values read; both paths read
        # plot values and count-table rows, never floors. A full pass per
        # row: per plot its value and four K-wide arrays (counts, shares,
        # areas, weighted areas), per edge its two K-wide ends and their K
        # products. A delta step per changed plot: its value in both rows,
        # five K-wide arrays (both counts, their change, its price and area
        # terms) and two K x K products, and per edge end touching it five
        # index values and three K-wide arrays (counts, areas, their sums).
        k = self.n_uses
        ends = np.diff(self.out_ptr) + np.diff(self.in_ptr)
        self.full_row_work = n * (4 * k + 1) + 3 * k * len(self.edge_i)
        self.plot_delta_work = 2 + 5 * k + 2 * k * k + (3 * k + 5) * ends

    @property
    def n_plots(self) -> int:
        return len(self.plots)

    @property
    def price_scale(self) -> float:
        """Normalizer of the price violation: the price box width, read when it is needed."""
        span = self.price_max - self.price_min
        if span <= 0 or not np.isfinite(span):
            span = max(abs(self.price_max), 1.0) if np.isfinite(self.price_max) else 1.0
        return span

    @property
    def n_uses(self) -> int:
        return len(self.uses)


# PlotCodec's digit table holds at most this many rows (K^w <= 8192).
_TABLE_ROWS = 8192


class PlotCodec:
    """Vectorized base-K codec for an instance's plot values.

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

    The count table beside it holds, in row v, how many of v's w digits
    equal each use (kept transposed too, for `plot_use_counts`). A plot's
    per-use floor counts are the sum of its chunks' rows, less the
    chunks * w - f leading zero digits on use 0.
    """

    def __init__(self, inst: ProblemInstance):
        self.base = inst.n_uses
        self._starts = inst.floor_offsets[:-1]
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
        counts = [(self._table == m).sum(axis=1, dtype=CODE_DTYPE) for m in range(self.base)]
        self._counts = np.stack(counts, axis=1)
        self._counts_by_use = np.stack(counts)
        self._chunks = -(-tallest // width)
        self._pad = self._chunks * width - inst.floor_counts
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
        return np.add.reduceat(weighted, self._starts, axis=1)

    def decode_rows(self, values: np.ndarray) -> np.ndarray:
        """(B, N) per-plot integers -> (B, total_floors) code rows."""
        values = np.atleast_2d(values)
        digits = self._table.take(self._chunk_rows(values), axis=0)  # (B, N, chunks, w)
        flat = digits.reshape(len(values), values.shape[1] * self._chunks * self._width)
        return flat.take(self._columns, axis=1)

    def use_counts(self, values: np.ndarray) -> np.ndarray:
        """(..., N, K) floors per use of each plot value in (..., N) `values`."""
        if self._chunks == 1:
            counts = self._counts.take(values, axis=0)
        else:
            counts = self._counts.take(self._chunk_rows(values), axis=0).sum(axis=-2)
        counts[..., 0] -= self._pad
        return counts

    def plot_use_counts(self, values: np.ndarray, plots: np.ndarray) -> np.ndarray:
        """(K, P) floors per use of plot plots[p] holding values[p], one row per use.

        It reads the transposed count table one chunk at a time, so each
        use's counts are contiguous.
        """
        span = self.base**self._width
        table, last = self._counts_by_use, self._chunks - 1
        counts = table.take(values % span if last else values, axis=1)
        for c in range(1, self._chunks):
            values = values // span
            counts += table.take(values % span if c < last else values, axis=1)
        counts[0] -= self._pad[plots]
        return counts

    def _chunk_rows(self, values: np.ndarray) -> np.ndarray:
        """(..., chunks) table rows of each value's w-digit chunks, least significant first."""
        span = self.base**self._width
        chunks = np.empty(values.shape + (self._chunks,), dtype=np.int64)
        for c in range(self._chunks - 1):
            chunks[..., c] = values % span
            values = values // span
        chunks[..., -1] = values
        return chunks

    def clamp(self, values: np.ndarray | int, steps: np.ndarray, plots: np.ndarray | None = None) -> np.ndarray:
        """`values` plus the integral float `steps`, clamped into [0, K^f - 1].

        `values` (or the scalar 0) and `steps` are (B, N), or 1-D with
        `plots` giving each entry's plot. The sum is exact int64 arithmetic. A step beyond
        +-2^62 is cut there first, which moves no result and keeps int64
        from overflowing.
        """
        limits = self.max_values if plots is None else self.max_values[plots]
        steps = np.minimum(np.maximum(steps, -(2.0**62)), 2.0**62).astype(np.int64)
        return values + np.minimum(np.maximum(steps, -values), limits - values)


@dataclass(eq=False)
class BatchStats:
    """Evaluated value rows, one array per column with a row per map.

    `engines.Population` extends it with the rows' plot values and search state;
    `take` and `concat` act on every column its class's `columns` gets.
    """

    compatibility: np.ndarray  # (B,)
    price: np.ndarray  # (B,)
    areas: np.ndarray  # (B, K) floor area per use
    changed: np.ndarray  # (B,) plots differing from actual

    def take(self, idx) -> "BatchStats":
        """Rows `idx` (an index array) of every column, as a new object of this type."""
        return type(self)(*[column[idx] for column in self.columns(self)])

    def concat(self, *others: "BatchStats") -> "BatchStats":
        return type(self)(*map(np.concatenate, zip(*map(self.columns, (self,) + others))))


# An object's columns as a tuple, in constructor order; a subclass sets its own.
BatchStats.columns = attrgetter(*(f.name for f in fields(BatchStats)))


# Rows per evaluation block: about 2^17 per-plot values (rows x N x K), so a
# block's (N, B, K) arrays stay cache-sized; 33 rows at 1,290 plots x 3 uses.
_BLOCK_VALUES = 1 << 17

# Edges per chunk of the compatibility stage: a chunk's two (C, B, K) edge
# gathers take 2 x 400 KB at 33 rows x 3 uses, so they stay in L2.
_EDGE_CHUNK = 512


def evaluate_batch(inst: ProblemInstance, values: np.ndarray) -> BatchStats:
    """Evaluate a (B, N) batch of plot-value rows.

    Returns both objectives plus the per-use areas and changed-plot counts
    needed by the constraint masks. With x[i, m] the share of plot i's
    floors holding use m and F[i] its floor space:

    * compatibility sums C[l, m] * x[i, l] * x[j, m] * F[i] * F[j] over
      every stored ordered neighbor pair (i, j) and every use pair (l, m);
    * price sums P[i, m] * x[i, m] over plots and uses;
    * areas[m] sums x[i, m] * F[i] over plots;
    * changed counts the plots whose values differ from the as-built map.

    x[i] is plot i's per-use floor counts (`PlotCodec.use_counts`) over
    f_i. Values are not range-checked: a value outside [0, K^f) is counted
    as some other map's or raises, so maps read from outside the program
    are checked as codes first with `codes_in_range_mask`.

    Rows are evaluated in blocks of about 2^17 per-plot values each (33
    rows at 1,290 plots x 3 uses), and never in a 1-row block: a trailing
    single row joins the block before it, and a 1-row batch is evaluated
    as a block of that row twice. Inside a block, the compatibility
    stage runs over chunks of 512 edges: each chunk gathers both edge
    ends into two small buffers and writes its per-edge contributions
    into an (E, B) array. These three buffers are kept on the instance,
    sized for the tallest block so far, and reused by every block; no
    returned array is a view of them.

    Summation order: in a block of 2 or more rows, each row's
    compatibility adds the per-edge contributions one by one in stored
    edge order, and its per-plot products do not depend on the block's
    height, so a row's values do not depend on its block or batch, bit
    for bit. A 1-row block would differ in the last bits: numpy sums a
    contiguous column pairwise, and (seen with 6 uses) a single row's
    per-plot products can round differently too.
    """
    values = np.atleast_2d(values)
    b = values.shape[0]
    if values.shape[1] != inst.n_plots:
        raise ValueError(f"expected {inst.n_plots} plot values per row, got {values.shape[1]}")
    if b == 1:
        return BatchStats(*(f[:1] for f in _evaluate_block(inst, np.repeat(values, 2, axis=0))))
    step = max(2, _BLOCK_VALUES // (inst.n_plots * inst.n_uses))
    bounds = list(range(0, max(b, 1), step)) + [b]  # an empty batch is one empty block
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    blocks = [_evaluate_block(inst, values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if len(blocks) == 1:
        return BatchStats(*blocks[0])
    return BatchStats(*map(np.concatenate, zip(*blocks)))


def _edge_buffers(inst: ProblemInstance, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two (C, b, K) gather buffers and the (E, b) contribution array.

    They are views of three flat arrays kept on the instance and
    reallocated only when a block is taller than any before it (at paper
    scale: 2, then 33, then 34 rows). Blocks can reach thousands of rows
    on small instances, so sizing them up front for the largest possible
    block would waste memory that small batches never touch.
    """
    e, k = len(inst.edge_i), inst.n_uses
    chunk = min(_EDGE_CHUNK, e)
    bufs = getattr(inst, "_edge_bufs", None)
    if bufs is None or len(bufs[2]) < e * b:
        bufs = (np.empty(chunk * b * k), np.empty(chunk * b * k), np.empty(e * b))
        inst._edge_bufs = bufs
    gather_i, gather_j, contrib = bufs
    size = chunk * b * k
    return (
        gather_i[:size].reshape(chunk, b, k),
        gather_j[:size].reshape(chunk, b, k),
        contrib[: e * b].reshape(e, b),
    )


def _evaluate_block(inst: ProblemInstance, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """BatchStats fields for one block of rows."""
    b = values.shape[0]
    counts = inst.codec.use_counts(values)
    props = counts / inst.floor_counts[None, :, None]
    del counts
    price = np.einsum("bnk,nk->b", props, inst.price)
    areas = np.multiply(props, inst.floor_space[None, :, None], out=props)  # (B, N, K)
    # Plot-major copy: both edge ends become contiguous (B, K) slabs, and
    # summing over plots along axis 0 adds them in the same order as a
    # batch-major sum over axis 1, bit for bit.
    plot_major = np.ascontiguousarray(areas.transpose(1, 0, 2))  # (N, B, K)
    del props, areas
    per_use_area = plot_major.sum(axis=0)
    e = len(inst.edge_i)
    if e:
        weighted = plot_major @ inst.compat
        gather_i, gather_j, contrib = _edge_buffers(inst, b)
        for lo in range(0, e, len(gather_i)):
            hi = min(lo + len(gather_i), e)
            ends_i, ends_j = gather_i[: hi - lo], gather_j[: hi - lo]
            # mode="clip" lets take() write straight into `out` (the
            # instance already checked every edge index).
            np.take(weighted, inst.edge_i[lo:hi], axis=0, out=ends_i, mode="clip")
            np.take(plot_major, inst.edge_j[lo:hi], axis=0, out=ends_j, mode="clip")
            np.einsum("ebk,ebk->eb", ends_i, ends_j, out=contrib[lo:hi])
        compatibility = contrib.sum(axis=0)
    else:
        compatibility = np.zeros(b)
    changed = (values != inst.actual_values).sum(axis=1)
    return compatibility, price, per_use_area, changed


# Work of one delta call beyond its rows (its fixed run of array calls), in
# the units of `ProblemInstance.full_row_work`: about one full row at paper
# scale. Batches whose full evaluation costs less never try the delta path.
# Fitted, with _DELTA_COST, on a 2-CPU x86-64 host (Python 3.11.7, numpy
# 2.4.6) over 43x30, 80x60, 25x20 and 12x10 grids with 2 to 6 uses: a delta
# call's fixed cost read 23k-91k units.
_DELTA_CALL_WORK = 1 << 16

# A delta step gathers its values one by one, a full pass streams them: a
# row takes the delta path only if its delta work times this is below the
# full pass's. Measured per value read, a delta step costs 0.8-1.7 times a
# full pass (more as a batch's changed plots outgrow the cache); with 2 the
# break-even on the 43x30 paper instance is about 215 changed plots.
_DELTA_COST = 2


def evaluate_near(
    inst: ProblemInstance,
    values: np.ndarray,
    base_values: np.ndarray,
    base: BatchStats,
    anchors: np.ndarray,
) -> BatchStats:
    """Evaluate (B, N) `values`, each row from its anchor where that is cheaper.

    `anchors[r]` is the row of `base_values` (scored as `base`) that row r
    keeps its unchanged plots from, or -1 if it has none. An anchored row
    whose delta step (`evaluate_delta`) is estimated to cost less than a
    full pass takes it; the other rows go through `evaluate_batch`. The
    estimate counts the values each path reads: per row of a full pass,
    every plot's value and use counts and both ends of every edge; per
    changed plot of a delta step, its use counts in both rows and, per
    edge touching it, the neighbour's value and use counts (it does not
    depend on floor counts). A batch whose full evaluation costs less than
    a delta call's fixed work (tiny instances) is evaluated in full.
    """
    values = np.atleast_2d(values)
    # Checked first on every row, anchored or not, so a small batch costs no index work.
    if len(values) * inst.full_row_work <= _DELTA_CALL_WORK:
        return evaluate_batch(inst, values)
    anchors = np.asarray(anchors)
    anchored = np.flatnonzero(anchors >= 0)
    mine = values if anchored.size == len(values) else values[anchored]
    changed = np.flatnonzero(mine != base_values.take(anchors[anchored], axis=0))
    pr, pp = np.divmod(changed, inst.n_plots)
    work = _DELTA_COST * np.bincount(pr, inst.plot_delta_work[pp], minlength=len(anchored))
    cheap = work < inst.full_row_work
    if (inst.full_row_work - work[cheap]).sum() <= _DELTA_CALL_WORK:
        return evaluate_batch(inst, values)
    keep = cheap[pr]
    rows = anchored[cheap]
    pr = (np.cumsum(cheap) - 1)[pr[keep]]  # the pairs of the cheap rows, renumbered
    near = _delta_stats(inst, values, base_values, base, rows, anchors[rows], pr, pp[keep])
    if len(rows) == len(values):
        return near
    full = np.setdiff1d(np.arange(len(values)), rows, assume_unique=True)
    both = near.concat(evaluate_batch(inst, values[full]))
    return both.take(np.argsort(np.concatenate([rows, full])))


def evaluate_delta(
    inst: ProblemInstance, values: np.ndarray, base_values: np.ndarray, base: BatchStats
) -> BatchStats:
    """BatchStats of `values` from `base`, the BatchStats of `base_values`, row for row.

    Only the plots where a row differs from its base row are read. With
    a_i plot i's per-use areas in the base row, a_i' in the new row and
    d_i = a_i' - a_i (zero on unchanged plots), each stored edge (i, j)
    moves the compatibility by d_i C a_j' + a_i C d_j: out-edges of the
    changed plots take the new row's neighbour areas and in-edges the base
    row's, so an edge between two changed plots is counted once in each
    term and neighbour lists need not be symmetric. Price, areas and the
    changed count move by the changed plots' differences. A row equal to
    its base returns the base values bit for bit; other rows agree with
    `evaluate_batch` to rounding.
    """
    values, base_values = np.atleast_2d(values), np.atleast_2d(base_values)
    rows = np.arange(len(values))
    pr, pp = np.nonzero(values != base_values)
    return _delta_stats(inst, values, base_values, base, rows, rows, pr, pp)


def _neighbour_areas(
    inst: ProblemInstance,
    values: np.ndarray,
    rows: np.ndarray,
    plots: np.ndarray,
    ptr: np.ndarray,
    nbrs: np.ndarray,
) -> np.ndarray:
    """(K, P) per-use areas in row rows[p], summed over plots[p]'s neighbours nbrs[ptr[p]:ptr[p+1]]."""
    starts, lengths = ptr[plots], ptr[plots + 1] - ptr[plots]
    owner = np.repeat(np.arange(len(plots)), lengths)
    ends = np.cumsum(lengths)
    j = nbrs[np.arange(len(owner)) + (starts - (ends - lengths))[owner]]
    v = values.reshape(-1).take(rows[owner] * inst.n_plots + j)
    areas = inst.codec.plot_use_counts(v, j) * inst.area_per_floor[j]
    return np.stack([np.bincount(owner, use, minlength=len(plots)) for use in areas])


def _delta_stats(
    inst: ProblemInstance,
    values: np.ndarray,
    base_values: np.ndarray,
    base: BatchStats,
    rows: np.ndarray,
    src: np.ndarray,
    pr: np.ndarray,
    pp: np.ndarray,
) -> BatchStats:
    """evaluate_delta of values[rows] against base_values[src] (scored in `base`).

    The changed plots are pp, in row rows[pr] (pr ascending). Work runs
    on (K, P) arrays, one contiguous row per use. A changed plot's area
    change d is its count change times its floor space per floor, and its
    neighbours' areas are summed before the K x K products, so the
    compatibility moves by d . (C s_out + C^T s_in), with s_out the new
    row's areas of the plots it lists and s_in the base row's areas of
    the plots listing it.
    """
    # base's evaluation columns (base may be a Population), copied: they are updated in place
    out = BatchStats(*[column[src] for column in BatchStats.columns(base)])
    if not pr.size:
        return out
    n = inst.n_plots
    new_rows, base_rows = rows[pr], src[pr]
    new_v = values.reshape(-1).take(new_rows * n + pp)
    old_v = base_values.reshape(-1).take(base_rows * n + pp)
    d_counts = inst.codec.plot_use_counts(new_v, pp) - inst.codec.plot_use_counts(old_v, pp)
    d_counts = d_counts.astype(float)
    d_price = np.einsum("kp,kp->p", d_counts, inst.price_per_floor[:, pp])
    d_areas = d_counts * inst.area_per_floor[pp]
    s_out = _neighbour_areas(inst, values, new_rows, pp, inst.out_ptr, inst.edge_j)
    s_in = _neighbour_areas(inst, base_values, base_rows, pp, inst.in_ptr, inst.in_nbrs)
    d_comp = np.einsum("kp,kp->p", d_areas, inst.compat @ s_out + inst.compat.T @ s_in)
    actual = inst.actual_values[pp]
    starts = np.flatnonzero(np.concatenate(([True], pr[1:] != pr[:-1])))
    touched = pr[starts]
    out.compatibility[touched] += np.add.reduceat(d_comp, starts)
    out.price[touched] += np.add.reduceat(d_price, starts)
    out.areas[touched] += np.add.reduceat(d_areas, starts, axis=1).T
    out.changed[touched] += np.add.reduceat(
        (new_v != actual).astype(np.int64) - (old_v != actual), starts
    )
    return out


def area_band(inst: ProblemInstance, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Constraint 3's per-use bounds: (1 -/+ gamma) times the as-built areas."""
    return (1.0 - gamma) * inst.actual_areas, (1.0 + gamma) * inst.actual_areas


def area_band_mask(inst: ProblemInstance, areas: np.ndarray, gamma: float) -> np.ndarray:
    """Constraint 3 per row of (..., K) `areas`: every use's area inside the band."""
    lo, hi = area_band(inst, gamma)
    return (areas >= lo).all(axis=-1) & (areas <= hi).all(axis=-1)


def price_box_mask(inst: ProblemInstance, price: np.ndarray) -> np.ndarray:
    """Constraint 4 per price: total price within [price_min, price_max]."""
    return (price >= inst.price_min) & (price <= inst.price_max)


def codes_in_range_mask(inst: ProblemInstance, codes: np.ndarray) -> np.ndarray:
    """Per row of (B, total_floors) `codes`: every floor-use code in [0, K)."""
    return ((codes >= 0) & (codes < inst.n_uses)).all(axis=1)


def locked_kept_mask(inst: ProblemInstance, values: np.ndarray) -> np.ndarray:
    """Per row of (B, N) plot `values`: every locked plot keeps its as-built value."""
    return (values[:, inst.locked] == inst.actual_values[inst.locked]).all(axis=1)


def plot_budget_mask(inst: ProblemInstance, changed: np.ndarray, mu: float) -> np.ndarray:
    """Constraint 5 per changed-plot count: at most mu * N (soft guide)."""
    return changed <= mu * inst.n_plots + 1e-9
