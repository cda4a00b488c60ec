"""Nonparametric comparison of algorithms over repeated runs.

Kruskal-Wallis omnibus test (mid-rank ties, standard tie correction),
Dunn's pairwise z-tests with Bonferroni adjustment, and a compact letter
display built by insert-and-absorb so that two algorithms share a letter
iff their pairwise difference is not significant.

Self-contained: the chi-square upper tail takes the closed form of the
regularized upper incomplete gamma at the integer degrees of freedom
Kruskal-Wallis uses, and the normal tail comes from math.erfc, so nothing
beyond numpy is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class SampleGroup:
    """One algorithm's metric values, one entry per run."""

    label: str
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError(f"group {self.label!r} is empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"group {self.label!r} has non-finite values")


class KruskalWallisResult(NamedTuple):
    H: float
    df: int
    p: float


@dataclass(frozen=True)
class PairwiseResult:
    pair: tuple[str, str]
    z_statistic: float
    p_raw: float
    p_adjusted: float
    significant: bool


@dataclass(frozen=True)
class CldAssignment:
    """Letters per label; labels sharing a letter are not significantly different."""

    order: tuple[str, ...]
    letters: dict[str, str]
    letter_sets: dict[str, frozenset[int]]
    consistent: bool

    def shares_letter(self, a: str, b: str) -> bool:
        return bool(self.letter_sets[a] & self.letter_sets[b])


# ---------------------------------------------------------------------------
# special functions


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) for an integer df >= 1, in closed form.

    With h = x/2: e^-h * sum_{k < df/2} h^k / k! for even df, erfc(sqrt(h)) +
    e^-h * sum_{k=1}^{(df-1)/2} h^(k-1/2) / Gamma(k+1/2) for odd df; no term is negative.
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if x <= 0:
        return 1.0
    h, odd = x / 2.0, df % 2
    tail = math.erfc(math.sqrt(h)) if odd else 0.0
    term = math.sqrt(h) / math.gamma(1.5) if odd else 1.0
    total = 0.0
    for k in range(int(df) // 2):
        total += term
        term *= h / (k + 1 + odd / 2)
    half = math.exp(-h / 2.0)  # e^-h in two factors stays a normal float up to h ~ 1400
    return min(1.0, tail + half * (half * total))


def normal_sf_two_sided(z: float) -> float:
    """Two-sided standard normal tail 2 * P(Z >= |z|)."""
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# rank machinery


def _pooled(groups: Sequence[SampleGroup]) -> tuple[int, list[np.ndarray], float]:
    """Pooled size, each group's mid-ranks in the pooled data, and the sum of
    t^3 - t over its tie groups.

    A tie group of t values ending at cumulative count c spans ranks
    c - t + 1 .. c, so its mid-rank is c - (t - 1) / 2.
    """
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        raise ValueError("group labels must be unique")
    pooled = np.concatenate([np.asarray(g.values, dtype=float) for g in groups])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    t = counts.astype(float)
    ranks = (np.cumsum(t) - (t - 1.0) / 2.0)[inverse]
    splits = np.cumsum([len(g.values) for g in groups])[:-1]
    return len(pooled), np.split(ranks, splits), float((t**3 - t).sum())


def kruskal_wallis(groups: Sequence[SampleGroup]) -> KruskalWallisResult:
    """Kruskal-Wallis H with mid-rank ties and the usual tie correction.

    All-identical data collapses the tie divisor to zero; that case is
    reported as H = 0, p = 1 rather than an error.
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    n, group_ranks, ties = _pooled(groups)
    df = len(groups) - 1
    h = 12.0 / (n * (n + 1)) * sum(
        r.sum() ** 2 / len(r) for r in group_ranks
    ) - 3.0 * (n + 1)
    divisor = 1.0 - ties / (n**3 - n)
    if divisor <= 0.0:
        return KruskalWallisResult(0.0, df, 1.0)
    h = max(h / divisor, 0.0)
    return KruskalWallisResult(h, df, chi2_sf(h, df))


def dunn_posthoc(groups: Sequence[SampleGroup], alpha: float = 0.05) -> list[PairwiseResult]:
    """Bonferroni-adjusted Dunn z-tests on every unordered pair of groups."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if len(groups) < 2:
        return []
    n, group_ranks, ties = _pooled(groups)
    mean_ranks = [r.mean() for r in group_ranks]
    sizes = [len(r) for r in group_ranks]
    var_term = n * (n + 1) / 12.0 - ties / (12.0 * (n - 1))
    n_pairs = len(groups) * (len(groups) - 1) // 2
    out = []
    for i, j in combinations(range(len(groups)), 2):
        scale = var_term * (1.0 / sizes[i] + 1.0 / sizes[j])
        z = (mean_ranks[i] - mean_ranks[j]) / math.sqrt(scale) if scale > 0 else 0.0
        p_raw = normal_sf_two_sided(z)
        p_adj = min(1.0, p_raw * n_pairs)
        out.append(
            PairwiseResult(
                pair=(groups[i].label, groups[j].label),
                z_statistic=z,
                p_raw=p_raw,
                p_adjusted=p_adj,
                significant=p_adj <= alpha,
            )
        )
    return out


# ---------------------------------------------------------------------------
# compact letter display


def _letter(k: int) -> str:
    out = ""
    k += 1
    while k:
        k, rem = divmod(k - 1, 26)
        out = chr(ord("a") + rem) + out
    return out


def compact_letter_display(
    pairwise: Sequence[PairwiseResult], order: Sequence[str]
) -> CldAssignment:
    """Insert-and-absorb letter assignment from pairwise significance.

    `order` ranks the labels best first (by group median in our reports).
    Starting from one column holding every label, each significant pair
    splits the columns containing both members, and columns absorbed by a
    superset are dropped; the surviving columns become the letters.
    """
    labels = list(order)
    known = set(labels)
    seen = set()
    for res in pairwise:
        a, b = res.pair
        if a not in known or b not in known:
            raise ValueError(f"pairwise result for unknown label {res.pair}")
        seen.add(frozenset((a, b)))
    for a, b in combinations(labels, 2):
        if frozenset((a, b)) not in seen:
            raise ValueError(f"missing pairwise result for ({a}, {b})")

    columns: list[frozenset[str]] = [frozenset(labels)]
    for res in pairwise:
        if not res.significant:
            continue
        a, b = res.pair
        nxt: list[frozenset[str]] = []
        for col in columns:
            if a in col and b in col:
                nxt.append(col - {a})
                nxt.append(col - {b})
            else:
                nxt.append(col)
        # absorb: drop empties, duplicates and strict subsets
        uniq: list[frozenset[str]] = []
        for c in nxt:
            if c and c not in uniq:
                uniq.append(c)
        columns = [c for c in uniq if not any(c < d for d in uniq)]

    pos = {lab: k for k, lab in enumerate(labels)}
    columns.sort(key=lambda col: tuple(sorted(pos[lab] for lab in col)))
    letter_sets = {lab: set() for lab in labels}
    for idx, col in enumerate(columns):
        for lab in col:
            letter_sets[lab].add(idx)
    letters = {
        lab: "".join(_letter(i) for i in sorted(ids)) for lab, ids in letter_sets.items()
    }
    sig = {frozenset(r.pair) for r in pairwise if r.significant}
    consistent = not any(  # a shared letter exactly where a difference is not significant
        bool(letter_sets[a] & letter_sets[b]) == (frozenset((a, b)) in sig)
        for a, b in combinations(labels, 2)
    )
    return CldAssignment(
        order=tuple(labels),
        letters=letters,
        letter_sets={lab: frozenset(ids) for lab, ids in letter_sets.items()},
        consistent=consistent,
    )
