import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import gammaincc

from landalloc.stats import (
    PairwiseResult,
    SampleGroup,
    _pooled,
    chi2_sf,
    compact_letter_display,
    dunn_posthoc,
    kruskal_wallis,
    normal_sf_two_sided,
)


def groups(*vals):
    return [SampleGroup(chr(ord("A") + k), tuple(v)) for k, v in enumerate(vals)]


class TestChi2Tail:
    def test_matches_scipy_gammaincc(self):
        for df in range(1, 40):
            for x in (1e-6, 0.01, 0.5, 1.0, 3.857, 10.0, 45.0, 120.0, 600.0, 1400.0):
                mine = chi2_sf(x, df)
                ref = float(gammaincc(df / 2, x / 2))
                assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_edge_values(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        assert 0.0 <= chi2_sf(1e6, 1) <= 1e-12

    def test_normal_tail_matches_scipy(self):
        for z in (0.0, 0.5, 1.96396, 3.2, -2.5):
            assert normal_sf_two_sided(z) == pytest.approx(
                2 * sps.norm.sf(abs(z)), rel=1e-12
            )


class TestKruskalWallis:
    def test_hand_case(self):
        h, df, p = kruskal_wallis(groups([1, 2, 3], [4, 5, 6]))
        assert h == pytest.approx(3.857, abs=0.001)
        assert df == 1
        assert 0.048 <= p <= 0.051

    def test_identical_groups(self):
        h, df, p = kruskal_wallis(groups([1, 2, 3], [1, 2, 3]))
        assert h == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_all_constant_degenerate_divisor(self):
        h, df, p = kruskal_wallis(groups([5, 5], [5, 5], [5, 5]))
        assert h == 0.0
        assert p == 1.0
        assert df == 2

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            vals = [rng.integers(0, 6, size=int(rng.integers(3, 8))).tolist() for _ in range(3)]
            if len({v for g in vals for v in g}) == 1:
                continue
            h, df, p = kruskal_wallis(groups(*vals))
            ref = sps.kruskal(*vals)
            assert h == pytest.approx(ref.statistic, rel=1e-10, abs=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_midranks_and_ties_match_counting_reference(self):
        # mid-rank of v = #(values < v) + (#(values == v) + 1) / 2
        rng = np.random.default_rng(3)
        for _ in range(200):
            vals = rng.integers(0, rng.integers(1, 6), size=rng.integers(2, 30)).astype(float)
            cut = int(rng.integers(1, len(vals)))
            n, (ra, rb), ties = _pooled(groups(vals[:cut], vals[cut:]))
            ref = [(vals < v).sum() + ((vals == v).sum() + 1) / 2 for v in vals]
            assert n == len(vals)
            assert np.concatenate([ra, rb]).tolist() == ref
            counts = np.unique(vals, return_counts=True)[1]
            assert ties == sum(float(t) ** 3 - t for t in counts)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        vals = [rng.random(5).tolist() for _ in range(3)]
        h1, _, p1 = kruskal_wallis(groups(*vals))
        squashed = [[math.atan(9 * v + 2) for v in g] for g in vals]
        h2, _, p2 = kruskal_wallis(groups(*squashed))
        assert h1 == pytest.approx(h2, rel=1e-12)
        assert p1 == pytest.approx(p2, rel=1e-12)

    def test_group_permutation_consistency(self):
        vals = [[1.0, 5.0, 2.0], [4.0, 8.0], [0.5, 0.7, 0.9, 3.0]]
        h1, _, _ = kruskal_wallis(groups(*vals))
        h2, _, _ = kruskal_wallis(groups(vals[2], vals[0], vals[1]))
        assert h1 == pytest.approx(h2, rel=1e-12)

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            kruskal_wallis(groups([1, 2, 3]))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            SampleGroup("A", ())


class TestDunn:
    def test_hand_case_z_and_significance(self):
        res = dunn_posthoc(groups([1, 2, 3], [4, 5, 6]), alpha=0.05)
        assert len(res) == 1
        r = res[0]
        expected_z = (2.0 - 5.0) / math.sqrt((6 * 7 / 12) * (1 / 3 + 1 / 3))
        assert r.z_statistic == pytest.approx(expected_z, rel=1e-12)
        assert r.p_adjusted == pytest.approx(r.p_raw, rel=1e-12)  # one pair
        assert r.significant  # p ~ 0.0495 <= 0.05

    def test_identical_groups_z_zero(self):
        res = dunn_posthoc(groups([1, 2, 3], [1, 2, 3]), alpha=0.05)
        assert res[0].z_statistic == pytest.approx(0.0, abs=1e-12)
        assert res[0].p_adjusted == 1.0
        assert not res[0].significant

    def test_three_groups_bonferroni_factor(self):
        res = dunn_posthoc(groups([1, 2], [3, 4], [5, 6]), alpha=0.05)
        assert len(res) == 3
        for r in res:
            assert r.p_adjusted == pytest.approx(min(1.0, 3 * r.p_raw), rel=1e-12)

    def test_single_group_empty_result(self):
        assert dunn_posthoc(groups([1, 2, 3]), alpha=0.05) == []

    def test_bonferroni_never_decreases_p(self):
        rng = np.random.default_rng(8)
        vals = [rng.random(5).tolist() for _ in range(4)]
        for r in dunn_posthoc(groups(*vals), alpha=0.05):
            assert r.p_adjusted >= r.p_raw - 1e-15
            assert 0.0 <= r.p_raw <= 1.0
            assert 0.0 <= r.p_adjusted <= 1.0


def _pairwise_from_sig(labels, sig_pairs):
    out = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            pair = (labels[i], labels[j])
            sig = frozenset(pair) in sig_pairs
            out.append(
                PairwiseResult(pair, 3.0 if sig else 0.1, 0.001 if sig else 0.9,
                               0.003 if sig else 1.0, sig)
            )
    return out


class TestCld:
    def test_hand_case_chain(self):
        labels = ["A", "B", "C"]
        pairwise = _pairwise_from_sig(labels, {frozenset(("A", "C"))})
        cld = compact_letter_display(pairwise, labels)
        assert cld.letters == {"A": "a", "B": "ab", "C": "b"}
        assert cld.consistent

    def test_no_significant_pairs_single_letter(self):
        labels = ["A", "B", "C", "D"]
        cld = compact_letter_display(_pairwise_from_sig(labels, set()), labels)
        assert set(cld.letters.values()) == {"a"}
        assert cld.consistent

    def test_all_significant_distinct_letters(self):
        labels = ["A", "B", "C"]
        sig = {frozenset(p) for p in [("A", "B"), ("A", "C"), ("B", "C")]}
        cld = compact_letter_display(_pairwise_from_sig(labels, sig), labels)
        assert sorted(cld.letters.values()) == ["a", "b", "c"]
        assert cld.consistent

    def test_missing_pair_rejected(self):
        labels = ["A", "B", "C"]
        pairwise = _pairwise_from_sig(labels, set())[:-1]
        with pytest.raises(ValueError, match="missing pairwise"):
            compact_letter_display(pairwise, labels)

    def test_share_iff_not_significant_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = int(rng.integers(2, 7))
            labels = [chr(ord("A") + i) for i in range(k)]
            sig = {
                frozenset((labels[i], labels[j]))
                for i in range(k)
                for j in range(i + 1, k)
                if rng.random() < 0.4
            }
            cld = compact_letter_display(_pairwise_from_sig(labels, sig), labels)
            if not cld.consistent:
                continue  # flagged best-effort cases are excluded
            for i in range(k):
                for j in range(i + 1, k):
                    share = cld.shares_letter(labels[i], labels[j])
                    assert share == (frozenset((labels[i], labels[j])) not in sig)

    def test_every_label_gets_a_letter(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            labels = [str(i) for i in range(k)]
            sig = {
                frozenset((labels[i], labels[j]))
                for i in range(k)
                for j in range(i + 1, k)
                if rng.random() < 0.6
            }
            cld = compact_letter_display(_pairwise_from_sig(labels, sig), labels)
            assert all(cld.letters[l] for l in labels)
