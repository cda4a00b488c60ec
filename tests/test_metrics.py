import math

import numpy as np
import pytest

from landalloc.metrics import (
    NormalizationBounds,
    flip_for_minimization,
    gd,
    gd_plus,
    hypervolume_2d,
    igd,
    igd_plus,
    indicator_suite,
    normalize,
    pareto_filter,
    pareto_indices,
)

from oracles import naive_pareto_set


class TestNormalize:
    def test_bounds_corners(self):
        b = NormalizationBounds(np.array([1.0, 10.0]), np.array([3.0, 20.0]))
        assert normalize(np.array([[1.0, 10.0]]), b).tolist() == [[0.0, 0.0]]
        assert normalize(np.array([[3.0, 20.0]]), b).tolist() == [[1.0, 1.0]]
        assert normalize(np.array([[2.0, 15.0]]), b).tolist() == [[0.5, 0.5]]

    def test_degenerate_span_maps_to_half(self):
        b = NormalizationBounds(np.array([1.0, 5.0]), np.array([1.0, 6.0]))
        out = normalize(np.array([[1.0, 5.5]]), b)
        assert out.tolist() == [[0.5, 0.5]]


class TestHypervolume:
    def test_single_rectangle(self):
        assert hypervolume_2d(np.array([[0.5, 0.5]])) == 0.25

    def test_two_point_strips(self):
        # exact rational arithmetic on the float inputs gives a value one
        # ulp above double(0.44), so "exact" means within one ulp here
        assert hypervolume_2d(np.array([[1.0, 0.2], [0.4, 0.8]])) == pytest.approx(
            0.44, abs=1e-15
        )

    def test_dominated_point_adds_nothing(self):
        base = hypervolume_2d(np.array([[1.0, 0.2], [0.4, 0.8]]))
        more = hypervolume_2d(np.array([[1.0, 0.2], [0.4, 0.8], [0.3, 0.7]]))
        assert base == more

    def test_duplicates_add_nothing(self):
        assert hypervolume_2d(np.array([[0.5, 0.5], [0.5, 0.5]])) == 0.25

    def test_monotone_under_new_nondominated_point(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pts = rng.random((6, 2))
            hv = hypervolume_2d(pts)
            extra = rng.random(2)
            hv2 = hypervolume_2d(np.vstack([pts, extra[None, :]]))
            assert hv2 >= hv - 1e-15

    def test_point_below_reference_rejected(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.array([[0.5, -0.1]]))

    def test_empty_front_is_zero(self):
        assert hypervolume_2d(np.zeros((0, 2))) == 0.0

    def test_equals_strip_loop_bit_for_bit(self):
        def strip_loop(front, ref):
            strips, prev_x = [], ref[0]
            for x, y in pareto_filter(front):
                strips.append((x - prev_x) * (y - ref[1]))
                prev_x = x
            return math.fsum(strips)

        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            front = rng.random((n, 2))
            if rng.random() < 0.5:  # duplicates and shared coordinates
                front = np.round(front, 1)
            ref = rng.random(2) * front.min(axis=0)
            assert hypervolume_2d(front, ref) == strip_loop(front, ref)


class TestParetoFilter:
    def test_hand_case(self):
        pts = np.array([[2.0, 2.0], [1.0, 1.0], [0.5, 2.5]])
        out = pareto_filter(pts)
        assert set(map(tuple, out)) == {(2.0, 2.0), (0.5, 2.5)}

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pts = rng.integers(0, 8, size=(40, 2)).astype(float)
            assert set(map(tuple, pareto_filter(pts))) == naive_pareto_set(pts)

    def test_indices_unique_ascending_first_objective(self):
        pts = np.array([[1.0, 3.0], [3.0, 1.0], [1.0, 3.0], [2.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        assert pareto_indices(pts).tolist() == [0, 3, 1]  # of equal points, the first
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.integers(0, 8, size=(40, 2)).astype(float)
            idx = pareto_indices(pts)
            assert np.all(np.diff(pts[idx, 0]) > 0)
            assert set(map(tuple, pts[idx])) == naive_pareto_set(pts)


class TestDistanceIndicators:
    def test_gd_zero_when_subset(self):
        z = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        assert gd(z[:2], z) == 0.0

    def test_gd_single_euclidean(self):
        assert gd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0

    def test_gd_matches_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.random((8, 2))
            z = rng.random((5, 2))
            expected = (
                sum(min(np.hypot(*(ai - zi)) for zi in z) ** 2 for ai in a) ** 0.5
            ) / len(a)
            assert gd(a, z) == pytest.approx(expected, abs=1e-12)

    def test_gd_plus_clamp_hand_case(self):
        # minimization orientation: a=(2,2) vs z=(1,3) -> d+ = ||(1,0)|| = 1
        assert gd_plus(np.array([[2.0, 2.0]]), np.array([[1.0, 3.0]])) == 1.0

    def test_gd_plus_zero_when_dominated_by_reference(self):
        assert gd_plus(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]])) == 0.0

    def test_gd_plus_never_exceeds_gd(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a = rng.random((6, 2)) * 4
            z = rng.random((4, 2)) * 4
            assert gd_plus(a, z) <= gd(a, z) + 1e-12

    def test_igd_hand_case(self):
        z = np.array([[0.0, 0.0], [1.0, 1.0]])
        a = np.array([[0.0, 0.0]])
        assert igd(z, a) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_igd_zero_when_covered(self):
        z = np.array([[0.2, 0.4], [0.6, 0.1]])
        a = np.vstack([z, [[0.9, 0.9]]])
        assert igd(z, a) == 0.0

    def test_igd_plus_never_exceeds_igd(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = rng.random((5, 2))
            z = rng.random((7, 2))
            assert igd_plus(z, a) <= igd(z, a) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.random((6, 2))
        z = rng.random((4, 2))
        shift = np.array([13.7, -2.9])
        for fn, first, second in [(gd, a, z), (gd_plus, a, z), (igd, z, a), (igd_plus, z, a)]:
            assert fn(first, second) == pytest.approx(
                fn(first + shift, second + shift), rel=1e-12, abs=1e-12
            )

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            gd(np.zeros((0, 2)), np.array([[1.0, 1.0]]))


class TestCombineFronts:
    """The union of fronts, filtered: how the report builds its reference set."""

    def test_single_front_prunes_internal_dominated(self):
        out = pareto_filter(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert out.tolist() == [[2.0, 2.0]]

    def test_disjoint_nondominated_union(self):
        out = pareto_filter(np.vstack([[[0.0, 3.0]], [[3.0, 0.0]]]))
        assert set(map(tuple, out)) == {(0.0, 3.0), (3.0, 0.0)}

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            fronts = [rng.integers(0, 6, size=(10, 2)).astype(float) for _ in range(3)]
            allpts = np.vstack(fronts)
            out = pareto_filter(allpts)
            assert set(map(tuple, out)) == naive_pareto_set(allpts)

    def test_output_mutually_nondominated(self):
        rng = np.random.default_rng(8)
        out = pareto_filter(rng.random((30, 2)))
        assert set(map(tuple, out)) == naive_pareto_set(out)


class TestIndicatorSuite:
    def test_flip_is_involution(self):
        pts = np.random.default_rng(9).random((5, 2))
        assert np.allclose(flip_for_minimization(flip_for_minimization(pts)), pts)

    def test_front_equal_to_reference_has_zero_distances(self):
        pts = np.array([[3.0, 100.0], [5.0, 60.0]])
        # the universe includes a baseline point below the front, as the
        # report pipeline always adds the actual land-use point
        bounds = NormalizationBounds.from_points(np.vstack([pts, [[1.0, 40.0]]]))
        suite = indicator_suite(pts, pts, bounds)
        assert suite["gd"] == 0.0
        assert suite["igd"] == 0.0
        assert suite["gd_plus"] == 0.0
        assert suite["hv"] > 0.0

    def test_dominating_front_scores_higher_hv(self):
        better = np.array([[4.0, 4.0], [5.0, 3.0]])
        worse = np.array([[2.0, 2.0], [3.0, 1.0]])
        universe = np.vstack([better, worse, [[0.0, 0.0]]])
        bounds = NormalizationBounds.from_points(universe)
        ref = pareto_filter(np.vstack([better, worse]))
        s_better = indicator_suite(better, ref, bounds)
        s_worse = indicator_suite(worse, ref, bounds)
        assert s_better["hv"] > s_worse["hv"]
        assert s_better["igd_plus"] < s_worse["igd_plus"]
