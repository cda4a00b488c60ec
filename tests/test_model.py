import numpy as np
import pytest

from landalloc.model import (
    Allocation,
    LandUse,
    Plot,
    ProblemInstance,
    check_constraints,
    evaluate_batch,
    evaluate_compatibility,
    evaluate_price,
    proportions,
)

from oracles import (
    naive_compatibility,
    naive_constraint_flags,
    naive_price,
    random_instance,
)


def alloc(inst, rows):
    return Allocation.from_lists(rows, inst.n_uses)


class TestCompatibility:
    def test_tiny1_hand_value(self, tiny1):
        a = alloc(tiny1, [[0, 1], [0, 0]])
        assert evaluate_compatibility(tiny1, a) == pytest.approx(10000.0, abs=1e-9)

    def test_empty_neighborhoods_give_zero(self):
        plots = [
            Plot(0, 1, 100.0, (), False, (0,)),
            Plot(1, 2, 50.0, (), False, (1, 0)),
        ]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst = ProblemInstance(plots, uses, np.eye(2), np.ones((2, 2)), 0.3, 0.5, 0.0, 10.0)
        assert evaluate_compatibility(inst, inst.actual_allocation()) == 0.0

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng, n_plots=5)
            a = Allocation(
                rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16),
                inst.floor_offsets,
                inst.n_uses,
            )
            fast = evaluate_compatibility(inst, a)
            slow = naive_compatibility(inst, a)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_symmetric_instance_doubles_unordered_pairs(self, tiny1):
        # C and J are symmetric here, so ordered-pair total = 2x one direction
        a = alloc(tiny1, [[0, 1], [0, 0]])
        total = evaluate_compatibility(tiny1, a)
        one_way = sum(
            tiny1.compat[l, m]
            * proportions(a, 0)[l]
            * proportions(a, 1)[m]
            * 100.0
            * 200.0
            for l in range(2)
            for m in range(2)
        )
        assert total == pytest.approx(2 * one_way, rel=1e-12)


class TestPrice:
    def test_tiny1_hand_value(self, tiny1):
        a = alloc(tiny1, [[0, 1], [0, 0]])
        assert evaluate_price(tiny1, a) == pytest.approx(45.0, abs=1e-12)

    def test_zero_price_matrix(self, tiny1):
        inst = ProblemInstance(
            tiny1.plots, tiny1.uses, tiny1.compat, np.zeros((2, 2)), 0.3, 0.2, 0.0, 1.0
        )
        assert evaluate_price(inst, inst.actual_allocation()) == 0.0

    def test_price_scaling_is_linear(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n_plots=6)
        scaled = ProblemInstance(
            inst.plots, inst.uses, inst.compat, inst.price * 3.5,
            inst.gamma, inst.mu, inst.price_min, inst.price_max * 3.5,
        )
        for _ in range(10):
            a = Allocation(
                rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16),
                inst.floor_offsets,
                inst.n_uses,
            )
            assert evaluate_price(scaled, a) == pytest.approx(
                3.5 * evaluate_price(inst, a), rel=1e-12
            )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            inst = random_instance(rng, n_plots=5)
            a = Allocation(
                rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16),
                inst.floor_offsets,
                inst.n_uses,
            )
            assert evaluate_price(inst, a) == pytest.approx(
                naive_price(inst, a), rel=1e-9
            )


class TestProportions:
    def test_half_half(self, tiny1):
        a = alloc(tiny1, [[0, 1], [0, 0]])
        assert proportions(a, 0).tolist() == [0.5, 0.5]

    def test_single_use_plot(self):
        a = Allocation.from_lists([[2, 2, 2]], 3)
        assert proportions(a, 0).tolist() == [0.0, 0.0, 1.0]

    def test_mixed_counts(self):
        a = Allocation.from_lists([[0, 1, 2, 0]], 3)
        assert proportions(a, 0).tolist() == [0.5, 0.25, 0.25]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n_plots=8, max_floors=5)
        a = Allocation(
            rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16),
            inst.floor_offsets,
            inst.n_uses,
        )
        for i in range(inst.n_plots):
            assert proportions(a, i).sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_plot_id(self, tiny1):
        a = tiny1.actual_allocation()
        with pytest.raises(ValueError):
            proportions(a, 5)


class TestConstraints:
    def test_identity_case_all_ok(self, tiny1):
        report = check_constraints(tiny1, tiny1.actual_allocation(), gamma=0.3, mu=0.2)
        assert report.area_ok and report.price_ok and report.plot_budget_ok
        assert report.changed_plot_count == 0
        assert report.max_area_change_fraction == 0.0

    def test_zero_gamma_rejects_any_area_shift(self, tiny1):
        a = alloc(tiny1, [[1, 1], [0, 0]])
        report = check_constraints(tiny1, a, gamma=0.0, mu=1.0)
        assert not report.area_ok
        assert report.changed_plot_count == 1

    def test_matches_oracle_on_random_perturbations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng, n_plots=10)
            a = Allocation(
                rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16),
                inst.floor_offsets,
                inst.n_uses,
            )
            gamma = float(rng.uniform(0, 0.8))
            mu = float(rng.uniform(0, 1))
            report = check_constraints(inst, a, gamma, mu)
            area_ok, price_ok, changed, budget_ok = naive_constraint_flags(
                inst, a, gamma, mu
            )
            assert report.area_ok == area_ok
            assert report.price_ok == price_ok
            assert report.changed_plot_count == changed
            assert report.plot_budget_ok == budget_ok

    def test_huge_gamma_always_area_ok(self, tiny1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = Allocation(
                rng.integers(0, 2, size=4).astype(np.int16),
                tiny1.floor_offsets,
                2,
            )
            assert check_constraints(tiny1, a, gamma=1e12, mu=1.0).area_ok

    def test_mu_one_always_budget_ok(self, tiny1):
        a = alloc(tiny1, [[1, 0], [1, 1]])
        assert check_constraints(tiny1, a, gamma=1e12, mu=1.0).plot_budget_ok

    def test_gamma_mu_validation(self, tiny1):
        a = tiny1.actual_allocation()
        with pytest.raises(ValueError):
            check_constraints(tiny1, a, gamma=-0.1)
        with pytest.raises(ValueError):
            check_constraints(tiny1, a, mu=1.5)


@pytest.fixture(scope="module")
def grid43x30():
    from landalloc.instance_io import GeneratorSpec, generate_synthetic

    return generate_synthetic(GeneratorSpec(grid_width=43, grid_height=30, rng_seed=7))


def perturbed_rows(inst, b, seed=0):
    """`b` copies of the as-built codes with about 20% of floors redrawn."""
    rng = np.random.default_rng(seed)
    codes = np.repeat(inst.actual_codes[None, :], b, axis=0)
    redraw = rng.random(codes.shape) < 0.2
    codes[redraw] = rng.integers(0, inst.n_uses, size=int(redraw.sum()))
    return codes


class TestBatchEvaluation:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, n_plots=7)
        codes = rng.integers(0, inst.n_uses, size=(12, inst.total_floors)).astype(np.int16)
        stats = evaluate_batch(inst, codes)
        for r in range(12):
            a = Allocation(codes[r], inst.floor_offsets, inst.n_uses)
            assert stats.compatibility[r] == pytest.approx(
                evaluate_compatibility(inst, a), rel=1e-12
            )
            assert stats.price[r] == pytest.approx(evaluate_price(inst, a), rel=1e-12)

    def test_blocks_do_not_change_rows(self, monkeypatch, grid43x30):
        import landalloc.model as model

        inst = grid43x30
        step = model._BLOCK_VALUES // (inst.n_plots * inst.n_uses)
        b = 3 * step + 1  # three full blocks plus a 1-row remainder
        codes = perturbed_rows(inst, b)
        blocks = []
        block_fn = model._evaluate_block

        def spy(inst_, block):
            blocks.append(len(block))
            return block_fn(inst_, block)

        monkeypatch.setattr(model, "_evaluate_block", spy)
        stats = evaluate_batch(inst, codes)
        assert blocks == [step, step, step + 1]
        for r in range(b):
            pair = evaluate_batch(inst, codes[[r, (r + 1) % b]])
            for name in ("compatibility", "price", "areas", "changed"):
                got = getattr(stats, name)[r]
                want = getattr(pair, name)[0]
                assert got.tobytes() == want.tobytes(), (r, name)

    def test_results_are_not_views_of_reused_buffers(self, grid43x30):
        # Every block shares the instance's edge buffers; a later call
        # must leave the arrays an earlier one returned untouched.
        fields = ("compatibility", "price", "areas", "changed")
        for rows in (1, 34, 100):
            first = evaluate_batch(grid43x30, perturbed_rows(grid43x30, rows, seed=1))
            kept = [getattr(first, f).copy() for f in fields]
            evaluate_batch(grid43x30, perturbed_rows(grid43x30, 100, seed=2))
            for f, want in zip(fields, kept):
                assert np.array_equal(getattr(first, f), want), (rows, f)

    def test_warm_call_allocates_little(self, grid43x30):
        # Full (E, B, K) edge gathers per block would peak near 16 MB here;
        # the chunked edge stage peaks near 2.5 MB.
        import tracemalloc

        codes = perturbed_rows(grid43x30, 100)
        evaluate_batch(grid43x30, codes)
        tracemalloc.start()
        try:
            evaluate_batch(grid43x30, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_no_edges_give_zero_compatibility_in_batches(self):
        plots = [Plot(i, 2, 80.0 + i, (), False, (0, 1)) for i in range(4)]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst = ProblemInstance(plots, uses, np.eye(2), np.ones((4, 2)), 0.3, 0.5, 0.0, 10.0)
        codes = np.random.default_rng(2).integers(0, 2, size=(5, inst.total_floors))
        for batch in (codes[:1], codes):
            stats = evaluate_batch(inst, batch.astype(np.int16))
            assert np.array_equal(stats.compatibility, np.zeros(len(batch)))

    def test_dimension_mismatch_raises(self, tiny1):
        with pytest.raises(ValueError):
            evaluate_batch(tiny1, np.zeros((2, 7), dtype=np.int16))

    def test_allocation_layout_mismatch_raises(self, tiny1):
        bad = Allocation.from_lists([[0], [0]], 2)
        with pytest.raises(ValueError):
            evaluate_price(tiny1, bad)


class TestValidation:
    def test_locked_plot_enforced_by_validate(self, small_synthetic):
        inst = small_synthetic
        locked = int(np.flatnonzero(inst.locked)[0])
        a = inst.actual_allocation()
        a.codes[inst.floor_offsets[locked]] = (
            a.codes[inst.floor_offsets[locked]] + 1
        ) % inst.n_uses
        with pytest.raises(ValueError, match="locked"):
            a.validate(inst)

    def test_self_neighbor_rejected(self):
        plots = [Plot(0, 1, 10.0, (0,), False, (0,))]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        with pytest.raises(ValueError, match="self-neighbor"):
            ProblemInstance(plots, uses, np.eye(2), np.ones((1, 2)), 0.3, 0.5, 0.0, 1.0)

    def test_price_bounds_order_checked(self, tiny1):
        with pytest.raises(ValueError):
            ProblemInstance(
                tiny1.plots, tiny1.uses, tiny1.compat, tiny1.price, 0.3, 0.2, 50.0, 40.0
            )
