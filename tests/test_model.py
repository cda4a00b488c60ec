import numpy as np
import pytest

from landalloc.model import (
    BatchStats,
    LandUse,
    Plot,
    ProblemInstance,
    area_band_mask,
    codes_in_range_mask,
    evaluate_batch,
    evaluate_delta,
    evaluate_near,
    locked_kept_mask,
    plot_budget_mask,
    price_box_mask,
)

from oracles import (
    naive_compatibility,
    naive_constraint_flags,
    naive_price,
    random_instance,
)


def code_row(floor_uses):
    """One flat code row from per-plot floor-use lists."""
    return np.concatenate([np.asarray(u, dtype=np.int16) for u in floor_uses])


def random_row(inst, rng):
    return rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16)


def values_of(inst, codes):
    """The (B, N) plot values of (B, total_floors) code rows."""
    return inst.codec.encode_rows(codes)


def evaluate_one(inst, row):
    return evaluate_batch(inst, values_of(inst, np.asarray(row)[None, :]))


def shares(inst, row, i):
    """x[i, .] through evaluate_batch: the price with P[i, m] = 1 and every other entry 0."""
    out = []
    for m in range(inst.n_uses):
        price = np.zeros_like(inst.price)
        price[i, m] = 1.0
        probe = ProblemInstance(
            inst.plots, inst.uses, inst.compat, price, inst.gamma, inst.mu, 0.0, 1.0
        )
        out.append(float(evaluate_one(probe, row).price[0]))
    return out


def one_plot(k, floors):
    """A one-plot instance with K uses and the given number of floors."""
    plots = [Plot(0, floors, 10.0, (), False, (0,) * floors)]
    uses = [LandUse(m, f"u{m}") for m in range(k)]
    return ProblemInstance(plots, uses, np.eye(k), np.ones((1, k)), 0.3, 0.5, 0.0, 10.0)


class TestCompatibility:
    def test_tiny1_hand_value(self, tiny1):
        row = code_row([[0, 1], [0, 0]])
        assert evaluate_one(tiny1, row).compatibility[0] == pytest.approx(10000.0, abs=1e-9)

    def test_empty_neighborhoods_give_zero(self):
        plots = [
            Plot(0, 1, 100.0, (), False, (0,)),
            Plot(1, 2, 50.0, (), False, (1, 0)),
        ]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst = ProblemInstance(plots, uses, np.eye(2), np.ones((2, 2)), 0.3, 0.5, 0.0, 10.0)
        assert evaluate_one(inst, inst.actual_codes).compatibility[0] == 0.0

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng, n_plots=5)
            row = random_row(inst, rng)
            fast = evaluate_one(inst, row).compatibility[0]
            slow = naive_compatibility(inst, row)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_symmetric_instance_doubles_unordered_pairs(self, tiny1):
        # C and J are symmetric here, so ordered-pair total = 2x one direction
        row = code_row([[0, 1], [0, 0]])
        total = evaluate_one(tiny1, row).compatibility[0]
        x0, x1 = shares(tiny1, row, 0), shares(tiny1, row, 1)
        one_way = sum(
            tiny1.compat[l, m] * x0[l] * x1[m] * 100.0 * 200.0
            for l in range(2)
            for m in range(2)
        )
        assert total == pytest.approx(2 * one_way, rel=1e-12)


class TestPrice:
    def test_tiny1_hand_value(self, tiny1):
        row = code_row([[0, 1], [0, 0]])
        assert evaluate_one(tiny1, row).price[0] == pytest.approx(45.0, abs=1e-12)

    def test_zero_price_matrix(self, tiny1):
        inst = ProblemInstance(
            tiny1.plots, tiny1.uses, tiny1.compat, np.zeros((2, 2)), 0.3, 0.2, 0.0, 1.0
        )
        assert evaluate_one(inst, inst.actual_codes).price[0] == 0.0

    def test_price_scaling_is_linear(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n_plots=6)
        scaled = ProblemInstance(
            inst.plots, inst.uses, inst.compat, inst.price * 3.5,
            inst.gamma, inst.mu, inst.price_min, inst.price_max * 3.5,
        )
        for _ in range(10):
            row = random_row(inst, rng)
            assert evaluate_one(scaled, row).price[0] == pytest.approx(
                3.5 * evaluate_one(inst, row).price[0], rel=1e-12
            )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            inst = random_instance(rng, n_plots=5)
            row = random_row(inst, rng)
            assert evaluate_one(inst, row).price[0] == pytest.approx(
                naive_price(inst, row), rel=1e-9
            )


class TestProportions:
    def test_half_half(self, tiny1):
        assert shares(tiny1, code_row([[0, 1], [0, 0]]), 0) == [0.5, 0.5]

    def test_single_use_plot(self):
        assert shares(one_plot(3, 3), code_row([[2, 2, 2]]), 0) == [0.0, 0.0, 1.0]

    def test_mixed_counts(self):
        assert shares(one_plot(3, 4), code_row([[0, 1, 2, 0]]), 0) == [0.5, 0.25, 0.25]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n_plots=8, max_floors=5)
        row = random_row(inst, rng)
        for i in range(inst.n_plots):
            assert sum(shares(inst, row, i)) == pytest.approx(1.0, abs=1e-12)


class TestConstraints:
    def test_identity_case_all_ok(self, tiny1):
        stats = evaluate_one(tiny1, tiny1.actual_codes)
        assert area_band_mask(tiny1, stats.areas[0], 0.3)
        assert price_box_mask(tiny1, stats.price[0])
        assert plot_budget_mask(tiny1, stats.changed[0], 0.2)
        assert stats.changed[0] == 0
        assert np.array_equal(stats.areas[0], tiny1.actual_areas)  # no per-use area shift

    def test_zero_gamma_rejects_any_area_shift(self, tiny1):
        stats = evaluate_one(tiny1, code_row([[1, 1], [0, 0]]))
        assert not area_band_mask(tiny1, stats.areas[0], 0.0)
        assert stats.changed[0] == 1

    def test_matches_oracle_on_random_perturbations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng, n_plots=10)
            row = random_row(inst, rng)
            gamma = float(rng.uniform(0, 0.8))
            mu = float(rng.uniform(0, 1))
            stats = evaluate_one(inst, row)
            area_ok, price_ok, changed, budget_ok = naive_constraint_flags(
                inst, row, gamma, mu
            )
            assert area_band_mask(inst, stats.areas[0], gamma) == area_ok
            assert price_box_mask(inst, stats.price[0]) == price_ok
            assert stats.changed[0] == changed
            assert plot_budget_mask(inst, stats.changed[0], mu) == budget_ok

    def test_huge_gamma_always_area_ok(self, tiny1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            row = rng.integers(0, 2, size=4).astype(np.int16)
            assert area_band_mask(tiny1, evaluate_one(tiny1, row).areas[0], 1e12)

    def test_mu_one_always_budget_ok(self, tiny1):
        stats = evaluate_one(tiny1, code_row([[1, 0], [1, 1]]))
        assert plot_budget_mask(tiny1, stats.changed[0], 1.0)


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


FIELDS = ("compatibility", "price", "areas", "changed")


class TestBatchEvaluation:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(23)
        for k, max_floors in ((3, 3), (2, 12), (6, 5)):
            inst = random_instance(rng, n_plots=7, k=k, max_floors=max_floors)
            codes = rng.integers(0, inst.n_uses, size=(12, inst.total_floors)).astype(np.int16)
            stats = evaluate_batch(inst, values_of(inst, codes))
            for r in range(12):
                single = evaluate_one(inst, codes[r])
                for name in FIELDS:
                    assert getattr(stats, name)[r].tobytes() == getattr(single, name)[0].tobytes()

    def test_single_row_matches_batch_at_scale(self, grid43x30):
        # 5,014 edges: a pairwise sum of one row's contributions would
        # differ from the edge-by-edge column sums in the last bits.
        codes = perturbed_rows(grid43x30, 20, seed=3)
        stats = evaluate_batch(grid43x30, values_of(grid43x30, codes))
        for r in range(20):
            single = evaluate_one(grid43x30, codes[r])
            for name in FIELDS:
                assert getattr(stats, name)[r].tobytes() == getattr(single, name)[0].tobytes()

    def test_blocks_do_not_change_rows(self, monkeypatch, grid43x30):
        import landalloc.model as model

        inst = grid43x30
        step = model._BLOCK_VALUES // (inst.n_plots * inst.n_uses)
        b = 3 * step + 1  # three full blocks plus a 1-row remainder
        values = values_of(inst, perturbed_rows(inst, b))
        blocks = []
        block_fn = model._evaluate_block

        def spy(inst_, block):
            blocks.append(len(block))
            return block_fn(inst_, block)

        monkeypatch.setattr(model, "_evaluate_block", spy)
        stats = evaluate_batch(inst, values)
        assert blocks == [step, step, step + 1]
        for r in range(b):
            pair = evaluate_batch(inst, values[[r, (r + 1) % b]])
            for name in FIELDS:
                got = getattr(stats, name)[r]
                want = getattr(pair, name)[0]
                assert got.tobytes() == want.tobytes(), (r, name)

    def test_results_are_not_views_of_reused_buffers(self, grid43x30):
        # Every block shares the instance's edge buffers; a later call
        # must leave the arrays an earlier one returned untouched.
        for rows in (1, 34, 100):
            first = evaluate_batch(grid43x30, values_of(grid43x30, perturbed_rows(grid43x30, rows, seed=1)))
            kept = [getattr(first, f).copy() for f in FIELDS]
            evaluate_batch(grid43x30, values_of(grid43x30, perturbed_rows(grid43x30, 100, seed=2)))
            for f, want in zip(FIELDS, kept):
                assert np.array_equal(getattr(first, f), want), (rows, f)

    def test_warm_call_allocates_little(self, grid43x30):
        # Full (E, B, K) edge gathers per block would peak near 16 MB here;
        # the chunked edge stage peaks near 2.5 MB.
        import tracemalloc

        values = values_of(grid43x30, perturbed_rows(grid43x30, 100))
        evaluate_batch(grid43x30, values)
        tracemalloc.start()
        try:
            evaluate_batch(grid43x30, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_no_edges_give_zero_compatibility_in_batches(self):
        plots = [Plot(i, 2, 80.0 + i, (), False, (0, 1)) for i in range(4)]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst = ProblemInstance(plots, uses, np.eye(2), np.ones((4, 2)), 0.3, 0.5, 0.0, 10.0)
        values = values_of(inst, np.random.default_rng(2).integers(0, 2, size=(5, inst.total_floors)))
        for batch in (values[:1], values):
            stats = evaluate_batch(inst, batch)
            assert np.array_equal(stats.compatibility, np.zeros(len(batch)))

    def test_dimension_mismatch_raises(self, tiny1):
        with pytest.raises(ValueError):
            evaluate_batch(tiny1, np.zeros((2, 7), dtype=np.int64))


def redraw_plots(inst, row, plots, rng):
    """`row` with every floor of `plots` redrawn."""
    out = row.copy()
    for p in plots:
        lo, hi = inst.floor_offsets[p], inst.floor_offsets[p + 1]
        out[lo:hi] = rng.integers(0, inst.n_uses, size=hi - lo)
    return out


def assert_delta_agrees(inst, delta, full, base):
    """Within 1e-12 of the larger of the full and the base value (a value that
    drops to zero keeps the rounding of the terms that cancelled); `changed`
    exactly."""
    for name in ("compatibility", "price", "areas"):
        got, want, was = getattr(delta, name), getattr(full, name), getattr(base, name)
        scale = np.maximum(np.abs(want), np.abs(was))
        assert (np.abs(got - want) <= 1e-12 * scale).all(), name
    assert np.array_equal(delta.changed, full.changed)


class TestDeltaEvaluation:
    """`evaluate_delta` against `evaluate_batch` on random instances: stored
    neighbour lists are asymmetric and some plots have none, some plots are
    locked and some are tall. Rows run from one equal to its base up to one
    with every unlocked plot redrawn."""

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_matches_full_evaluation(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(30):
            inst = random_instance(
                rng, n_plots=int(rng.integers(1, 13)), k=k, max_floors=12, locked_fraction=0.3
            )
            base_codes = rng.integers(0, k, size=(1, inst.total_floors)).astype(np.int16)
            locked = np.repeat(inst.locked, inst.floor_counts)
            base_codes[0, locked] = inst.actual_codes[locked]
            unlocked = rng.permutation(inst.unlocked_ids)
            rows = np.stack([
                redraw_plots(inst, base_codes[0], unlocked[:m], rng)
                for m in range(len(unlocked) + 1)
            ])
            rows, base_rows = values_of(inst, rows), values_of(inst, base_codes).repeat(len(rows), axis=0)
            base = evaluate_batch(inst, base_rows)
            delta = evaluate_delta(inst, rows, base_rows, base)
            assert_delta_agrees(inst, delta, evaluate_batch(inst, rows), base)
            for name in FIELDS:  # row 0 is its base
                assert getattr(delta, name)[0].tobytes() == getattr(base, name)[0].tobytes()

    def test_one_sided_and_missing_neighbour_lists(self):
        # Plot 0 lists 1 and 2, nobody lists 0; plot 3 has no neighbours at
        # all (and is locked); plot 2 is tall.
        plots = [
            Plot(0, 1, 120.0, (1, 2), False, (0,)),
            Plot(1, 2, 80.0, (2,), False, (1, 1)),
            Plot(2, 9, 400.0, (), False, (2,) * 9),
            Plot(3, 3, 60.0, (), True, (0, 1, 2)),
        ]
        uses = [LandUse(m, f"u{m}") for m in range(3)]
        compat = np.array([[1.0, -0.5, 0.2], [0.3, 2.0, -1.0], [0.0, 0.7, 1.5]])
        inst = ProblemInstance(
            plots, uses, compat, np.arange(12.0).reshape(4, 3), 0.3, 0.5, 0.0, 100.0
        )
        rng = np.random.default_rng(9)
        base_rows = np.repeat(inst.actual_values[None, :], 8, axis=0)
        rows = np.stack([redraw_plots(inst, inst.actual_codes, [p % 3], rng) for p in range(8)])
        rows = values_of(inst, rows)
        base = evaluate_batch(inst, base_rows)
        delta = evaluate_delta(inst, rows, base_rows, base)
        assert_delta_agrees(inst, delta, evaluate_batch(inst, rows), base)

    def test_routes_by_work_estimate(self, monkeypatch, grid43x30):
        # Few changed plots take the delta path and an unanchored or heavily
        # changed row the full one; values agree either way.
        import landalloc.model as model

        calls = []
        kernel = model._delta_stats

        def spy(inst_, values, base_values, base_, rows, src, pr, pp):
            calls.append(rows[np.unique(pr)].tolist())
            return kernel(inst_, values, base_values, base_, rows, src, pr, pp)

        monkeypatch.setattr(model, "_delta_stats", spy)
        inst = grid43x30
        rng = np.random.default_rng(5)
        parent_codes = perturbed_rows(inst, 6, seed=4)
        parents = values_of(inst, parent_codes)
        base = evaluate_batch(inst, parents)
        children = values_of(inst, np.stack([
            redraw_plots(inst, parent_codes[r % 6], rng.choice(inst.unlocked_ids, m, replace=False), rng)
            for r, m in enumerate([0, 1, 3, 8, 600, 2, 4, 900])
        ]))
        anchors = np.array([0, 1, 2, 3, 4, -1, 0, 1])
        near = evaluate_near(inst, children, parents, base, anchors)
        # one call reads the changed plots of rows 1, 2, 3 and 6 (row 0
        # equals its anchor); rows 4 and 7 go in full
        assert calls == [[1, 2, 3, 6]]
        want = evaluate_batch(inst, children)
        assert_delta_agrees(inst, near, want, want)
        full = evaluate_batch(inst, children[[4, 5, 7]])
        for name in FIELDS:
            assert getattr(near, name)[[4, 5, 7]].tobytes() == getattr(full, name).tobytes()
        assert near.compatibility[0].tobytes() == base.compatibility[0].tobytes()

    @staticmethod
    def delta_rows(monkeypatch, inst, parents, children, anchors):
        """The rows `evaluate_near` sends to the delta path."""
        import landalloc.model as model

        rows = []
        kernel = model._delta_stats

        def spy(inst_, values, base_values, base_, rows_, src, pr, pp):
            rows.extend(rows_[np.unique(pr)].tolist())
            return kernel(inst_, values, base_values, base_, rows_, src, pr, pp)

        with monkeypatch.context() as patch:
            patch.setattr(model, "_delta_stats", spy)
            evaluate_near(inst, children, parents, evaluate_batch(inst, parents), anchors)
        return rows

    @staticmethod
    def moved(inst, parents, plots_per_row, rng):
        """Row r of `parents` with plots_per_row[r] distinct unlocked plots' values moved."""
        children = parents.copy()
        for r, m in enumerate(plots_per_row):
            p = rng.choice(inst.unlocked_ids, m, replace=False)
            children[r, p] = (children[r, p] + 1) % (inst.codec.max_values[p] + 1)
        return children

    def test_seventy_changed_plots_take_the_delta_path(self, monkeypatch, grid43x30):
        # MSBX_MO's children at paper scale differ from their anchors in
        # about 70 plots.
        parents = values_of(grid43x30, perturbed_rows(grid43x30, 4, seed=6))
        children = self.moved(grid43x30, parents, [70, 600, 70, 900], np.random.default_rng(6))
        assert self.delta_rows(monkeypatch, grid43x30, parents, children, np.arange(4)) == [0, 2]

    def test_one_anchored_row_goes_in_full(self, monkeypatch, grid43x30):
        # At paper scale a full row's work is below a delta call's fixed
        # work, so one anchored row, however few plots it changes, cannot
        # save enough to pay for the call.
        import landalloc.model as model

        parents = values_of(grid43x30, perturbed_rows(grid43x30, 4, seed=6))
        children = self.moved(grid43x30, parents, [3, 600, 600, 600], np.random.default_rng(7))
        assert grid43x30.full_row_work <= model._DELTA_CALL_WORK
        assert self.delta_rows(monkeypatch, grid43x30, parents, children, np.array([0, -1, -1, -1])) == []

    def test_floor_counts_do_not_move_the_routing(self, monkeypatch, grid43x30):
        from dataclasses import replace

        inst = grid43x30
        one_floor = ProblemInstance(
            [replace(p, floor_count=1, actual_uses=p.actual_uses[:1]) for p in inst.plots],
            inst.uses, inst.compat, inst.price, inst.gamma, inst.mu, inst.price_min, inst.price_max,
        )
        plots_per_row = [1, 55, 60, 150, 200, 230, 260, 400, 900]
        routed = []
        for each in (inst, one_floor):
            parents = np.repeat(each.actual_values[None, :], len(plots_per_row), axis=0)
            children = self.moved(each, parents, plots_per_row, np.random.default_rng(8))
            anchors = np.arange(len(plots_per_row))
            routed.append(self.delta_rows(monkeypatch, each, parents, children, anchors))
        assert routed[0] == routed[1]
        assert 0 < len(routed[0]) < len(plots_per_row)

    def test_tiny_instances_skip_the_delta_path(self, monkeypatch, tiny1):
        import landalloc.model as model

        def fail(*args):
            raise AssertionError("delta path taken")

        monkeypatch.setattr(model, "_delta_stats", fail)
        values = np.repeat(tiny1.actual_values[None, :], 200, axis=0)
        base = evaluate_batch(tiny1, values)
        near = evaluate_near(tiny1, values, values, base, np.arange(200))
        for name in FIELDS:
            assert getattr(near, name).tobytes() == getattr(base, name).tobytes()


class TestValidation:
    def test_locked_plot_enforced_by_validate(self, small_synthetic):
        inst = small_synthetic
        locked = int(np.flatnonzero(inst.locked)[0])
        codes = inst.actual_codes.copy()[None, :]
        codes[0, inst.floor_offsets[locked]] = (
            codes[0, inst.floor_offsets[locked]] + 1
        ) % inst.n_uses
        assert codes_in_range_mask(inst, codes)[0]
        assert not locked_kept_mask(inst, inst.codec.encode_rows(codes))[0]

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
