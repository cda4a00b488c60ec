import math

import numpy as np
import pytest

from landalloc.engines import (
    _VARIATIONS,
    ALGORITHMS,
    EngineConfig,
    Population,
    RelaxationSchedule,
    _FinalFeasibleArchive,
    _init_values,
    _rank_and_crowd,
    _refresh_pop,
    _resolved,
    _survivors,
    apply_relaxation_phase,
    crowding_distance,
    fast_non_dominated_sort,
    final_front_indices,
    front_ranks,
    run_engine,
)
from landalloc.harness import record_to_json
from landalloc.metrics import pareto_indices
from landalloc.model import area_band_mask, evaluate_batch, price_box_mask
from landalloc.operators import (
    OperatorConfig,
    random_mutation_batch,
    sbx_batch,
    scaled_add_batch,
)

from oracles import (
    brute_force_best_scalar,
    brute_force_pareto,
    dense_rank,
    naive_cr_des_offspring,
    naive_crowding,
    naive_fronts,
    naive_msbx_mo_children,
    naive_mutate_sbx_offspring,
    random_instance,
)


def small_cfg(alg, **kw):
    kw.setdefault("population_size", 30)
    kw.setdefault("generations", 40)
    kw.setdefault("seed", 1)
    return EngineConfig(algorithm=alg, **kw)


def random_clouds():
    """(points, oracle fronts) over ties, infinities, duplicates, signed zeros and a chain."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        pts = rng.integers(0, 12, size=(60, 2)).astype(float)
        yield pts, naive_fronts(pts)
    rng = np.random.default_rng(5)
    for _ in range(4):  # infinite coordinates
        pts = rng.integers(0, 6, size=(40, 2)).astype(float)
        pts[rng.random((40, 2)) < 0.1] = np.inf
        pts[rng.random((40, 2)) < 0.1] = -np.inf
        yield pts, naive_fronts(pts)
    rng = np.random.default_rng(7)
    for _ in range(10):  # criterion-1-like: a few distinct points, many copies
        distinct = rng.integers(0, 10, size=(int(rng.integers(1, 9)), 2)).astype(float)
        pts = distinct[rng.integers(0, len(distinct), size=int(rng.integers(100, 160)))]
        yield pts, naive_fronts(pts)
    for _ in range(4):  # signed zeros are equal coordinates
        pts = rng.integers(-1, 2, size=(50, 2)).astype(float)
        pts[rng.random((50, 2)) < 0.3] = -0.0
        yield pts, naive_fronts(pts)
    coords = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf])
    for _ in range(25):  # micro-shaped: 64-256 copies of at most 16 pairs, signed zeros, infinities
        distinct = rng.choice(coords, size=(int(rng.integers(1, 17)), 2))
        pts = distinct[rng.integers(0, len(distinct), size=int(rng.integers(64, 257)))]
        yield pts, naive_fronts(pts)
    x = rng.permutation(200).astype(float)  # a chain: one front per point
    yield np.column_stack([x, 2.0 * x]), [[int(i)] for i in np.argsort(-x)]


class TestNonDominatedSort:
    def test_hand_case(self):
        objs = np.array([[2, 2], [1, 1], [0.5, 2.5]])
        fronts = fast_non_dominated_sort(objs)
        assert fronts == [[0, 2], [1]]

    def test_identical_points_one_front(self):
        fronts = fast_non_dominated_sort(np.ones((5, 2)))
        assert fronts == [sorted(range(5))]

    def test_matches_oracle_on_random_clouds(self):
        for pts, fronts in random_clouds():
            assert fast_non_dominated_sort(pts) == fronts

    def test_front_ranks_swept_only_as_far_as_needed(self):
        rng = np.random.default_rng(3)
        for pts, fronts in random_clouds():
            n = len(pts)
            oracle = np.empty(n, dtype=np.int64)
            for r, fr in enumerate(fronts):
                oracle[fr] = r
            for need in (1, int(rng.integers(1, n + 1)), n):
                rank = front_ranks(pts, need)
                assert rank.dtype == np.int64
                last = rank.max()
                # Ranked points read their oracle rank, the rest one past the last front.
                assert (rank == np.minimum(oracle, last)).all()
                # No front is swept once `need` points are ranked ...
                assert np.count_nonzero(oracle < last - 1) < need
                # ... and if some points were not reached, fronts 0..last-1 hold `need`.
                if (oracle > last).any():
                    assert np.count_nonzero(oracle < last) >= need

    def test_nan_and_other_widths_rejected(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.array([[1.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fast_non_dominated_sort(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty"):
            fast_non_dominated_sort([])


def mixed_population(rng):
    """A population of tied feasible and infeasible members; values[:, 0] is the index."""
    n = int(rng.integers(1, 25))
    return Population(
        values=np.arange(n)[:, None],
        compatibility=rng.integers(0, 4, n).astype(float),
        price=rng.integers(0, 4, n).astype(float),
        areas=np.zeros((n, 1)),
        changed=np.zeros(n, dtype=np.int64),
        feasible=rng.random(n) < 0.4,
        violation=rng.integers(0, 4, n) / 4.0,
    )


def feasible_first_fronts(pop):
    """The feasible fronts, then the infeasible members grouped by equal violation."""
    feas = np.flatnonzero(pop.feasible)
    fronts = []
    if feas.size:
        fronts = [feas[fr].tolist() for fr in fast_non_dominated_sort(pop.objectives()[feas])]
    groups = []  # equal violations, in index order: sorted() is stable
    for i in sorted(np.flatnonzero(~pop.feasible).tolist(), key=lambda i: pop.violation[i]):
        if groups and pop.violation[groups[-1][0]] == pop.violation[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return fronts + groups


class TestPopulationFronts:
    def test_infeasible_members_grouped_by_equal_violation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pop = mixed_population(rng)
            fronts = feasible_first_fronts(pop)
            _rank_and_crowd(pop, pop.n)
            assert pop.rank.max() == len(fronts) - 1
            for r, fr in enumerate(fronts):
                assert np.flatnonzero(pop.rank == r).tolist() == fr

    def test_survival_takes_whole_fronts_then_trims_by_crowding(self):
        rng = np.random.default_rng(9)
        exact_fills = 0
        with np.errstate(invalid="ignore"):  # crowding across infinite prices
            for _ in range(300):
                pop = mixed_population(rng)
                pop.price[rng.random(pop.n) < 0.05] = np.inf
                fronts = feasible_first_fronts(pop)
                ends = np.cumsum([len(fr) for fr in fronts])
                # Random targets, and every target that a whole front fills exactly.
                targets = set(rng.integers(1, pop.n + 1, size=3).tolist()) | set(ends.tolist())
                for target in sorted(targets):
                    kept, rank, crowd = [], [], []
                    for r, fr in enumerate(fronts):
                        d = np.array(naive_crowding(pop.objectives()[fr]))
                        order = np.arange(len(fr))
                        if len(kept) + len(fr) > target:
                            order = np.argsort(-d, kind="stable")[: target - len(kept)]
                        kept += [fr[i] for i in order]
                        rank += [r] * len(order)
                        crowd += d[order].tolist()
                        if len(kept) == target:
                            exact_fills += target in ends and target < pop.n
                            break
                    got = _survivors(pop.take(np.arange(pop.n)), target)
                    assert got.values[:, 0].tolist() == kept
                    assert got.rank.tolist() == rank
                    np.testing.assert_array_equal(got.crowd, crowd)
        assert exact_fills > 100  # filled exactly, with a later front left out

    def test_final_front_is_the_first_sorted_front(self, tiny1):
        # An open price box, and every member at the as-built areas: all are
        # inside the band and the box, so the final front is the first front.
        from landalloc.model import ProblemInstance

        inst = ProblemInstance(
            tiny1.plots, tiny1.uses, tiny1.compat, tiny1.price, 0.0, 1.0, -np.inf, np.inf
        )
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pts = rng.integers(0, 6, size=(n, 2)).astype(float)
            pts[rng.random((n, 2)) < 0.1] = np.inf
            pts[rng.random((n, 2)) < 0.1] = -np.inf
            pts = pts[rng.integers(0, n, size=n)]  # duplicates
            pop = Population(
                pts[:, 0], pts[:, 1], np.tile(inst.actual_areas, (n, 1)),
                np.zeros(n, dtype=np.int64), np.zeros((n, inst.n_plots), dtype=np.int64),
            )
            front = final_front_indices(inst, pop, 0.0, None)
            assert front.tolist() == fast_non_dominated_sort(pts)[0]


class TestCrowding:
    def test_hand_case_middle_is_two(self):
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        d = crowding_distance(objs)
        assert d[1] == pytest.approx(2.0)
        assert math.isinf(d[0]) and math.isinf(d[2])

    def test_singleton_infinite(self):
        assert math.isinf(crowding_distance(np.array([[1.0, 2.0]]))[0])

    def test_two_points_both_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert all(map(math.isinf, d))

    def test_empty_rejected(self):
        for objs in (np.zeros((0, 2)), []):
            with pytest.raises(ValueError, match="non-empty"):
                crowding_distance(objs)

    def test_each_labelled_front_crowded_on_its_own(self):
        rng = np.random.default_rng(4)
        with np.errstate(invalid="ignore"):  # spans across infinite coordinates
            for pts, _ in random_clouds():
                rank = rng.integers(0, 6, len(pts))
                expected = np.empty(len(pts))
                for r in np.unique(rank):
                    fr = np.flatnonzero(rank == r)
                    expected[fr] = naive_crowding(pts[fr])
                np.testing.assert_array_equal(crowding_distance(pts, rank), expected)

    def test_degenerate_span_contributes_zero(self):
        objs = np.array([[0.0, 5.0], [0.5, 5.0], [1.0, 5.0]])
        d = crowding_distance(objs)
        assert d[1] == pytest.approx(1.0)  # only the first objective contributes


class TestRelaxationPhase:
    def test_final_generation_unrelaxes(self):
        cfg = EngineConfig(
            algorithm="CR_DES",
            generations=150,
            relax=RelaxationSchedule(0.8, 0.2, 0.3, 0.2),
        )
        assert apply_relaxation_phase(150, cfg) == (0.3, 0.2)

    def test_search_phase_throughout(self):
        cfg = EngineConfig(
            algorithm="CR_DES",
            generations=150,
            relax=RelaxationSchedule(0.8, 0.5, 0.3, 0.2),
        )
        for gen in (1, 75, 149):
            assert apply_relaxation_phase(gen, cfg) == (0.8, 0.5)

    def test_constant_schedule_is_constant(self):
        cfg = EngineConfig(
            algorithm="CR_DES", generations=10, relax=RelaxationSchedule.constant(0.3, 0.2)
        )
        assert apply_relaxation_phase(1, cfg) == apply_relaxation_phase(10, cfg)

    def test_out_of_range_generation(self):
        cfg = EngineConfig(
            algorithm="CR_DES", generations=10, relax=RelaxationSchedule.constant(0.3, 0.2)
        )
        with pytest.raises(ValueError):
            apply_relaxation_phase(0, cfg)
        with pytest.raises(ValueError):
            apply_relaxation_phase(11, cfg)

    def test_gamma_mu_validation(self):
        for bad in ((-0.1, 0.2, 0.3, 0.2), (0.3, 0.2, -0.1, 0.2)):
            with pytest.raises(ValueError, match="gamma"):
                RelaxationSchedule(*bad)
        for bad in ((0.3, 1.5, 0.3, 0.2), (0.3, 0.2, 0.3, -0.5)):
            with pytest.raises(ValueError, match="mu"):
                RelaxationSchedule(*bad)
        with pytest.raises(ValueError):
            RelaxationSchedule.constant(0.3, 1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            EngineConfig(algorithm="SOA", seed=-3)

    @pytest.mark.parametrize("name", ["population_size", "generations", "seed"])
    @pytest.mark.parametrize("bad", [True, 5.0, 5.5, "5"])
    def test_non_integer_field_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EngineConfig(algorithm="SOA", **{name: bad})

    def test_numpy_integers_accepted(self, tiny1):
        ops = OperatorConfig(mutation_plot_budget=np.int64(2))
        cfg = EngineConfig(
            algorithm="CR_DES", population_size=np.int64(6), generations=np.int32(2),
            seed=np.int64(3), operator_cfg=ops,
        )
        assert run_engine(tiny1, cfg).population.n == 6
        for bad in (True, 2.0, np.float64(2.0)):
            with pytest.raises(ValueError, match="mutation_plot_budget must be an integer"):
                OperatorConfig(mutation_plot_budget=bad)


def initial_population(inst, cfg, rng) -> Population:
    return Population.evaluate(inst, _init_values(inst, _resolved(inst, cfg), rng))


class TestInitialization:
    def test_zero_change_gives_copies_of_actual(self, small_synthetic):
        inst = small_synthetic
        cfg = small_cfg("CR_DES", init_change_fraction=0.0, population_size=8)
        pop = initial_population(inst, cfg, np.random.default_rng(0))
        for row in pop.values:
            assert np.array_equal(row, inst.actual_values)

    def test_population_size_honored(self, small_synthetic):
        cfg = small_cfg("CR_DES", population_size=100)
        pop = initial_population(small_synthetic, cfg, np.random.default_rng(1))
        assert pop.n == 100

    def test_changed_plot_budget_at_creation(self, small_synthetic):
        inst = small_synthetic
        cfg = small_cfg("CR_DES", init_change_fraction=0.25, population_size=40)
        pop = initial_population(inst, cfg, np.random.default_rng(2))
        cap = math.ceil(0.25 * len(inst.unlocked_ids))
        assert (pop.changed <= cap).all()

    @pytest.mark.parametrize("uses, grid", [(2, (12, 10)), (3, (43, 30)), (6, (12, 10))])
    def test_init_is_one_random_mutation_of_actual(self, uses, grid, monkeypatch):
        from landalloc import engines
        from landalloc.instance_io import GeneratorSpec, generate_synthetic

        spec = GeneratorSpec(grid_width=grid[0], grid_height=grid[1], use_count=uses, rng_seed=7)
        inst = generate_synthetic(spec)
        cfg = _resolved(inst, small_cfg("CR_DES", population_size=6))
        calls = []
        real = engines.evaluate_batch
        monkeypatch.setattr(engines, "evaluate_batch", lambda *a: calls.append(a) or real(*a))
        budget = math.ceil(cfg.init_change_fraction * len(inst.unlocked_ids))
        op_cfg = OperatorConfig(mutation_plot_budget=budget)
        rows = np.arange(cfg.population_size)
        for seed in (1, 2, 3):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.tile(inst.actual_values, (cfg.population_size, 1))
            random_mutation_batch(want, rows, op_cfg, inst, slow)
            assert np.array_equal(_init_values(inst, cfg, fast), want)
            assert fast.bit_generator.state == slow.bit_generator.state
        assert calls == []

    def test_locked_plots_untouched(self, small_synthetic):
        inst = small_synthetic
        cfg = small_cfg("CR_DES", init_change_fraction=1.0, population_size=30)
        pop = initial_population(inst, cfg, np.random.default_rng(3))
        for row in pop.values:
            assert np.array_equal(row[inst.locked], inst.actual_values[inst.locked])


class TestEngineRuns:
    @pytest.mark.parametrize("alg", ["SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO"])
    def test_seeded_determinism(self, tiny1, alg):
        cfg = small_cfg(alg, population_size=20, generations=25, seed=7)
        r1 = run_engine(tiny1, cfg)
        r2 = run_engine(tiny1, cfg)
        assert record_to_json("x", r1, tiny1) == record_to_json("x", r2, tiny1)

    @pytest.mark.parametrize("alg", ["SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO"])
    def test_trace_monotone_and_full_length(self, small_synthetic, alg):
        cfg = small_cfg(alg, generations=30, seed=3)
        rec = run_engine(small_synthetic, cfg)
        assert len(rec.hv_trace) == 30
        for a, b in zip(rec.hv_trace, rec.hv_trace[1:]):
            assert b >= a - 1e-12

    @pytest.mark.parametrize("alg", ["MSBX_NSGA2", "CR_DES", "MSBX_MO"])
    def test_tiny1_front_subset_of_true_pareto(self, tiny1, alg):
        true_set = {
            (round(c, 6), round(p, 6)) for c, p in brute_force_pareto(tiny1)
        }
        cfg = small_cfg(alg, population_size=20, generations=60, seed=5)
        rec = run_engine(tiny1, cfg)
        assert len(rec.front_indices), "front must be non-empty"
        for c, p in rec.population.objectives()[rec.front_indices]:
            assert (round(c, 6), round(p, 6)) in true_set

    def test_front_members_satisfy_final_constraints(self, small_synthetic):
        inst = small_synthetic
        cfg = small_cfg(
            "CR_DES",
            generations=40,
            relax=RelaxationSchedule(0.9, 1.0, inst.gamma, inst.mu),
        )
        rec = run_engine(inst, cfg)
        for row in rec.population.values[rec.front_indices]:
            stats = evaluate_batch(inst, row[None, :])
            assert area_band_mask(inst, stats.areas[0], inst.gamma)
            assert price_box_mask(inst, stats.price[0])

    def test_front_is_mutually_nondominated(self, small_synthetic):
        rec = run_engine(small_synthetic, small_cfg("MSBX_NSGA2", generations=25))
        pts = [tuple(p) for p in rec.population.objectives()[rec.front_indices]]
        for a in pts:
            for b in pts:
                assert not (a[0] >= b[0] and a[1] >= b[1] and a != b) or not (
                    a[0] > b[0] or a[1] > b[1]
                )

    def test_locked_plots_in_every_individual(self, small_synthetic):
        inst = small_synthetic
        locked_floor = np.repeat(inst.locked, inst.floor_counts)
        for alg in ("SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO"):
            rec = run_engine(inst, small_cfg(alg, generations=15, seed=2))
            for row in inst.codec.decode_rows(rec.population.values):
                assert np.array_equal(row[locked_floor], inst.actual_codes[locked_floor])

    def test_population_size_constant(self, small_synthetic):
        for alg in ("SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO"):
            rec = run_engine(small_synthetic, small_cfg(alg, generations=10))
            assert rec.population.n == 30


class TestSoa:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            small_cfg("SOA", soa_a=0.7, soa_b=0.7)
        # Only SOA reads the weights.
        small_cfg("CR_DES", soa_a=0.7, soa_b=0.7)

    def test_wrong_algorithm_rejected(self, tiny1):
        # run_engine runs the configured algorithm; a name that is not one
        # (a label, another spelling) is refused when the config is built.
        with pytest.raises(ValueError):
            small_cfg("CR_DES_C")
        with pytest.raises(ValueError):
            small_cfg("soa")
        with pytest.raises(ValueError):
            small_cfg("MSBX-NSGA2")
        with pytest.raises(ValueError):
            small_cfg("")
        for alg in ALGORITHMS:
            assert run_engine(tiny1, small_cfg(alg, generations=2)).algorithm == alg

    def test_survival_order_is_descending_score_then_index(self):
        from landalloc.engines import _soa_fitness, _soa_order

        rng = np.random.default_rng(8)
        cfg = small_cfg("SOA", soa_a=0.25, soa_b=0.75)
        for _ in range(200):
            pop = mixed_population(rng)  # ties in every key
            scores = dense_rank(pop.feasible, -pop.violation, _soa_fitness(pop, cfg))
            want = np.argsort(-scores, kind="stable")
            assert np.array_equal(_soa_order(pop, cfg), want)

    def test_degenerate_price_weight_finds_best_price(self, tiny1):
        best_price = brute_force_best_scalar(tiny1, a_price=1.0, b_compat=0.0)
        cfg = small_cfg("SOA", soa_a=1.0, soa_b=0.0, population_size=20, generations=80)
        rec = run_engine(tiny1, cfg)
        assert len(rec.front_indices) == 1
        got = rec.population.price[rec.front_indices[0]]
        assert got == pytest.approx(best_price, rel=1e-9)

    def test_degenerate_compat_weight_finds_best_compatibility(self, tiny1):
        best_compat = brute_force_best_scalar(tiny1, a_price=0.0, b_compat=1.0)
        cfg = small_cfg("SOA", soa_a=0.0, soa_b=1.0, population_size=20, generations=80)
        rec = run_engine(tiny1, cfg)
        got = rec.population.compatibility[rec.front_indices[0]]
        assert got == pytest.approx(best_compat, rel=1e-9)

    def test_exhaustive_scalar_optimum_with_mixed_weights(self, tiny1):
        a, b = 0.6, 0.4
        best = brute_force_best_scalar(tiny1, a_price=a, b_compat=b)
        cfg = small_cfg("SOA", soa_a=a, soa_b=b, population_size=20, generations=80)
        rec = run_engine(tiny1, cfg)
        best_idx = rec.front_indices[0]
        got = a * rec.population.price[best_idx] + b * rec.population.compatibility[best_idx]
        assert got == pytest.approx(best, rel=1e-9)


class TestMsbxMoFixedPoint:
    def test_identical_population_zero_scale_children_equal_parents(self, tiny1):
        # scaled_add with F = 0 returns the target; SBX of identical parents
        # returns the parents, so the composed variation is the identity.
        vx = tiny1.actual_values[None, :]
        mutant = scaled_add_batch(vx, vx.copy(), 0.0, tiny1)
        assert np.array_equal(mutant, vx)
        cfg = OperatorConfig(crossover_plot_fraction=1.0)
        pair = np.concatenate((mutant, vx))
        sbx_batch(pair, np.arange(1), 1, cfg, tiny1, np.random.default_rng(0))
        assert np.array_equal(pair, np.concatenate((vx, vx)))


    @pytest.mark.parametrize("f", [0.5, 3.0])
    def test_engine_step_with_zero_donors_is_identity(self, f, small_synthetic):
        # Unlocked values all 0 make every joining plot's donor 0, so each
        # mutant is its parent and SBX(x, x) = x; locked plots keep their
        # as-built, non-zero values and never join.
        from landalloc.engines import _offspring_msbx_mo

        inst = small_synthetic
        assert inst.locked.any() and (inst.actual_values[inst.locked] > 0).any()
        values = np.repeat(np.where(inst.locked, inst.actual_values, 0)[None, :], 20, axis=0)
        ops = OperatorConfig(sbx_eta=1.0, de_scale=f, crossover_plot_fraction=1.0)
        cfg = small_cfg("MSBX_MO", population_size=20, operator_cfg=ops)
        pop = Population.evaluate(inst, values)
        children, anchors = _offspring_msbx_mo(inst, cfg, pop, np.random.default_rng(6))
        assert np.array_equal(children, values)
        assert np.array_equal(anchors, np.arange(20))


class TestMsbxMoFusedVariation:
    """`_offspring_msbx_mo` on plot values must give the children of the
    operator-by-operator composition on code rows, and leave the generator
    in the same state."""

    @pytest.fixture(scope="class")
    def instances(self):
        from landalloc.instance_io import GeneratorSpec, generate_synthetic

        def grid(width, height, seed):
            return generate_synthetic(
                GeneratorSpec(grid_width=width, grid_height=height, rng_seed=seed)
            )

        return {"grid12x10": grid(12, 10, 5), "grid43x30": grid(43, 30, 7)}

    # (de_scale, crossover_plot_fraction) per seed; seed 0 is the default.
    SETTINGS = ((0.5, 0.2), (0.8, 0.5), (1.0, 1.0), (0.3, 0.1), (2.0, 0.7))

    @pytest.mark.parametrize("name", ["tiny1", "grid12x10", "grid43x30"])
    def test_matches_composition_on_code_rows(self, name, tiny1, instances):
        from landalloc.engines import _offspring_msbx_mo

        inst = tiny1 if name == "tiny1" else instances[name]
        for seed, (f, frac) in enumerate(self.SETTINGS):
            ops = OperatorConfig(de_scale=f, crossover_plot_fraction=frac)
            cfg = small_cfg("MSBX_MO", population_size=40, operator_cfg=ops)
            draw = np.random.default_rng(100 + seed)
            codes = np.repeat(inst.actual_codes[None, :], 40, axis=0)
            redraw = (draw.random(codes.shape) < 0.3) & np.repeat(~inst.locked, inst.floor_counts)
            codes[redraw] = draw.integers(0, inst.n_uses, size=int(redraw.sum()))
            pop = Population.evaluate(inst, inst.codec.encode_rows(codes))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, anchors = _offspring_msbx_mo(inst, cfg, pop, rng)
            want = naive_msbx_mo_children(inst, codes, ops, ref_rng)
            assert got.dtype == np.int64
            assert np.array_equal(inst.codec.decode_rows(got), want)
            assert np.array_equal(anchors, np.arange(40))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def tall_locked_instance(k):
    """Plots of 1 .. f_max floors at K = k, the tallest with K^f <= 2^62; every third is locked."""
    from landalloc.model import LandUse, Plot, ProblemInstance

    f_max = max(f for f in range(1, 63) if k**f <= 2**62)
    plots = [
        Plot(i, f, 100.0, (), i % 3 == 2, tuple(m % k for m in range(f)))
        for i, f in enumerate(range(1, f_max + 1))
    ]
    uses = [LandUse(m, str(m)) for m in range(k)]
    n = len(plots)
    return ProblemInstance(plots, uses, np.eye(k), np.ones((n, k)), 0.5, 1.0, 0.0, 1e9)


class TestMutateSbxOffspring:
    """SOA's and MSBX_NSGA2's in-place step against its whole-row composition."""

    @pytest.mark.parametrize("replacement", ["random", "polynomial"])
    @pytest.mark.parametrize("mutation_probability", [0.0, 0.3, 1.0])
    def test_matches_whole_row_composition(self, replacement, mutation_probability):
        from landalloc import operators
        from landalloc.engines import _offspring_mutate_sbx

        solo = getattr(operators, f"{replacement}_mutation_batch")
        draw = np.random.default_rng(90)
        cases = [tall_locked_instance(k) for k in (2, 3, 6)]
        cases += [random_instance(draw, n_plots=7, k=k, max_floors=4, locked_fraction=0.3)
                  for k in (2, 3, 6)]
        for case in cases:
            # Few distinct rows, so that many SBX joins meet equal parents.
            distinct = draw.integers(0, case.codec.max_values + 1, size=(4, case.n_plots))
            distinct[:, case.locked] = case.actual_values[case.locked]
            values = distinct[draw.integers(0, 4, size=12)]
            pop = Population.evaluate(case, values)
            before = values.copy()
            for lam, eta, budget in ((2, 20.0, 1), (7, 1.0, 2), (31, 20.0, 9), (30, 1.0, 0)):
                ops = OperatorConfig(sbx_eta=eta, crossover_plot_fraction=0.5,
                                     mutation_plot_budget=budget)
                cfg = small_cfg("SOA", population_size=lam, operator_cfg=ops,
                                mutation_probability=mutation_probability)
                pool = draw.integers(0, pop.n, size=lam // 2)
                seed = int(draw.integers(1 << 30))
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, anchors = _offspring_mutate_sbx(case, cfg, pop, pool, rng, solo)
                want, want_anchors = naive_mutate_sbx_offspring(
                    case, values, pool, lam, mutation_probability, ops, replacement, ref
                )
                assert got.shape == (lam, case.n_plots) and got.dtype == np.int64
                assert np.array_equal(got, want)
                assert np.array_equal(anchors, want_anchors)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert np.array_equal(got[:, case.locked], values[anchors][:, case.locked])
            assert np.array_equal(pop.values, before)

    @pytest.mark.parametrize("replacement", ["random", "polynomial"])
    def test_one_mutation_call_per_branch_picks_per_row(self, replacement, monkeypatch):
        # Each branch mutates all its rows in one call, in child order, and
        # each row still gets min(budget, N_unlocked) distinct unlocked picks.
        from landalloc import operators
        from landalloc.engines import _offspring_mutate_sbx

        calls = []
        real = operators._pick_plots_batch

        def spy(rows, budget, inst, rng):
            at = real(rows, budget, inst, rng)
            calls.append((rows.copy(), at))
            return at

        monkeypatch.setattr(operators, "_pick_plots_batch", spy)
        solo = getattr(operators, f"{replacement}_mutation_batch")
        case = tall_locked_instance(3)
        n_unlocked = len(case.unlocked_ids)
        values = np.repeat(case.actual_values[None, :], 10, axis=0)
        pop = Population.evaluate(case, values)
        for lam, budget in ((31, 1), (30, 3), (17, n_unlocked + 4)):
            ops = OperatorConfig(mutation_plot_budget=budget)
            cfg = small_cfg("SOA", population_size=lam, operator_cfg=ops, mutation_probability=0.5)
            calls.clear()
            _offspring_mutate_sbx(case, cfg, pop, np.arange(5), np.random.default_rng(lam), solo)
            assert len(calls) == 2  # seeds with both branches taken
            rows = np.concatenate([r for r, _ in calls])
            assert np.array_equal(np.sort(rows), np.arange(2 * ((lam + 1) // 2)))
            take = min(budget, n_unlocked)
            for r, at in calls:
                assert (np.diff(r) > 0).all() and np.array_equal(r[0::2] + 1, r[1::2])
                picked_rows, plots = np.divmod(at.reshape(len(r), take), case.n_plots)
                assert (picked_rows == r[:, None]).all()
                assert not case.locked[plots].any()
                assert all(len(set(row)) == take for row in plots.tolist())


class TestCrDesOffspring:
    """CR_DES's buffered step against its unit-by-unit construction."""

    @pytest.mark.parametrize("de_child_probability", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_matches_unit_by_unit_construction(self, de_child_probability, fraction):
        from landalloc.engines import _offspring_cr_des

        draw = np.random.default_rng(91)
        cases = [tall_locked_instance(k) for k in (2, 3, 6)]
        cases += [random_instance(draw, n_plots=7, k=k, max_floors=4, locked_fraction=0.3)
                  for k in (2, 3, 6)]
        ops = OperatorConfig(crossover_plot_fraction=fraction)
        for case in cases:
            values = draw.integers(0, case.codec.max_values + 1, size=(12, case.n_plots))
            values[:, case.locked] = case.actual_values[case.locked]
            pop = Population.evaluate(case, values)
            before = values.copy()
            for lam in (2, 7, 17, 30):
                cfg = small_cfg("CR_DES", population_size=lam, operator_cfg=ops,
                                de_child_probability=de_child_probability)
                pool = draw.integers(0, pop.n, size=lam // 2)
                seed = int(draw.integers(1 << 30))
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, anchors = _offspring_cr_des(case, cfg, pop, pool, rng)
                want, want_anchors = naive_cr_des_offspring(
                    case, values, pool, lam, de_child_probability, ops, ref
                )
                assert got.shape == (lam, case.n_plots) and got.dtype == np.int64
                assert anchors.dtype == np.int64
                assert np.array_equal(got, want)
                assert np.array_equal(anchors, want_anchors)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert (got[:, case.locked] == case.actual_values[case.locked]).all()
            assert np.array_equal(pop.values, before)


class TestOffspringShapes:
    def test_cr_des_emits_population_size_children(self, small_synthetic):
        from landalloc.engines import _offspring_cr_des

        inst = small_synthetic
        cfg = _resolved(inst, small_cfg("CR_DES", population_size=17))
        rng = np.random.default_rng(4)
        pop = initial_population(inst, cfg, rng)
        out, anchors = _offspring_cr_des(inst, cfg, pop, np.arange(8), rng)
        assert out.shape == (17, inst.n_plots)
        assert anchors.shape == (17,)

    def test_msbx_mo_one_child_per_parent(self, small_synthetic):
        from landalloc.engines import _offspring_msbx_mo

        inst = small_synthetic
        cfg = _resolved(inst, small_cfg("MSBX_MO", population_size=12))
        rng = np.random.default_rng(5)
        pop = initial_population(inst, cfg, rng)
        out, anchors = _offspring_msbx_mo(inst, cfg, pop, rng)
        assert out.shape == (12, inst.n_plots)
        assert anchors.shape == (12,)


class TestOperatorRouting:
    """The engines vary through the public in-place operators by name, where a
    wrapper in `landalloc.engines`' namespace, such as a tracer's, sees them."""

    def test_each_engine_reaches_its_operators(self, small_synthetic, monkeypatch):
        from landalloc import engines

        names = ("sbx_batch", "uniform_batch", "random_mutation_batch", "polynomial_mutation_batch")
        reached = set()
        for name in names:
            real = getattr(engines, name)
            monkeypatch.setattr(
                engines, name, lambda *a, _name=name, _real=real: reached.add(_name) or _real(*a)
            )
        want = {
            "SOA": {"sbx_batch", "random_mutation_batch"},
            "MSBX_NSGA2": {"sbx_batch", "random_mutation_batch", "polynomial_mutation_batch"},
            "CR_DES": {"uniform_batch", "random_mutation_batch"},
            "MSBX_MO": {"random_mutation_batch"},  # the init only; its trials are DE's
        }
        for alg in ALGORITHMS:
            reached.clear()
            # Half the pairs take the solo-mutation branch of SOA and MSBX_NSGA2.
            run_engine(small_synthetic, small_cfg(alg, population_size=8, generations=2,
                                                  mutation_probability=0.5))
            assert reached == want[alg], alg


class TestAnchoredOffspring:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_children_equal_their_anchors_without_variation(self, alg, small_synthetic):
        # With no crossover plots and no mutation plots, every anchored child
        # is a copy of its anchor; only CR_DES difference children have none.
        inst = small_synthetic
        ops = OperatorConfig(crossover_plot_fraction=0.0, mutation_plot_budget=0)
        cfg = _resolved(
            inst, small_cfg(alg, population_size=30, de_child_probability=0.5, operator_cfg=ops)
        )
        rng = np.random.default_rng(8)
        pop = initial_population(inst, cfg, rng)
        values, anchors = _VARIATIONS[alg](inst, cfg, pop, rng)
        assert values.shape == (30, inst.n_plots)
        assert ((anchors >= -1) & (anchors < pop.n)).all()
        anchored = anchors >= 0
        assert np.array_equal(values[anchored], pop.values[anchors[anchored]])
        assert anchored.all() == (alg != "CR_DES")


class TestFinalFeasibleArchive:
    """`offer` copies only the joining candidates, yet keeps the members of
    the naive rebuild: concatenate, `pareto_indices`, take."""

    @staticmethod
    def naive_offer(members, candidates):
        ok = candidates.take(np.flatnonzero(candidates.feasible))
        if not ok.n:
            return members
        merged = ok if members is None else members.concat(ok)
        return merged.take(pareto_indices(merged.objectives()))

    @classmethod
    def candidates(cls, rng, first_id, n, kind):
        """`n` tagged members (values[:, 0] is a unique id); `feasible` is the in-band mask."""
        objs = rng.integers(0, 6, size=(n, 2)).astype(float)  # many duplicates
        if kind == "dominated":
            objs -= 10.0
        feasible = rng.random(n) < 0.6
        if kind == "empty":
            feasible[:] = False
        return cls.tagged(rng, first_id, objs, feasible)

    @staticmethod
    def tagged(rng, first_id, objs, feasible):
        n = len(objs)
        return Population(
            values=np.arange(first_id, first_id + n)[:, None],
            compatibility=objs[:, 0],
            price=objs[:, 1],
            areas=rng.random((n, 2)),
            changed=rng.integers(0, 9, n),
            rank=rng.integers(0, 3, n),
            crowd=rng.random(n),
            feasible=feasible,
            violation=rng.random(n),
        )

    def test_matches_naive_rebuild(self, monkeypatch):
        monkeypatch.setattr(
            Population, "in_band_and_box", lambda pop, inst, gamma: pop.feasible.copy()
        )
        rng = np.random.default_rng(12)
        kinds = ("mixed", "mixed", "dominated", "empty")
        for _ in range(200):
            archive = _FinalFeasibleArchive(None, RelaxationSchedule(0.5, 0.5, 1.0, 1.0))
            want = None
            next_id = 0
            for kind in rng.choice(kinds, size=int(rng.integers(1, 12))):
                n = int(rng.integers(0, 15))
                offer = self.candidates(rng, next_id, n, kind)
                next_id += n
                before, before_points = archive.members, archive.points
                archive.offer(offer)
                want = self.naive_offer(want, offer)
                if want is None:
                    assert archive.members is None
                    assert archive.points.shape == (0, 2)
                    continue
                for got_col, want_col in zip(Population.columns(archive.members),
                                             Population.columns(want)):
                    assert np.array_equal(got_col, want_col)
                assert archive.points.tobytes() == want.objectives().tobytes()
                if before is not None and before.n == want.n and np.array_equal(
                    before.values, want.values
                ):
                    # nothing joined: nothing copied
                    assert archive.members is before and archive.points is before_points

    def test_no_join_keeps_members_and_points(self, monkeypatch):
        """In-band candidates equal to or dominated by members, and out-of-band
        ones that would dominate them all: none joins, and nothing is rebuilt."""
        monkeypatch.setattr(
            Population, "in_band_and_box", lambda pop, inst, gamma: pop.feasible.copy()
        )
        rng = np.random.default_rng(13)
        for _ in range(100):
            archive = _FinalFeasibleArchive(None, RelaxationSchedule(0.5, 0.5, 1.0, 1.0))
            first = self.candidates(rng, 0, 12, "mixed")
            first.feasible[0] = True
            archive.offer(first)
            want = self.naive_offer(None, first)
            members, points = archive.members, archive.points
            n = int(rng.integers(1, 15))
            objs = points[rng.integers(0, len(points), size=n)] - rng.integers(0, 3, size=(n, 2))
            feasible = rng.random(n) < 0.7
            feasible[0] = True
            objs[~feasible] += 20.0
            offer = self.tagged(rng, 12, objs, feasible)
            archive.offer(offer)
            assert archive.members is members and archive.points is points
            want = self.naive_offer(want, offer)
            for got_col, want_col in zip(Population.columns(members), Population.columns(want)):
                assert np.array_equal(got_col, want_col)
            assert points.tobytes() == want.objectives().tobytes()


class TestHvTrace:
    def test_repeated_archive_states_measured_once(self, tiny1, monkeypatch):
        """Equal to each snapshot's own `hypervolume_2d(normalize(s))`, bit for
        bit, with one HV call per distinct non-empty array."""
        import landalloc.metrics as metrics
        from landalloc.engines import _hv_trace

        rng = np.random.default_rng(17)
        actual = tiny1.actual_objectives
        a, b, c = (metrics.pareto_filter(actual + rng.normal(0, 5, size=(k, 2))) for k in (2, 6, 9))
        empty = np.zeros((0, 2))
        snapshots = [empty, empty, a, a, a, b, np.zeros((0, 2)), b, b, c, c, a]
        universe = np.vstack([s for s in snapshots if s.size] + [actual[None, :]])
        bounds = metrics.NormalizationBounds.from_points(universe)
        want = [
            metrics.hypervolume_2d(metrics.normalize(s, bounds)) if s.size else 0.0
            for s in snapshots
        ]
        calls = []
        hv = metrics.hypervolume_2d
        monkeypatch.setattr(metrics, "hypervolume_2d", lambda pts: calls.append(1) or hv(pts))
        got = _hv_trace(tiny1, snapshots)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert len(calls) == 3


class TestRecordValues:
    """Offspring carry search values (delta steps from their anchors); the
    population a RunRecord holds carries one full evaluation."""

    @pytest.fixture(scope="class")
    def grid12x10(self):
        from landalloc.instance_io import GeneratorSpec, generate_synthetic

        return generate_synthetic(GeneratorSpec(grid_width=12, grid_height=10, rng_seed=3))

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_stored_values_are_one_full_evaluation(self, alg, grid12x10, monkeypatch):
        import landalloc.model as model

        delta_rows = []
        kernel = model._delta_stats

        def spy(inst_, values, *rest):
            delta_rows.append(len(values))
            return kernel(inst_, values, *rest)

        monkeypatch.setattr(model, "_delta_stats", spy)
        cfg = _resolved(grid12x10, small_cfg(alg, population_size=100, generations=30))
        pop = run_engine(grid12x10, cfg).population
        assert delta_rows  # the delta path ran
        full = evaluate_batch(grid12x10, pop.values)
        for stored, fresh in (
            (pop.compatibility, full.compatibility), (pop.price, full.price),
            (pop.areas, full.areas), (pop.changed, full.changed),
        ):
            assert stored.tobytes() == fresh.tobytes()
        check = Population(full.compatibility, full.price, full.areas, full.changed, pop.values)
        _refresh_pop(grid12x10, check, cfg.relax.gamma_final, cfg.relax.mu_final)
        assert np.array_equal(check.feasible, pop.feasible)
        assert check.violation.tobytes() == pop.violation.tobytes()


def test_search_values_stay_within_rounding_of_full_values(monkeypatch):
    """One default 43x30 run per engine: the final population's search values
    (delta steps chained over 150 generations) against its full evaluation."""
    import landalloc.engines as engines
    from landalloc.instance_io import GeneratorSpec, generate_synthetic

    from conftest import ACCEPTANCE_LINES

    inst = generate_synthetic(GeneratorSpec(grid_width=43, grid_height=30, rng_seed=7))
    gaps = {}
    evaluate_in_full = engines._evaluate_in_full

    def spy(inst_, pop, gamma, mu):
        search = (pop.compatibility.copy(), pop.price.copy(), pop.areas.copy(), pop.changed.copy())
        evaluate_in_full(inst_, pop, gamma, mu)
        assert np.array_equal(search[3], pop.changed)
        gaps[alg] = max(
            float(np.max(np.abs(s - f) / np.maximum(np.abs(s), np.abs(f))))
            for s, f in zip(search[:3], (pop.compatibility, pop.price, pop.areas))
        )

    monkeypatch.setattr(engines, "_evaluate_in_full", spy)
    for alg in ALGORITHMS:
        run_engine(inst, EngineConfig(algorithm=alg, seed=1))
    line = "search vs full values, 43x30 seed-7 runs: max relative gap " + ", ".join(
        f"{alg} {gap:.1e}" for alg, gap in gaps.items()
    ) + " (tol 1e-12)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert max(gaps.values()) <= 1e-12
