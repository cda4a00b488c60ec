import json
from itertools import combinations

import numpy as np
import pytest

from landalloc.model import codes_in_range_mask, locked_kept_mask
from landalloc.operators import (
    OperatorConfig,
    _pick_plots_batch,
    de_trial_batch,
    polynomial_mutation_batch,
    polynomial_values,
    random_mutation_batch,
    sbx_batch,
    scaled_add_batch,
    scaled_difference_batch,
    tournament_indices,
    uniform_batch,
)

from oracles import (
    decode_uses,
    dense_rank,
    encode_uses,
    naive_floyd_picks,
    naive_per_plot_sbx,
    naive_polynomial_mutation,
    naive_random_mutation,
    naive_sbx,
    random_instance,
    score_tournament,
)


# The in-place crossovers and mutations applied to whole batches.


def crossed(op, values1, values2, cfg, inst, rng):
    """`op`'s children of the paired (B, N) rows, crossed in place on a stack of both."""
    b = len(values1)
    out = np.concatenate((values1, values2))
    op(out, np.arange(b), b, cfg, inst, rng)
    return out[:b], out[b:]


def mutated(op, values, cfg, inst, rng):
    """`op`'s mutants of the (B, N) rows, mutated in place on a copy."""
    out = values.copy()
    op(out, np.arange(len(out)), cfg, inst, rng)
    return out


# The operators applied to code rows, encoded before and decoded after.


def sbx_codes(codes1, codes2, cfg, inst, rng):
    codec = inst.codec
    c1, c2 = crossed(
        sbx_batch, codec.encode_rows(codes1), codec.encode_rows(codes2), cfg, inst, rng
    )
    return codec.decode_rows(c1), codec.decode_rows(c2)


def uniform_codes(codes1, codes2, cfg, inst, rng):
    codec = inst.codec
    c1, c2 = crossed(
        uniform_batch, codec.encode_rows(codes1), codec.encode_rows(codes2), cfg, inst, rng
    )
    return codec.decode_rows(c1), codec.decode_rows(c2)


def random_mutation_codes(codes, cfg, inst, rng):
    codec = inst.codec
    return codec.decode_rows(
        mutated(random_mutation_batch, codec.encode_rows(codes), cfg, inst, rng)
    )


def polynomial_codes(codes, cfg, inst, rng):
    codec = inst.codec
    return codec.decode_rows(
        mutated(polynomial_mutation_batch, codec.encode_rows(codes), cfg, inst, rng)
    )


def scaled_add_codes(target, donor, f, inst):
    codec = inst.codec
    return codec.decode_rows(
        scaled_add_batch(codec.encode_rows(target), codec.encode_rows(donor), f, inst)
    )


def scaled_difference_codes(a, b, f, inst):
    codec = inst.codec
    return codec.decode_rows(
        scaled_difference_batch(codec.encode_rows(a), codec.encode_rows(b), f, inst)
    )


def rand_codes(inst, rng):
    """One random (1, total_floors) code row."""
    return rng.integers(0, inst.n_uses, size=(1, inst.total_floors)).astype(np.int16)


def assert_valid(codes, inst):
    """Each row has one code per floor, every code in [0, K), locked plots as built."""
    assert codes.shape[1] == inst.total_floors
    assert codes_in_range_mask(inst, codes).all()
    assert locked_kept_mask(inst, inst.codec.encode_rows(codes)).all()


@pytest.fixture
def inst():
    rng = np.random.default_rng(42)
    return random_instance(rng, n_plots=6, k=3, max_floors=4, locked_fraction=0.3)


class TestEncoding:
    def test_paper_example_122_is_17(self):
        assert encode_uses([1, 2, 2], 3) == 17
        assert decode_uses(17, 3, 3).tolist() == [1, 2, 2]

    def test_roundtrip_exhaustive_small(self):
        for base, digits in [(2, 4), (3, 3)]:
            for v in range(base**digits):
                assert encode_uses(decode_uses(v, base, digits), base) == v

    def test_decode_range_check(self):
        with pytest.raises(ValueError):
            decode_uses(8, 2, 3)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_tall_building_refused(self, tmp_path, k):
        # One floor above the tallest allowed plot: K^f > 2^62 does not fit the int64 codec
        from landalloc.instance_io import InstanceRangeError, instance_to_dict, load_instance

        f = tallest_floors(k) + 1
        doc = instance_to_dict(tall_instance(k))
        plot = doc["plots"][-1]
        plot["floors"] = f
        plot["actual_uses"] = [k - 1] * f
        path = tmp_path / "tall.landalloc.json"
        path.write_text(json.dumps(doc))
        message = f"plot {plot['id']}: {f} floors at K = {k} give K\\^f > 2\\^62"
        with pytest.raises(InstanceRangeError, match=message):
            load_instance(path)
        with pytest.raises(ValueError, match=message):
            tall_instance(k, extra=1)


def _digit_table_width(k):
    w = 1
    while k ** (w + 1) <= 8192:
        w += 1
    return w


class TestCodecDigitTable:
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_roundtrip_across_chunk_boundaries(self, k):
        from landalloc.model import LandUse, Plot, ProblemInstance
        from landalloc.operators import PlotCodec

        w = _digit_table_width(k)
        floors = [1, w, w + 1, 2 * w + 1, tallest_floors(k)]
        plots = [Plot(i, f, 100.0, (), False, (0,) * f) for i, f in enumerate(floors)]
        uses = [LandUse(m, str(m)) for m in range(k)]
        n = len(plots)
        inst = ProblemInstance(plots, uses, np.eye(k), np.ones((n, k)), 0.5, 1.0, 0.0, 1e9)
        codec = PlotCodec(inst)
        assert codec._width == w
        rng = np.random.default_rng(k)
        codes = rng.integers(0, k, size=(6, inst.total_floors)).astype(np.int16)
        codes[0] = 0
        codes[1] = k - 1
        values = codec.encode_rows(codes)
        assert int(values[1, -1]) == k ** floors[-1] - 1
        decoded = codec.decode_rows(values)
        assert decoded.dtype == codes.dtype
        assert np.array_equal(decoded, codes)
        for r in range(len(codes)):  # the per-plot divmod loop as reference
            for i, f in enumerate(floors):
                lo = inst.floor_offsets[i]
                assert np.array_equal(decoded[r, lo : lo + f], decode_uses(int(values[r, i]), k, f))
        assert np.array_equal(codec.decode_rows(values[2]), codes[2:3])


    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_empty_batch_both_ways(self, k):
        # One table lookup (the fixture's short plots) and several chunks (tall plots).
        for inst in (random_instance(np.random.default_rng(k), 6, k, 4, 0.3), tall_instance(k)):
            codes = inst.codec.decode_rows(np.zeros((0, inst.n_plots), dtype=np.int64))
            assert codes.shape == (0, inst.total_floors)
            assert codes.dtype == inst.actual_codes.dtype
            values = inst.codec.encode_rows(codes)
            assert values.shape == (0, inst.n_plots) and values.dtype == np.int64


class TestTournament:
    def test_seeded_reproducibility(self):
        rank = np.array([1, 0])  # member 0 is the fitter
        pools = [tournament_indices((rank,), 10, np.random.default_rng(99)) for _ in range(2)]
        assert np.array_equal(pools[0], pools[1])
        assert np.count_nonzero(pools[0] == 0) >= np.count_nonzero(pools[0] == 1)

    def test_equal_fitness_is_uniform(self):
        rng = np.random.default_rng(1)
        pool = tournament_indices((np.zeros(2),), 20000, rng)
        freq = np.count_nonzero(pool == 0) / len(pool)
        assert freq == pytest.approx(0.5, abs=0.02)

    def test_binary_tournament_probability(self):
        # best of three is drawn in a pair with prob 5/9
        rng = np.random.default_rng(2)
        pool = tournament_indices((np.array([2, 1, 0]),), 10000, rng)
        assert np.count_nonzero(pool == 0) / len(pool) == pytest.approx(5 / 9, abs=0.02)

    def test_zero_pool_is_empty_and_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        pool = tournament_indices((np.array([1, 0, 2]),), 0, rng)
        assert pool.shape == (0,) and pool.dtype == np.int64
        assert rng.bit_generator.state == state

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_indices((np.zeros(0),), 1, np.random.default_rng(0))

    def test_key_tuples_match_a_dense_rank_tournament(self):
        """With ties in every key, the pools and the generator's end state equal
        those of tournaments on each member's dense rank of its key tuple."""
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            nsga_keys = (  # (-rank, crowd), boundary members at +inf
                -rng.integers(0, 3, n),
                np.where(rng.random(n) < 0.3, np.inf, rng.integers(0, 3, n) / 2.0),
            )
            soa_keys = (  # (feasible, -violation, fitness)
                rng.random(n) < 0.5,
                -rng.integers(0, 3, n) / 4.0,
                rng.integers(-2, 2, n).astype(float),
            )
            for keys in (nsga_keys, soa_keys):
                size, seed = int(rng.integers(1, 30)), int(rng.integers(2**32))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = tournament_indices(keys, size, got_rng)
                want = score_tournament(dense_rank(*keys), size, want_rng)
                assert np.array_equal(got, want)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSbx:
    def test_identical_parents_fixed_point(self, inst):
        rng = np.random.default_rng(0)
        a = rand_codes(inst, rng)
        for eta in (0.5, 2.0, 20.0, 500.0):
            cfg = OperatorConfig(sbx_eta=eta, crossover_plot_fraction=1.0)
            c1, c2 = sbx_codes(a, a.copy(), cfg, inst, np.random.default_rng(5))
            assert np.array_equal(c1, a)
            assert np.array_equal(c2, a)

    def test_children_valid_over_many_trials(self, inst):
        rng = np.random.default_rng(11)
        cfg = OperatorConfig(crossover_plot_fraction=0.7)
        locked_floor = np.repeat(inst.locked, inst.floor_counts)
        for _ in range(300):
            p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
            p1[:, locked_floor] = inst.actual_codes[locked_floor]
            p2[:, locked_floor] = inst.actual_codes[locked_floor]
            c1, c2 = sbx_codes(p1, p2, cfg, inst, rng)
            assert_valid(c1, inst)
            assert_valid(c2, inst)

    def test_seeded_determinism(self, inst):
        rng = np.random.default_rng(3)
        p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
        cfg = OperatorConfig()
        out1 = sbx_codes(p1, p2, cfg, inst, np.random.default_rng(7))
        out2 = sbx_codes(p1, p2, cfg, inst, np.random.default_rng(7))
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_zero_fraction_is_identity(self, inst):
        rng = np.random.default_rng(4)
        p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
        cfg = OperatorConfig(crossover_plot_fraction=0.0)
        c1, c2 = sbx_codes(p1, p2, cfg, inst, rng)
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)


class TestUniformCrossover:
    def test_zero_probability_copies(self, inst):
        rng = np.random.default_rng(6)
        p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
        c1, c2 = uniform_codes(p1, p2, OperatorConfig(crossover_plot_fraction=0.0), inst, rng)
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)

    def test_full_swap_plotwise(self, inst):
        rng = np.random.default_rng(8)
        p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
        c1, c2 = uniform_codes(p1, p2, OperatorConfig(crossover_plot_fraction=1.0), inst, rng)
        unlocked_floor = np.repeat(~inst.locked, inst.floor_counts)
        assert np.array_equal(c1[:, unlocked_floor], p2[:, unlocked_floor])
        assert np.array_equal(c2[:, unlocked_floor], p1[:, unlocked_floor])
        assert np.array_equal(c1[:, ~unlocked_floor], p1[:, ~unlocked_floor])

    def test_positional_material_is_conserved(self, inst):
        rng = np.random.default_rng(10)
        cfg = OperatorConfig(crossover_plot_fraction=0.5)
        for _ in range(200):
            p1, p2 = rand_codes(inst, rng), rand_codes(inst, rng)
            c1, c2 = uniform_codes(p1, p2, cfg, inst, rng)
            for t in range(inst.total_floors):
                assert {int(c1[0, t]), int(c2[0, t])} == {int(p1[0, t]), int(p2[0, t])}


class TestRandomMutation:
    def test_zero_budget_is_identity(self, inst):
        rng = np.random.default_rng(12)
        a = rand_codes(inst, rng)
        out = random_mutation_codes(a, OperatorConfig(mutation_plot_budget=0), inst, rng)
        assert np.array_equal(out, a)

    def test_redraw_is_uniform(self):
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [Plot(0, 1, 10.0, (), False, (0,))]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst1 = ProblemInstance(plots, uses, np.eye(2), np.ones((1, 2)), 0.5, 1.0, 0.0, 100.0)
        rng = np.random.default_rng(14)
        cfg = OperatorConfig(mutation_plot_budget=1)
        a = inst1.actual_codes[None, :]
        ones = sum(int(random_mutation_codes(a, cfg, inst1, rng)[0, 0]) for _ in range(10000))
        assert ones / 10000 == pytest.approx(0.5, abs=0.02)

    def test_locked_plots_never_touched(self, inst):
        rng = np.random.default_rng(16)
        cfg = OperatorConfig(mutation_plot_budget=inst.n_plots)
        locked_floor = np.repeat(inst.locked, inst.floor_counts)
        a = inst.actual_codes[None, :]
        for _ in range(500):
            out = random_mutation_codes(a, cfg, inst, rng)
            assert np.array_equal(out[:, locked_floor], a[:, locked_floor])


class TestPolynomialMutation:
    def test_huge_eta_rarely_moves(self, inst):
        rng = np.random.default_rng(18)
        cfg = OperatorConfig(poly_eta=1e6, mutation_plot_budget=2)
        a = inst.actual_codes[None, :]
        same = sum(
            np.array_equal(polynomial_codes(a, cfg, inst, rng), a)
            for _ in range(2000)
        )
        assert same / 2000 >= 0.99

    def test_degenerate_domain_is_identity(self):
        vals = np.array([0.0, 0.0])
        out = polynomial_values(vals, np.zeros(2), 20.0, np.array([0.3, 0.9]))
        assert np.array_equal(out, np.zeros(2))

    def test_output_always_in_range(self, inst):
        rng = np.random.default_rng(20)
        cfg = OperatorConfig(poly_eta=2.0, mutation_plot_budget=inst.n_plots)
        for _ in range(300):
            a = rand_codes(inst, rng)
            out = polynomial_codes(a, cfg, inst, rng)
            assert out.min() >= 0
            assert out.max() < inst.n_uses


class TestScaledOperators:
    def test_scaled_add_zero_factor_returns_target(self, inst):
        rng = np.random.default_rng(22)
        t, d = rand_codes(inst, rng), rand_codes(inst, rng)
        out = scaled_add_codes(t, d, 0.0, inst)
        assert np.array_equal(out, t)

    def test_scaled_add_hand_case(self):
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [Plot(0, 3, 10.0, (), False, (0, 0, 0))]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst1 = ProblemInstance(plots, uses, np.eye(2), np.ones((1, 2)), 0.5, 1.0, 0.0, 100.0)
        target = np.array([[0, 1, 1]], dtype=np.int16)  # encodes to 3
        donor = np.array([[1, 0, 0]], dtype=np.int16)  # encodes to 4
        out = scaled_add_codes(target, donor, 0.5, inst1)  # 3 + round(2.0) = 5
        assert out.tolist() == [[1, 0, 1]]

    def test_scaled_add_entry_form_matches_rows(self, inst):
        # The 1-D form with each entry's plot gives the (B, N) result at those entries.
        rng = np.random.default_rng(25)
        codec = inst.codec
        t = codec.encode_rows(rng.integers(0, inst.n_uses, size=(8, inst.total_floors)))
        d = codec.encode_rows(rng.integers(0, inst.n_uses, size=(8, inst.total_floors)))
        at = rng.permutation(t.size)[:20]
        plots = at % inst.n_plots
        assert inst.locked[plots].any() and not inst.locked[plots].all()
        out = scaled_add_batch(t.take(at), d.take(at), 0.7, inst, plots)
        assert np.array_equal(out, scaled_add_batch(t, d, 0.7, inst).take(at))

    def test_scaled_difference_hand_case(self):
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [Plot(0, 2, 10.0, (), False, (0, 0))]
        uses = [LandUse(m, str(m)) for m in range(3)]
        inst1 = ProblemInstance(plots, uses, np.eye(3), np.ones((1, 3)), 0.5, 1.0, 0.0, 100.0)
        a = np.array([[2, 1]], dtype=np.int16)  # 7
        b = np.array([[0, 2]], dtype=np.int16)  # 2
        out = scaled_difference_codes(a, b, 1.0, inst1)  # 5 -> [1, 2]
        assert out.tolist() == [[1, 2]]

    def test_scaled_difference_self_gives_all_zero(self, inst):
        rng = np.random.default_rng(24)
        a = rand_codes(inst, rng)
        out = scaled_difference_codes(a, a.copy(), 0.7, inst)
        unlocked_floor = np.repeat(~inst.locked, inst.floor_counts)
        assert not out[:, unlocked_floor].any()

    def test_negative_difference_clamps_to_zero(self):
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [Plot(0, 3, 10.0, (), False, (0, 0, 0))]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst1 = ProblemInstance(plots, uses, np.eye(2), np.ones((1, 2)), 0.5, 1.0, 0.0, 100.0)
        a = np.array([[0, 0, 0]], dtype=np.int16)  # 0
        b = np.array([[1, 1, 1]], dtype=np.int16)  # 7
        out = scaled_difference_codes(a, b, 1.5, inst1)
        assert out.tolist() == [[0, 0, 0]]

    def test_results_always_valid(self, inst):
        rng = np.random.default_rng(26)
        locked_floor = np.repeat(inst.locked, inst.floor_counts)
        for _ in range(300):
            a, b = rand_codes(inst, rng), rand_codes(inst, rng)
            a[:, locked_floor] = inst.actual_codes[locked_floor]
            f = float(rng.uniform(0.1, 2.0))
            assert_valid(scaled_add_codes(a, b, f, inst), inst)
            out = scaled_difference_codes(a, b, f, inst)
            assert out.min() >= 0 and out.max() < inst.n_uses


def tallest_floors(k):
    """The most floors a plot may have at K = k: K^f <= 2^62."""
    return max(f for f in range(1, 63) if k**f <= 2**62)


def tall_instance(k, extra=0):
    """One unlocked plot per floor count 1..f_max, the tallest allowed at K = k;
    the last plot gets `extra` more floors."""
    from landalloc.model import LandUse, Plot, ProblemInstance

    floors = list(range(1, tallest_floors(k) + 1))
    floors[-1] += extra
    plots = [Plot(i, f, 100.0, (), False, (0,) * f) for i, f in enumerate(floors)]
    uses = [LandUse(m, str(m)) for m in range(k)]
    n = len(plots)
    return ProblemInstance(plots, uses, np.eye(k), np.ones((n, k)), 0.5, 1.0, 0.0, 1e9)


class TestTallPlots:
    """The value operators stay exact on plots whose codes pass 2^53, up to
    the tallest plot the int64 codec allows."""

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_zero_donor_is_identity(self, k):
        inst = tall_instance(k)
        codec = inst.codec
        assert int(codec.max_values[-1]) > 2**53
        rng = np.random.default_rng(k)
        x = rng.integers(0, k, size=(50, inst.total_floors)).astype(np.int16)
        x[0] = k - 1  # every plot at its largest value
        zero = np.zeros_like(x)
        for f in (0.5, 1.0, 3.7):
            assert np.array_equal(scaled_add_codes(x, zero, f, inst), x)
        vx = codec.encode_rows(x)
        assert np.array_equal(scaled_add_batch(vx, np.zeros_like(vx), 0.5, inst), vx)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_huge_scale_clamps_without_overflow(self, k):
        inst = tall_instance(k)
        codec = inst.codec
        rng = np.random.default_rng(10 + k)
        vx = codec.encode_rows(rng.integers(0, k, size=(20, inst.total_floors)))
        vd = codec.encode_rows(rng.integers(0, k, size=(20, inst.total_floors)))
        moved = scaled_add_batch(vx, vd, 1e200, inst)
        assert np.array_equal(moved, np.where(vd > 0, codec.max_values, vx))
        moved = scaled_difference_batch(vx, vd, 1e200, inst)
        assert np.array_equal(moved, np.where(vx > vd, codec.max_values, 0))
        # float(K^f - 1) may round up past K^f - 1; the clamp must not.
        top = np.broadcast_to(codec.max_values, vx.shape)
        moved = scaled_difference_batch(top, np.zeros_like(vx), 1.0, inst)
        assert (moved >= 0).all() and (moved <= codec.max_values).all()
        assert_valid(codec.decode_rows(moved), inst)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_sbx_identical_parents_fixed_point(self, k):
        inst = tall_instance(k)
        rng = np.random.default_rng(30 + k)
        x = rng.integers(0, k, size=(50, inst.total_floors)).astype(np.int16)
        x[0] = k - 1
        for eta in (0.5, 20.0):
            cfg = OperatorConfig(sbx_eta=eta, crossover_plot_fraction=1.0)
            c1, c2 = sbx_codes(x, x.copy(), cfg, inst, np.random.default_rng(5))
            assert np.array_equal(c1, x)
            assert np.array_equal(c2, x)

    @pytest.mark.parametrize("frac", [0.2, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_msbx_mo_step_matches_int64_composition(self, k, frac):
        # The code-row oracle `naive_msbx_mo_children` covers plots below
        # 2^53 only; here the fused engine step meets the int64 scaled add
        # composed with SBX on `de_trial_batch`'s per-plot joins, on plots
        # up to the tallest allowed.
        from landalloc.engines import EngineConfig, Population, _offspring_msbx_mo

        inst = tall_instance(k)
        codec = inst.codec
        rng = np.random.default_rng(40 + k)
        x = codec.encode_rows(rng.integers(0, k, size=(30, inst.total_floors)))
        x[0] = codec.max_values
        pop = Population.evaluate(inst, x)
        for seed, f in enumerate((0.5, 1.0, 2.5)):
            ops = OperatorConfig(de_scale=f, crossover_plot_fraction=frac)
            cfg = EngineConfig("MSBX_MO", population_size=30, operator_cfg=ops)
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, _ = _offspring_msbx_mo(inst, cfg, pop, got_rng)
            donors = ref_rng.integers(0, 29, size=30)
            donors += donors >= np.arange(30)
            mutant = scaled_add_batch(x, x[donors], f, inst)
            want = naive_per_plot_sbx(inst, mutant, x, ops, ref_rng)[1]
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_sbx_keeps_unselected_plots(self, k):
        inst = tall_instance(k)
        codec = inst.codec
        rng = np.random.default_rng(20 + k)
        p1 = rng.integers(0, k, size=(40, inst.total_floors)).astype(np.int16)
        p2 = rng.integers(0, k, size=(40, inst.total_floors)).astype(np.int16)
        cfg = OperatorConfig(crossover_plot_fraction=0.5)
        # The operator's first draw, one uniform per plot where the parents
        # differ in flat (row, plot) order, decides which plots join.
        differ = codec.encode_rows(p1) != codec.encode_rows(p2)
        joined = np.zeros(differ.shape, dtype=bool)
        joined[differ] = np.random.default_rng(5).random(np.count_nonzero(differ)) < 0.5
        assert joined.any() and not joined.all()
        c1, c2 = sbx_codes(p1, p2, cfg, inst, np.random.default_rng(5))
        kept = np.repeat(~joined, inst.floor_counts, axis=1)
        assert np.array_equal(c1[kept], p1[kept])
        assert np.array_equal(c2[kept], p2[kept])
        assert_valid(c1, inst)
        assert_valid(c2, inst)


class TestCountTable:
    """`PlotCodec.use_counts` and `plot_use_counts` against counts of the decoded floors."""

    @staticmethod
    def decoded_counts(inst, values):
        codes = inst.codec.decode_rows(values).astype(np.int64)
        keys = inst.floor_plot_index * inst.n_uses + codes
        return np.stack([
            np.bincount(row, minlength=inst.n_plots * inst.n_uses).reshape(inst.n_plots, -1)
            for row in keys
        ])

    @pytest.mark.parametrize("k, tallest", [(2, 62), (3, 39), (6, 23)])
    def test_matches_decoded_floors_up_to_the_tallest_plot(self, k, tallest):
        inst = tall_instance(k)  # plots of 1 to `tallest` floors
        assert inst.floor_counts.max() == tallest
        rng = np.random.default_rng(40 + k)
        codes = rng.integers(0, k, size=(30, inst.total_floors))
        codes[0], codes[1] = 0, k - 1
        values = inst.codec.encode_rows(codes)
        counts = inst.codec.use_counts(values)
        assert np.array_equal(counts, self.decoded_counts(inst, values))
        rows, plots = np.nonzero(np.ones(values.shape, dtype=bool))
        by_use = inst.codec.plot_use_counts(values[rows, plots], plots)
        assert np.array_equal(by_use.T, counts[rows, plots])

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_matches_decoded_floors_on_one_floor_plots(self, k):
        rng = np.random.default_rng(k)
        inst = random_instance(rng, n_plots=7, k=k, max_floors=1)
        values = rng.integers(0, k, size=(20, inst.n_plots))
        counts = inst.codec.use_counts(values)
        assert np.array_equal(counts, self.decoded_counts(inst, values))
        assert np.array_equal(counts, np.eye(k, dtype=np.int64)[values])


class TestValueOperators:
    """Uniform crossover and random mutation on plot values."""

    def test_random_mutation_changes_selected_unlocked_plots_only(self, inst):
        cfg = OperatorConfig(mutation_plot_budget=2)
        rng = np.random.default_rng(50)
        values = rng.integers(0, inst.codec.max_values + 1, size=(300, inst.n_plots))
        values[:, inst.locked] = inst.actual_values[inst.locked]
        for seed in range(5):
            selected = np.zeros(values.shape, dtype=bool)
            selected.flat[_pick_plots_batch(np.arange(len(values)), 2, inst, np.random.default_rng(seed))] = True
            out = mutated(random_mutation_batch, values, cfg, inst, np.random.default_rng(seed))
            assert not (selected & inst.locked).any()
            assert np.array_equal(out[~selected], values[~selected])
            assert (out != values).any()
            assert ((out >= 0) & (out <= inst.codec.max_values)).all()

    def test_random_mutation_reaches_every_value_of_a_three_floor_plot(self):
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [Plot(0, 3, 10.0, (1,), False, (0, 1, 1)), Plot(1, 2, 10.0, (0,), True, (1, 0))]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        inst2 = ProblemInstance(plots, uses, np.eye(2), np.ones((2, 2)), 0.5, 1.0, 0.0, 100.0)
        cfg = OperatorConfig(mutation_plot_budget=1)
        parents = np.tile(inst2.actual_values, (2000, 1))
        out = mutated(random_mutation_batch, parents, cfg, inst2, np.random.default_rng(31))
        assert set(out[:, 0].tolist()) == set(range(8))
        assert (out[:, 1] == inst2.actual_values[1]).all()

    def test_uniform_children_take_whole_plot_values(self, inst):
        cfg = OperatorConfig(crossover_plot_fraction=0.5)
        for case in (inst, tall_instance(2)):
            rng = np.random.default_rng(60)
            p1, p2 = (rng.integers(0, case.codec.max_values + 1, size=(200, case.n_plots))
                      for _ in range(2))
            c1, c2 = crossed(uniform_batch, p1, p2, cfg, case, rng)
            swapped = c1 != p1
            assert swapped.any() and not swapped.all()
            assert np.array_equal(c1[swapped], p2[swapped])
            assert np.array_equal(c2[swapped], p1[swapped])
            assert np.array_equal(c2[~swapped], p2[~swapped])
            assert np.array_equal(c1[:, case.locked], p1[:, case.locked])
            assert np.array_equal(c2[:, case.locked], p2[:, case.locked])


class TestPublicOperators:
    """The crossovers and mutations vary given rows of a buffer in place; the
    other operators return new arrays."""

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_in_place_operators_write_only_their_rows(self, k):
        draw = np.random.default_rng(105 + k)
        locked_case = random_instance(draw, n_plots=9, k=k, max_floors=4, locked_fraction=0.4)
        assert locked_case.locked.any()
        cfg = OperatorConfig(sbx_eta=1.0, poly_eta=1.0, crossover_plot_fraction=1.0,
                             mutation_plot_budget=9)
        crossing, gap = np.array([0, 3, 7]), 2  # rows 0, 3, 7 cross with rows 2, 5, 9
        mutating = np.array([1, 4, 6, 10])
        for case in (tall_instance(k), locked_case):
            # Random values everywhere, locked plots too, so that a write there would show.
            values = draw.integers(0, case.codec.max_values + 1, size=(12, case.n_plots))
            for op, args, written in (
                (sbx_batch, (crossing, gap), np.r_[crossing, crossing + gap]),
                (uniform_batch, (crossing, gap), np.r_[crossing, crossing + gap]),
                (random_mutation_batch, (mutating,), mutating),
                (polynomial_mutation_batch, (mutating,), mutating),
            ):
                out = values.copy()
                assert op(out, *args, cfg, case, np.random.default_rng(k)) is None
                kept = np.ones(len(out), dtype=bool)
                kept[written] = False
                assert out[kept].tobytes() == values[kept].tobytes()
                assert out[:, case.locked].tobytes() == values[:, case.locked].tobytes()
                assert (out[written] != values[written]).any()

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_sbx_matches_children_formed_at_every_entry(self, k):
        # Beta and the step are computed only where the parents differ; the
        # oracle computes them everywhere, with the same draws.
        draw = np.random.default_rng(100 + k)
        for case in (tall_instance(k), random_instance(draw, n_plots=7, k=k, locked_fraction=0.3)):
            v1 = draw.integers(0, case.codec.max_values + 1, size=(50, case.n_plots))
            v2 = np.where(draw.random(v1.shape) < 0.5, v1,
                          draw.integers(0, case.codec.max_values + 1, size=v1.shape))
            for eta in (1.0, 20.0):
                cfg = OperatorConfig(sbx_eta=eta, crossover_plot_fraction=0.6)
                rng, ref = np.random.default_rng(int(eta)), np.random.default_rng(int(eta))
                got = crossed(sbx_batch, v1, v2, cfg, case, rng)
                want = naive_sbx(case, v1, v2, cfg, ref)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_inputs_are_not_modified(self, inst):
        rng = np.random.default_rng(110)
        cfg = OperatorConfig(crossover_plot_fraction=0.8, mutation_plot_budget=3)
        v1, v2 = (rng.integers(0, inst.codec.max_values + 1, size=(30, inst.n_plots))
                  for _ in range(2))
        calls = [
            lambda: de_trial_batch(v1, cfg, inst, rng),
            lambda: scaled_add_batch(v1, v2, 0.5, inst),
            lambda: scaled_difference_batch(v1, v2, 0.5, inst),
        ]
        for call in calls:
            before1, before2 = v1.copy(), v2.copy()
            out = call()
            assert np.array_equal(v1, before1) and np.array_equal(v2, before2)
            for child in out if isinstance(out, tuple) else (out,):
                assert not np.shares_memory(child, v1) and not np.shares_memory(child, v2)


class TestSbxDrawsAtDifferingEntries:
    """SBX draws only at the unlocked entries where the parents differ; a
    join at an equal entry is the identity, so the per-entry law is kept."""

    def test_equal_parents_draw_nothing(self, inst):
        for case in (inst, tall_instance(3)):
            rng = np.random.default_rng(120)
            x = rng.integers(0, case.codec.max_values + 1, size=(40, case.n_plots))
            before = rng.bit_generator.state
            c1, c2 = crossed(sbx_batch, x, x, OperatorConfig(crossover_plot_fraction=1.0), case, rng)
            assert np.array_equal(c1, x) and np.array_equal(c2, x)
            assert rng.bit_generator.state == before

    def test_writes_only_differing_unlocked_entries(self):
        draw = np.random.default_rng(121)
        case = random_instance(draw, n_plots=9, k=6, max_floors=4, locked_fraction=0.4)
        assert case.locked.any()
        v1 = draw.integers(0, case.codec.max_values + 1, size=(60, case.n_plots))
        v2 = np.where(draw.random(v1.shape) < 0.4, v1,
                      draw.integers(0, case.codec.max_values + 1, size=v1.shape))
        differ = v1 != v2
        assert (differ & case.locked).any()  # the public operator may meet differing locked plots
        cfg = OperatorConfig(sbx_eta=1.0, crossover_plot_fraction=1.0)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        c1, c2 = crossed(sbx_batch, v1, v2, cfg, case, rng)
        kept = ~differ | case.locked
        assert np.array_equal(c1[kept], v1[kept]) and np.array_equal(c2[kept], v2[kept])
        assert (c1[~kept] != v1[~kept]).any()
        # Every differing unlocked entry joins at fraction 1: two uniforms each.
        ref.random(2 * np.count_nonzero(~kept))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_join_share_matches_the_plot_fraction(self):
        # Parents a quarter and three quarters up plots of 2^30 or more values
        # make every join move both children; shorter plots are equal.
        case = tall_instance(2)
        tall = case.codec.max_values >= 2**30
        quarter = np.where(tall, case.codec.max_values // 4, 0)
        v1 = np.repeat(quarter[None, :], 700, axis=0)
        v2 = 3 * v1
        n = np.count_nonzero(v1 != v2)
        assert n >= 20000
        for frac in (0.2, 0.5):
            cfg = OperatorConfig(sbx_eta=1.0, crossover_plot_fraction=frac)
            c1, c2 = crossed(sbx_batch, v1, v2, cfg, case, np.random.default_rng(122))
            moved = c1 != v1
            assert np.array_equal(moved, c2 != v2)
            assert not moved[:, ~tall].any()
            assert abs(np.count_nonzero(moved) / n - frac) <= 4 * np.sqrt(frac * (1 - frac) / n)


class TestFloydPicks:
    """`_pick_plots_batch` and the mutations that spend one draw per picked entry."""

    @staticmethod
    def four_unlocked():
        from landalloc.model import LandUse, Plot, ProblemInstance

        plots = [
            Plot(i, 1 + i % 2, 10.0, (), i in (1, 4), (i % 2,) * (1 + i % 2)) for i in range(6)
        ]
        uses = [LandUse(0, "a"), LandUse(1, "b")]
        return ProblemInstance(plots, uses, np.eye(2), np.ones((6, 2)), 0.5, 1.0, 0.0, 100.0)

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 9])
    def test_exactly_take_distinct_unlocked_plots_per_row(self, inst, budget):
        take = min(budget, len(inst.unlocked_ids))
        at = _pick_plots_batch(np.arange(500), budget, inst, np.random.default_rng(budget))
        assert at.shape == (500 * take,)
        rows, plots = np.divmod(at.reshape(500, take), inst.n_plots)
        assert (rows == np.arange(500)[:, None]).all()
        assert not inst.locked[plots].any()
        assert all(len(set(row)) == take for row in plots.tolist())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_subset_uniform_on_four_unlocked_plots(self, k):
        inst = self.four_unlocked()
        unlocked = inst.unlocked_ids.tolist()
        b = 20000
        plots = _pick_plots_batch(np.arange(b), k, inst, np.random.default_rng(70 + k)).reshape(b, k) % 6
        counts = {}
        for row in plots.tolist():
            key = tuple(sorted(row))
            counts[key] = counts.get(key, 0) + 1
        subsets = list(combinations(unlocked, k))
        assert set(counts) == set(subsets)
        p = 1 / len(subsets)
        tol = 5 * np.sqrt(p * (1 - p) / b)
        assert all(abs(c / b - p) <= tol for c in counts.values())
        rate = np.array([np.count_nonzero(plots == i) for i in unlocked]) / b
        p = k / 4
        assert np.all(np.abs(rate - p) <= 5 * np.sqrt(p * (1 - p) / b) + 1e-12)

    def test_picks_replay_floyd_rounds(self, inst):
        for budget in (0, 1, 2, 5):
            rng, ref = np.random.default_rng(budget), np.random.default_rng(budget)
            got = _pick_plots_batch(np.arange(40), budget, inst, rng) % inst.n_plots
            want = naive_floyd_picks(inst, 40, budget, ref)
            assert got.tolist() == [p for row in want for p in row]
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("budget", [0, 1, 2, 9])
    def test_mutations_replay_their_draw_order(self, budget):
        draw = np.random.default_rng(80)
        for case in (random_instance(draw, n_plots=6, k=3, max_floors=4, locked_fraction=0.3),
                     tall_instance(2), self.four_unlocked()):
            values = draw.integers(0, case.codec.max_values + 1, size=(60, case.n_plots))
            values[:, case.locked] = case.actual_values[case.locked]
            cfg = OperatorConfig(poly_eta=3.0, mutation_plot_budget=budget)
            for op, naive in (
                (random_mutation_batch, lambda v, r: naive_random_mutation(case, v, budget, r)),
                (polynomial_mutation_batch,
                 lambda v, r: naive_polynomial_mutation(case, v, 3.0, budget, r)),
            ):
                rng, ref = np.random.default_rng(budget), np.random.default_rng(budget)
                got = mutated(op, values, cfg, case, rng)
                assert got.dtype == np.int64
                assert np.array_equal(got, naive(values, ref))
                assert rng.bit_generator.state == ref.bit_generator.state


class TestConfigValidation:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            OperatorConfig(crossover_plot_fraction=1.5)
        with pytest.raises(ValueError):
            OperatorConfig(sbx_eta=0.0)
        with pytest.raises(ValueError):
            OperatorConfig(de_scale=0.0)
        with pytest.raises(ValueError):
            OperatorConfig(mutation_plot_budget=-1)
