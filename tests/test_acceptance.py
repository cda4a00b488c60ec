"""Acceptance suite: one test per criterion, each emitting a pass/fail line.

The timed criteria (1, 6, 10) enforce their wall-clock budgets; the 20x20
relaxation runs are executed once in a session fixture and shared by the
relaxation, convergence and unrelaxation checks.
"""

import math
import time

import numpy as np
import pytest

import landalloc as la
from landalloc import metrics
from landalloc.engines import RelaxationSchedule
from landalloc.harness import ExperimentConfig, record_to_json, run_experiment
from landalloc.instance_io import GeneratorSpec, generate_synthetic, save_instance
from landalloc.model import area_band_mask, evaluate_batch, price_box_mask
from landalloc.operators import OperatorConfig
from landalloc.report import generate_report

from conftest import ACCEPTANCE_LINES
from oracles import (
    brute_force_pareto,
    matrix_fronts_oracle,
    naive_compatibility,
    naive_price,
    random_instance,
)

RUN_SEEDS = (1, 2, 3, 4, 5)


def _record(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def _front_points(rec):
    return rec.population.objectives()[rec.front_indices]


# ---------------------------------------------------------------------------
# shared 20x20 relaxation experiment (criteria 6, 7, 9)


@pytest.fixture(scope="session")
def relaxation_runs():
    spec = GeneratorSpec(
        grid_width=20, grid_height=20, use_count=3, floor_range=(1, 4),
        use_mix_noise=0.25, rng_seed=101,
    )
    inst = generate_synthetic(spec)
    op = OperatorConfig(crossover_plot_fraction=0.2, mutation_plot_budget=2)
    out = {"instance": inst, "elapsed": None}
    t0 = time.perf_counter()
    for name, relax in [
        ("relaxed", RelaxationSchedule(0.8, 0.2, 0.3, 0.2)),
        ("unrelaxed", RelaxationSchedule(0.3, 0.2, 0.3, 0.2)),
    ]:
        out[name] = [
            la.run_engine(
                inst,
                la.EngineConfig(
                    algorithm="CR_DES", population_size=100, generations=150,
                    seed=s, relax=relax, operator_cfg=op,
                ),
            )
            for s in RUN_SEEDS
        ]
    out["elapsed"] = time.perf_counter() - t0
    return out


class TestCriterion1BruteForceParetoOracle:
    @staticmethod
    def _tiny_spec(w: int, h: int, uses: int, seed: int) -> GeneratorSpec:
        # constraints sized to the instance scale: at a handful of plots the
        # full-scale defaults (+-10% price box, 30% band, mu*N < 2) turn every
        # single change infeasible and no search can traverse the space
        return GeneratorSpec(
            grid_width=w, grid_height=h, use_count=uses, floor_range=(1, 1),
            locked_fraction=0.0, use_mix_noise=0.4, rng_seed=seed,
            price_low_factor=0.7, price_high_factor=1.4, gamma=1.0, mu=1.0,
        )

    def test_engine_fronts_subset_of_enumerated_pareto(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2718)
        # micro search spaces (16..32 cells): MSBX_MO's scaled-add can only
        # raise plot codes, so its front coverage rides on the random
        # initialization reaching every Pareto cell
        shapes = [((2, 2), 2), ((5, 1), 2), ((3, 1), 3), ((4, 1), 2)]
        specs = []
        for k in range(20):
            (w, h), uses = shapes[k % 4]
            specs.append(self._tiny_spec(w, h, uses, int(rng.integers(0, 10_000))))
        op = OperatorConfig(
            mutation_plot_budget=2, de_scale=1.0, sbx_eta=1.0,
            crossover_plot_fraction=0.5,
        )
        pops = {"SOA": 64, "MSBX_NSGA2": 64, "CR_DES": 64, "MSBX_MO": 128}
        failures = []
        checked = 0
        for spec in specs:
            inst = generate_synthetic(spec)
            # a use absent from the actual map pins its area band to [0, 0],
            # collapsing the feasible set to near-clones of the actual map;
            # skip those degenerate draws deterministically
            while (inst.actual_areas == 0).any():
                spec = self._tiny_spec(
                    spec.grid_width, spec.grid_height, spec.use_count,
                    spec.rng_seed + 10_000,
                )
                inst = generate_synthetic(spec)
            bits = inst.total_floors * math.log2(inst.n_uses)
            assert bits <= 16, f"instance too large to enumerate ({bits:.1f} bits)"
            true_set = brute_force_pareto(inst)
            for alg in la.ALGORITHMS:
                hits = 0
                for seed in RUN_SEEDS:
                    cfg = la.EngineConfig(
                        algorithm=alg, population_size=pops[alg], generations=150,
                        seed=seed, operator_cfg=op, mutation_probability=0.2,
                        init_change_fraction=1.0,
                    )
                    rec = la.run_engine(inst, cfg)
                    pts = set(map(tuple, _front_points(rec).tolist()))
                    if pts and pts <= true_set:
                        hits += 1
                checked += 1
                if hits < 4:
                    failures.append(f"{alg} on seed-{spec.rng_seed} instance: {hits}/5")
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed <= 120.0
        _record(
            f"criterion 1 {'PASS' if ok else 'FAIL'}: fronts within enumerated Pareto "
            f"set on {checked} (instance, engine) pairs, >=4/5 seeds each; "
            f"{elapsed:.0f}s (budget 120s)"
            + (f"; failures: {failures}" if failures else "")
        )
        assert not failures, failures
        assert elapsed <= 120.0, f"criterion 1 exceeded its runtime budget: {elapsed:.0f}s"


class TestCriterion2ObjectiveOracles:
    def test_objectives_match_naive_loops(self):
        rng = np.random.default_rng(577)
        worst_c = worst_p = 0.0
        for _ in range(100):
            inst = random_instance(rng, n_plots=int(rng.integers(3, 9)))
            row = rng.integers(0, inst.n_uses, size=inst.total_floors).astype(np.int16)
            stats = evaluate_batch(inst, inst.codec.encode_rows(row))
            c_fast, c_slow = stats.compatibility[0], naive_compatibility(inst, row)
            p_fast, p_slow = stats.price[0], naive_price(inst, row)
            if c_slow != 0:
                worst_c = max(worst_c, abs(c_fast - c_slow) / abs(c_slow))
            else:
                worst_c = max(worst_c, abs(c_fast - c_slow))
            worst_p = max(worst_p, abs(p_fast - p_slow) / max(abs(p_slow), 1e-300))
        ok = worst_c <= 1e-9 and worst_p <= 1e-9
        _record(
            f"criterion 2 {'PASS' if ok else 'FAIL'}: objectives vs naive loops on 100 "
            f"pairs, worst rel err compat={worst_c:.2e} price={worst_p:.2e} (tol 1e-9)"
        )
        assert ok


class TestCriterion3IndicatorAnalytics:
    def test_hand_values_and_clamp_ordering(self):
        hv1 = metrics.hypervolume_2d(np.array([[0.5, 0.5]]))
        hv2 = metrics.hypervolume_2d(np.array([[1.0, 0.2], [0.4, 0.8]]))
        # 0.44 is not representable as the exact strip sum of these float
        # inputs; one ulp is the closest any correctly rounded sum can get
        checks = [
            hv1 == 0.25,
            abs(hv2 - 0.44) <= 1e-15,
            metrics.gd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0,
            metrics.gd(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [5.0, 0.0]])) == 0.0,
            metrics.igd(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [0.0, 1.0]])) == 0.0,
        ]
        rng = np.random.default_rng(31415)
        clamp_ok = True
        for _ in range(1000):
            a = rng.random((int(rng.integers(1, 8)), 2)) * 5
            z = rng.random((int(rng.integers(1, 8)), 2)) * 5
            clamp_ok &= metrics.gd_plus(a, z) <= metrics.gd(a, z) + 1e-12
            clamp_ok &= metrics.igd_plus(z, a) <= metrics.igd(z, a) + 1e-12
        ok = all(checks) and clamp_ok
        _record(
            f"criterion 3 {'PASS' if ok else 'FAIL'}: HV hand values (0.25 exact, 0.44 "
            f"within one ulp), gd/igd zero and 3-4-5 cases exact, clamp ordering on "
            f"1000 random front pairs"
        )
        assert all(checks)
        assert clamp_ok


class TestCriterion4SortingOracle:
    def test_nds_matches_matrix_oracle(self):
        rng = np.random.default_rng(999)
        mismatches = 0
        for _ in range(100):
            pts = rng.random((200, 2)) * rng.integers(1, 50)
            if rng.random() < 0.3:  # inject duplicates and ties
                pts = np.round(pts, 1)
            fast = [sorted(f) for f in la.fast_non_dominated_sort(pts)]
            slow = matrix_fronts_oracle(pts)
            mismatches += fast != slow
        _record(
            f"criterion 4 {'PASS' if mismatches == 0 else 'FAIL'}: fast NDS equals the "
            f"O(n^2) dominance oracle on 100 random 200-point clouds "
            f"({mismatches} mismatches)"
        )
        assert mismatches == 0


class TestCriterion5Statistics:
    def test_kruskal_hand_value_and_cld_invariant(self):
        h, df, p = la.kruskal_wallis(
            [la.SampleGroup("a", (1, 2, 3)), la.SampleGroup("b", (4, 5, 6))]
        )
        kw_ok = abs(h - 3.857) <= 0.001 and 0.048 <= p <= 0.051
        rng = np.random.default_rng(404)
        from landalloc.stats import PairwiseResult

        flagged = 0
        violations = 0
        for _ in range(500):
            k = int(rng.integers(2, 7))
            labels = [chr(ord("A") + i) for i in range(k)]
            sig = {
                frozenset((labels[i], labels[j]))
                for i in range(k)
                for j in range(i + 1, k)
                if rng.random() < 0.35
            }
            pairwise = [
                PairwiseResult(
                    (labels[i], labels[j]), 0.0, 0.5, 0.5,
                    frozenset((labels[i], labels[j])) in sig,
                )
                for i in range(k)
                for j in range(i + 1, k)
            ]
            cld = la.compact_letter_display(pairwise, labels)
            if not cld.consistent:
                flagged += 1
                continue
            for i in range(k):
                for j in range(i + 1, k):
                    share = cld.shares_letter(labels[i], labels[j])
                    if share == (frozenset((labels[i], labels[j])) in sig):
                        violations += 1
        ok = kw_ok and violations == 0
        _record(
            f"criterion 5 {'PASS' if ok else 'FAIL'}: KW H={h:.4f} (3.857+-0.001), "
            f"p={p:.4f} in [0.048, 0.051]; CLD iff-invariant on 500 random matrices "
            f"({flagged} flagged excluded, {violations} violations)"
        )
        assert ok


class TestCriterion6RelaxationEffect:
    def test_relaxed_median_hv_not_worse(self, relaxation_runs):
        inst = relaxation_runs["instance"]
        stacks = [
            _front_points(r)
            for key in ("relaxed", "unrelaxed")
            for r in relaxation_runs[key]
            if _front_points(r).size
        ]
        bounds = metrics.NormalizationBounds.from_points(
            np.vstack(stacks + [inst.actual_objectives.as_array()[None, :]])
        )
        hv = {
            key: [
                metrics.hypervolume_2d(metrics.normalize(_front_points(r), bounds))
                if _front_points(r).size
                else 0.0
                for r in relaxation_runs[key]
            ]
            for key in ("relaxed", "unrelaxed")
        }
        med_rel = float(np.median(hv["relaxed"]))
        med_unr = float(np.median(hv["unrelaxed"]))
        elapsed = relaxation_runs["elapsed"]
        ok = med_rel >= med_unr and elapsed <= 600.0
        _record(
            f"criterion 6 {'PASS' if ok else 'FAIL'}: median final HV relaxed "
            f"{med_rel:.4f} >= unrelaxed {med_unr:.4f} over 5 seeds on the 20x20 "
            f"instance; runs took {elapsed:.0f}s (budget 600s)"
        )
        assert med_rel >= med_unr
        assert elapsed <= 600.0


class TestCriterion7ConvergenceShape:
    def test_traces_monotone_and_tail_converged(self, relaxation_runs):
        worst_violation = 0.0
        for key in ("relaxed", "unrelaxed"):
            for rec in relaxation_runs[key]:
                tr = rec.hv_trace
                for a, b in zip(tr, tr[1:]):
                    worst_violation = max(worst_violation, a - b)
        # "CR+DES" names the unrelaxed baseline; relaxed variants are the
        # paper's _A.._H family
        tails = [
            (r.hv_trace[-1] - r.hv_trace[-51]) / max(r.hv_trace[-1], 1e-300)
            for r in relaxation_runs["unrelaxed"]
        ]
        mono_ok = worst_violation <= 1e-12
        tail_ok = max(tails) <= 0.01
        _record(
            f"criterion 7 {'PASS' if mono_ok and tail_ok else 'FAIL'}: archive HV "
            f"non-decreasing on all 10 acceptance runs (worst step {worst_violation:.1e}); "
            f"CR+DES final-50-generation change max {max(tails) * 100:.2f}% (tol 1%)"
        )
        assert mono_ok
        assert tail_ok

    def test_traces_monotone_for_every_engine_small(self, small_synthetic):
        worst = 0.0
        for alg in la.ALGORITHMS:
            rec = la.run_engine(
                small_synthetic,
                la.EngineConfig(algorithm=alg, population_size=20, generations=40, seed=2),
            )
            for a, b in zip(rec.hv_trace, rec.hv_trace[1:]):
                worst = max(worst, a - b)
        _record(
            f"criterion 7b {'PASS' if worst <= 1e-12 else 'FAIL'}: HV trace "
            f"non-decreasing for all four engines (worst step {worst:.1e})"
        )
        assert worst <= 1e-12


class TestCriterion8DeterminismPersistence:
    def test_byte_identical_records_and_reports(self, tmp_path):
        inst = generate_synthetic(
            GeneratorSpec(grid_width=3, grid_height=3, use_count=3, floor_range=(1, 2), rng_seed=6)
        )
        inst_path = save_instance(inst, tmp_path / "inst.landalloc.json")
        doc = {
            "instance": str(inst_path),
            "output": str(tmp_path / "bundle"),
            "seeds": [1, 2],
            "engines": [
                {"label": "CR+DES", "algorithm": "CR_DES", "population_size": 12,
                 "generations": 10},
                {"label": "MSBX+MO", "algorithm": "MSBX_MO", "population_size": 12,
                 "generations": 10},
            ],
        }
        run_experiment(ExperimentConfig.from_dict(doc))
        bundle = tmp_path / "bundle"
        runs1 = {p.name: p.read_bytes() for p in sorted((bundle / "runs").glob("*.json"))}
        run_experiment(ExperimentConfig.from_dict(doc))
        runs2 = {p.name: p.read_bytes() for p in sorted((bundle / "runs").glob("*.json"))}
        records_ok = runs1 == runs2 and len(runs1) == 4

        generate_report(bundle)
        rep1 = {p.name: p.read_bytes() for p in sorted((bundle / "report").iterdir())}
        generate_report(bundle)
        rep2 = {p.name: p.read_bytes() for p in sorted((bundle / "report").iterdir())}
        report_ok = rep1 == rep2 and rep1

        # in-memory determinism of a single engine run
        cfg = la.EngineConfig(algorithm="MSBX_NSGA2", population_size=15, generations=12, seed=9)
        same = record_to_json("x", la.run_engine(inst, cfg), inst) == record_to_json(
            "x", la.run_engine(inst, cfg), inst
        )
        ok = records_ok and bool(report_ok) and same
        _record(
            f"criterion 8 {'PASS' if ok else 'FAIL'}: rerun RunRecords byte-identical "
            f"({len(runs1)} files), report regeneration byte-identical "
            f"({len(rep1)} files), seeded reruns bit-identical"
        )
        assert records_ok and report_ok and same


class TestCriterion9UnrelaxationFilter:
    def test_relaxed_fronts_satisfy_original_constraints(self, relaxation_runs):
        inst = relaxation_runs["instance"]
        survivor_counts = []
        violations = 0
        for rec in relaxation_runs["relaxed"]:
            survivor_counts.append(len(rec.front_indices))
            for row in rec.population.values[rec.front_indices]:
                stats = evaluate_batch(inst, row[None, :])
                if not (area_band_mask(inst, stats.areas[0], 0.3)
                        and price_box_mask(inst, stats.price[0])):
                    violations += 1
        ok = violations == 0 and min(survivor_counts) >= 1
        _record(
            f"criterion 9 {'PASS' if ok else 'FAIL'}: every relaxed-run front member "
            f"satisfies the original gamma band and price box ({violations} violations); "
            f"survivors per seed: {survivor_counts}"
        )
        assert violations == 0
        assert min(survivor_counts) >= 1


class TestCriterion10ScaleCheck:
    def test_full_scale_run_within_budget(self):
        t0 = time.perf_counter()
        inst = generate_synthetic(GeneratorSpec(grid_width=43, grid_height=30, rng_seed=1))
        assert inst.n_plots == 1290
        cfg = la.EngineConfig(
            algorithm="CR_DES", population_size=100, generations=150, seed=1,
            operator_cfg=OperatorConfig(crossover_plot_fraction=0.2, mutation_plot_budget=2),
        )
        rec = la.run_engine(inst, cfg)
        elapsed = time.perf_counter() - t0
        ok = elapsed <= 600.0 and len(rec.hv_trace) == 150
        _record(
            f"criterion 10 {'PASS' if ok else 'FAIL'}: 1290-plot run "
            f"(100 pop x 150 gen, CR+DES) in {elapsed:.0f}s (budget 600s), "
            f"front size {len(rec.front_indices)}"
        )
        assert len(rec.hv_trace) == 150
        assert elapsed <= 600.0
