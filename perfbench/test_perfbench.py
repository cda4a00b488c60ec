"""Tests of the benchmark's own checkers, plus toy-size runs of each workload.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
import run
import workloads

BENCH = Path(__file__).resolve().parent

# Two plots, two uses, each the other's neighbor (the tiny1 instance of the
# package's tests): as built, x0 = (1/2, 1/2), x1 = (1, 0), F = (100, 200).
TWO_PLOTS = {
    "version": 1,
    "uses": [{"id": 0, "name": "residential"}, {"id": 1, "name": "commercial"}],
    "plots": [
        {"id": 0, "floors": 2, "floor_space": 100.0, "neighbors": [1], "locked": False, "actual_uses": [0, 1]},
        {"id": 1, "floors": 2, "floor_space": 200.0, "neighbors": [0], "locked": False, "actual_uses": [0, 0]},
    ],
    "compat": [[1.0, -0.5], [-0.5, 1.0]],
    "price": [[10.0, 20.0], [30.0, 15.0]],
    "gamma": 0.3, "mu": 0.2, "price_min": 40.0, "price_max": 50.0,
}


def test_naive_evaluator_hand_values():
    inst = checkers.NaiveInstance(TWO_PLOTS)
    # each ordered pair adds (x_i C . x_j) F_i F_j = 0.25 * 20000
    built = inst.evaluate([0, 1, 0, 0])
    assert built == {"compatibility": 10000.0, "price": 45.0, "areas": [250.0, 50.0], "changed": 0}
    # all commercial: x C . x = 1 per pair; price 20 + 15
    other = inst.evaluate([1, 1, 1, 1])
    assert other == {"compatibility": 40000.0, "price": 35.0, "areas": [0.0, 300.0], "changed": 2}
    assert inst.final_feasible(built, 0.3)
    assert not inst.final_feasible(other, 0.3)  # area band and price box both broken


def test_exhaustive_pareto_on_two_plots():
    inst = checkers.NaiveInstance(TWO_PLOTS)
    front = checkers.exhaustive_pareto(inst)
    assert (10000.0, 45.0) in front
    for p in front:
        assert not any(checkers.dominates(q, p) for q in front)
    assert checkers.in_set((10000.0 * (1 + 1e-12), 45.0), front)
    assert not checkers.in_set((10001.0, 45.0), front)


def _entry(c, p, tag):
    return {"compatibility": c, "price": p, "seed": tag, "floor_uses": [tag]}


def test_pareto_union_keeps_input_order_and_first_duplicate():
    entries = [
        _entry(1.0, 5.0, 0),
        _entry(3.0, 3.0, 1),
        _entry(2.0, 2.0, 2),  # dominated by (3, 3)
        _entry(5.0, 1.0, 3),
        _entry(3.0, 3.0, 4),  # duplicate point: the first copy stays
        _entry(5.0, 0.5, 5),  # weakly dominated by (5, 1)
    ]
    assert [e["seed"] for e in checkers.pareto_union(entries)] == [0, 1, 3]
    assert checkers.pareto_union([]) == []


def test_kruskal_h_hand_value_and_ties():
    assert checkers.kruskal_h([[1, 2, 3], [4, 5, 6]]) == pytest.approx(3.857, abs=5e-4)
    assert checkers.kruskal_h([[2.0, 2.0], [2.0]]) == 0.0
    scipy_stats = pytest.importorskip("scipy.stats")
    groups = [[1.0, 2.0, 2.0, 7.0], [2.0, 3.0, 9.0], [4.0, 4.0, 5.0, 1.0]]
    assert checkers.kruskal_h(groups) == pytest.approx(scipy_stats.kruskal(*groups).statistic, rel=1e-12)


def test_cld_rule_is_iff():
    significant = {
        frozenset(("A", "B")): False,
        frozenset(("A", "C")): True,
        frozenset(("B", "C")): False,
    }
    assert checkers.cld_violations({"A": "a", "B": "ab", "C": "b"}, significant) == []
    # A and C share a letter although their pair is significant
    assert len(checkers.cld_violations({"A": "a", "B": "a", "C": "a"}, significant)) == 1
    # A and B share none although their pair is not
    assert len(checkers.cld_violations({"A": "a", "B": "b", "C": "b"}, significant)) == 1


def _toy(plans):
    """Shrink a workload: small grids, few generations, small populations."""
    for plan in plans:
        plan.instance.generate = ["6x5" if a == "43x30" else a for a in plan.instance.generate]
        small = {"generations": 30} if plan.pareto_check else {"generations": 3, "population_size": 8}
        plan.config = dict(plan.config, engines=[dict(e, **small) for e in plan.config["engines"]])
        plan.repeats = 1
    return plans


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_runs(name, trace, monkeypatch, capsys):
    original = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, lambda seed: _toy(original(seed)))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(out["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
