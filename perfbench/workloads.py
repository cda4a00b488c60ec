"""The benchmark's workloads, driven through landalloc's command line.

A workload is a list of bundle plans. A plan is one experiment config on
one instance written by `landalloc generate`. A round takes the plans in
turn: `landalloc run --workers 1`, then `landalloc report` and
`landalloc verify` `repeats` times each, alternating, then the checks of
checkers.py. Operations: each (label, seed) run, each report and each
verify. A run whose final front is empty counts as failed.

The host's speed drifts by 10-30% over seconds to minutes, so a timing
taken in one short window is noisy. Every workload therefore splits its
runs over many bundles, so that each engine's runs and each step's
repeats are sampled at points spread over the whole round.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checkers

ALGORITHMS = ("SOA", "MSBX_NSGA2", "CR_DES", "MSBX_MO")
ENGINE_METRICS = {alg: f"{alg.lower()}_s" for alg in ALGORITHMS}
STEP_METRICS = ("cli_run_s", "cli_report_s", "cli_verify_s")


@dataclass
class InstancePlan:
    name: str
    generate: list[str]  # `landalloc generate` flags, --out excluded
    spec: dict | None = None  # generator spec document, passed with --spec


@dataclass
class BundlePlan:
    name: str
    instance: InstancePlan
    config: dict  # experiment config; the runner fills in instance and output
    repeats: int = 1  # report and verify calls per round
    pareto_check: bool = False  # fronts within the enumerated Pareto set


def paper_scale(seed: int) -> list[BundlePlan]:
    """The paper's 1,290 plots: each engine once, default settings, own bundle.

    The inputs are fixed (generator seed 7, run seed 1): three of the four
    runs end with an empty front because of the initialization fault in
    engines._init_codes / _refresh_pop, and a failing operation is only
    kept on inputs that do not depend on --seed.
    """
    inst = InstancePlan("paper_43x30", ["--grid", "43x30", "--uses", "3", "--seed", "7"])
    return [
        BundlePlan(
            f"paper_{alg.lower()}", inst,
            {"seeds": [1], "engines": [{"label": alg, "algorithm": alg}]}, repeats=5,
        )
        for alg in ALGORITHMS
    ]


def _tiny_spec(w: int, h: int, uses: int, rng_seed: int) -> dict:
    # the criterion-1 recipe: one floor per plot, constraints sized to the
    # instance so that single changes can stay feasible
    return {
        "grid_width": w, "grid_height": h, "use_count": uses, "floor_range": [1, 1],
        "locked_fraction": 0.0, "use_mix_noise": 0.4, "rng_seed": rng_seed,
        "price_low_factor": 0.7, "price_high_factor": 1.4, "gamma": 1.0, "mu": 1.0,
    }


MICRO_SHAPES = (((2, 2), 2), ((5, 1), 2), ((3, 1), 3), ((4, 1), 2))
MICRO_OPERATORS = {
    "mutation_plot_budget": 2, "de_scale": 1.0, "sbx_eta": 1.0, "crossover_plot_fraction": 0.5,
}
MICRO_POPULATION = {"SOA": 64, "MSBX_NSGA2": 64, "CR_DES": 64, "MSBX_MO": 128}


MICRO_SEEDS = (1, 2, 3, 4, 5)


def micro_oracle(seed: int) -> list[BundlePlan]:
    """Criterion-1 runs: one instance of each criterion-1 shape, drawn from --seed.

    Every engine runs on seeds 1-5, one bundle per (seed, instance); its
    fronts must lie inside the exhaustively enumerated Pareto set on at
    least 4 of the 5 seeds.
    """
    rng = random.Random(seed)
    engines = [
        {
            "label": alg, "algorithm": alg, "population_size": MICRO_POPULATION[alg],
            "generations": 150, "mutation_probability": 0.2, "init_change_fraction": 1.0,
            "operators": MICRO_OPERATORS,
        }
        for alg in ALGORITHMS
    ]
    instances = [
        InstancePlan(f"micro_{w}x{h}_k{uses}", [], _tiny_spec(w, h, uses, rng.randrange(10_000)))
        for (w, h), uses in MICRO_SHAPES
    ]
    return [
        BundlePlan(f"{inst.name}_s{s}", inst, {"seeds": [s], "engines": engines}, pareto_check=True)
        for s in MICRO_SEEDS
        for inst in instances
    ]


WORKLOADS = {"paper_scale": paper_scale, "micro_oracle": micro_oracle}


@dataclass
class RoundResult:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    peak_rss_kib: int = 0  # the process's peak resident set before the checks
    notes: list[str] = field(default_factory=list)


class Runner:
    """Runs a workload's plans in `workdir` through landalloc.cli.main."""

    def __init__(self, workdir: Path, cli_main, load_instance):
        self.workdir = workdir
        self.cli = cli_main
        self.load_instance = load_instance

    def _call(self, *argv) -> int:
        return self.cli([str(a) for a in argv])

    def _instance_path(self, inst: InstancePlan) -> Path:
        return self.workdir / "instances" / f"{inst.name}.landalloc.json"

    def _generate(self, inst: InstancePlan) -> Path:
        out = self._instance_path(inst)
        args = list(inst.generate)
        if inst.spec is not None:
            spec_path = out.with_suffix(".spec.json")
            spec_path.write_text(json.dumps(inst.spec), encoding="utf-8")
            args += ["--spec", spec_path]
        if self._call("generate", *args, "--out", out) != 0:
            raise checkers.CheckError(f"{inst.name}: landalloc generate failed")
        return out

    @staticmethod
    def _instances(plans: list[BundlePlan]) -> list[InstancePlan]:
        return list({id(p.instance): p.instance for p in plans}.values())

    def resolve(self, plans: list[BundlePlan]) -> None:
        """Redraw a tiny instance whose as-built map lacks a use.

        A use absent from the as-built map pins its area band to [0, 0];
        criterion 1 skips such draws the same deterministic way.
        """
        (self.workdir / "instances").mkdir(parents=True, exist_ok=True)
        for inst in self._instances(plans):
            while inst.spec is not None:
                doc = json.loads(self._generate(inst).read_text(encoding="utf-8"))
                present = {u for p in doc["plots"] for u in p["actual_uses"]}
                if len(present) == len(doc["uses"]):
                    break
                inst.spec["rng_seed"] += 10_000

    def setup(self, plans: list[BundlePlan]) -> float:
        """Write every instance and config, then load each instance once."""
        t0 = time.perf_counter()
        for inst in self._instances(plans):
            self.load_instance(self._generate(inst))
        for plan in plans:
            config = dict(plan.config, instance=str(self._instance_path(plan.instance)), output="results")
            path = self.workdir / plan.name / "experiment.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(config), encoding="utf-8")
        return time.perf_counter() - t0

    def round(self, plans: list[BundlePlan], index: int) -> RoundResult:
        """Run every plan, then check every bundle.

        The checks come after the last program call, so that `peak_rss_kib`
        holds the program's peak and not the checkers'.
        """
        res = RoundResult(dict.fromkeys([*ENGINE_METRICS.values(), *STEP_METRICS], 0.0))
        outs = []
        for plan in plans:
            out = self.workdir / plan.name / f"round{index}"
            config = self.workdir / plan.name / "experiment.json"
            t0 = time.perf_counter()
            rc = self._call("run", "--config", config, "--out", out, "--workers", "1")
            res.metrics["cli_run_s"] += time.perf_counter() - t0
            if rc not in (0, 3):  # 3: some run raised; it is counted below
                raise checkers.CheckError(f"{plan.name}: landalloc run exited {rc}")
            times = {"report": [], "verify": []}
            for _ in range(plan.repeats):
                for step, samples in times.items():
                    t0 = time.perf_counter()
                    rc = self._call(step, "--bundle", out)
                    samples.append(time.perf_counter() - t0)
                    if rc != 0:
                        raise checkers.CheckError(f"{plan.name}: landalloc {step} exited {rc}")
            for step, samples in times.items():
                res.metrics[f"cli_{step}_s"] += statistics.median(samples)
                res.attempted += len(samples)
            self._engine_times(out, res.metrics)
            outs.append(out)
        res.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pareto_runs: dict[str, list] = {}
        for plan, out in zip(plans, outs):
            runs = checkers.check_bundle(out)
            res.attempted += len(runs)
            for label, seed, front in runs:
                if not front:
                    res.failed += 1
                    res.notes.append(f"{plan.name}: {label} seed {seed}: empty final front")
            if plan.pareto_check:
                pareto_runs.setdefault(plan.instance.name, []).extend(runs)
            shutil.rmtree(out)
        for inst in self._instances(plans):
            if inst.name in pareto_runs:
                self._pareto_check(inst, pareto_runs[inst.name])
        return res

    @staticmethod
    def _engine_times(out: Path, metrics: dict[str, float]) -> None:
        """Sum the per-run wall times that `run` writes to timings.json."""
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        walls = json.loads((out / "timings.json").read_text(encoding="utf-8"))["wall_time_s"]
        algorithm = {e["label"]: e["config"]["algorithm"] for e in manifest["engines"]}
        for entry in manifest["runs"]:
            if entry["file"] in walls:
                metrics[ENGINE_METRICS[algorithm[entry["label"]]]] += walls[entry["file"]]

    def _pareto_check(self, inst: InstancePlan, runs) -> None:
        """Fronts inside the enumerated Pareto set on all seeds but one, per engine."""
        reference = checkers.exhaustive_pareto(checkers.NaiveInstance.load(self._instance_path(inst)))
        for label in dict.fromkeys(label for label, _, _ in runs):
            fronts = [front for lab, _, front in runs if lab == label]
            hits = sum(
                1
                for front in fronts
                if front
                and all(
                    checkers.in_set((ev["compatibility"], ev["price"]), reference)
                    for ev in front
                )
            )
            if hits < len(fronts) - 1:
                raise checkers.CheckError(
                    f"{inst.name} (generator seed {inst.spec['rng_seed']}): {label} fronts "
                    f"inside the enumerated Pareto set on {hits} of {len(fronts)} seeds"
                )
