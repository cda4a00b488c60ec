"""landalloc benchmark: workloads, end-to-end metrics, per-layer tracing.

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload micro_oracle --spread 10 --seconds 5

Run from the repository root. The program is imported from ./src; the
benchmark's inputs come from --seed (see workloads.py). A run sets up
SETUP_REPEATS times, then measures whole rounds until --seconds have been
measured, checks every output, and prints one JSON object as the last
line of stdout. With --trace 0 it holds the end-to-end metrics (medians
over rounds); with --trace 1 the run is traced and it holds the per-layer
metrics (totals over the run). --spread N runs N untraced runs on seeds
seed..seed+N-1 in turn and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))

import checkers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


def _metric_specs(kind: str) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc[kind]


def run_once(args) -> int:
    src = ROOT / "src"
    if not (src / "landalloc" / "__init__.py").is_file():
        print(f"no landalloc package under {src}", file=sys.stderr)
        return 2
    specs = _metric_specs("per_layer" if args.trace else "end_to_end")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    from landalloc import cli, instance_io

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else (lambda: None)

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plans = WORKLOADS[args.workload](args.seed)
    runner = Runner(workdir, cli.main, instance_io.load_instance)
    rounds = []
    correct = True
    try:
        with contextlib.redirect_stdout(sys.stderr):
            runner.resolve(plans)
            setups = [runner.setup(plans) for _ in range(SETUP_REPEATS)]
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                t_round = time.perf_counter()
                res = runner.round(plans, len(rounds))
                rounds.append(res)
                print(
                    f"round {len(rounds)}: {time.perf_counter() - t_round:.2f}s wall, "
                    f"{res.failed}/{res.attempted} failed, "
                    + ", ".join(f"{k}={v:.4f}" for k, v in res.metrics.items()),
                    file=sys.stderr,
                )
                for note in res.notes:
                    print(f"  failed: {note}", file=sys.stderr)
    except checkers.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        restore()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1

    if tracer is not None:
        values = tracer.metrics()
        (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(
            json.dumps(tracer.dump(), indent=1, sort_keys=True), encoding="utf-8"
        )
    else:
        values = {
            name: (statistics.median(r.metrics[name] for r in rounds), "s")
            for name in rounds[0].metrics
        }
        values["setup_s"] = (import_s + statistics.median(setups), "s")
        rss_kib = max(r.peak_rss_kib for r in rounds)
        values["peak_rss_mb"] = (rss_kib * 1024 / 1e6, "MB")
    metrics = {}
    for spec in specs:
        value, unit = values[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: measured in {unit}, declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def spread(args) -> int:
    """N untraced runs in turn; median, quartiles and IQR/median per metric."""
    per_metric: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.seed, args.seed + args.spread):
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), file=sys.stderr)
    table = {}
    for name, vals in per_metric.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        table[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": vals}
        print(f"{name:16s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  iqr/median {(q3 - q1) / med:.4f}")
    print(f"failed/attempted across runs: {sorted(shares)}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}.json").write_text(
        json.dumps({"failed_attempted": sorted(shares), "metrics": table}, indent=1), encoding="utf-8"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, help="run N untraced runs and summarize")
    args = parser.parse_args(argv)
    if args.spread:
        return spread(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
