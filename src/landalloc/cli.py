"""Command-line experiment harness.

Subcommands:

    landalloc generate  --grid 43x30 --uses 3 --seed 7 --out inst.landalloc.json
    landalloc run       --config experiment.json [--instance ...] [--out ...]
                        [--seeds 1,2,3,4,5] [--workers N] [--alpha 0.05]
    landalloc report    --bundle results/ [--out results/report]
    landalloc verify    --bundle results/

Exit codes: 0 success, 1 usage, 2 validation, 3 run failure / incomplete
bundle.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .harness import ExperimentConfig, ExperimentConfigError, run_experiment, verify_bundle
from .instance_io import (
    InstanceError,
    generate_synthetic,
    generator_spec_from_dict,
    save_instance,
)
from .report import generate_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUN_FAILURE = 3


class _UsageError(Exception):
    pass


class _ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _parse_pair(text: str, flag: str, form: str, sep: str) -> tuple[int, int]:
    """Two non-negative integers joined by `sep`; `form` shows the flag's syntax in errors."""
    m = re.fullmatch(rf"(\d+){sep}(\d+)", text)
    if not m:
        raise _UsageError(f"{flag} expects {form}, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise _UsageError(f"--seeds expects a comma-separated integer list, got {text!r}")


def _read_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; a _ValidationError names `what` if there is none."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _ValidationError(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise _ValidationError(f"{what} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _ValidationError(f"{what} root must be an object")
    return doc


def _build_parser() -> _Parser:
    parser = _Parser(prog="landalloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance file")
    gen.add_argument("--grid", help="plot grid as WxH, e.g. 43x30")
    gen.add_argument("--uses", type=int, help="number of land-use types (default 3)")
    gen.add_argument("--floors", help="floor count range MIN:MAX (default 1:8)")
    gen.add_argument("--locked-fraction", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--spec", help="generator spec JSON document; flags override it")
    gen.add_argument("--out", required=True, help="output .landalloc.json path")

    run = sub.add_parser("run", help="execute every (engine, seed) pair of a config")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--instance", help="override the config's instance path")
    run.add_argument("--out", help="override the config's output directory")
    run.add_argument("--seeds", help="override seeds, e.g. 1,2,3,4,5")
    run.add_argument("--workers", type=int, help="parallel runs (default: the config's workers, or 1)")
    run.add_argument("--alpha", type=float, help="significance level for reports")

    rep = sub.add_parser("report", help="write indicator/stats/figure reports")
    rep.add_argument("--bundle", required=True, help="bundle directory from `run`")
    rep.add_argument("--out", help="report directory (default <bundle>/report)")

    ver = sub.add_parser("verify", help="check a bundle for gaps and corruption")
    ver.add_argument("--bundle", required=True)
    return parser


def _cmd_generate(args) -> int:
    doc = _read_object(args.spec, "generator spec") if args.spec else {}
    if args.grid:
        doc["grid_width"], doc["grid_height"] = _parse_pair(args.grid, "--grid", "WxH", "x")
    if args.uses is not None:
        doc["use_count"] = args.uses
    if args.floors:
        doc["floor_range"] = list(_parse_pair(args.floors, "--floors", "MIN:MAX", ":"))
    if args.locked_fraction is not None:
        doc["locked_fraction"] = args.locked_fraction
    if args.seed is not None:
        doc["rng_seed"] = args.seed
    if "grid_width" not in doc or "grid_height" not in doc:
        raise _UsageError("a grid is required (--grid WxH or spec fields)")
    try:  # InstanceError is a ValueError; so are ProblemInstance's range errors
        inst = generate_synthetic(generator_spec_from_dict(doc))
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        path = save_instance(inst, args.out)
    except OSError as exc:
        raise _ValidationError(f"cannot write instance: {exc}")
    print(f"wrote {path} ({inst.n_plots} plots, {inst.n_uses} uses)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    doc = _read_object(config_path, "config")
    if args.instance:
        doc["instance"] = str(Path(args.instance).resolve())
    if args.out:
        doc["output"] = str(Path(args.out).resolve())
    if args.seeds:
        doc["seeds"] = list(_parse_seeds(args.seeds))
    if args.alpha is not None:
        doc["alpha"] = args.alpha
    if args.workers is not None:
        doc["workers"] = args.workers
    try:
        cfg = ExperimentConfig.from_dict(doc, base_dir=config_path.resolve().parent)
        result = run_experiment(cfg)
    except (ExperimentConfigError, InstanceError) as exc:
        raise _ValidationError(f"invalid experiment: {exc}")
    except OSError as exc:
        raise _ValidationError(f"cannot run experiment: {exc}")
    print(f"bundle: {result.bundle_dir} ({result.ok_runs} runs ok, {result.failed_runs} failed)")
    for line in result.failures:
        print(f"  failed: {line}", file=sys.stderr)
    return EXIT_RUN_FAILURE if result.failed_runs else EXIT_OK


def _cmd_report(args) -> int:
    try:
        out = generate_report(args.bundle, args.out)
    except (InstanceError, OSError, KeyError, json.JSONDecodeError) as exc:
        raise _ValidationError(f"cannot build report: {exc}")
    print(f"report: {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    issues, incomplete = verify_bundle(args.bundle)
    if not issues:
        print("bundle ok")
        return EXIT_OK
    for issue in issues:
        print(f"issue: {issue}", file=sys.stderr)
    return EXIT_RUN_FAILURE if incomplete else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
