"""Experiment harness: configs, batch execution, and RunRecord persistence.

A bundle directory is self-contained and regenerable:

    bundle/
      manifest.json               run plan, statuses, instance hash
      instance.landalloc.json     copy of the instance the runs used
      runs/<label>__s<seed>.json  one canonical RunRecord per (engine, seed)
      combined/<label>.json       non-dominated union of the label's fronts
      timings.json                wall times (informational, not canonical)
      report/...                  written by the report step

RunRecord files are canonical JSON (sorted keys, no timestamps), so
rerunning the same config produces byte-identical files. Floor-use codes,
nearly all of a file's bytes, exist only in these files: `record_to_json`
and `combined_json` decode the plot values they write and render the codes
in a few numpy passes, and `load_bundle` and `verify_bundle` parse a run
file's code lists straight into an array when it has the form `run`
writes, check them and encode them to plot values. Any other text takes
`json.loads` and the member-by-member checks.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import metrics
from .engines import EngineConfig, Population, RelaxationSchedule, RunRecord
from .engines import _refresh_pop, final_front_indices, run_engine
from .instance_io import JSON_KINDS, InstanceError, canonical_dumps, load_instance, of_kind
from .model import (
    BatchStats,
    ProblemInstance,
    codes_in_range_mask,
    evaluate_batch,
    locked_kept_mask,
)
from .operators import OperatorConfig

RECORD_SCHEMA = 1
MANIFEST_SCHEMA = 1

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_STATS_METRICS = ("best_price", "best_compatibility", "hv", "igd_plus")


class ExperimentConfigError(ValueError):
    """Bad experiment configuration document."""


@dataclass
class ExperimentConfig:
    """Parsed experiment plan; engine entries stay raw until an instance is known."""

    instance_path: Path
    engine_entries: list[dict]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_dir: Path = Path("results")
    alpha: float = 0.05
    stats_metrics: tuple[str, ...] = DEFAULT_STATS_METRICS
    workers: int = 1

    def __post_init__(self):
        labels = [e.get("label") for e in self.engine_entries]
        if not labels:
            raise ExperimentConfigError("config needs at least one engine entry")
        if any(not isinstance(l, str) or not l for l in labels):
            raise ExperimentConfigError("every engine entry needs a non-empty label")
        if len(set(labels)) != len(labels):
            raise ExperimentConfigError("engine labels must be unique")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ExperimentConfigError("seeds must be non-empty and distinct")
        if negative := [s for s in self.seeds if s < 0]:
            raise ExperimentConfigError(f"seeds must be non-negative, got {negative[0]}")
        if huge := [s for s in self.seeds if s >= 2**63]:  # a run file's seed is read as int64
            raise ExperimentConfigError(f"seeds must be below 2**63, got {huge[0]}")
        if not 0.0 < self.alpha < 1.0:
            raise ExperimentConfigError("alpha must be in (0, 1)")
        if self.workers < 1:
            raise ExperimentConfigError("workers must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ExperimentConfigError("config root must be an object")
        known = {"instance", "engines", "seeds", "output", "alpha", "stats_metrics", "workers"}
        if unknown := set(doc) - known:
            raise ExperimentConfigError(f"unknown config keys: {sorted(unknown)}")
        if "instance" not in doc:
            raise ExperimentConfigError("config is missing 'instance'")
        if "engines" not in doc or not isinstance(doc["engines"], list):
            raise ExperimentConfigError("config is missing an 'engines' list")
        seeds = doc.get("seeds", DEFAULT_SEEDS)
        stats_metrics = doc.get("stats_metrics", DEFAULT_STATS_METRICS)
        alpha, workers = doc.get("alpha", 0.05), doc.get("workers", 1)
        for values, kind, message in (
            ([doc["instance"]], str, "instance must be a path"),
            ([doc.get("output", "")], str, "output must be a path"),
            (doc["engines"], dict, "every engine entry must be an object"),
            (seeds, int, "seeds must be a list of integers"),
            (stats_metrics, str, "stats_metrics must be a list of metric names"),
            ([alpha], float, "alpha must be a number"),
            ([workers], int, "workers must be an integer"),
        ):
            if not isinstance(values, (list, tuple)) or not of_kind(values, kind):
                raise ExperimentConfigError(message)
        base = base_dir or Path(".")
        return cls(
            instance_path=(base / doc["instance"]).resolve(),
            engine_entries=list(doc["engines"]),
            seeds=tuple(seeds),
            output_dir=(base / doc.get("output", "results")).resolve(),
            alpha=float(alpha),
            stats_metrics=tuple(stats_metrics),
            workers=workers,
        )


def build_engine_config(entry: dict, inst: ProblemInstance) -> tuple[str, EngineConfig]:
    """Turn one raw engine entry into a label plus a resolved EngineConfig."""
    entry = dict(entry)
    label = entry.pop("label")
    algorithm = entry.pop("algorithm", None)
    if algorithm is None:
        raise ExperimentConfigError(f"engine {label!r}: missing 'algorithm'")
    op = entry.pop("operators", {})
    if not isinstance(op, dict):
        raise ExperimentConfigError(f"engine {label!r}: 'operators' must be an object")
    try:
        gamma_final = entry.pop("gamma_final", inst.gamma)
        mu_final = entry.pop("mu_final", inst.mu)
        relax = RelaxationSchedule(
            gamma_search=entry.pop("gamma_search", gamma_final),
            mu_search=entry.pop("mu_search", mu_final),
            gamma_final=gamma_final,
            mu_final=mu_final,
        )
        operator_cfg = OperatorConfig(**op)
        cfg = EngineConfig(
            algorithm=algorithm, relax=relax, operator_cfg=operator_cfg, **entry
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentConfigError(f"engine {label!r}: {exc}")
    return label, cfg


def slug(index: int, label: str) -> str:
    return f"{index:02d}_" + re.sub(r"[^A-Za-z0-9_-]+", "-", label)


# ---------------------------------------------------------------------------
# RunRecord (de)serialization


# A run file member: its floor uses (its plot values' codes, read by their
# own checks), then (JSON key, `Population` field, JSON kind of its values).
_MEMBER_FIELDS = (
    ("compatibility", "compatibility", float),
    ("price", "price", float),
    ("changed", "changed", int),
    ("rank", "rank", int),
    ("crowding", "crowd", float),
    ("feasible", "feasible", bool),
    ("violation", "violation", float),
)


def record_to_json(label: str, rec: RunRecord, inst: ProblemInstance) -> str:
    pop = rec.population
    keys = [key for key, _, _ in _MEMBER_FIELDS]
    columns = [getattr(pop, name).tolist() for _, name, _ in _MEMBER_FIELDS]
    doc = {
        "schema": RECORD_SCHEMA,
        "label": label,
        "algorithm": rec.algorithm,
        "seed": rec.seed,
        "config": rec.config,
        "hv_trace": [float(v) for v in rec.hv_trace],
        "front": rec.front_indices.tolist(),
        "population": [dict(zip(keys, member), floor_uses=[]) for member in zip(*columns)],
    }
    codes = inst.codec.decode_rows(pop.values)
    return _with_codes(canonical_dumps(doc, compact=True), "population", codes)


# An entry's floor uses while its file is dumped, before `_with_codes` writes
# them in; and a member's floor uses as `run` writes them, which `_read_run` parses.
_CODES_SLOT = '"floor_uses":[]'
_CODE_LIST = re.compile(r',"floor_uses":\[([0-9,]*)\]')
# What a member's floor uses read as while `_read_run` parses their list, in place of a NaN.
_CUT = object()
_RUN_DECODER = json.JSONDecoder(parse_constant=lambda c: _CUT if c == "NaN" else float(c))


def _with_codes(text: str, key: str, codes) -> str:
    """`text` with row r of `codes` as the floor uses of its `key` list's entry r.

    `text` is the compact dump of a document whose `key` entries hold
    `_CODES_SLOT` and numbers only, and after whose `key` list only numbers
    follow. So every slot after the key's last occurrence is an entry's.
    """
    head, key_mark, tail = text.rpartition(f'"{key}":[')
    pieces = tail.split(_CODES_SLOT)
    lists = _code_lists(codes)
    return head + key_mark + "".join(p + c for p, c in zip(pieces, lists)) + pieces[-1]


def _code_lists(codes) -> list[str]:
    """Each row of non-negative int `codes` as `"floor_uses":` and its compact JSON list.

    A code takes `width` digit slots and a separator; the slots before its
    first digit hold NUL, which each row's text then drops.
    """
    if len(codes) == 0:
        return []
    n, f = codes.shape
    width = len(str(codes.max()))
    chars = np.zeros((n, f, width + 1), np.uint8)
    chars[..., width] = ord(",")
    chars[:, -1, width] = ord("]")
    rest = codes
    for place in range(width):
        digit = rest % 10 + ord("0")
        chars[..., width - 1 - place] = np.where(rest > 0, digit, 0) if place else digit
        rest = rest // 10
    text = chars.tobytes().decode("ascii")
    m = f * (width + 1)
    return ['"floor_uses":[' + text[r * m : (r + 1) * m].replace("\0", "") for r in range(n)]


def _read_run(path: Path, n_floors: int) -> tuple[dict, np.ndarray | None]:
    """A run file's document and, if it has the form `run` writes, its (P, n_floors) codes.

    That form is one `_CODE_LIST` match per population member, each a list
    of `n_floors` integers of at most 9 digits. The matches are cut out
    before `json.loads`, each as a NaN that parses to `_CUT`. If each
    member's "floor_uses" then reads `_CUT`, member r held list r, whatever
    keys, labels or escapes the rest of the text holds. Any other text, or
    one that spells NaN itself, is read by `json.loads` alone, with None for
    the codes, so that `_record_and_stats` checks it member by member.
    """
    text = path.read_text(encoding="utf-8")
    pieces = _CODE_LIST.split(text)
    lists = pieces[1::2]
    rest = ',"floor_uses":NaN'.join(pieces[::2])
    if rest.count("NaN") == len(lists):  # the text spells no NaN of its own
        try:
            doc = _RUN_DECODER.decode(rest)
            pop = doc["population"]
            one_each = len(pop) == len(lists) and all(m["floor_uses"] is _CUT for m in pop)
        except (ValueError, KeyError, TypeError):
            one_each = False
        if one_each and (codes := _parse_code_lists(lists, n_floors)) is not None:
            return doc, codes
    return json.loads(text), None


def _parse_code_lists(lists: list[str], n_floors: int) -> np.ndarray | None:
    """The (len(lists), n_floors) int codes of comma-separated digit texts.

    None unless each text is `n_floors` JSON integers of at most 9 digits:
    no empty token and no leading zero. The digits are read one place at
    a time, back from each code's end, so that no array holds an int per
    byte of text.
    """
    if not lists or any(s.count(",") != n_floors - 1 for s in lists):
        return None
    # ten commas ahead of the first code, so that the ten bytes before every code's end lie in `buf`
    buf = np.frombuffer(("," * 10 + ",".join(lists) + ",").encode("ascii"), np.uint8)
    comma = buf == ord(",")
    if (comma[9:-1] & comma[10:]).any() or (comma[9:-2] & (buf[10:-1] == ord("0")) & ~comma[11:]).any():
        return None  # an empty token or a leading zero
    ends = np.flatnonzero(comma[10:])
    codes = np.zeros(ends.size, np.int32)
    more = np.ones(ends.size, bool)  # the codes with more than `place` digits
    for place in range(10):
        digit = buf[9 - place :].take(ends)  # the byte `place` places before each code's end
        more &= digit != ord(",")
        if not more.any():
            return codes.reshape(len(lists), n_floors)
        codes += np.where(more, digit - ord("0"), 0) * np.int32(10**place)
    return None  # a code of more than 9 digits


def record_from_dict(
    doc: dict, inst: ProblemInstance, codes: np.ndarray | None = None
) -> tuple[str, RunRecord]:
    """Rebuild a RunRecord; plot values and per-use areas are recomputed from the codes.

    `codes`, if given, are the members' floor-use codes as `_read_run`
    parsed them, in place of the lists in `doc`. Raises InstanceError as
    `_record_and_stats` does, and if a member's stored compatibility or
    price is not finite.
    """
    label, rec, _ = _record_and_stats(doc, inst, codes)
    pop = rec.population
    for key, values in (("compatibility", pop.compatibility), ("price", pop.price)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InstanceError(f"member {bad[0]}'s {key} is not finite")
    return label, rec


def _record_and_stats(
    doc: dict, inst: ProblemInstance, codes: np.ndarray | None = None
) -> tuple[str, RunRecord, BatchStats]:
    """record_from_dict plus the evaluation of the stored codes' plot values.

    Raises InstanceError if a member is not an object, its floor uses are
    not a list of one integer code per floor of the instance (a boolean is
    no code), a code lies outside [0, K), or a stored number (a member
    field, the seed, the HV trace or the front) is null or does not
    convert. A stored NaN or infinity converts: `verify` reports it as stale.
    """
    pop_docs = doc["population"]
    codes = _listed_codes(pop_docs, inst) if codes is None else codes
    outside = np.flatnonzero(~codes_in_range_mask(inst, codes))
    if outside.size:  # evaluate_batch would count such a floor against another plot or use
        raise InstanceError(
            f"floor-use codes outside [0, {inst.n_uses}) in {outside.size} member(s) "
            f"(first: member {outside[0]})"
        )
    values = inst.codec.encode_rows(codes)
    stats = evaluate_batch(inst, values)

    def column(key: str, kind) -> np.ndarray:
        entries = [d[key] for d in pop_docs]
        try:
            return _vector(entries, kind, key)
        except InstanceError:  # name the first member whose value fails alone
            for r, v in enumerate(entries):
                _vector([v], kind, f"member {r}'s {key}")
            raise

    population = Population(
        values=values,
        areas=stats.areas,
        **{name: column(key, kind) for key, name, kind in _MEMBER_FIELDS},
    )
    rec = RunRecord(
        algorithm=doc["algorithm"],
        config=doc["config"],
        seed=int(_vector([doc["seed"]], int, "seed")[0]),
        hv_trace=_vector(doc["hv_trace"], float, "hv_trace").tolist(),
        population=population,
        front_indices=_vector(doc["front"], int, "front"),
        wall_time_s=float("nan"),
    )
    return doc["label"], rec, stats


def _listed_codes(pop_docs: list[dict], inst: ProblemInstance) -> np.ndarray:
    """The members' floor-use lists as one (P, total_floors) integer array.

    Raises InstanceError unless each member is an object whose floor uses
    are a list of one JSON integer per floor: a boolean, or a float even
    if integral (1.0), is no code. A code too large for int64 stays a
    Python int in an object array, for the range check to refuse.
    """
    for r, d in enumerate(pop_docs):
        if not isinstance(d, dict):
            raise InstanceError(f"member {r} is not an object")
        if not isinstance(d["floor_uses"], list):
            raise InstanceError(f"member {r} has no list of floor-use codes")
        if len(d["floor_uses"]) != inst.total_floors:
            raise InstanceError(
                f"member {r} has {len(d['floor_uses'])} floor-use codes, "
                f"the instance has {inst.total_floors} floors"
            )
    lists = [d["floor_uses"] for d in pop_docs]
    if not of_kind(chain.from_iterable(lists), int):
        r = next(r for r, codes in enumerate(lists) if not of_kind(codes, int))
        what = "an integer" if of_kind(lists[r], float) else "a number"
        raise InstanceError(f"member {r} has a floor-use code that is not {what}")
    return np.array(lists).reshape(len(pop_docs), inst.total_floors)


def _vector(values, kind, what: str) -> np.ndarray:
    """`values` as a 1-D array, or an InstanceError saying `what` is not numeric.

    `values` must be a list of JSON values of `kind`: integers (never a boolean
    or a float, even 1.0) read as int64, numbers as float and booleans as bool.
    """
    if type(values) is list and of_kind(values, kind):
        try:
            return np.array(values, dtype=np.int64 if kind is int else kind)
        except OverflowError:  # an integer outside int64
            pass
    raise InstanceError(f"{what} is not numeric")


def _stale_members(rec: RunRecord, stats: BatchStats) -> list[int]:
    """Members whose stored objectives or changed count differ from their codes' evaluation.

    The match is exact: an engine stores one full `evaluate_batch` of its
    final population, and a row's values do not depend on its batch.
    """
    pop = rec.population
    same = [getattr(pop, c) == getattr(stats, c) for c in ("compatibility", "price", "changed")]
    return np.flatnonzero(~np.logical_and.reduce(same)).tolist()  # a NaN is never equal


# ---------------------------------------------------------------------------
# combined fronts


def combined_front_entries(records: list[RunRecord]) -> list[dict]:
    """Non-dominated union of the records' fronts, with allocations attached.

    Entries keep the records' order and, within a record, its front order.
    An entry's "values" and "areas" are its member's rows of its record's
    population.
    """
    members = [(rec, i) for rec in records for i in rec.front_indices.tolist()]
    if not members:
        return []
    pts = np.concatenate([rec.population.objectives()[rec.front_indices] for rec in records])
    entries = []
    for k in np.sort(metrics.pareto_indices(pts)).tolist():
        rec, i = members[k]
        pop = rec.population
        entries.append(
            {
                "compatibility": float(pop.compatibility[i]),
                "price": float(pop.price[i]),
                "seed": rec.seed,
                "values": pop.values[i],
                "areas": pop.areas[i],
            }
        )
    return entries


def combined_json(label: str, records: list[RunRecord], inst: ProblemInstance) -> str:
    """The text of a label's combined file: the union of its ok runs' fronts."""
    entries = combined_front_entries(records)
    keys = ("compatibility", "price", "seed")
    points = [{k: e[k] for k in keys} | {"floor_uses": []} for e in entries]
    text = canonical_dumps({"label": label, "points": points}, compact=True)
    values = np.array([e["values"] for e in entries], dtype=np.int64).reshape(-1, inst.n_plots)
    return _with_codes(text, "points", inst.codec.decode_rows(values))


# ---------------------------------------------------------------------------
# bundle execution


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _execute_run(instance_path: str, cfg: EngineConfig) -> RunRecord:
    """Worker entry: load the instance and run one job."""
    return run_engine(load_instance(instance_path), cfg)


def _outcome(run) -> tuple[RunRecord | None, str | None]:
    """(record, None) from `run()`, or (None, "<ExcType>: <msg>") if it raises."""
    try:
        return run(), None
    except Exception as exc:  # run isolation: one failure, one gap
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class BundleResult:
    bundle_dir: Path
    ok_runs: int
    failed_runs: int
    failures: list[str]


def run_experiment(cfg: ExperimentConfig) -> BundleResult:
    """Execute every (engine, seed) pair and persist the bundle."""
    inst = load_instance(cfg.instance_path)
    engines = [build_engine_config(e, inst) for e in cfg.engine_entries]
    bundle = cfg.output_dir
    (bundle / "runs").mkdir(parents=True, exist_ok=True)
    (bundle / "combined").mkdir(exist_ok=True)
    local_instance = bundle / "instance.landalloc.json"
    local_instance.write_bytes(Path(cfg.instance_path).read_bytes())

    jobs = [
        (idx, label, replace(ecfg, seed=int(seed)))
        for idx, (label, ecfg) in enumerate(engines)
        for seed in cfg.seeds
    ]
    run_entries = []
    timings = {}
    failures = []
    label_records: dict[str, list[RunRecord]] = {label: [] for label, _ in engines}
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_execute_run, str(local_instance), ecfg) for _, _, ecfg in jobs]
            outcomes = [_outcome(fut.result) for fut in futures]
    else:  # serial runs share the instance loaded above, one record at a time
        outcomes = (_outcome(partial(run_engine, inst, ecfg)) for _, _, ecfg in jobs)
    for (idx, label, ecfg), (rec, error) in zip(jobs, outcomes):
        fname = f"runs/{slug(idx, label)}__s{ecfg.seed}.json"
        entry = {"label": label, "seed": ecfg.seed, "file": fname, "status": "ok"}
        if error is None:
            (bundle / fname).write_text(record_to_json(label, rec, inst), encoding="utf-8")
            timings[fname] = rec.wall_time_s
            label_records[label].append(rec)
        else:
            entry.update(status="failed", error=error)
            failures.append(f"{label} seed {ecfg.seed}: {error}")
        run_entries.append(entry)

    for idx, (label, ecfg) in enumerate(engines):
        (bundle / "combined" / f"{slug(idx, label)}.json").write_text(
            combined_json(label, label_records[label], inst), encoding="utf-8"
        )

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "instance": "instance.landalloc.json",
        "instance_sha256": _sha256(local_instance),
        "seeds": [int(s) for s in cfg.seeds],
        "alpha": cfg.alpha,
        "stats_metrics": list(cfg.stats_metrics),
        "engines": [  # seeds vary per run; the manifest lists them once
            {"label": label, "slug": slug(idx, label),
             "config": {k: v for k, v in asdict(ecfg).items() if k != "seed"}}
            for idx, (label, ecfg) in enumerate(engines)
        ],
        "runs": run_entries,
    }
    (bundle / "manifest.json").write_text(canonical_dumps(manifest), encoding="utf-8")
    (bundle / "timings.json").write_text(
        canonical_dumps({"wall_time_s": timings}), encoding="utf-8"
    )
    return BundleResult(bundle, len(jobs) - len(failures), len(failures), failures)


# ---------------------------------------------------------------------------
# bundle loading / verification


@dataclass
class LoadedBundle:
    bundle_dir: Path
    manifest: dict
    instance: ProblemInstance
    records: dict[str, list[RunRecord]]  # label -> records in seed order
    gaps: list[str]


# The entries `run` writes in a manifest, with the types their readers rely on.
_MANIFEST_ENTRIES = {
    "engines": {"label": str, "config": dict},
    "runs": {"label": str, "seed": int, "status": str, "file": str},
}


def _read_manifest(path: Path) -> dict:
    """The manifest at `path`; InstanceError unless its entries have the shape `run` writes.

    `alpha` and `stats_metrics`, where present, must be a number in (0, 1)
    and a list of names; a name that is no metric is the report's to flag.
    """
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise InstanceError("manifest is not an object")
    if not isinstance(manifest.get("instance", ""), str):
        raise InstanceError("manifest instance is not a file name")
    alpha = manifest.get("alpha", 0.05)
    if type(alpha) not in JSON_KINDS[float] or not 0.0 < alpha < 1.0:
        raise InstanceError("manifest alpha is not a number in (0, 1)")
    names = manifest.get("stats_metrics", [])
    if not isinstance(names, list) or not of_kind(names, str):
        raise InstanceError("manifest stats_metrics is not a list of metric names")
    for key, fields in _MANIFEST_ENTRIES.items():
        entries = manifest.get(key, [])
        if not isinstance(entries, list):
            raise InstanceError(f"manifest {key} is not a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or any(
                type(entry.get(name)) not in JSON_KINDS[kind] for name, kind in fields.items()
            ):
                raise InstanceError(f"manifest {key} entry {i} lacks one of {', '.join(fields)}")
    return manifest


def _foreign_run(entry: dict, label: str, rec: RunRecord) -> str | None:
    """What is wrong if the run file of manifest `entry` holds another run."""
    same = (label, rec.seed) == (entry["label"], entry["seed"])
    return None if same else f"run file {entry['file']} holds {label} seed {rec.seed}"


def _final_settings(config: dict, tag: str) -> tuple[int, float, float, tuple[float, float] | None]:
    """(generations, relax.gamma_final, relax.mu_final, SOA weights or None) of a manifest
    engine config; the first must be a JSON integer and the others JSON numbers."""
    try:
        relax = config["relax"]
        soa = ("soa_a", "soa_b") if config["algorithm"] == "SOA" else ()
        numbers = [relax["gamma_final"], relax["mu_final"], *(config[key] for key in soa)]
        if type(config["generations"]) in JSON_KINDS[int] and of_kind(numbers, float):
            gamma, mu, *weights = map(float, numbers)
            return config["generations"], gamma, mu, tuple(weights) if soa else None
    except (KeyError, TypeError):
        pass
    lacks = "generations or relax.gamma_final/mu_final (or its algorithm and SOA weights)"
    raise InstanceError(f"{tag}: manifest lacks the engine's {lacks}")


def _not_final_front(inst: ProblemInstance, rec: RunRecord, gamma: float, soa_weights) -> str | None:
    """What is wrong if the sets of `rec`'s front and of its `final_front_indices` differ."""
    listed = set(rec.front_indices.tolist())
    derived = final_front_indices(inst, rec.population, gamma, soa_weights)
    if listed != set(derived.tolist()):
        return ("front is not the stored population's final front "
                f"({len(listed)} member(s) listed, {derived.size} derived)")
    return None


def load_bundle(bundle_dir: str | Path) -> LoadedBundle:
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise InstanceError(f"no manifest.json in {bundle}")
    manifest = _read_manifest(manifest_path)
    inst = load_instance(bundle / manifest["instance"])
    records: dict[str, list[RunRecord]] = {e["label"]: [] for e in manifest["engines"]}
    configs = {e["label"]: e["config"] for e in manifest["engines"]}
    gaps = []
    for entry in manifest["runs"]:
        tag = f"{entry['label']} seed {entry['seed']}"
        if entry["status"] != "ok":
            gaps.append(f"{tag}: {entry.get('error', 'failed')}")
            continue
        path = bundle / entry["file"]
        if not path.exists():
            gaps.append(f"{tag}: file missing")
            continue
        doc, codes = _read_run(path, inst.total_floors)
        label, rec = record_from_dict(doc, inst, codes)
        if foreign := _foreign_run(entry, label, rec):
            raise InstanceError(f"{tag}: {foreign}")
        _, gamma_final, _, soa_weights = _final_settings(configs.get(label, {}), tag)
        if wrong := _not_final_front(inst, rec, gamma_final, soa_weights):
            raise InstanceError(f"{tag}: {wrong}")
        records[label].append(rec)
    return LoadedBundle(bundle, manifest, inst, records, gaps)


def verify_bundle(bundle_dir: str | Path) -> tuple[list[str], bool]:
    """Check bundle completeness and invariants.

    Each run's codes must lie in [0, K), and its plot values must keep
    every locked plot as built. Its stored member objectives and changed
    counts are checked against the evaluation of its codes that loading
    the record already makes, its front members must lie inside the final
    gamma band (areas from that evaluation) and the price box, and its HV
    trace must never decrease. Unless a member is stale, its members' feasible flags and
    violations must be exactly `_refresh_pop`'s under the final (gamma,
    mu), as the engine stores them, and its front must be the stored
    population's `final_front_indices` (a repeated index is no difference).
    Each label's combined file must be the text `run` writes from the
    label's ok runs, unless one of them is missing or unreadable.

    A run file must hold the label and seed of its manifest entry, and
    the manifest's engine and run entries the fields `run` writes.

    Returns (issues, incomplete): `incomplete` marks missing or failed
    runs; other issues are integrity problems.
    """
    bundle = Path(bundle_dir)
    issues: list[str] = []
    incomplete = False
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        return ([f"{bundle}: manifest.json missing"], True)
    try:
        manifest = _read_manifest(manifest_path)
    except (json.JSONDecodeError, InstanceError) as exc:
        return ([f"manifest.json unreadable: {exc}"], False)
    inst_path = bundle / manifest.get("instance", "instance.landalloc.json")
    if not inst_path.exists():
        return ([f"instance file missing: {inst_path.name}"], True)
    if _sha256(inst_path) != manifest.get("instance_sha256"):
        issues.append("instance file hash does not match the manifest")
    try:
        inst = load_instance(inst_path)
    except InstanceError as exc:
        return (issues + [f"instance invalid: {exc}"], False)
    configs = {e["label"]: e["config"] for e in manifest.get("engines", [])}
    records: dict[str, list[RunRecord]] = {label: [] for label in configs}
    for entry in manifest.get("runs", []):
        tag = f"{entry['label']} seed {entry['seed']}"
        if entry["status"] != "ok":
            issues.append(f"{tag}: marked failed ({entry.get('error', '?')})")
            incomplete = True
            continue
        path = bundle / entry["file"]
        if not path.exists():
            issues.append(f"{tag}: run file missing")
            incomplete = True
            continue
        try:
            doc, codes = _read_run(path, inst.total_floors)
            label, rec, stats = _record_and_stats(doc, inst, codes)
        except Exception as exc:
            issues.append(f"{tag}: unreadable run file ({exc})")
            continue
        if foreign := _foreign_run(entry, label, rec):
            issues.append(f"{tag}: {foreign}")
            continue
        try:
            generations, gamma_final, mu_final, soa_weights = _final_settings(
                configs.get(label, {}), tag
            )
        except InstanceError as exc:
            issues.append(str(exc))
            continue
        if len(rec.hv_trace) != generations:
            issues.append(f"{tag}: hv trace length {len(rec.hv_trace)} != generations {generations}")
        if np.any(np.diff(rec.hv_trace) < 0):
            issues.append(f"{tag}: hv trace decreases")
        if stale := _stale_members(rec, stats):
            issues.append(
                f"{tag}: stored objectives or changed counts of {len(stale)} member(s) "
                f"do not match their floor uses (first: member {stale[0]})"
            )
        else:
            pop = rec.population
            feasible, violation = pop.feasible, pop.violation
            _refresh_pop(inst, pop, gamma_final, mu_final)
            differ = np.flatnonzero((feasible != pop.feasible) | (violation != pop.violation))
            if differ.size:
                issues.append(
                    f"{tag}: stored feasible flags or violations of {differ.size} member(s) "
                    f"differ from the final constraints (first: member {differ[0]})"
                )
        altered = np.flatnonzero(~locked_kept_mask(inst, rec.population.values))
        if altered.size:
            issues.append(
                f"{tag}: {altered.size} member(s) alter a locked plot (first: member {altered[0]})"
            )
        front = rec.front_indices
        if ((front < 0) | (front >= rec.population.n)).any():
            issues.append(f"{tag}: front indices out of range")
            continue
        records[label].append(rec)
        outside = front[~rec.population.in_band_and_box(inst, gamma_final)[front]]
        if outside.size:
            issues.append(
                f"{tag}: {outside.size} front member(s) outside the final area band "
                f"or price box (first: member {outside[0]})"
            )
        pts = rec.population.objectives()[front]
        # pareto_indices keeps one of each unique non-dominated point
        if len(np.unique(pts, axis=0)) > len(metrics.pareto_indices(pts)):
            issues.append(f"{tag}: reported front contains dominated points")
        if not stale and (wrong := _not_final_front(inst, rec, gamma_final, soa_weights)):
            issues.append(f"{tag}: {wrong}")
    ok_runs = Counter(e["label"] for e in manifest.get("runs", []) if e["status"] == "ok")
    for idx, (label, recs) in enumerate(records.items()):
        if len(recs) != ok_runs[label]:  # a run file that is missing or unreadable
            continue
        name = f"combined/{slug(idx, label)}.json"
        try:
            same = (bundle / name).read_text(encoding="utf-8") == combined_json(label, recs, inst)
        except OSError:
            same = False
        if not same:
            issues.append(f"{label}: {name} is missing or not the union of its runs' fronts")
    return issues, incomplete
