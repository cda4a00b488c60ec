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
in a few numpy passes per block of rows. One walk over the manifest's runs
serves both `verify_bundle` and `load_bundle` (behind `report`), so
`report` refuses every bundle `verify` refuses, except for failed or
missing runs, which it lists as gaps. The walk parses a run file's code
lists straight into arrays, a block at a time, when it has the form `run`
writes, checks them and encodes them to plot values. Any other text takes
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
    return _with_codes(canonical_dumps(doc, compact=True), "population", pop.values, inst.codec)


# An entry's floor uses while its file is dumped, before `_with_codes` writes
# them in; and the key before a member's floor uses as `run` writes them.
_CODES_SLOT = '"floor_uses":[]'
_CODES_KEY = b',"floor_uses":['
# What a member's floor uses read as while `_read_run` parses their list, in place of a NaN.
_CUT = object()
_RUN_DECODER = json.JSONDecoder(parse_constant=lambda c: _CUT if c == "NaN" else float(c))
# About how many bytes of code lists `_parse_code_lists` reads at a time.
_BLOCK_BYTES = 1 << 17


def _with_codes(text: str, key: str, values: np.ndarray, codec) -> str:
    """`text` with the codes of plot-value row r as the floor uses of its `key` list's entry r.

    `text` is the compact dump of a document whose `key` entries hold
    `_CODES_SLOT` and numbers only, and after whose `key` list only numbers
    follow. So every slot after the key's last occurrence is an entry's.
    The rows are decoded 16 at a time, so that no array holds an int per
    floor of every row.
    """
    head, key_mark, tail = text.rpartition(f'"{key}":[')
    pieces = tail.split(_CODES_SLOT)
    blocks = (codec.decode_rows(values[r : r + 16]) for r in range(0, len(values), 16))
    lists = chain.from_iterable(map(_code_lists, blocks))
    return "".join([head, key_mark, *chain.from_iterable(zip(pieces, lists)), pieces[-1]])


def _code_lists(codes) -> list[str]:
    """Each row of non-negative int `codes` as `"floor_uses":` and its compact JSON list.

    A code takes `width` digit slots and a separator; the slots before its
    first digit hold NUL, which each row's text then drops.
    """
    n, f = codes.shape
    width = len(str(codes.max()))
    chars = np.zeros((n, f, width + 1), np.uint8)
    chars[..., width] = ord(",")
    chars[:, -1, width] = ord("]")
    rest = codes.astype(np.min_scalar_type(codes.max()))
    for place in range(width):
        digit = rest % 10 + ord("0")
        chars[..., width - 1 - place] = np.where(rest > 0, digit, 0) if place else digit
        rest //= 10
    text = str(chars, "ascii")
    m = f * (width + 1)
    return ['"floor_uses":[' + text[r * m : (r + 1) * m].replace("\0", "") for r in range(n)]


def _read_run(path: Path, inst: ProblemInstance) -> tuple[dict, np.ndarray | None]:
    """A run file's document and, if it has the form `run` writes, its members' (P, N) plot values.

    That form is one `_CODES_KEY` per population member, each followed by
    one code in [0, K) per floor of `inst`, of at most 9 digits, and "]".
    Each key and list is cut out before `json.loads`, as a NaN that parses
    to `_CUT`. If each member's "floor_uses" then reads `_CUT`, member r
    held list r, whatever keys, labels or escapes the rest of the text
    holds. Any other text, or one that spells NaN itself, is read by
    `json.loads` alone, with None for the values, so that
    `record_from_dict` checks it member by member.
    """
    data = path.read_bytes()
    spans = []  # (start, end) of the text between each key and the next "]"
    start = data.find(_CODES_KEY)
    while start >= 0 and (end := data.find(b"]", start)) >= 0:
        spans.append((start + len(_CODES_KEY), end))
        start = data.find(_CODES_KEY, end)
    cuts = [0, *chain.from_iterable((a - len(_CODES_KEY), b + 1) for a, b in spans), len(data)]
    rest = b',"floor_uses":NaN'.join(data[a:b] for a, b in zip(cuts[::2], cuts[1::2])).decode("utf-8")
    if rest.count("NaN") == len(spans):  # the text spells no NaN of its own
        try:
            doc = _RUN_DECODER.decode(rest)
            pop = doc["population"]
            one_each = len(pop) == len(spans) and all(m["floor_uses"] is _CUT for m in pop)
        except (ValueError, KeyError, TypeError):
            one_each = False
        if one_each and (values := _parse_code_lists(data, spans, inst)) is not None:
            return doc, values
    return json.loads(data.decode("utf-8")), None


def _parse_code_lists(data: bytes, spans: list[tuple[int, int]], inst: ProblemInstance) -> np.ndarray | None:
    """The (len(spans), N) plot values of the comma-separated code lists `data[a:b]`.

    None unless each list is one JSON integer in [0, K) per floor of
    `inst`, of at most 9 digits: digits and commas only, no empty token
    and no leading zero. The lists are parsed and encoded about
    `_BLOCK_BYTES` at a time, so that no array holds an int per code of
    the file.
    """
    if not spans or any(data.count(b",", a, b) != inst.total_floors - 1 for a, b in spans):
        return None
    values = np.empty((len(spans), inst.n_plots), np.int64)
    step = max(1, _BLOCK_BYTES // (spans[0][1] - spans[0][0] + 1))
    view = memoryview(data)
    for i in range(0, len(spans), step):
        # ten commas ahead of the first code, so that the ten bytes before every code's end lie in `buf`
        buf = np.frombuffer(b",".join([b"," * 9, *(view[a:b] for a, b in spans[i : i + step]), b""]), np.uint8)
        comma = buf == ord(",")
        if not ((buf - ord("0") < 10) | comma).all() or (comma[9:-1] & comma[10:]).any():
            return None  # a byte that is no digit or comma, or an empty token
        if (comma[9:-2] & (buf[10:-1] == ord("0")) & ~comma[11:]).any():
            return None  # a leading zero
        ends = np.flatnonzero(comma[10:])
        codes = np.zeros(ends.size, np.int32)
        more = np.ones(ends.size, bool)  # the codes with more than `place` digits
        for place in range(10):
            digit = buf[9 - place :].take(ends)  # the byte `place` places before each code's end
            more &= digit != ord(",")
            if not more.any():
                break
            codes += np.where(more, digit - ord("0"), 0) * np.int32(10**place)
        if more.any() or codes.max() >= inst.n_uses:
            return None  # a code of more than 9 digits, or outside [0, K)
        values[i : i + step] = inst.codec.encode_rows(codes.reshape(-1, inst.total_floors))
    return values


def record_from_dict(
    doc: dict, inst: ProblemInstance, values: np.ndarray | None = None
) -> tuple[str, RunRecord, BatchStats]:
    """A run file's label, its RunRecord, and the evaluation of its members' floor uses.

    Plot values and per-use areas are recomputed from the codes: `values`,
    if given, as `_read_run` parsed and encoded them, in place of the
    lists in `doc`. Raises InstanceError if a member is not an object, its
    floor uses are not a list of one integer code per floor of the
    instance (a boolean is no code), a code lies outside [0, K), or a
    stored number (a member field, the seed, the HV trace or the front) is
    null or does not convert. A stored NaN or infinity converts: the bundle walk reports it
    as a stale member.
    """
    pop_docs = doc["population"]
    if values is None:
        values = inst.codec.encode_rows(_listed_codes(pop_docs, inst))
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
    are a list of one JSON integer in [0, K) per floor: a boolean, or a
    float even if integral (1.0), is no code. A code too large for int64
    stays a Python int in an object array, for the range check to refuse.
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
    codes = np.array(lists).reshape(len(pop_docs), inst.total_floors)
    outside = np.flatnonzero(~codes_in_range_mask(inst, codes))
    if outside.size:  # evaluate_batch would count such a floor against another plot or use
        raise InstanceError(
            f"floor-use codes outside [0, {inst.n_uses}) in {outside.size} member(s) "
            f"(first: member {outside[0]})"
        )
    return codes


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


def combined_json(label: str, entries: list[dict], inst: ProblemInstance) -> str:
    """The text of a label's combined file, from the `combined_front_entries` of its ok runs."""
    keys = ("compatibility", "price", "seed")
    points = [{k: e[k] for k in keys} | {"floor_uses": []} for e in entries]
    text = canonical_dumps({"label": label, "points": points}, compact=True)
    values = np.array([e["values"] for e in entries], dtype=np.int64).reshape(-1, inst.n_plots)
    return _with_codes(text, "points", values, inst.codec)


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
            combined_json(label, combined_front_entries(label_records[label]), inst), encoding="utf-8"
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
    combined: dict[str, list[dict]]  # label -> combined_front_entries of its records
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


def _foreign_run(entry: dict, config: dict, label: str, rec: RunRecord) -> str | None:
    """What is wrong if the run file of manifest `entry` holds another run than `config`'s."""
    if (label, rec.seed) != (entry["label"], entry["seed"]):
        return f"run file {entry['file']} holds {label} seed {rec.seed}"
    if rec.algorithm != config["algorithm"] or rec.config != {**config, "seed": rec.seed}:
        return f"run file {entry['file']} holds another algorithm or config than its engine's"
    return None


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
    """The bundle's instance and ok runs; InstanceError with the first issue `verify_bundle` finds.

    Failed runs and missing run files are no issue here: they are the
    LoadedBundle's gaps.
    """
    issues, gaps, loaded = _walk_bundle(Path(bundle_dir))
    if issues or loaded is None:
        raise InstanceError((issues + gaps)[0])
    return loaded


def verify_bundle(bundle_dir: str | Path) -> tuple[list[str], bool]:
    """Check bundle completeness and invariants: `_walk_bundle`'s gaps, then its issues.

    Returns (gaps + issues, incomplete): `incomplete` marks a missing
    manifest, instance or run file, or a failed run.
    """
    issues, gaps, _ = _walk_bundle(Path(bundle_dir))
    return gaps + issues, bool(gaps)


def _walk_bundle(bundle: Path) -> tuple[list[str], list[str], LoadedBundle | None]:
    """(issues, gaps, the loaded bundle or None if its manifest or instance is unusable).

    Gaps are a missing manifest, instance or run file, and failed runs;
    issues are integrity problems. Each run's codes must lie in [0, K),
    and its plot values must keep every locked plot as built. Its stored
    member objectives and changed counts are checked against the
    evaluation of its codes that `record_from_dict` makes, its front
    members must lie inside the final gamma band (areas from that
    evaluation) and the price box, and its HV trace must be finite, hold
    one value per generation and never decrease. Unless a member is
    stale, its members' feasible flags and violations must be exactly
    `_refresh_pop`'s under the final (gamma, mu), as the engine stores
    them, and its front must be the stored population's
    `final_front_indices` (a repeated index is no difference). Each
    label's combined file must be the text `run` writes from the label's
    ok runs, unless one of them is missing or unreadable.

    A run file must hold the label, seed, algorithm and config (plus the
    seed) of its manifest run and engine entries, and these entries the
    fields `run` writes.
    """
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        return [], [f"{bundle}: manifest.json missing"], None
    try:
        manifest = _read_manifest(manifest_path)
    except (json.JSONDecodeError, InstanceError) as exc:
        return [f"manifest.json unreadable: {exc}"], [], None
    inst_path = bundle / manifest.get("instance", "instance.landalloc.json")
    if not inst_path.exists():
        return [], [f"instance file missing: {inst_path.name}"], None
    issues: list[str] = []
    gaps: list[str] = []
    if _sha256(inst_path) != manifest.get("instance_sha256"):
        issues.append("instance file hash does not match the manifest")
    try:
        inst = load_instance(inst_path)
    except InstanceError as exc:
        return issues + [f"instance invalid: {exc}"], gaps, None
    configs = {e["label"]: e["config"] for e in manifest.get("engines", [])}
    records: dict[str, list[RunRecord]] = {label: [] for label in configs}
    ok_runs = Counter()
    for entry in manifest.get("runs", []):
        tag = f"{entry['label']} seed {entry['seed']}"
        if entry["status"] != "ok":
            gaps.append(f"{tag}: marked failed ({entry.get('error', '?')})")
            continue
        ok_runs[entry["label"]] += 1
        path = bundle / entry["file"]
        if not path.exists():
            gaps.append(f"{tag}: run file missing")
            continue
        try:
            doc, values = _read_run(path, inst)
            label, rec, stats = record_from_dict(doc, inst, values)
        except Exception as exc:
            issues.append(f"{tag}: unreadable run file ({exc})")
            continue
        config = configs.get(entry["label"], {})
        try:
            generations, gamma_final, mu_final, soa_weights = _final_settings(config, tag)
        except InstanceError as exc:
            issues.append(str(exc))
            continue
        if foreign := _foreign_run(entry, config, label, rec):
            issues.append(f"{tag}: {foreign}")
            continue
        trace = np.array(rec.hv_trace)
        if len(trace) != generations:
            issues.append(f"{tag}: hv trace length {len(trace)} != generations {generations}")
        if not np.isfinite(trace).all():
            issues.append(f"{tag}: hv trace is not finite")
        elif (np.diff(trace) < 0).any():
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
    combined = {label: combined_front_entries(recs) for label, recs in records.items()}
    for idx, (label, entries) in enumerate(combined.items()):
        if len(records[label]) != ok_runs[label]:  # a run file that is missing or unreadable
            continue
        name = f"combined/{slug(idx, label)}.json"
        try:
            same = (bundle / name).read_text(encoding="utf-8") == combined_json(label, entries, inst)
        except OSError:
            same = False
        if not same:
            issues.append(f"{label}: {name} is missing or not the union of its runs' fronts")
    return issues, gaps, LoadedBundle(bundle, manifest, inst, records, combined, gaps)
