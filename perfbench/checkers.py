"""Checks of landalloc's outputs made apart from landalloc.

Nothing here imports the package. Instances, run records, combined
fronts and reports are read from the JSON and CSV files the program
writes, and every number is recomputed with plain loops over the printed
formulas: the objectives, the per-use areas, the non-dominated union, the
tie-corrected Kruskal-Wallis H and the compact-letter-display rule.
"""

from __future__ import annotations

import csv
import itertools
import json
from operator import mul
from pathlib import Path

REL_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class NaiveInstance:
    """The fields of a .landalloc.json document that the objectives use."""

    def __init__(self, doc: dict):
        self.k = len(doc["uses"])
        self.plots = doc["plots"]
        compat = [[float(v) for v in row] for row in doc["compat"]]
        self.compat_cols = [[compat[l][m] for l in range(self.k)] for m in range(self.k)]
        self.price = [[float(v) for v in row] for row in doc["price"]]
        self.gamma = float(doc["gamma"])
        self.price_min = float(doc["price_min"])
        self.price_max = float(doc["price_max"])
        self.floor_space = [float(p["floor_space"]) for p in self.plots]
        self.neighbors = [p["neighbors"] for p in self.plots]
        self.bounds, at = [], 0
        for p in self.plots:
            self.bounds.append((at, at + p["floors"]))
            at += p["floors"]
        self.total_floors = at
        self.actual = [u for p in self.plots for u in p["actual_uses"]]
        self.actual_rows = [list(p["actual_uses"]) for p in self.plots]
        self._memo: dict[tuple, dict] = {}  # identical allocations are evaluated once
        self.actual_areas = self.evaluate(self.actual)["areas"]

    @classmethod
    def load(cls, path: str | Path) -> "NaiveInstance":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def split(self, codes: list[int]) -> list[list[int]]:
        if len(codes) != self.total_floors:
            raise CheckError(f"allocation has {len(codes)} floor codes, instance has {self.total_floors}")
        return [codes[a:b] for a, b in self.bounds]

    def evaluate(self, codes: list[int]) -> dict:
        """Objectives, per-use areas and changed-plot count of one allocation.

        compatibility = sum over stored neighbor pairs (i, j) and use pairs
        (l, m) of C[l][m] * x[i][l] * x[j][m] * F[i] * F[j], where x is the
        floor-use share of a plot and F its floor space; price = sum of
        P[i][m] * x[i][m].
        """
        key = tuple(codes)
        if key not in self._memo:
            self._memo[key] = self._evaluate(self.split(codes))
        return self._memo[key]

    def _evaluate(self, rows: list[list[int]]) -> dict:
        uses = range(self.k)
        shares = [[row.count(m) / len(row) for m in uses] for row in rows]
        scaled = [[v * f for v in x] for x, f in zip(shares, self.floor_space)]
        compatibility = 0.0
        for x, f, nbs in zip(shares, self.floor_space, self.neighbors):
            # F[i] times row i of x C, then dotted with each neighbor's F x
            w = [f * sum(map(mul, x, col)) for col in self.compat_cols]
            for j in nbs:
                compatibility += sum(map(mul, w, scaled[j]))
        price = sum(sum(map(mul, prow, x)) for x, prow in zip(shares, self.price))
        areas = [sum(x[m] for x in scaled) for m in uses]
        changed = sum(1 for row, act in zip(rows, self.actual_rows) if row != act)
        return {"compatibility": compatibility, "price": price, "areas": areas, "changed": changed}

    def final_feasible(self, ev: dict, gamma: float) -> bool:
        """Area band (1 +/- gamma) around the as-built areas, and the price box.

        Limits are widened by REL_TOL, so that a value the program puts on a
        limit is not refused for a last-bit difference in summation order.
        """
        lo, hi = 1.0 - REL_TOL, 1.0 + REL_TOL
        band = all(
            (1.0 - gamma) * a0 * lo <= a <= (1.0 + gamma) * a0 * hi
            for a, a0 in zip(ev["areas"], self.actual_areas)
        )
        return band and self.price_min * lo <= ev["price"] <= self.price_max * hi


def dominates(a, b) -> bool:
    """a dominates b under maximization of both coordinates."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_union(entries: list[dict]) -> list[dict]:
    """O(n^2) non-dominated union in input order; the first of equal points stays."""
    pts = [(e["compatibility"], e["price"]) for e in entries]
    kept = []
    for i, p in enumerate(pts):
        if any(dominates(q, p) for q in pts):
            continue
        if any(pts[j] == p for j in range(i)):
            continue
        kept.append(entries[i])
    return kept


def kruskal_h(groups: list[list[float]]) -> float:
    """Tie-corrected Kruskal-Wallis H with mid-ranks; 0 when all values tie."""
    pooled = sorted(v for g in groups for v in g)
    n = len(pooled)
    rank_of: dict[float, float] = {}
    ties = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        rank_of[pooled[i]] = (i + j) / 2.0 + 1.0
        t = j - i + 1
        ties += t**3 - t
        i = j + 1
    h = 12.0 / (n * (n + 1)) * sum(
        sum(rank_of[v] for v in g) ** 2 / len(g) for g in groups
    ) - 3.0 * (n + 1)
    divisor = 1.0 - ties / (n**3 - n)
    if divisor <= 0.0:
        return 0.0
    return max(h / divisor, 0.0)


def cld_violations(letters: dict[str, str], significant: dict[frozenset, bool]) -> list[str]:
    """Pairs that break the rule: two labels share a letter iff not significant."""
    bad = []
    for a, b in itertools.combinations(sorted(letters), 2):
        share = bool(set(letters[a]) & set(letters[b]))
        if share == significant[frozenset((a, b))]:
            bad.append(f"{a} / {b}: share={share}, significant={significant[frozenset((a, b))]}")
    return bad


def exhaustive_pareto(inst: NaiveInstance) -> list[tuple[float, float]]:
    """Objective pairs of the constrained Pareto set over every allocation.

    Unlocked floors take every use; locked floors keep the as-built use.
    Feasible means the instance's area band and the price box.
    """
    slots = []
    at = 0
    for p in inst.plots:
        if not p["locked"]:
            slots.extend(range(at, at + p["floors"]))
        at += p["floors"]
    feasible = []
    for combo in itertools.product(range(inst.k), repeat=len(slots)):
        codes = list(inst.actual)
        for s, u in zip(slots, combo):
            codes[s] = u
        ev = inst.evaluate(codes)
        if inst.final_feasible(ev, inst.gamma):
            feasible.append((ev["compatibility"], ev["price"]))
    return [p for p in set(feasible) if not any(dominates(q, p) for q in feasible)]


def in_set(point, reference) -> bool:
    return any(_close(point[0], z[0]) and _close(point[1], z[1]) for z in reference)


# ---------------------------------------------------------------------------
# bundle checks


def check_record(inst: NaiveInstance, doc: dict, generations: int, gamma_final: float) -> list[dict]:
    """Check one run record; returns its front members' naive evaluations.

    Every population member: codes in range, locked plots as built, and
    the stored objectives and changed count equal to the naive ones.
    Front members: inside the final area band and price box, mutually
    non-dominated. The archive HV trace: one value per generation, never
    decreasing.
    """
    tag = f"{doc['label']} seed {doc['seed']}"
    trace = doc["hv_trace"]
    if len(trace) != generations:
        raise CheckError(f"{tag}: hv trace has {len(trace)} values for {generations} generations")
    if any(b < a for a, b in zip(trace, trace[1:])):
        raise CheckError(f"{tag}: hv trace decreases")
    evals = []
    for r, member in enumerate(doc["population"]):
        codes = member["floor_uses"]
        if min(codes) < 0 or max(codes) >= inst.k:
            raise CheckError(f"{tag}: member {r} has a use code outside 0..{inst.k - 1}")
        for p, row, act in zip(inst.plots, inst.split(codes), inst.actual_rows):
            if p["locked"] and row != act:
                raise CheckError(f"{tag}: member {r} alters locked plot {p['id']}")
        ev = inst.evaluate(codes)
        for key in ("compatibility", "price"):
            if not _close(member[key], ev[key]):
                raise CheckError(f"{tag}: member {r} {key} {member[key]!r} != naive {ev[key]!r}")
        if member["changed"] != ev["changed"]:
            raise CheckError(f"{tag}: member {r} changed {member['changed']} != naive {ev['changed']}")
        evals.append(ev)
    front = [evals[i] for i in doc["front"]]
    for i, ev in zip(doc["front"], front):
        if not inst.final_feasible(ev, gamma_final):
            raise CheckError(f"{tag}: front member {i} is outside the final band or price box")
    pts = [(ev["compatibility"], ev["price"]) for ev in front]
    if any(dominates(q, p) for p in pts for q in pts):
        raise CheckError(f"{tag}: front members dominate one another")
    return front


def check_bundle(bundle: str | Path) -> list[tuple[str, int, list[dict] | None]]:
    """Check a bundle written by `landalloc run` and `landalloc report`.

    Returns (label, seed, front evaluations) per run in manifest order;
    a run the harness marked failed has None in place of its front.
    """
    bundle = Path(bundle)
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    inst = NaiveInstance.load(bundle / manifest["instance"])
    engines = {e["label"]: e for e in manifest["engines"]}
    runs = []
    fronts: dict[str, list[dict]] = {label: [] for label in engines}
    for entry in manifest["runs"]:
        if entry["status"] != "ok":
            runs.append((entry["label"], entry["seed"], None))
            continue
        doc = json.loads((bundle / entry["file"]).read_text(encoding="utf-8"))
        cfg = engines[entry["label"]]["config"]
        front = check_record(inst, doc, cfg["generations"], cfg["relax"]["gamma_final"])
        runs.append((entry["label"], entry["seed"], front))
        fronts[entry["label"]].extend(
            {
                "compatibility": doc["population"][i]["compatibility"],
                "price": doc["population"][i]["price"],
                "seed": doc["seed"],
                "floor_uses": doc["population"][i]["floor_uses"],
            }
            for i in doc["front"]
        )
    for label, e in engines.items():
        path = bundle / "combined" / f"{e['slug']}.json"
        combined = json.loads(path.read_text(encoding="utf-8"))
        if combined["points"] != pareto_union(fronts[label]):
            raise CheckError(f"{label}: combined front differs from the union of its run fronts")
    check_stats(bundle / "report")
    return runs


def check_stats(report: Path) -> None:
    """KW H against runs_metrics.csv, and the CLD rule, for every metric."""
    with open(report / "runs_metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    doc = json.loads((report / "stats.json").read_text(encoding="utf-8"))
    labels = list(dict.fromkeys(r["label"] for r in rows))
    for metric, res in doc["metrics"].items():
        groups = []
        for label in labels:
            vals = [float(r[metric]) for r in rows if r["label"] == label and r[metric] != ""]
            if vals:
                groups.append(vals)
        if "error" in res:
            if len(groups) >= 2:
                raise CheckError(f"stats {metric}: skipped with {len(groups)} groups of data")
            continue
        h = kruskal_h(groups)
        got = res["kruskal_wallis"]["H"]
        if not (abs(got - h) <= 1e-12 or _close(got, h)):
            raise CheckError(f"stats {metric}: H {got!r} != independent {h!r}")
        significant = {frozenset((p["a"], p["b"])): p["significant"] for p in res["pairwise"]}
        bad = cld_violations(res["cld"]["letters"], significant)
        if bad:
            raise CheckError(f"stats {metric}: letters break the CLD rule: {bad}")
