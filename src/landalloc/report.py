"""Report generation: indicator tables, statistics, and SVG figures.

Everything here is a pure function of the persisted bundle (RunRecords +
the bundled instance), with deterministic formatting, so regenerating a
report produces byte-identical files.

Outputs under <bundle>/report/:

    runs_metrics.csv   per-run front size, best objectives, HV/GD/GD+/IGD/IGD+
    indicators.csv     per-label indicator means over runs
    types.csv          Type I / II / III solutions with % deltas vs actual
    landuse.csv        per-use area change for Type I / II solutions
    stats.json         Kruskal-Wallis + Dunn + compact letter display per metric
    fronts.svg         combined fronts scatter with the actual-land-use marker
    hv.svg             mean per-generation archive-HV curve per label
    summary.txt        human-readable overview incl. unrelaxation survivor counts
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from . import metrics, stats
from .engines import crowding_distance
from .harness import LoadedBundle, load_bundle
from .instance_io import canonical_dumps
from .model import ProblemInstance

# runs_metrics.csv columns; each from best_compatibility on can be a stats metric
RUN_COLUMNS = (
    "label", "seed", "front_size", "best_compatibility", "best_price",
    "hv", "gd", "gd_plus", "igd", "igd_plus",
)
STATS_COLUMNS = RUN_COLUMNS[3:]
INDICATORS = RUN_COLUMNS[5:]
LOWER_IS_BETTER = frozenset({"gd", "gd_plus", "igd", "igd_plus"})

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def generate_report(bundle_dir: str | Path, out_dir: str | Path | None = None) -> Path:
    """Write the full report for a bundle; returns the report directory."""
    lb = load_bundle(bundle_dir)
    out = Path(out_dir) if out_dir is not None else lb.bundle_dir / "report"
    out.mkdir(parents=True, exist_ok=True)

    labels = [e["label"] for e in lb.manifest["engines"]]
    actual = lb.instance.actual_objectives

    # Reference set: non-dominated union over every compared front (declared
    # in the summary); normalization universe adds the actual point.
    per_run = [
        (label, rec.seed, rec.population.objectives()[rec.front_indices])
        for label in labels
        for rec in lb.records[label]
    ]
    pooled = np.vstack([np.zeros((0, 2))] + [pts for _, _, pts in per_run])
    reference = metrics.pareto_filter(pooled)
    bounds = metrics.NormalizationBounds.from_points(
        np.vstack([pooled, reference, actual[None, :]])
    )
    gaps = list(lb.gaps)

    # one dict per run; an empty front has no objective or indicator keys
    metric_rows = []
    for label, seed, pts in per_run:
        row = {"label": label, "seed": seed, "front_size": len(pts)}
        if pts.size == 0:
            gaps.append(f"{label} seed {seed}: empty reported front")
        else:
            row["best_compatibility"] = float(pts[:, 0].max())
            row["best_price"] = float(pts[:, 1].max())
            row.update(metrics.indicator_suite(pts, reference, bounds))
        metric_rows.append(row)
    _write_csv(
        out / "runs_metrics.csv",
        list(RUN_COLUMNS),
        [[row.get(c) for c in RUN_COLUMNS] for row in metric_rows],
    )

    indicator_rows = []
    for label in labels:
        rows = [r for r in metric_rows if r["label"] == label and "hv" in r]
        means = [float(np.mean([r[c] for r in rows])) if rows else None for c in INDICATORS]
        indicator_rows.append([label, len(rows), *means])
    _write_csv(out / "indicators.csv", ["label", "runs", *INDICATORS], indicator_rows)

    stats_doc = _stats_report(lb, labels, metric_rows)
    (out / "stats.json").write_text(canonical_dumps(stats_doc), encoding="utf-8")

    combined = lb.combined
    types_rows, landuse_rows = _types_and_landuse(lb.instance, labels, combined)
    _write_csv(
        out / "types.csv",
        [
            "label", "type", "seed", "compatibility", "price",
            "compatibility_change_pct", "price_change_pct",
        ],
        types_rows,
    )
    _write_csv(
        out / "landuse.csv",
        ["label", "type", "use", "actual_area", "area", "change_pct"],
        landuse_rows,
    )

    (out / "fronts.svg").write_text(
        _fronts_svg(labels, combined, lb.instance), encoding="utf-8"
    )
    (out / "hv.svg").write_text(_hv_svg(labels, lb.records), encoding="utf-8")

    (out / "summary.txt").write_text(
        _summary(lb, labels, combined, metric_rows, reference, gaps), encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------------
# statistics


def _stats_report(lb: LoadedBundle, labels: list[str], metric_rows) -> dict:
    alpha = float(lb.manifest.get("alpha", 0.05))
    wanted = lb.manifest.get("stats_metrics", list(STATS_COLUMNS))
    doc: dict = {"alpha": alpha, "metrics": {}}
    for metric in wanted:
        if metric not in STATS_COLUMNS:
            doc["metrics"][metric] = {"error": "unknown metric"}
            continue
        groups = []
        for label in labels:
            vals = [r[metric] for r in metric_rows if r["label"] == label and metric in r]
            if vals:
                groups.append(stats.SampleGroup(label, tuple(vals)))
        if len(groups) < 2:
            doc["metrics"][metric] = {"error": "fewer than two groups with data"}
            continue
        kw = stats.kruskal_wallis(groups)
        pairwise = stats.dunn_posthoc(groups, alpha)
        medians = {g.label: float(np.median(g.values)) for g in groups}
        pos = {label: i for i, label in enumerate(labels)}
        order = sorted(
            medians,
            key=lambda l: (medians[l] if metric in LOWER_IS_BETTER else -medians[l], pos[l]),
        )
        cld = stats.compact_letter_display(pairwise, order)
        doc["metrics"][metric] = {
            "kruskal_wallis": {"H": kw.H, "df": kw.df, "p": kw.p},
            "medians": medians,
            "pairwise": [
                {
                    "a": p.pair[0],
                    "b": p.pair[1],
                    "z": p.z_statistic,
                    "p_raw": p.p_raw,
                    "p_adjusted": p.p_adjusted,
                    "significant": p.significant,
                }
                for p in pairwise
            ],
            "cld": {
                "order": list(cld.order),
                "letters": dict(sorted(cld.letters.items())),
                "consistent": cld.consistent,
            },
        }
    return doc


# ---------------------------------------------------------------------------
# Type I/II/III and land-use distribution


def _types_and_landuse(
    inst: ProblemInstance, labels: list[str], combined: dict[str, list[dict]]
) -> tuple[list[list], list[list]]:
    actual_c, actual_p = inst.actual_objectives.tolist()
    types_rows: list[list] = []
    landuse_rows: list[list] = []
    for label in labels:
        entries = combined[label]
        picks = _pick_types(entries)
        for type_name in ("I", "II", "III"):
            e = picks.get(type_name)
            if e is None:
                types_rows.append([label, type_name, None, None, None, None, None])
                continue
            c, p = e["compatibility"], e["price"]
            types_rows.append(
                [
                    label, type_name, e["seed"], c, p,
                    100.0 * (c - actual_c) / actual_c if actual_c else None,
                    100.0 * (p - actual_p) / actual_p if actual_p else None,
                ]
            )
            if type_name in ("I", "II"):
                for m, use in enumerate(inst.uses):
                    a0, a = float(inst.actual_areas[m]), float(e["areas"][m])
                    landuse_rows.append(
                        [label, type_name, use.name, a0, a, 100.0 * (a - a0) / a0 if a0 else None]
                    )
    return types_rows, landuse_rows


def _pick_types(entries: list[dict]) -> dict[str, dict | None]:
    """Type I best compatibility, II best price, III max crowding interior."""
    if not entries:
        return {"I": None, "II": None, "III": None}
    n = len(entries)
    cs = [e["compatibility"] for e in entries]
    ps = [e["price"] for e in entries]
    i1 = max(range(n), key=lambda i: (cs[i], ps[i], -i))
    i2 = max(range(n), key=lambda i: (ps[i], cs[i], -i))
    picks = {"I": entries[i1], "II": None, "III": None}
    if (cs[i2], ps[i2]) != (cs[i1], ps[i1]):
        picks["II"] = entries[i2]
    if n >= 3:
        d = crowding_distance(np.column_stack([cs, ps]))
        finite = np.flatnonzero(np.isfinite(d))
        if finite.size:
            i3 = int(finite[np.argmax(d[finite])])
            picks["III"] = entries[i3]
    return picks


# ---------------------------------------------------------------------------
# SVG figures (no plotting dependency; scatter + polyline primitives)


def _scale(lo: float, hi: float, size: float, margin: float):
    span = (hi - lo) or 1.0

    def to_px(v: float) -> float:
        return margin + (v - lo) / span * size

    return to_px


def _frame(width, height, margin, x_lo, x_hi, y_lo, y_hi, x_label, y_label) -> list[str]:
    """An SVG document's opening tags, white background and labelled axes."""
    sx = _scale(x_lo, x_hi, width - 2 * margin, margin)
    sy = _scale(y_lo, y_hi, height - 2 * margin, margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333"/>',
    ]
    for k in range(5):
        vx = x_lo + (x_hi - x_lo) * k / 4
        vy = y_lo + (y_hi - y_lo) * k / 4
        px = sx(vx)
        py = height - sy(vy)
        parts.append(
            f'<text x="{px:.2f}" y="{height - margin + 16}" font-size="10" '
            f'text-anchor="middle">{vx:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{py:.2f}" font-size="10" '
            f'text-anchor="end">{vy:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.2f})">{y_label}</text>'
    )
    return parts


def _fronts_svg(labels, combined, inst) -> str:
    width, height, margin = 640, 480, 60
    pts_all = [
        (e["price"], e["compatibility"]) for label in labels for e in combined[label]
    ]
    actual_c, actual_p = inst.actual_objectives.tolist()
    pts_all.append((actual_p, actual_c))
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    pad_x = (max(xs) - min(xs)) * 0.05 or abs(max(xs)) * 0.05 or 1.0
    pad_y = (max(ys) - min(ys)) * 0.05 or abs(max(ys)) * 0.05 or 1.0
    x_lo, x_hi = min(xs) - pad_x, max(xs) + pad_x
    y_lo, y_hi = min(ys) - pad_y, max(ys) + pad_y
    sx = _scale(x_lo, x_hi, width - 2 * margin, margin)
    sy = _scale(y_lo, y_hi, height - 2 * margin, margin)
    parts = _frame(width, height, margin, x_lo, x_hi, y_lo, y_hi, "price", "compatibility")
    for k, label in enumerate(labels):
        color = _PALETTE[k % len(_PALETTE)]
        for e in combined[label]:
            px, py = sx(e["price"]), height - sy(e["compatibility"])
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}" fill-opacity="0.8"/>')
        ly = margin + 14 * (k + 1)
        parts.append(f'<circle cx="{width - margin - 150}" cy="{ly - 4}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 140}" y="{ly}" font-size="11">{label}</text>')
    ax, ay = sx(actual_p), height - sy(actual_c)
    parts.append(
        f'<path d="M {ax - 5:.2f} {ay - 5:.2f} L {ax + 5:.2f} {ay + 5:.2f} '
        f'M {ax - 5:.2f} {ay + 5:.2f} L {ax + 5:.2f} {ay - 5:.2f}" stroke="black" stroke-width="2"/>'
    )
    ly = margin + 14 * (len(labels) + 1)
    parts.append(f'<text x="{width - margin - 140}" y="{ly}" font-size="11">actual land-use (x)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _hv_svg(labels, records) -> str:
    width, height, margin = 640, 400, 60
    traces = {}
    for label in labels:
        recs = records[label]  # every trace holds one value per generation
        if recs and recs[0].hv_trace:  # a manifest may say `generations: 0`
            traces[label] = np.mean([r.hv_trace for r in recs], axis=0)
    max_gen = max((len(t) for t in traces.values()), default=1)
    hv_hi = max((float(t.max()) for t in traces.values()), default=1.0) or 1.0
    sx = _scale(1, max_gen, width - 2 * margin, margin)
    sy = _scale(0.0, hv_hi, height - 2 * margin, margin)
    parts = _frame(width, height, margin, 1, max_gen, 0.0, hv_hi, "generation", "archive hypervolume")
    for k, label in enumerate(labels):
        if label not in traces:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{sx(g + 1):.2f},{height - sy(v):.2f}" for g, v in enumerate(traces[label])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = margin + 14 * (k + 1)
        parts.append(f'<rect x="{width - margin - 150}" y="{ly - 8}" width="10" height="3" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 134}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# summary


def _summary(lb, labels, combined, metric_rows, reference, gaps) -> str:
    inst = lb.instance
    lines = [
        "land-use allocation experiment report",
        "=" * 40,
        f"instance: {inst.n_plots} plots, {inst.n_uses} uses, "
        f"gamma={inst.gamma}, mu={inst.mu}",
        f"price box: [{inst.price_min!r}, {inst.price_max!r}]",
        "actual: compatibility={!r}, price={!r}".format(*inst.actual_objectives.tolist()),
        "reference set policy: combined "
        f"(non-dominated union of all reported fronts, {len(reference)} points)",
        "",
    ]
    for label in labels:
        rows = [r for r in metric_rows if r["label"] == label]
        survivors = [r["front_size"] for r in rows]
        lines.append(f"{label}:")
        lines.append(
            f"  runs: {len(lb.records[label])}/{len(rows)} ok; "
            f"final-front survivors per seed: {survivors}"
        )
        lines.append(f"  combined front size: {len(combined[label])}")
        vals = [r["hv"] for r in rows if "hv" in r]
        if vals:
            lines.append(f"  mean HV: {float(np.mean(vals))!r}")
        lines.append("")
    if gaps:
        lines.append("gaps:")
        lines.extend(f"  - {g}" for g in gaps)
        lines.append("")
    return "\n".join(lines)
