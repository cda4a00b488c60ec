"""Score fronts with the quality indicators, then compare methods statistically.

The indicator pipeline normalizes all compared fronts (plus the reference
set and the actual land-use point) into [0,1]^2, measures hypervolume
against the (0,0) reference on the maximization coordinates, and measures
GD/GD+/IGD/IGD+ on the flipped (minimization) coordinates.
"""

import numpy as np

from landalloc import (
    NormalizationBounds,
    SampleGroup,
    compact_letter_display,
    dunn_posthoc,
    hypervolume_2d,
    indicator_suite,
    kruskal_wallis,
    pareto_filter,
)

rng = np.random.default_rng(1)

print("hand-checkable hypervolumes (maximization, reference (0,0)):")
print("  {(0.5, 0.5)}            ->", hypervolume_2d(np.array([[0.5, 0.5]])))
print("  {(1, 0.2), (0.4, 0.8)}  ->", hypervolume_2d(np.array([[1.0, 0.2], [0.4, 0.8]])))

# three synthetic methods with progressively better fronts
base = np.array([[2.0, 8.0], [4.0, 6.0], [6.0, 3.0]])
fronts = {
    "method_a": base,
    "method_b": base + rng.uniform(0.2, 0.8, base.shape),
    "method_c": base + rng.uniform(0.8, 1.6, base.shape),
}
# the reference set: the non-dominated union of every compared front
reference = pareto_filter(np.vstack(list(fronts.values())))
universe = np.vstack(list(fronts.values()) + [[[0.0, 0.0]]])
bounds = NormalizationBounds.from_points(universe)

print("\nindicators against the combined reference front:")
print(f"{'method':10s} {'HV':>7s} {'GD':>7s} {'GD+':>7s} {'IGD':>7s} {'IGD+':>7s}")
for name, front in fronts.items():
    s = indicator_suite(front, reference, bounds)
    print(f"{name:10s} {s['hv']:7.4f} {s['gd']:7.4f} {s['gd_plus']:7.4f} "
          f"{s['igd']:7.4f} {s['igd_plus']:7.4f}")

# five "runs" per method: method_c shifted clearly above the others
groups = [
    SampleGroup("method_a", tuple(10 + rng.normal(0, 0.5) for _ in range(5))),
    SampleGroup("method_b", tuple(10.4 + rng.normal(0, 0.5) for _ in range(5))),
    SampleGroup("method_c", tuple(14 + rng.normal(0, 0.5) for _ in range(5))),
]
h, df, p = kruskal_wallis(groups)
print(f"\nKruskal-Wallis over per-run best scores: H={h:.3f}, df={df}, p={p:.4f}")

pairwise = dunn_posthoc(groups, alpha=0.05)
for r in pairwise:
    flag = "SIGNIFICANT" if r.significant else "not significant"
    print(f"  {r.pair[0]} vs {r.pair[1]}: z={r.z_statistic:+.3f}, "
          f"adjusted p={r.p_adjusted:.4f} ({flag})")

order = sorted((g.label for g in groups),
               key=lambda l: -float(np.median(dict((g.label, g.values) for g in groups)[l])))
cld = compact_letter_display(pairwise, order)
print("\ncompact letter display (shared letter = not significantly different):")
for label in cld.order:
    print(f"  {label:10s} {cld.letters[label]}")
