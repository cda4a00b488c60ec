"""Build a two-plot instance by hand and walk through both objectives.

Plot 0 is a two-floor building with 100 units of floor space next to
plot 1, a two-floor building with 200 units. With two use categories
(residential = 0, commercial = 1), the compatibility matrix rewards
same-use neighbors and penalizes mixing, and each plot has its own
full-plot price per use.

A land-use map is one row of plot values: plot i's floor uses as one
base-K integer, most significant floor first. `evaluate_batch` scores a
(B, N) batch of such rows; the `*_mask` functions check them. The files
store a map as one flat row of floor-use codes, plot i's floors at
row[floor_offsets[i]:floor_offsets[i+1]]; `inst.codec` converts between
the two.
"""

import numpy as np

from landalloc import LandUse, Plot, ProblemInstance
from landalloc.model import (
    area_band,
    area_band_mask,
    evaluate_batch,
    plot_budget_mask,
    price_box_mask,
)

plots = [
    Plot(id=0, floor_count=2, total_floor_space=100.0, neighbors=(1,), actual_uses=(0, 1)),
    Plot(id=1, floor_count=2, total_floor_space=200.0, neighbors=(0,), actual_uses=(0, 0)),
]
uses = [LandUse(0, "residential"), LandUse(1, "commercial")]
compat = np.array([[1.0, -0.5], [-0.5, 1.0]])
price = np.array([[10.0, 20.0], [30.0, 15.0]])

inst = ProblemInstance(
    plots, uses, compat, price, gamma=0.3, mu=0.5, price_min=40.0, price_max=50.0
)

print("The as-built map: plot 0 = [res, com], plot 1 = [res, res]")
codes = inst.actual_codes
print(f"  code row {codes.tolist()}, plot offsets {inst.floor_offsets.tolist()}")
actual = inst.actual_values
print(f"  plot values {actual.tolist()} (base 2: 01 -> 1, 00 -> 0)")
counts = inst.codec.use_counts(actual)
for i in range(inst.n_plots):
    print(f"  plot {i}: floors per use {counts[i].tolist()}, "
          f"proportions x[{i}, .] = {counts[i] / inst.floor_counts[i]}")

stats = evaluate_batch(inst, actual[None, :])
print(f"\ncompatibility = {stats.compatibility[0]:,.0f}")
print("  (each ordered neighbor pair contributes C[l,m] * x_il * x_jm * F_i * F_j;")
print("   here the pair (0,1) and its mirror each contribute 5000)")
print(f"price = {stats.price[0]:,.1f}")

print("\nNow flip plot 1 entirely to commercial and re-check the constraints:")
candidate = inst.codec.encode_rows(np.array([[0, 1, 1, 1]]))
print(f"  code row [0, 1, 1, 1] -> plot values {candidate[0].tolist()}")
stats = evaluate_batch(inst, candidate)
areas, changed = stats.areas[0], int(stats.changed[0])
lo, hi = area_band(inst, inst.gamma)
print(f"  compatibility = {stats.compatibility[0]:,.0f}")
print(f"  price         = {stats.price[0]:,.1f}")
for use, area, a, b in zip(inst.uses, areas, lo, hi):
    print(f"  {use.name:12s} area {area:5.0f} (band {a:.0f} .. {b:.0f})")
print(f"  area band ok?   {area_band_mask(inst, areas, inst.gamma)}")
print(f"  price box ok?   {price_box_mask(inst, stats.price[0])}")
print(f"  plots changed:  {changed} (budget ok? {plot_budget_mask(inst, changed, inst.mu)})")
shift = np.abs(areas - inst.actual_areas) / inst.actual_areas
print(f"  worst per-use area shift: {shift.max():.1%}")

print("\nTightening the area band to zero tolerance rejects any area shift:")
print(f"  area ok at gamma=0: {area_band_mask(inst, areas, 0.0)}")
