"""Tour of the variation operators on the base-K plot encoding.

Every plot's floor-use vector maps to a base-K integer (most significant
floor first, so "122" in base 3 is 17). SBX, polynomial mutation and the
DE-style operators do real-valued arithmetic on those integers, then
round half-to-even and clamp back into [0, K^floors - 1].

Uniform crossover swaps whole plot values and random mutation redraws a
plot's value uniformly from [0, K^floors - 1]. Every operator works on a
batch of value rows, one row per allocation; the codes are encoded once
before them and decoded only to print them. The crossovers and mutations
vary the given rows of a buffer in place (a crossover pairs each given row
with the row `gap` below it); the DE-style operators return new rows.
Here each batch holds one row or one pair.
"""

import numpy as np

from landalloc import GeneratorSpec, OperatorConfig, generate_synthetic
from landalloc.operators import (
    random_mutation_batch,
    sbx_batch,
    scaled_add_batch,
    scaled_difference_batch,
    tournament_indices,
    uniform_batch,
)

inst = generate_synthetic(
    GeneratorSpec(grid_width=3, grid_height=2, use_count=3, floor_range=(2, 3),
                  locked_fraction=0.2, rng_seed=5)
)
codec = inst.codec

# The paper's example through the instance's codec: a 3-floor plot's floors set to 1, 2, 2.
plot = int(np.flatnonzero(inst.floor_counts == 3)[0])
floors = slice(inst.floor_offsets[plot], inst.floor_offsets[plot + 1])
row = inst.actual_codes[None, :].copy()
row[0, floors] = [1, 2, 2]
values = codec.encode_rows(row)
print(f"encoding: plot {plot}'s floor uses [1, 2, 2] in base 3 ->", values[0, plot])
print(f"decoding {values[0, plot]} back:", codec.decode_rows(values)[0, floors])

rng = np.random.default_rng(0)
cfg = OperatorConfig(crossover_plot_fraction=0.6, mutation_plot_budget=2)

p1 = inst.actual_codes[None, :]
p2 = rng.integers(0, 3, size=(1, inst.total_floors)).astype(np.int16)
# keep the locked plots intact in the random parent
locked_floor = np.repeat(inst.locked, inst.floor_counts)
p2[:, locked_floor] = inst.actual_codes[locked_floor]

print("\nparent 1 codes:", p1[0].tolist())
print("parent 2 codes:", p2[0].tolist())

v1, v2 = codec.encode_rows(p1), codec.encode_rows(p2)
print("parent plot values:", v1[0].tolist(), v2[0].tolist())
first = np.arange(1)  # the rows to vary: row 0, paired with the row 1 below it
pair = np.concatenate((v1, v2))
sbx_batch(pair, first, 1, cfg, inst, rng)
c1, c2 = codec.decode_rows(pair)
print("\nSBX children (per-plot arithmetic on the encodings):")
print("  child 1:", c1.tolist())
print("  child 2:", c2.tolist())

pair = np.concatenate((v1, v2))
uniform_batch(pair, first, 1, cfg, inst, rng)
u1, u2 = codec.decode_rows(pair)
print("uniform crossover children (whole plots swapped):")
print("  child 1:", u1.tolist())
print("  child 2:", u2.tolist())

mutant = v1.copy()
random_mutation_batch(mutant, first, cfg, inst, rng)
print("\nrandom mutation re-draws the value, so every floor, of up to "
      f"{cfg.mutation_plot_budget} plots: {codec.decode_rows(mutant)[0].tolist()}")

added = codec.decode_rows(scaled_add_batch(v1, v2, 0.5, inst))
print("scaled add (DE mutant, target + round(0.5 * donor)):", added[0].tolist())
diff = codec.decode_rows(scaled_difference_batch(v1, v2, 0.5, inst))
print("scaled difference (a DE candidate in its own right): ", diff[0].tolist())

print("\nlocked plots copy through every operator:")
print("  locked mask:", inst.locked.tolist())

pool = tournament_indices((np.arange(10),), 12, rng)  # member v has score v
print("\nbinary tournaments over values 0..9 favor the fit:", sorted(pool.tolist(), reverse=True))
