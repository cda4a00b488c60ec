"""Run all four engines on one instance and compare their fronts.

Each run is fully seeded: the same (instance, config, seed) triple always
produces a bit-identical RunRecord. The hypervolume trace tracks the
all-time archive of solutions that satisfy the final (unrelaxed)
constraints, so it never decreases.
"""

import numpy as np

from landalloc import (
    ALGORITHMS,
    EngineConfig,
    GeneratorSpec,
    OperatorConfig,
    RelaxationSchedule,
    generate_synthetic,
    run_engine,
)

inst = generate_synthetic(
    GeneratorSpec(grid_width=8, grid_height=8, use_count=3, floor_range=(1, 4), rng_seed=3)
)
print(f"instance: {inst.n_plots} plots, gamma={inst.gamma}, mu={inst.mu}")
actual_compat, actual_price = inst.actual_objectives
print(f"actual: compatibility={actual_compat:,.0f}, price={actual_price:,.0f}\n")

op = OperatorConfig(crossover_plot_fraction=0.3, mutation_plot_budget=2)
for alg in ALGORITHMS:
    cfg = EngineConfig(
        algorithm=alg, population_size=60, generations=80, seed=11,
        operator_cfg=op, soa_a=0.5, soa_b=0.5,
    )
    rec = run_engine(inst, cfg)
    front = rec.population.objectives()[rec.front_indices]
    best_c, best_p = front.max(axis=0)
    print(f"{alg:12s} front={len(front):3d}  best compat={best_c:12,.0f}  "
          f"best price={best_p:10,.0f}  final HV={rec.hv_trace[-1]:.4f}  "
          f"({rec.wall_time_s:.2f}s)")

print("\nrelaxing the area band during search (80% -> 30% at the last generation):")
relaxed = EngineConfig(
    algorithm="CR_DES", population_size=60, generations=80, seed=11,
    operator_cfg=op, relax=RelaxationSchedule(0.8, inst.mu, inst.gamma, inst.mu),
)
rec = run_engine(inst, relaxed)
print(f"CR_DES relaxed: front={len(rec.front_indices)}, every member re-checked against "
      f"the original constraints at the final generation")

trace = np.array(rec.hv_trace)
marks = [1, 5, 10, 20, 40, 80]
print("\narchive HV trace (never decreases):")
for g in marks:
    bar = "#" * int(40 * trace[g - 1] / trace.max()) if trace.max() else ""
    print(f"  gen {g:3d} {trace[g - 1]:.4f} {bar}")
