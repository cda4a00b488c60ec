"""Golden digests: pin the engines' fronts across commits.

Seeded determinism (criterion 8) only proves that a rerun on the same
commit is byte-identical. These digests catch a change that silently
alters the fronts from one commit to the next. Each run is stored with
two SHA-256 digests:

- ``codes``: the final population's floor codes plus the front indices,
  so a change of search trajectory shows here;
- ``record``: the canonical ``record_to_json`` text, which adds the
  objectives, ranks, crowding and HV trace, so last-bit objective drift
  shows here alone.

A change that alters any digest must re-bless ``tests/data/golden.json``
in the same change (``PYTHONPATH=src python tests/test_golden.py --bless``)
and give the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from landalloc.harness import build_engine_config, record_to_json
from landalloc.engines import run_engine
from landalloc.instance_io import GeneratorSpec, generate_synthetic, load_instance

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"

ENGINES = (
    {"label": "SOA", "algorithm": "SOA"},
    {"label": "MSBX_NSGA2", "algorithm": "MSBX_NSGA2"},
    {"label": "CR_DES", "algorithm": "CR_DES"},
    {"label": "MSBX_MO", "algorithm": "MSBX_MO"},
    {"label": "CR_DES_C", "algorithm": "CR_DES", "gamma_search": 0.8},
)
SEEDS = (1, 2)
GENERATIONS = 30

# Criterion 1's operator and engine settings, on its 4x1, K = 2 instance:
# every plot has one floor, so a plot's value is its floor's code.
CRITERION1_ENGINES = tuple(
    dict(
        entry,
        population_size=128 if entry["algorithm"] == "MSBX_MO" else 64,
        mutation_probability=0.2,
        init_change_fraction=1.0,
        operators={
            "mutation_plot_budget": 2, "de_scale": 1.0, "sbx_eta": 1.0,
            "crossover_plot_fraction": 0.5,
        },
    )
    for entry in ENGINES
)


def _cases():
    """(name, instance, engines, seeds, generations) per pinned instance.

    The 43x30 paper-scale instance is the one whose batches span several
    evaluate_batch blocks; three generations keep it fast. The 1-floor
    4x1 instance is criterion 1's first of that shape.
    """
    def grid(width: int, height: int, seed: int):
        return generate_synthetic(GeneratorSpec(grid_width=width, grid_height=height, rng_seed=seed))

    one_floor = generate_synthetic(GeneratorSpec(
        grid_width=4, grid_height=1, use_count=2, floor_range=(1, 1),
        locked_fraction=0.0, use_mix_noise=0.4, rng_seed=76,
        price_low_factor=0.7, price_high_factor=1.4, gamma=1.0, mu=1.0,
    ))
    return (
        ("tiny1", load_instance(DATA / "tiny1.landalloc.json"), ENGINES, SEEDS, GENERATIONS),
        ("crit1_4x1", one_floor, CRITERION1_ENGINES, SEEDS, GENERATIONS),
        ("grid12x10", grid(12, 10, 3), ENGINES, SEEDS, GENERATIONS),
        ("grid43x30", grid(43, 30, 7), ENGINES[:4], (1,), 3),
    )


def compute_digests() -> dict[str, dict[str, str]]:
    out = {}
    for name, inst, engines, seeds, generations in _cases():
        for entry in engines:
            label, cfg = build_engine_config(dict(entry, generations=generations), inst)
            for seed in seeds:
                rec = run_engine(inst, replace(cfg, seed=seed))
                codes = inst.codec.decode_rows(rec.population.values)
                h = hashlib.sha256(codes.astype("<i2").tobytes())
                h.update(np.asarray(rec.front_indices, dtype="<i8").tobytes())
                text = record_to_json(label, rec, inst)
                out[f"{name}/{label}/s{seed}"] = {
                    "codes": h.hexdigest(),
                    "record": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                }
    return out


def test_golden_digests_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_digests()
    assert sorted(got) == sorted(expected)
    changed = {
        f"{run}.{kind}"
        for run in expected
        for kind in ("codes", "record")
        if got[run][kind] != expected[run][kind]
    }
    assert not changed, f"digests changed (re-bless and explain in CHANGES.md): {sorted(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: python tests/test_golden.py --bless")
    text = json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
