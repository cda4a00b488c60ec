import json
import math
from pathlib import Path

import numpy as np
import pytest

from landalloc.instance_io import (
    DanglingNeighborError,
    GeneratorSpec,
    InstanceRangeError,
    InstanceSchemaError,
    generate_synthetic,
    instance_from_dict,
    instance_to_dict,
    instance_to_json,
    load_instance,
    parse_instance,
    save_instance,
)
from landalloc.model import (
    LandUse,
    Plot,
    ProblemInstance,
    area_band_mask,
    evaluate_batch,
    plot_budget_mask,
    price_box_mask,
)

DATA = Path(__file__).parent / "data"


class TestRoundTrip:
    def test_canonical_tiny1_file_loads(self, tiny1):
        inst = load_instance(DATA / "tiny1.landalloc.json")
        assert inst.n_plots == 2
        stats = evaluate_batch(inst, inst.actual_values[None, :])
        assert stats.compatibility[0] == pytest.approx(10000.0)
        assert stats.price[0] == pytest.approx(45.0)
        assert instance_to_json(inst) == instance_to_json(tiny1)

    def test_save_load_byte_stable(self, tmp_path, small_synthetic):
        p1 = save_instance(small_synthetic, tmp_path / "a.landalloc.json")
        reloaded = load_instance(p1)
        p2 = save_instance(reloaded, tmp_path / "b.landalloc.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_accepts_bytes(self, small_synthetic):
        text = instance_to_json(small_synthetic)
        inst = parse_instance(text.encode("utf-8"))
        assert inst.n_plots == small_synthetic.n_plots


class TestValidationErrors:
    def base_doc(self, tiny1):
        return instance_to_dict(tiny1)

    def test_dangling_neighbor_names_the_plot(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"][1]["neighbors"] = [2]
        with pytest.raises(DanglingNeighborError, match=r"plots\[1\].neighbors\[0\]"):
            instance_from_dict(doc)

    def test_missing_field_is_schema_error(self, tiny1):
        doc = self.base_doc(tiny1)
        del doc["price"]
        with pytest.raises(InstanceSchemaError, match="price"):
            instance_from_dict(doc)

    def test_wrong_type_is_schema_error(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"][0]["floors"] = "two"
        with pytest.raises(InstanceSchemaError, match=r"plots\[0\].floors"):
            instance_from_dict(doc)

    def test_out_of_range_use_code(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"][0]["actual_uses"] = [0, 5]
        with pytest.raises(InstanceRangeError, match=r"actual_uses\[1\]"):
            instance_from_dict(doc)

    def test_self_neighbor_is_range_error(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"][0]["neighbors"] = [0]
        with pytest.raises(InstanceRangeError, match="self-neighborhood"):
            instance_from_dict(doc)

    def test_zero_plots_is_range_error(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"], doc["price"] = [], []
        with pytest.raises(InstanceRangeError, match="^need at least one plot$"):
            instance_from_dict(doc)
        with pytest.raises(ValueError, match="^need at least one plot$"):
            ProblemInstance([], tiny1.uses, tiny1.compat, np.zeros((0, 2)), 0.3, 0.2, 0.0, 1.0)

    def test_non_integer_use_code_is_schema_error(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["plots"][0]["actual_uses"] = [0, 1.0]
        with pytest.raises(InstanceSchemaError, match=r"^plots\[0\].actual_uses\[1\]: expected an integer$"):
            instance_from_dict(doc)

    def test_bad_json_is_schema_error(self):
        with pytest.raises(InstanceSchemaError, match="JSON"):
            parse_instance(b"{not json")

    def test_unsupported_version(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["version"] = 99
        with pytest.raises(InstanceSchemaError, match="version"):
            instance_from_dict(doc)


def _set_plot(i, **fields):
    def edit(doc):
        doc["plots"][i].update(fields)
    return edit


def _set_use_id(doc):
    doc["uses"][1]["id"] = 2


def _drop_second_use(doc):
    del doc["uses"][1]


def _set(**fields):
    def edit(doc):
        doc.update(fields)
    return edit


def _set_price(value):
    def edit(doc):
        doc["price"][1][0] = value
    return edit


# Each range invariant `ProblemInstance` checks, broken in tiny1's document,
# then NaN and infinity where a range compares a number (Python's json reads both).
RANGE_CASES = [
    (_drop_second_use, InstanceRangeError, "uses: need at least two land-use types"),
    (_set_use_id, InstanceRangeError, "uses: ids must be dense 0..K-1 in order"),
    (_set_plot(1, id=0), InstanceRangeError, "plots[1].id: must equal position 1"),
    (_set_plot(0, floors=0, actual_uses=[]), InstanceRangeError, "plots[0].floors: must be >= 1"),
    (_set_plot(1, floor_space=0.0), InstanceRangeError, "plots[1].floor_space: must be finite and > 0"),
    (_set_plot(0, actual_uses=[0]), InstanceRangeError, "plots[0].actual_uses: length must equal floors"),
    (_set_plot(0, actual_uses=[0, 2]), InstanceRangeError, "plots[0].actual_uses[1]: code outside 0..1"),
    (_set_plot(1, neighbors=[0, -1]), DanglingNeighborError, "plots[1].neighbors[1]: no plot with id -1"),
    (_set_plot(0, neighbors=[0]), InstanceRangeError, "plots[0].neighbors[0]: self-neighborhood"),
    (_set_plot(1, floor_space=math.nan), InstanceRangeError, "plots[1].floor_space: must be finite and > 0"),
    (_set_plot(1, floor_space=math.inf), InstanceRangeError, "plots[1].floor_space: must be finite and > 0"),
    (_set_price(math.nan), InstanceRangeError, "price entries must be finite and non-negative"),
    (_set_price(math.inf), InstanceRangeError, "price entries must be finite and non-negative"),
    (_set(gamma=math.nan), InstanceRangeError, "gamma must be >= 0"),
    (_set(price_min=math.nan), InstanceRangeError, "price_min must be <= price_max"),
]


@pytest.mark.parametrize("edit, error, message", RANGE_CASES)
def test_range_check_reads_the_same_from_a_file_and_a_direct_build(tmp_path, tiny1, edit, error, message):
    doc = instance_to_dict(tiny1)
    edit(doc)
    path = tmp_path / "broken.landalloc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as from_file:
        load_instance(path)
    assert type(from_file.value) is error and str(from_file.value) == message
    uses = [LandUse(u["id"], u["name"]) for u in doc["uses"]]
    plots = [
        Plot(p["id"], p["floors"], p["floor_space"], tuple(p["neighbors"]), p["locked"], tuple(p["actual_uses"]))
        for p in doc["plots"]
    ]
    args = [doc[key] for key in ("compat", "price", "gamma", "mu", "price_min", "price_max")]
    with pytest.raises(ValueError) as direct:
        ProblemInstance(plots, uses, *args)
    assert type(direct.value) is ValueError and str(direct.value) == message


class TestGenerator:
    def test_same_seed_same_bytes(self):
        spec = GeneratorSpec(grid_width=3, grid_height=2, rng_seed=77)
        a = instance_to_json(generate_synthetic(spec))
        b = instance_to_json(generate_synthetic(spec))
        assert a == b

    def test_different_seed_differs(self):
        a = instance_to_json(generate_synthetic(GeneratorSpec(3, 2, rng_seed=1)))
        b = instance_to_json(generate_synthetic(GeneratorSpec(3, 2, rng_seed=2)))
        assert a != b

    def test_full_scale_plot_count(self):
        inst = generate_synthetic(GeneratorSpec(grid_width=43, grid_height=30, rng_seed=0))
        assert inst.n_plots == 1290

    def test_rook_adjacency_symmetric(self, small_synthetic):
        inst = small_synthetic
        for p in inst.plots:
            for j in p.neighbors:
                assert p.id in inst.plots[j].neighbors

    def test_corner_and_interior_neighbor_counts(self):
        inst = generate_synthetic(GeneratorSpec(grid_width=4, grid_height=3, rng_seed=5))
        assert len(inst.plots[0].neighbors) == 2  # corner
        assert len(inst.plots[5].neighbors) == 4  # interior (1, 1)

    def test_as_built_map_feasible(self, small_synthetic):
        inst = small_synthetic
        stats = evaluate_batch(inst, inst.actual_values[None, :])
        assert area_band_mask(inst, stats.areas[0], inst.gamma)
        assert price_box_mask(inst, stats.price[0])
        assert plot_budget_mask(inst, stats.changed[0], inst.mu)

    def test_price_box_factors_exact(self):
        spec = GeneratorSpec(grid_width=5, grid_height=4, rng_seed=3)
        inst = generate_synthetic(spec)
        actual_price = evaluate_batch(inst, inst.actual_values[None, :]).price[0]
        assert inst.price_max / actual_price == pytest.approx(1.097, abs=1e-9)
        assert inst.price_min / actual_price == pytest.approx(0.9835, abs=1e-9)

    def test_builds_one_instance_with_the_scale_of_its_price_box(self, monkeypatch):
        from landalloc import instance_io

        built = []
        real = instance_io.ProblemInstance
        monkeypatch.setattr(instance_io, "ProblemInstance", lambda *a: built.append(a) or real(*a))
        inst = generate_synthetic(GeneratorSpec(grid_width=5, grid_height=4, rng_seed=3))
        assert len(built) == 1
        again = instance_from_dict(instance_to_dict(inst))
        assert (again.price_min, again.price_max) == (inst.price_min, inst.price_max)
        assert again.price_scale == inst.price_scale == inst.price_max - inst.price_min

    def test_spec_refuses_booleans_and_non_integers(self):
        for bad in ({"use_count": True}, {"rng_seed": 1.5}, {"cluster_count": "6"},
                    {"floor_range": (1, 2.0)}, {"floor_range": (1,)}, {"gamma": False},
                    {"mu": "0.2"}, {"rng_seed": -1}):
            with pytest.raises(ValueError):
                GeneratorSpec(grid_width=2, grid_height=2, **bad)
        GeneratorSpec(grid_width=np.int64(2), grid_height=2, gamma=1, mu=np.float64(0.5))

    def test_compat_symmetric_unit_diagonal(self, small_synthetic):
        c = small_synthetic.compat
        assert np.allclose(c, c.T)
        assert np.allclose(np.diag(c), 1.0)
        off = c[~np.eye(len(c), dtype=bool)]
        assert off.min() >= -1.0 and off.max() <= 1.0

    def test_prices_positive(self, small_synthetic):
        assert (small_synthetic.price > 0).all()

    def test_generated_instance_revalidates(self, small_synthetic):
        instance_from_dict(instance_to_dict(small_synthetic))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(grid_width=0, grid_height=5)
        with pytest.raises(ValueError):
            GeneratorSpec(grid_width=2, grid_height=2, floor_range=(3, 1))
        with pytest.raises(ValueError):
            GeneratorSpec(grid_width=2, grid_height=2, use_count=1)
        with pytest.raises(ValueError):
            GeneratorSpec(grid_width=2, grid_height=2, locked_fraction=1.0)
