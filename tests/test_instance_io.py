import json
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

    def test_bad_json_is_schema_error(self):
        with pytest.raises(InstanceSchemaError, match="JSON"):
            parse_instance(b"{not json")

    def test_unsupported_version(self, tiny1):
        doc = self.base_doc(tiny1)
        doc["version"] = 99
        with pytest.raises(InstanceSchemaError, match="version"):
            instance_from_dict(doc)


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
