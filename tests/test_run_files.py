"""Run and combined files: the array writer and reader against the list path.

`record_to_json` and `combined_json` decode plot values and render floor
codes from arrays; their text must equal the reference in `oracles`, which
decodes plot by plot into lists. `load_bundle` and
`verify_bundle` parse the codes of a run file in the form `run` writes
straight into an array; any other text must load to the same record, or
fail with the same message, as `json.loads` and the member-by-member path.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from landalloc import harness
from landalloc.cli import main
from landalloc.engines import EngineConfig, run_engine
from landalloc.harness import (
    _read_run,
    combined_front_entries,
    combined_json,
    record_from_dict,
    record_to_json,
)
from landalloc.instance_io import GeneratorSpec, generate_synthetic, load_instance

from oracles import combined_text, record_text


def _records(use_count: int, floor_range: tuple[int, int], seeds=(1, 2), population=8):
    """A small instance and one CR_DES record per seed, each front set to its whole population."""
    inst = generate_synthetic(
        GeneratorSpec(grid_width=3, grid_height=2, use_count=use_count, floor_range=floor_range,
                      rng_seed=5)
    )
    recs = []
    for seed in seeds:
        cfg = EngineConfig(algorithm="CR_DES", population_size=population, generations=3, seed=seed,
                           init_change_fraction=1.0)
        rec = run_engine(inst, cfg)
        recs.append(replace(rec, front_indices=np.arange(rec.population.n)))
    return inst, recs


class TestWriterMatchesListPath:
    @pytest.mark.parametrize(
        "use_count, floor_range",
        [(2, (1, 3)), (3, (1, 4)), (12, (1, 3)), (3, (1, 1)), (3, (39, 39)), (2, (62, 62)),
         (12, (17, 17))],
        ids=["K2", "K3", "K12", "one-floor", "K3-tallest", "K2-tallest", "K12-tallest"],
    )
    def test_record_and_combined_text(self, use_count, floor_range):
        inst, recs = _records(use_count, floor_range)
        if use_count > 10:  # two-digit codes are written
            assert (inst.codec.decode_rows(recs[0].population.values) >= 10).any()
        for rec in recs:
            assert record_to_json("L", rec, inst) == record_text("L", rec, inst)
        entries = combined_front_entries(recs)
        assert entries and combined_json("L", entries, inst) == combined_text("L", entries, inst)

    def test_empty_front_and_empty_combined_file(self):
        inst, recs = _records(3, (1, 2), seeds=(1,))
        rec = replace(recs[0], front_indices=np.zeros(0, dtype=np.int64))
        assert record_to_json("L", rec, inst) == record_text("L", rec, inst)
        empty = '{"label":"L","points":[]}\n'
        assert combined_json("L", combined_front_entries([rec]), inst) == combined_text("L", [], inst) == empty
        assert combined_json("L", [], inst) == empty

    def test_non_finite_objectives(self):
        inst, recs = _records(3, (1, 2), seeds=(1,))
        rec = copy.deepcopy(recs[0])
        pop = rec.population
        pop.compatibility[0], pop.price[1], pop.price[2] = np.nan, np.inf, -np.inf
        pop.crowd[3] = np.inf
        assert record_to_json("L", rec, inst) == record_text("L", rec, inst)
        entries = combined_front_entries([rec])
        assert combined_json("L", entries, inst) == combined_text("L", entries, inst)

    def test_blocks_of_rows_with_differing_code_widths(self):
        """40 rows are rendered in three blocks; the first block's codes have one digit, later ones two."""
        inst, recs = _records(12, (1, 3), seeds=(1,), population=40)
        rec = copy.deepcopy(recs[0])
        rec.population.values[:16] = 0
        assert (inst.codec.decode_rows(rec.population.values[16:]) >= 10).any()
        assert record_to_json("L", rec, inst) == record_text("L", rec, inst)
        entries = [
            {"compatibility": 0.5, "price": 1.5, "seed": 1, "values": v} for v in rec.population.values
        ]
        assert combined_json("L", entries, inst) == combined_text("L", entries, inst)

    def test_label_holding_the_slot_text(self):
        inst, recs = _records(3, (1, 2))
        label = 'x"floor_uses":[]'
        for rec in recs:
            assert record_to_json(label, rec, inst) == record_text(label, rec, inst)
        entries = combined_front_entries(recs)
        assert combined_json(label, entries, inst) == combined_text(label, entries, inst)


# A member's floor-use list as `run` writes it, in the tests' own words.
_MEMBER_LIST = re.compile(r',"floor_uses":\[([0-9,]*)\]')


def _member_list(text: str, r: int = 0) -> re.Match:
    return list(_MEMBER_LIST.finditer(text))[r]


def _first_code(text: str, code: str, r: int = 0) -> str:
    """`text` with member r's first floor-use code written as `code`."""
    m = _member_list(text, r)
    first_end = text.index(",", m.start(1)) if "," in m.group(1) else m.end(1)
    return text[: m.start(1)] + code + text[first_end:]


def _member_0_list(text: str, new_list: str) -> str:
    """`text` with member 0's `"floor_uses":[...]` replaced by `new_list` (a key and value)."""
    m = _member_list(text)
    return text[: m.start()] + new_list + text[m.end():]


def _spaced(text: str) -> str:
    codes = _member_list(text).group(1).split(",")
    return _member_0_list(text, ',"floor_uses":[' + ", ".join(codes) + "]")


def _lists_in_a_later_object(text: str) -> str:
    """`text` with each member's floor uses a literal 0, and their lists in a
    "population" key of an object after the members."""
    lists = _MEMBER_LIST.findall(text)
    body = _MEMBER_LIST.sub(',"floor_uses":0', text).rstrip().removesuffix("}")
    decoys = ",".join('{"a":0,"floor_uses":[' + codes + "]}" for codes in lists)
    return body + ',"z":{"population":[' + decoys + "]}}\n"


# name -> edit of the run-file text
TAMPERS = {
    "spaces": _spaced,
    "leading-zero": lambda t: _first_code(t, "01"),
    "empty-code": lambda t: _first_code(t, ""),
    "float": lambda t: _first_code(t, "1.0"),
    "negative": lambda t: _first_code(t, "-1"),
    "20-digit": lambda t: _first_code(t, "12345678901234567890"),
    "25-digit": lambda t: _first_code(t, "1234567890123456789012345"),
    "boolean": lambda t: _first_code(t, "true"),
    "nested": lambda t: _first_code(t, "[1]"),
    "empty": lambda t: _member_0_list(t, ',"floor_uses":[]'),
    "config-key-first": lambda t: t.replace('"config":{', '"config":{"floor_uses":[1],', 1),
    "config-key-after": lambda t: t.replace('"config":{', '"config":{"a":0,"floor_uses":[1],', 1),
    "duplicate-key": lambda t: _member_0_list(
        t, ',"floor_uses":[' + ",".join(["9"] * len(_member_list(t).group(1).split(","))) + "]"
        + _member_list(t).group(0)
    ),
    "escaped-key": lambda t: _member_0_list(
        t, ',"floor\\u005fuses":[' + _member_list(t).group(1) + "]"
    ),
    "escape-in-label": lambda t: t.replace('"label":"SOA"', '"label":"S\\u00d6A"', 1),
    "key-name-as-label": lambda t: t.replace('"label":"SOA"', '"label":"floor_uses"', 1),
    "missing": lambda t: _member_0_list(t, ""),
    "one-too-many": lambda t: _member_0_list(t, ',"floor_uses":[' + _member_list(t).group(1) + ",0]"),
    "truncated": lambda t: t[: len(t) // 2],
    "nan-in-trace": lambda t: t.replace('"hv_trace":[', '"hv_trace":[NaN,', 1),
    "lists-in-a-later-object": _lists_in_a_later_object,
    "lists-in-a-later-object-escaped-key": lambda t: _lists_in_a_later_object(t).replace(
        '"population":[', '"popul\\u0061tion":[', 1
    ),
}
# Edits outside the members that the array path reads, to the same record.
ARRAY_PATH_TAMPERS = {"config-key-first", "escape-in-label", "key-name-as-label"}


class TestReaderMatchesListPath:
    """Each tampered run file reads as `json.loads` and the list path read it."""

    @pytest.fixture(scope="class")
    def clean_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reader")
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", str(root / "inst.landalloc.json")])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": "SOA", "algorithm": "SOA", "generations": 5}],
        }
        (root / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(root / "exp.json")]) == 0
        return root / "bundle"

    @staticmethod
    def _outcome(load, inst) -> tuple[str, str]:
        """("record", the text of the record `load()` gives), or (error type, message)."""
        try:
            label, rec, _ = load()
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return "record", record_to_json(label, rec, inst)

    def test_clean_file_takes_the_array_path(self, clean_bundle):
        inst = load_instance(clean_bundle / "instance.landalloc.json")
        run = next((clean_bundle / "runs").glob("*.json"))
        doc, values = _read_run(run, inst)
        assert values is not None and values.shape == (len(doc["population"]), inst.n_plots)
        assert self._outcome(lambda: record_from_dict(doc, inst, values), inst) == self._outcome(
            lambda: record_from_dict(json.loads(run.read_text()), inst), inst
        )

    def test_two_digit_codes_take_the_array_path(self, tmp_path):
        inst, recs = _records(12, (1, 3), seeds=(1,))
        run = tmp_path / "run.json"
        run.write_text(record_to_json("L", recs[0], inst))
        doc, values = _read_run(run, inst)
        assert values is not None and (inst.codec.decode_rows(values) >= 10).any()
        assert np.array_equal(values, recs[0].population.values)

    def test_byte_after_nine_is_no_code_of_ten(self, tmp_path):
        """":" is the byte after "9": with K = 12 a colon must not read as the code 10."""
        inst, recs = _records(12, (1, 3), seeds=(1,))
        run = tmp_path / "run.json"
        run.write_text(_first_code(record_to_json("L", recs[0], inst), ":"))

        def array_path():
            doc, values = _read_run(run, inst)
            assert values is None
            return record_from_dict(doc, inst, values)

        kind, _ = self._outcome(array_path, inst)
        assert kind == "JSONDecodeError"

    def test_labels_with_escapes_or_the_key_name_take_the_array_path(self, tmp_path):
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", str(tmp_path / "inst.landalloc.json")])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": label, "algorithm": "SOA", "generations": 3}
                        for label in ("CR+DÉS", "floor_uses")],
        }
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "exp.json")]) == 0
        inst = load_instance(tmp_path / "bundle" / "instance.landalloc.json")
        runs = sorted((tmp_path / "bundle" / "runs").glob("*.json"))
        assert len(runs) == 2 and "\\u00c9" in runs[0].read_text()
        for run in runs:
            doc, values = _read_run(run, inst)
            assert values is not None
            assert self._outcome(lambda: record_from_dict(doc, inst, values), inst) == self._outcome(
                lambda: record_from_dict(json.loads(run.read_text()), inst), inst
            )

    @pytest.mark.parametrize("block_bytes", [1, 1000])
    @pytest.mark.parametrize("code", [None, "01", "3", "1234567890"])
    def test_lists_read_a_few_at_a_time(self, clean_bundle, tmp_path, monkeypatch, block_bytes, code):
        """Lists read one or a few per block give the list path's record; a bad code in
        the last member's list, so in the last block, sends the file to the list path."""
        inst = load_instance(clean_bundle / "instance.landalloc.json")
        text = next((clean_bundle / "runs").glob("*.json")).read_text()
        assert inst.n_uses == 3 and text.count('"floor_uses"') > 4  # "3" is out of range
        run = tmp_path / "run.json"
        run.write_text(text if code is None else _first_code(text, code, r=-1))
        monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)

        def array_path():
            doc, values = _read_run(run, inst)
            assert (values is None) == (code is not None)
            return record_from_dict(doc, inst, values)

        list_path = self._outcome(lambda: record_from_dict(json.loads(run.read_text()), inst), inst)
        assert self._outcome(array_path, inst) == list_path
        assert (list_path[0] == "record") == (code is None)

    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_tampered_file_reads_as_the_list_path(self, clean_bundle, tmp_path, capsys, name):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        inst = load_instance(bundle / "instance.landalloc.json")
        run = next((bundle / "runs").glob("*.json"))
        run.write_text(TAMPERS[name](run.read_text()))
        text = run.read_text()

        def array_path():
            doc, values = _read_run(run, inst)
            # only the form `run` writes is read as an array
            assert (values is None) == (name not in ARRAY_PATH_TAMPERS)
            return record_from_dict(doc, inst, values)

        kind, message = self._outcome(lambda: record_from_dict(json.loads(text), inst), inst)
        assert self._outcome(array_path, inst) == (kind, message)
        if kind != "record":  # the list path refuses the file
            capsys.readouterr()
            assert main(["report", "--bundle", str(bundle)]) == 2
            err = capsys.readouterr().err
            assert f"cannot build report: SOA seed 1: unreadable run file ({message})" in err
            assert "Traceback" not in err
            assert main(["verify", "--bundle", str(bundle)]) == 2
            assert f"unreadable run file ({message})" in capsys.readouterr().err
