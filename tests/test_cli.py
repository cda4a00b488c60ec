import json
import math
import shutil
import warnings

import numpy as np
import pytest

from landalloc.cli import main
from landalloc.harness import (
    ExperimentConfig,
    ExperimentConfigError,
    build_engine_config,
    combined_front_entries,
    record_from_dict,
    record_to_json,
    run_experiment,
)
from landalloc.instance_io import GeneratorSpec, generate_synthetic, load_instance, save_instance
from landalloc.model import codes_in_range_mask, evaluate_batch


@pytest.fixture
def instance_path(tmp_path):
    inst = generate_synthetic(
        GeneratorSpec(grid_width=3, grid_height=3, use_count=3, floor_range=(1, 2), rng_seed=4)
    )
    return save_instance(inst, tmp_path / "inst.landalloc.json")


@pytest.fixture
def experiment_doc(instance_path, tmp_path):
    return {
        "instance": str(instance_path),
        "output": str(tmp_path / "bundle"),
        "seeds": [1, 2],
        "engines": [
            {
                "label": "CR+DES", "algorithm": "CR_DES",
                "population_size": 12, "generations": 10,
                "operators": {"mutation_plot_budget": 2},
            },
            {
                "label": "SOA", "algorithm": "SOA",
                "population_size": 12, "generations": 10,
                "soa_a": 0.5, "soa_b": 0.5,
            },
        ],
    }


@pytest.fixture
def config_path(experiment_doc, tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(experiment_doc))
    return path


class TestGenerateCommand:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.landalloc.json"
        out2 = tmp_path / "b.landalloc.json"
        assert main(["generate", "--grid", "2x1", "--uses", "2", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["generate", "--grid", "2x1", "--uses", "2", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert load_instance(out1).n_plots == 2

    def test_full_scale_grid(self, tmp_path):
        out = tmp_path / "big.landalloc.json"
        assert main(["generate", "--grid", "43x30", "--seed", "1", "--out", str(out)]) == 0
        assert load_instance(out).n_plots == 1290

    def test_invalid_grid_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--grid", "0x5", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_malformed_grid_is_usage_error(self, tmp_path):
        assert main(["generate", "--grid", "abc", "--out", str(tmp_path / "x.json")]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_spec_document_matches_flags(self, tmp_path):
        spec = {"grid_width": 2, "grid_height": 2, "use_count": 2, "rng_seed": 9}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert main(["generate", "--grid", "2x2", "--uses", "2", "--seed", "9",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_spec_document_flag_override(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid_width": 2, "grid_height": 2, "rng_seed": 1}))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert main(["generate", "--spec", str(spec_path), "--seed", "2",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_spec_document_unknown_field_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"grid_width": 2, "grid_height": 2, "nope": 1}))
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_too_tall_floor_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["generate", "--grid", "2x2", "--floors", "45:45", "--uses", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error: floor_range max 45 at use_count 3 gives K^f > 2^62" in err
        assert "Traceback" not in err and not out.exists()
        assert main(["generate", "--grid", "2x2", "--floors", "39:39", "--uses", "3",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("fields, message", [
        ({"rng_seed": 1.5}, "rng_seed must be an integer"),
        ({"use_count": 2.5}, "use_count must be an integer"),
        ({"use_count": True}, "use_count must be an integer"),
        ({"grid_width": 3.5}, "grid_width must be an integer"),
        ({"gamma": "x"}, "gamma must be a number"),
        ({"gamma": True}, "gamma must be a number"),
        ({"floor_range": [1.5, 2]}, "floor_range must be two integers"),
        ({"floor_range": 5}, "not iterable"),
        ({"gamma": -1}, "gamma must be >= 0"),
        ({"mu": 2}, "mu must be in [0, 1]"),
        ({"base_footprint": -5}, "price entries must be finite and non-negative"),
        ({"rng_seed": -1}, "rng_seed must be non-negative"),
    ])
    def test_bad_spec_values_are_usage_errors(self, tmp_path, capsys, fields, message):
        spec_path, out = tmp_path / "spec.json", tmp_path / "x.json"
        spec_path.write_text(json.dumps({"grid_width": 2, "grid_height": 2, **fields}))
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert "Traceback" not in err and not out.exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--grid", "2x2", "--seed", "-1", "--out", str(out)]) == 1
        assert "usage error: rng_seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_required_without_spec(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x.json")]) == 1

    def test_unwritable_out_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        assert main(["generate", "--grid", "2x1", "--out", str(out)]) == 2
        assert "cannot write instance" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_run_produces_expected_bundle(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        bundle = tmp_path / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert len(manifest["runs"]) == 4  # 2 engines x 2 seeds
        assert all(r["status"] == "ok" for r in manifest["runs"])
        run_files = sorted((bundle / "runs").glob("*.json"))
        assert len(run_files) == 4
        assert (bundle / "instance.landalloc.json").exists()
        assert len(list((bundle / "combined").glob("*.json"))) == 2

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        bundle = tmp_path / "bundle"
        assert main(["run", "--config", str(config_path)]) == 0
        first = {
            p.name: p.read_bytes() for p in sorted((bundle / "runs").glob("*.json"))
        }
        first["manifest"] = (bundle / "manifest.json").read_bytes()
        assert main(["run", "--config", str(config_path)]) == 0
        second = {
            p.name: p.read_bytes() for p in sorted((bundle / "runs").glob("*.json"))
        }
        second["manifest"] = (bundle / "manifest.json").read_bytes()
        assert first == second

    def test_seed_override(self, config_path, tmp_path):
        assert main(["run", "--config", str(config_path), "--seeds", "5"]) == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert [r["seed"] for r in manifest["runs"]] == [5, 5]

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_duplicate_labels_rejected(self, experiment_doc, tmp_path):
        experiment_doc["engines"].append(dict(experiment_doc["engines"][0]))
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key, value", [("gamma_final", -0.5), ("mu_search", 1.5)])
    def test_relaxation_values_out_of_range_rejected(
        self, experiment_doc, tmp_path, capsys, key, value
    ):
        experiment_doc["engines"][0][key] = value
        path = tmp_path / "relax.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid experiment" in err and key in err
        assert not (tmp_path / "bundle").exists()

    def test_soa_weights_not_summing_to_one_rejected(self, experiment_doc, tmp_path, capsys):
        experiment_doc["engines"][1].update(soa_a=0.7, soa_b=0.7)
        path = tmp_path / "soa.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid experiment" in err and "soa_a + soa_b must equal 1" in err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("engines", [5], "every engine entry must be an object"),
            ("stats_metrics", 5, "stats_metrics must be a list of metric names"),
            ("seeds", [1.5], "seeds must be a list of integers"),
            ("seeds", "12", "seeds must be a list of integers"),
            ("alpha", "x", "alpha must be a number"),
            ("workers", "x", "workers must be an integer"),
            ("workers", 1.5, "workers must be an integer"),
            ("instance", 5, "instance must be a path"),
            ("output", ["x"], "output must be a path"),
            ("engines", [{"label": "X", "algorithm": "SOA", "population_size": 10.5}],
             "engine 'X': population_size must be an integer, got 10.5"),
            ("engines", [{"label": "X", "algorithm": "SOA", "generations": 5.5}],
             "engine 'X': generations must be an integer, got 5.5"),
            ("engines", [{"label": "X", "algorithm": "SOA", "generations": True}],
             "engine 'X': generations must be an integer, got True"),
            ("engines", [{"label": "X", "algorithm": "SOA",
                          "operators": {"mutation_plot_budget": 2.5}}],
             "engine 'X': mutation_plot_budget must be an integer, got 2.5"),
            ("engines", [{"label": "X", "algorithm": "SOA", "mutation_probability": True}],
             "engine 'X': mutation_probability must be a number, got True"),
            ("engines", [{"label": "X", "algorithm": "CR_DES", "de_child_probability": "0.5"}],
             "engine 'X': de_child_probability must be a number, got '0.5'"),
            ("engines", [{"label": "X", "algorithm": "SOA", "soa_a": math.nan}],
             "engine 'X': soa_a must be a number, got nan"),
            ("engines", [{"label": "X", "algorithm": "SOA", "operators": {"de_scale": math.nan}}],
             "engine 'X': de_scale must be a number, got nan"),
            ("engines", [{"label": "X", "algorithm": "SOA", "operators": {"de_scale": math.inf}}],
             "engine 'X': de_scale must be finite and > 0, got inf"),
            ("engines", [{"label": "X", "algorithm": "SOA", "operators": {"sbx_eta": False}}],
             "engine 'X': sbx_eta must be a number, got False"),
            ("engines", [{"label": "X", "algorithm": "SOA", "gamma_search": 0.8,
                          "gamma_final": math.nan}],
             "engine 'X': gamma_final must be a number, got nan"),
            ("engines", [{"label": "X", "algorithm": "SOA", "gamma_search": "0.8"}],
             "engine 'X': gamma_search must be a number, got '0.8'"),
            ("engines", [{"label": "X", "algorithm": "SOA", "mu_search": True}],
             "engine 'X': mu_search must be a number, got True"),
        ],
        ids=[
            "engine-entry", "stats-metrics", "fractional-seed", "seed-string",
            "alpha-string", "workers-string", "fractional-workers",
            "numeric-instance", "list-output", "fractional-population-size",
            "fractional-generations", "boolean-generations", "fractional-mutation-budget",
            "boolean-mutation-probability", "string-de-child-probability", "nan-soa-weight",
            "nan-de-scale", "infinite-de-scale", "boolean-sbx-eta", "nan-gamma-final",
            "string-gamma-search", "boolean-mu-search",
        ],
    )
    def test_malformed_config_value_rejected(
        self, experiment_doc, tmp_path, capsys, key, value, message
    ):
        experiment_doc[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2
        assert f"invalid experiment: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "via_flag, seed, message",
        [
            (True, -3, "seeds must be non-negative, got -3"),
            (False, -3, "seeds must be non-negative, got -3"),
            (True, 2**64, f"seeds must be below 2**63, got {2**64}"),
            (False, 2**64, f"seeds must be below 2**63, got {2**64}"),
            (False, 2**63, f"seeds must be below 2**63, got {2**63}"),
        ],
        ids=["flag", "config", "flag-2^64", "config-2^64", "config-2^63"],
    )
    def test_negative_seed_rejected(self, experiment_doc, tmp_path, capsys, via_flag, seed, message):
        if not via_flag:
            experiment_doc["seeds"] = [1, seed]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(experiment_doc))
        extra = [f"--seeds=2,{seed}"] if via_flag else []
        assert main(["run", "--config", str(path), *extra]) == 2
        assert f"invalid experiment: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "extra, unknown",
        [
            ({"seed": [7]}, "['seed']"),
            ({"seed": [7], "workerz": 2}, "['seed', 'workerz']"),
            ({"reference_set": "combined"}, "['reference_set']"),
        ],
        ids=["seed-typo", "two-typos", "removed-reference-set"],
    )
    def test_unknown_config_key_rejected(
        self, experiment_doc, tmp_path, capsys, extra, unknown
    ):
        experiment_doc.update(extra)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2
        assert f"invalid experiment: unknown config keys: {unknown}" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_removed_floorwise_operator_rejected(self, experiment_doc, tmp_path, capsys):
        experiment_doc["engines"][0]["operators"]["floorwise"] = True
        path = tmp_path / "floorwise.json"
        path.write_text(json.dumps(experiment_doc))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid experiment" in err and "floorwise" in err
        assert not (tmp_path / "bundle").exists()

    def test_non_integer_workers_is_usage_error(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path), "--workers", "abc"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()


class TestReportCommand:
    def test_report_regeneration_byte_identical(self, config_path, tmp_path):
        assert main(["run", "--config", str(config_path)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["report", "--bundle", str(bundle)]) == 0
        report_dir = bundle / "report"
        first = {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())}
        assert first, "report files expected"
        assert main(["report", "--bundle", str(bundle)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())}
        assert first == second

    def test_report_contents(self, config_path, tmp_path):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        main(["report", "--bundle", str(bundle)])
        report = bundle / "report"
        for name in (
            "runs_metrics.csv", "indicators.csv", "types.csv", "landuse.csv",
            "stats.json", "fronts.svg", "hv.svg", "summary.txt",
        ):
            assert (report / name).exists(), name
        stats_doc = json.loads((report / "stats.json").read_text())
        for metric, entry in stats_doc["metrics"].items():
            if "cld" in entry:
                assert entry["cld"]["consistent"] is True
        svg = (report / "fronts.svg").read_text()
        assert "<svg" in svg and "actual land-use" in svg

    def test_report_on_missing_bundle_is_validation_error(self, tmp_path):
        assert main(["report", "--bundle", str(tmp_path / "nothing")]) == 2


class TestVerifyCommand:
    def test_clean_bundle_verifies(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path)])
        assert main(["verify", "--bundle", str(tmp_path / "bundle")]) == 0

    def test_missing_run_file_detected(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        victim = sorted((bundle / "runs").glob("*.json"))[0]
        victim.unlink()
        assert main(["verify", "--bundle", str(bundle)]) == 3
        assert "missing" in capsys.readouterr().err

    def test_corrupted_instance_detected(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        inst_file = bundle / "instance.landalloc.json"
        inst_file.write_text(inst_file.read_text() + "\n")
        assert main(["verify", "--bundle", str(bundle)]) == 2
        assert "hash" in capsys.readouterr().err

    def test_failed_status_detected(self, config_path, tmp_path):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["runs"][0]["status"] = "failed"
        manifest["runs"][0]["error"] = "boom"
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", "--bundle", str(bundle)]) == 3

    @pytest.mark.parametrize(
        "missing, message",
        [
            ("manifest.json", "manifest.json missing"),
            ("instance.landalloc.json", "instance file missing: instance.landalloc.json"),
        ],
        ids=["manifest", "instance"],
    )
    def test_missing_bundle_file_is_incomplete(self, config_path, tmp_path, capsys, missing, message):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        (bundle / missing).unlink()
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle)]) == 3
        assert message in capsys.readouterr().err

    def test_instance_out_of_range_is_invalid(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path)])
        inst_file = tmp_path / "bundle" / "instance.landalloc.json"
        doc = json.loads(inst_file.read_text())
        doc["gamma"] = -1.0
        inst_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--bundle", str(tmp_path / "bundle")]) == 2
        assert "issue: instance invalid: " in capsys.readouterr().err

    def test_short_hv_trace_reported(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path)])
        run = sorted((tmp_path / "bundle" / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        del doc["hv_trace"][-1]
        run.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--bundle", str(tmp_path / "bundle")]) == 2
        assert "CR+DES seed 1: hv trace length 9 != generations 10" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["-1", "P"])
    def test_front_index_out_of_range_reported(self, config_path, tmp_path, capsys, index):
        main(["run", "--config", str(config_path)])
        run = sorted((tmp_path / "bundle" / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        doc["front"].append(-1 if index == "-1" else len(doc["population"]))
        run.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--bundle", str(tmp_path / "bundle")]) == 2
        assert "CR+DES seed 1: front indices out of range" in capsys.readouterr().err

    def test_report_lists_failed_and_missing_runs(self, config_path, tmp_path, monkeypatch):
        # a run that raises leaves a combined file of the label's other runs, which verify accepts
        import landalloc.harness as harness

        real = harness.run_engine

        def flaky(inst, cfg):
            if cfg.algorithm == "CR_DES" and cfg.seed == 1:
                raise RuntimeError("boom")
            return real(inst, cfg)

        monkeypatch.setattr(harness, "run_engine", flaky)
        assert main(["run", "--config", str(config_path)]) == 3
        bundle = tmp_path / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        (bundle / manifest["runs"][2]["file"]).unlink()
        assert main(["report", "--bundle", str(bundle)]) == 0
        summary = (bundle / "report" / "summary.txt").read_text()
        assert "  - CR+DES seed 1: marked failed (RuntimeError: boom)\n" in summary
        assert "  - SOA seed 1: run file missing\n" in summary


    @pytest.mark.parametrize("key", ["generations", "relax", "algorithm"])
    def test_manifest_without_engine_settings_reported(self, config_path, tmp_path, capsys, key):
        main(["run", "--config", str(config_path)])
        bundle = tmp_path / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        del manifest["engines"][0]["config"][key]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "manifest lacks the engine's generations or relax.gamma_final" in err
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "cannot build report: CR+DES seed 1: manifest lacks the engine's generations" in err


    @pytest.mark.parametrize("algorithm", ["CR_DES", "SOA"])
    def test_front_with_a_member_left_out_fails(self, tmp_path, capsys, algorithm):
        inst_path = str(tmp_path / "inst.landalloc.json")
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", inst_path])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": algorithm, "algorithm": algorithm,
                         "generations": 20, "population_size": 20}],
        }
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "exp.json")]) == 0
        bundle = tmp_path / "bundle"
        assert main(["verify", "--bundle", str(bundle)]) == 0
        run = next((bundle / "runs").glob("*.json"))
        rec = json.loads(run.read_text())
        n = len(rec["front"])
        assert n > (1 if algorithm == "CR_DES" else 0)
        del rec["front"][0]
        run.write_text(json.dumps(rec))
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        listed = f"({n - 1} member(s) listed, {n} derived)"
        assert f"front is not the stored population's final front {listed}" in err
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert (
            f"cannot build report: {algorithm} seed 1: "
            f"front is not the stored population's final front {listed}"
        ) in err
        assert "Traceback" not in err and not (bundle / "report").exists()


class TestManifestChecked:
    """A run file must belong to its manifest entry, and the manifest must
    have the shape `run` writes.

    On a 6x5 (generator seed 11) bundle of SOA and CR_DES ("CR") runs on
    seeds 1 and 2 (5 generations), each tamper makes `verify` report an
    issue and exit 2, and `report` exit 2 with "cannot build report".
    """

    @pytest.fixture(scope="class")
    def clean_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest")
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", str(root / "inst.landalloc.json")])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1, 2],
            "engines": [
                {"label": "SOA", "algorithm": "SOA", "generations": 5},
                {"label": "CR", "algorithm": "CR_DES", "generations": 5},
            ],
        }
        (root / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(root / "exp.json")]) == 0
        assert main(["verify", "--bundle", str(root / "bundle")]) == 0
        return root / "bundle"

    def _check_refused(self, bundle, capsys, message):
        capsys.readouterr()
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert f"issue: {message}" in err and "Traceback" not in err
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "cannot build report" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source, target, message",
        [
            ("00_SOA__s1", "00_SOA__s2", "SOA seed 2: run file runs/00_SOA__s2.json holds SOA seed 1"),
            ("01_CR__s1", "00_SOA__s1", "SOA seed 1: run file runs/00_SOA__s1.json holds CR seed 1"),
        ],
        ids=["other-seed", "other-engine"],
    )
    def test_run_file_of_another_run_fails(
        self, clean_bundle, tmp_path, capsys, source, target, message
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        shutil.copyfile(bundle / "runs" / f"{source}.json", bundle / "runs" / f"{target}.json")
        self._check_refused(bundle, capsys, message)

    @pytest.mark.parametrize(
        "malformed, message",
        [
            ("list", "manifest is not an object"),
            ("seedless run", "manifest runs entry 0 lacks one of label, seed, status, file"),
            ("boolean run seed", "manifest runs entry 0 lacks one of label, seed, status, file"),
            ("numeric instance", "manifest instance is not a file name"),
            ("string alpha", "manifest alpha is not a number in (0, 1)"),
            ("alpha of one", "manifest alpha is not a number in (0, 1)"),
            ("numeric stats_metrics", "manifest stats_metrics is not a list of metric names"),
            ("numeric metric name", "manifest stats_metrics is not a list of metric names"),
        ],
        ids=[
            "list", "seedless-run", "boolean-run-seed", "numeric-instance", "string-alpha", "alpha-of-one",
            "numeric-stats-metrics", "numeric-metric-name",
        ],
    )
    def test_malformed_manifest_fails(self, clean_bundle, tmp_path, capsys, malformed, message):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        if malformed == "list":
            manifest = []
        elif malformed == "seedless run":
            del manifest["runs"][0]["seed"]
        elif malformed == "boolean run seed":
            manifest["runs"][0]["seed"] = True
        elif malformed == "numeric instance":
            manifest["instance"] = 5
        else:
            manifest.update({
                "string alpha": {"alpha": "x"},
                "alpha of one": {"alpha": 1},
                "numeric stats_metrics": {"stats_metrics": 5},
                "numeric metric name": {"stats_metrics": ["hv", 5]},
            }[malformed])
        path.write_text(json.dumps(manifest))
        self._check_refused(bundle, capsys, f"manifest.json unreadable: {message}")

    @pytest.mark.parametrize(
        "engine, key, value",
        [(1, "generations", 5.0), (1, "gamma_final", "0.3"), (0, "soa_a", True)],
        ids=["float-generations", "string-gamma-final", "boolean-soa-weight"],
    )
    def test_engine_setting_of_wrong_kind_fails(self, clean_bundle, tmp_path, capsys, engine, key, value):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        config = manifest["engines"][engine]["config"]
        (config["relax"] if key == "gamma_final" else config)[key] = value
        path.write_text(json.dumps(manifest))
        label = manifest["engines"][engine]["label"]
        self._check_refused(bundle, capsys, f"{label} seed 1: manifest lacks the engine's generations")

    def test_unknown_metric_name_is_reported_not_refused(self, clean_bundle, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["stats_metrics"] = ["hv", "no_such_metric"]
        path.write_text(json.dumps(manifest))
        assert main(["verify", "--bundle", str(bundle)]) == 0
        assert main(["report", "--bundle", str(bundle)]) == 0
        doc = json.loads((bundle / "report" / "stats.json").read_text())
        assert doc["metrics"]["no_such_metric"] == {"error": "unknown metric"}
        assert "kruskal_wallis" in doc["metrics"]["hv"]


def _shorten_trace(bundle, doc):
    del doc["hv_trace"][-1]


def _decrease_trace(bundle, doc):
    doc["hv_trace"][-1] = doc["hv_trace"][-2] - 1.0


def _infinite_trace(bundle, doc):
    doc["hv_trace"] = [math.inf] * len(doc["hv_trace"])  # json.dumps writes Infinity


def _add_changed(bundle, doc):
    doc["population"][0]["changed"] += 1


def _other_algorithm(bundle, doc):
    doc["algorithm"] = "SOA"


def _other_config(bundle, doc):
    doc["config"] = {"anything": 1}


def _add_combined_byte(bundle, doc):
    path = bundle / "combined" / "00_CR.json"
    path.write_text(path.read_text() + " ")


def _add_instance_byte(bundle, doc):
    path = bundle / "instance.landalloc.json"
    path.write_text(path.read_text() + "\n")


class TestReportRefusesWhatVerifyRefuses:
    """`report` and `verify` walk a bundle once, with the same checks.

    On a 4x1 (two uses, generator seed 3) bundle of one CR_DES run (label
    "CR", 5 generations, seed 1), each tamper makes `verify` exit 2 with
    the issue, and `report` exit 2 with "cannot build report: " and the
    same text. Neither emits a RuntimeWarning.
    """

    @pytest.fixture(scope="class")
    def clean_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("walk")
        main(["generate", "--grid", "4x1", "--uses", "2", "--seed", "3",
              "--out", str(root / "inst.landalloc.json")])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": "CR", "algorithm": "CR_DES", "generations": 5,
                         "population_size": 12}],
        }
        (root / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(root / "exp.json")]) == 0
        assert main(["verify", "--bundle", str(root / "bundle")]) == 0
        return root / "bundle"

    @pytest.mark.parametrize("tamper, message", [
        (_shorten_trace, "CR seed 1: hv trace length 4 != generations 5"),
        (_decrease_trace, "CR seed 1: hv trace decreases"),
        (_infinite_trace, "CR seed 1: hv trace is not finite"),
        (_add_changed, "CR seed 1: stored objectives or changed counts of 1 member(s) "
                       "do not match their floor uses (first: member 0)"),
        (_other_algorithm, "CR seed 1: run file runs/00_CR__s1.json holds another "
                           "algorithm or config than its engine's"),
        (_other_config, "CR seed 1: run file runs/00_CR__s1.json holds another "
                        "algorithm or config than its engine's"),
        (_add_combined_byte, "CR: combined/00_CR.json is missing or not the union of its runs' fronts"),
        (_add_instance_byte, "instance file hash does not match the manifest"),
    ], ids=["short-trace", "decreasing-trace", "infinite-trace", "changed-plus-one",
            "other-algorithm", "other-config", "combined-byte", "instance-hash"])
    def test_tamper_is_refused_by_both(self, clean_bundle, tmp_path, capsys, tamper, message):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = bundle / "runs" / "00_CR__s1.json"
        doc = json.loads(run.read_text())
        tamper(bundle, doc)
        run.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--bundle", str(bundle)]) == 2
            assert f"issue: {message}\n" in capsys.readouterr().err
            assert main(["report", "--bundle", str(bundle)]) == 2
            err = capsys.readouterr().err
        assert f"cannot build report: {message}\n" in err and "Traceback" not in err
        assert not (bundle / "report").exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestVerifyRederives:
    """verify re-derives member objectives, the final band and box, and the HV trace.

    The tamper recipe: on a 20x20 (generator seed 11) CR_DES bundle,
    rewrite every floor of front member 2 as (u + 1) % 3 and set
    hv_trace[5] = 0.
    """

    @pytest.fixture(scope="class")
    def clean_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rederive")
        inst_path = str(root / "inst.landalloc.json")
        main(["generate", "--grid", "20x20", "--seed", "11", "--out", inst_path])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": "CR_DES", "algorithm": "CR_DES", "generations": 30}],
        }
        (root / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(root / "exp.json")]) == 0
        return root / "bundle"

    def _tampered(self, clean_bundle, tmp_path, codes, hv):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        assert len(doc["front"]) > 2 and doc["hv_trace"][5] > 0
        if codes:
            member = doc["population"][doc["front"][2]]
            member["floor_uses"] = [(u + 1) % 3 for u in member["floor_uses"]]
        if hv:
            doc["hv_trace"][5] = 0.0
        run.write_text(json.dumps(doc))
        return bundle

    def test_clean_bundle_passes(self, clean_bundle):
        assert main(["verify", "--bundle", str(clean_bundle)]) == 0

    def test_recipe_fails(self, clean_bundle, tmp_path, capsys):
        bundle = self._tampered(clean_bundle, tmp_path, codes=True, hv=True)
        assert main(["verify", "--bundle", str(bundle)]) != 0
        err = capsys.readouterr().err
        assert "hv trace decreases" in err
        assert "do not match their floor uses" in err

    @pytest.mark.parametrize("codes, hv", [(True, False), (False, True)])
    def test_each_tamper_alone_fails(self, clean_bundle, tmp_path, codes, hv):
        bundle = self._tampered(clean_bundle, tmp_path, codes=codes, hv=hv)
        assert main(["verify", "--bundle", str(bundle)]) != 0

    def test_dominated_front_member_fails(self, clean_bundle, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        pts = [(m["compatibility"], m["price"]) for m in doc["population"]]
        best = pts[doc["front"][0]]
        victim = next(
            i for i, p in enumerate(pts)
            if p[0] <= best[0] and p[1] <= best[1] and p != best
        )
        doc["front"].append(victim)
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) != 0
        assert "dominated points" in capsys.readouterr().err

    def test_repeated_front_member_is_not_dominated(self, clean_bundle, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        doc["front"].append(doc["front"][0])
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) == 0

    def test_nan_objective_is_stale(self, clean_bundle, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        doc["population"][doc["front"][1]]["price"] = float("nan")
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "do not match their floor uses (first: member" in err
        assert "unreadable" not in err

    @pytest.mark.parametrize("field, tamper", [
        ("price", lambda v: float(np.nextafter(v, np.inf))),
        ("compatibility", lambda v: float(np.nextafter(v, -np.inf))),
        ("compatibility", lambda v: float("nan")),
    ], ids=["price-ulp", "compatibility-ulp", "compatibility-nan"])
    def test_stored_objective_is_compared_exactly(
        self, clean_bundle, tmp_path, capsys, field, tamper
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        victim = doc["population"][doc["front"][1]]
        victim[field] = tamper(victim[field])
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert f"do not match their floor uses (first: member {doc['front'][1]})" in err
        assert "unreadable" not in err

    @pytest.mark.parametrize("field, tamper", [
        ("feasible", lambda v: not v),
        ("violation", lambda v: 123.0),
        ("violation", lambda v: float(np.nextafter(v, np.inf))),
    ], ids=["feasible-flipped", "violation-123", "violation-ulp"])
    def test_stored_feasibility_is_rederived(self, clean_bundle, tmp_path, capsys, field, tamper):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        member = doc["population"][0]
        member[field] = tamper(member[field])
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert (
            "CR_DES seed 1: stored feasible flags or violations of 1 member(s) "
            "differ from the final constraints (first: member 0)"
        ) in err
        assert "do not match their floor uses" not in err

    @pytest.mark.parametrize("tamper", ["price", "duplicate", "missing", "run-missing"])
    def test_combined_front_is_rederived(self, clean_bundle, tmp_path, capsys, tamper):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        path = bundle / "combined" / "00_CR_DES.json"
        doc = json.loads(path.read_text())
        if tamper == "price":
            doc["points"][0]["price"] += 1000.0
        elif tamper == "duplicate":
            doc["points"].append(doc["points"][0])
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        if tamper == "missing":
            path.unlink()
        elif tamper == "run-missing":
            next((bundle / "runs").glob("*.json")).unlink()
        code = main(["verify", "--bundle", str(bundle)])
        err = capsys.readouterr().err
        message = "issue: CR_DES: combined/00_CR_DES.json is missing or not the union of its runs' fronts"
        if tamper == "run-missing":  # the run file is reported; the union is not checked
            assert code == 3 and "run file missing" in err and "combined" not in err
        else:
            assert code == 2 and message in err

    def _rewritten(self, clean_bundle, tmp_path, edit):
        """Bundle copy whose first non-front member has its codes edited by
        `edit(inst, codes)` and, if they stay in range, its stored objectives
        and changed count rewritten from the evaluation of the edited codes."""
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        inst = load_instance(bundle / "instance.landalloc.json")
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        victim = next(i for i in range(len(doc["population"])) if i not in doc["front"])
        member = doc["population"][victim]
        codes = np.array(member["floor_uses"], dtype=np.int16)
        edit(inst, codes)
        member["floor_uses"] = codes.tolist()
        if codes_in_range_mask(inst, codes[None, :])[0]:
            stats = evaluate_batch(inst, inst.codec.encode_rows(codes))
            member["compatibility"] = float(stats.compatibility[0])
            member["price"] = float(stats.price[0])
            member["changed"] = int(stats.changed[0])
        run.write_text(json.dumps(doc))
        return bundle

    def test_code_outside_range_fails(self, clean_bundle, tmp_path, capsys):
        # Plot 0's first floor set to code K = 3, which is no land use; the
        # range check refuses it before any evaluation.
        def edit(inst, codes):
            codes[0] = inst.n_uses

        bundle = self._rewritten(clean_bundle, tmp_path, edit)
        assert main(["verify", "--bundle", str(bundle)]) == 2
        assert "floor-use codes outside [0, 3)" in capsys.readouterr().err
        assert main(["report", "--bundle", str(bundle)]) == 2
        assert "floor-use codes outside [0, 3)" in capsys.readouterr().err

    def test_floor_list_of_wrong_length_fails(self, clean_bundle, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        doc["population"][0]["floor_uses"].pop()
        run.write_text(json.dumps(doc))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        assert "unreadable run file (member 0 has" in capsys.readouterr().err
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "cannot build report: CR_DES seed 1: unreadable run file (member 0 has" in err
        assert "Traceback" not in err

    def test_altered_locked_plot_fails(self, clean_bundle, tmp_path, capsys):
        def edit(inst, codes):
            first = inst.floor_offsets[np.flatnonzero(inst.locked)[0]]
            codes[first] = (codes[first] + 1) % inst.n_uses

        bundle = self._rewritten(clean_bundle, tmp_path, edit)
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "alter a locked plot" in err
        assert "do not match their floor uses" not in err

    def test_front_member_outside_final_band_fails(self, tmp_path, capsys):
        # Every unlocked floor of the one SOA front member set to use 0, with
        # its stored objectives and changed count rewritten to match: the
        # member's areas are then 1.48x, 0x and 0x of as-built.
        inst_path = str(tmp_path / "inst.landalloc.json")
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", inst_path])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": "SOA", "algorithm": "SOA", "generations": 20}],
        }
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "exp.json")]) == 0
        bundle = tmp_path / "bundle"
        assert main(["verify", "--bundle", str(bundle)]) == 0
        inst = load_instance(bundle / "instance.landalloc.json")
        run = sorted((bundle / "runs").glob("*.json"))[0]
        rec = json.loads(run.read_text())
        assert len(rec["front"]) == 1
        member = rec["population"][rec["front"][0]]
        codes = np.array(member["floor_uses"], dtype=np.int16)
        codes[np.repeat(~inst.locked, inst.floor_counts)] = 0
        stats = evaluate_batch(inst, inst.codec.encode_rows(codes))
        member["floor_uses"] = codes.tolist()
        member["compatibility"] = float(stats.compatibility[0])
        member["price"] = float(stats.price[0])
        member["changed"] = int(stats.changed[0])
        run.write_text(json.dumps(rec))
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "outside the final area band or price box" in err
        assert "do not match their floor uses" not in err


class TestStoredCodesChecked:
    """A run file's floor-use codes must be a list of integers, per member.

    On a 6x5 (generator seed 11) SOA bundle of 5 generations, each tamper
    makes `report` exit 2 with "cannot build report" and no traceback, and
    makes `verify` fail, naming the member.
    """

    @pytest.fixture(scope="class")
    def clean_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("codes")
        main(["generate", "--grid", "6x5", "--seed", "11", "--out", str(root / "inst.landalloc.json")])
        doc = {
            "instance": "inst.landalloc.json", "output": "bundle", "seeds": [1],
            "engines": [{"label": "SOA", "algorithm": "SOA", "generations": 5}],
        }
        (root / "exp.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(root / "exp.json")]) == 0
        assert main(["verify", "--bundle", str(root / "bundle")]) == 0
        return root / "bundle"

    def _check_refused(self, clean_bundle, tmp_path, capsys, edit, message):
        """`edit(doc)` tampers with the run file; both commands must name `message`."""
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        edit(doc)
        run.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert f"cannot build report: SOA seed 1: unreadable run file ({message}" in err
        assert "Traceback" not in err
        assert main(["verify", "--bundle", str(bundle)]) == 2
        assert f"unreadable run file ({message}" in capsys.readouterr().err

    def test_fractional_code_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):
            doc["population"][0]["floor_uses"][0] += 0.5

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "member 0 has a floor-use code that is not an integer",
        )

    def test_integral_float_code_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):  # the instance reader refuses 1.0 as a floor use too
            doc["population"][0]["floor_uses"][0] = float(doc["population"][0]["floor_uses"][0])

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "member 0 has a floor-use code that is not an integer",
        )

    def test_non_numeric_code_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):
            doc["population"][0]["floor_uses"][0] = "a"

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "member 0 has a floor-use code that is not a number",
        )

    def test_boolean_code_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):  # numpy would read true as 1
            doc["population"][0]["floor_uses"][0] = True

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "member 0 has a floor-use code that is not a number",
        )

    def test_code_too_large_for_int64_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):
            doc["population"][0]["floor_uses"][0] = 10**25

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "floor-use codes outside [0, 3) in 1 member(s) (first: member 0)",
        )

    def test_floor_uses_not_a_list_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):
            doc["population"][0]["floor_uses"] = 5

        self._check_refused(
            clean_bundle, tmp_path, capsys, edit,
            "member 0 has no list of floor-use codes",
        )

    def test_member_that_is_not_an_object_fails(self, clean_bundle, tmp_path, capsys):
        def edit(doc):
            doc["population"][0] = 5

        self._check_refused(clean_bundle, tmp_path, capsys, edit, "member 0 is not an object")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_objective_refused_by_report(self, clean_bundle, tmp_path, capsys, value):
        # a NaN or infinity is never equal to its re-evaluation: both commands report it as stale
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_bundle, bundle)
        run = sorted((bundle / "runs").glob("*.json"))[0]
        doc = json.loads(run.read_text())
        doc["population"][doc["front"][0]]["price"] = value
        run.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        stale = (
            "SOA seed 1: stored objectives or changed counts of 1 member(s) "
            f"do not match their floor uses (first: member {doc['front'][0]})"
        )
        assert f"cannot build report: {stale}" in err and "Traceback" not in err
        assert main(["verify", "--bundle", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert f"issue: {stale}" in err and "unreadable" not in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("price", None, "member 0's price is not numeric"),
            ("compatibility", None, "member 0's compatibility is not numeric"),
            ("feasible", None, "member 0's feasible is not numeric"),
            ("price", "x", "member 0's price is not numeric"),
            ("changed", [1, 2], "member 0's changed is not numeric"),
            ("seed", "one", "seed is not numeric"),
            ("hv_trace", 5, "hv_trace is not numeric"),
            ("front", ["a"], "front is not numeric"),
            ("front", [0.5], "front is not numeric"),
            ("changed", 0.25, "member 0's changed is not numeric"),
            ("seed", 1.0, "seed is not numeric"),
            ("seed", True, "seed is not numeric"),
            ("feasible", 1, "member 0's feasible is not numeric"),
            ("rank", True, "member 0's rank is not numeric"),
        ],
        ids=["price-null", "compatibility-null", "feasible-null", "price", "changed", "seed",
             "hv_trace", "front", "fractional-front", "fractional-changed", "float-seed",
             "boolean-seed", "integer-feasible", "boolean-rank"],
    )
    def test_stored_number_that_does_not_convert_fails(
        self, clean_bundle, tmp_path, capsys, field, value, message
    ):
        def edit(doc):
            if field in ("price", "compatibility", "feasible", "changed", "rank"):
                doc["population"][0][field] = value
            else:
                doc[field] = value

        self._check_refused(clean_bundle, tmp_path, capsys, edit, message)


class TestHarnessInternals:
    def test_record_roundtrip(self, instance_path):
        import landalloc as la

        inst = load_instance(instance_path)
        cfg = la.EngineConfig(algorithm="CR_DES", population_size=10, generations=8, seed=3)
        rec = la.run_engine(inst, cfg)
        text = record_to_json("L", rec, inst)
        label, back, _ = record_from_dict(json.loads(text), inst)
        assert label == "L"
        assert record_to_json("L", back, inst) == text

    def test_combined_front_is_nondominated_union(self, instance_path):
        import landalloc as la
        from oracles import naive_pareto_set

        inst = load_instance(instance_path)
        recs = [
            la.run_engine(
                inst,
                la.EngineConfig(algorithm="MSBX_NSGA2", population_size=10, generations=8, seed=s),
            )
            for s in (1, 2, 3)
        ]
        entries = combined_front_entries(recs)
        pts = [(e["compatibility"], e["price"]) for e in entries]
        allpts = [tuple(p) for r in recs for p in r.population.objectives()[r.front_indices]]
        assert set(pts) == naive_pareto_set(allpts)

    def test_engine_entry_relaxation_defaults(self, instance_path):
        inst = load_instance(instance_path)
        label, cfg = build_engine_config(
            {"label": "X", "algorithm": "CR_DES", "gamma_search": 0.8}, inst
        )
        assert cfg.relax.gamma_search == 0.8
        assert cfg.relax.gamma_final == inst.gamma
        assert cfg.relax.mu_search == inst.mu

    def test_workers_parallel_matches_serial(self, experiment_doc, tmp_path):
        doc = dict(experiment_doc)
        doc["output"] = str(tmp_path / "serial")
        cfg = ExperimentConfig.from_dict(doc)
        run_experiment(cfg)
        doc2 = dict(experiment_doc)
        doc2["output"] = str(tmp_path / "parallel")
        doc2["workers"] = 2
        run_experiment(ExperimentConfig.from_dict(doc2))

        def files(root):
            paths = [*root.glob("runs/*"), *root.glob("combined/*"), root / "manifest.json"]
            return {str(p.relative_to(root)): p.read_bytes() for p in paths}

        serial, parallel = files(tmp_path / "serial"), files(tmp_path / "parallel")
        assert len(serial) == 4 + 2 + 1
        assert serial == parallel

    def test_run_that_raises_is_isolated(self, config_path, tmp_path, monkeypatch, capsys):
        import landalloc.harness as harness

        real = harness.run_engine

        def flaky(inst, cfg):
            if cfg.algorithm == "SOA" and cfg.seed == 2:
                raise RuntimeError("engine blew up")
            return real(inst, cfg)

        monkeypatch.setattr(harness, "run_engine", flaky)
        assert main(["run", "--config", str(config_path)]) == 3
        assert "failed: SOA seed 2: RuntimeError: engine blew up" in capsys.readouterr().err
        bundle = tmp_path / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        statuses = [(r["label"], r["seed"], r["status"]) for r in manifest["runs"]]
        assert statuses == [
            ("CR+DES", 1, "ok"), ("CR+DES", 2, "ok"), ("SOA", 1, "ok"), ("SOA", 2, "failed"),
        ]
        assert manifest["runs"][3]["error"] == "RuntimeError: engine blew up"
        assert sorted(p.name for p in (bundle / "runs").glob("*")) == [
            "00_CR-DES__s1.json", "00_CR-DES__s2.json", "01_SOA__s1.json",
        ]
        soa = json.loads((bundle / "combined" / "01_SOA.json").read_text())
        assert soa["points"] and {pt["seed"] for pt in soa["points"]} == {1}
        assert json.loads((bundle / "combined" / "00_CR-DES.json").read_text())["points"]
        assert main(["verify", "--bundle", str(bundle)]) == 3

    def test_bad_entries_raise_config_error(self, instance_path):
        inst = load_instance(instance_path)
        with pytest.raises(ExperimentConfigError):
            build_engine_config({"label": "X"}, inst)
        with pytest.raises(ExperimentConfigError):
            build_engine_config(
                {"label": "X", "algorithm": "CR_DES", "nonsense": 5}, inst
            )
        with pytest.raises(ExperimentConfigError):  # OperatorConfig has no rng_seed
            build_engine_config(
                {"label": "X", "algorithm": "CR_DES", "operators": {"rng_seed": 0}}, inst
            )
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_dict({"instance": "x", "engines": [], "seeds": [1]})
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_dict(
                {"instance": "x", "engines": [{"label": "A", "algorithm": "SOA"}], "seeds": [1, 1]}
            )
