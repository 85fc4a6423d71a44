import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fairsift import synth
from fairsift.cli import main

from conftest import german_style, german_style_text
from test_metrics import consistency_int64


def write_toy(root, n_rows, favorable="yes", labels=("yes", "no"), preds=("1", "0")):
    """A CSV + spec of n_rows alternating groups, labels and predictions."""
    data = root / f"toy{n_rows}.csv"
    lines = ["sex,x,label,pred"] + [
        f"{('m', 'f')[i % 2]},{i},{labels[(i // 2) % 2]},{preds[i % 4 // 2]}"
        for i in range(n_rows)
    ]
    data.write_text("\n".join(lines) + "\n")
    spec = root / f"toy{n_rows}.spec.json"
    spec.write_text(json.dumps({
        "name": f"toy{n_rows}",
        "label_column": "label",
        "favorable_value": favorable,
        "protected_column": "sex",
        "privileged_value": "m",
        "feature_columns": [{"name": "x", "kind": "numeric"}],
    }))
    return data, spec


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    data = root / "tiny.csv"
    spec = root / "tiny.spec.json"
    synth.write_dataset(data, spec, "tiny", n_rows=120, bias_gap=0.3, seed=2)
    return data, spec


@pytest.fixture(scope="module")
def experiment_dir(tiny_dataset, tmp_path_factory):
    data, spec = tiny_dataset
    out = tmp_path_factory.mktemp("exp")
    code = main(["experiment", "--data", str(data), "--spec", str(spec),
                 "--out", str(out)])
    assert code == 0
    return out


class TestMetricsCommand:
    def test_dataset_only_rows(self, tiny_dataset, tmp_path, capsys):
        data, spec = tiny_dataset
        out = tmp_path / "m.csv"
        assert main(["metrics", "--data", str(data), "--spec", str(spec),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[1].startswith("D0,consistency,")

    def test_tied_integer_rows_d0_is_exact(self, tmp_path):
        # raw integer-coded rows take the exact kernel: D0 equals the int64
        # oracle, where scaled floating-point distances split ties
        text, spec = german_style_text(3000, 1)
        data, spec_path, out = (tmp_path / "g.csv", tmp_path / "g.spec.json",
                                tmp_path / "m.csv")
        data.write_text(text)
        spec_path.write_text(json.dumps(spec))
        assert main(["metrics", "--data", str(data), "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        d0 = out.read_text().splitlines()[1].split(",")[2]
        ds = german_style(3000, 1)
        assert float(d0) == consistency_int64(ds.X, ds.y)

    def test_with_predictions_column(self, tmp_path):
        # reuse the label column as a stand-in prediction column
        data = tmp_path / "p.csv"
        spec_path = tmp_path / "p.spec.json"
        synth.write_dataset(data, spec_path, "p", n_rows=80, bias_gap=0.2, seed=3)
        out = tmp_path / "out.csv"
        assert main(["metrics", "--data", str(data), "--spec", str(spec_path),
                     "--predictions-column", "outcome", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 30
        by_id = {l.split(",")[0]: l for l in lines[1:]}
        # predictions == labels: perfect prediction identities
        assert by_id["C16"].split(",")[2] == "0.0"
        assert by_id["C0"].split(",")[2] == "0.0"

    @pytest.mark.parametrize(
        "favorable, labels, preds",
        [
            ("2", ("2", "1"), ("1", "2")),
            ("1", ("1", "2"), ("1", "2")),
            ("yes", ("yes", "no"), ("0", "1")),
        ],
    )
    def test_prediction_favorable_value(self, tmp_path, favorable, labels, preds):
        # half the predictions are the favorable value; numeric codes are
        # compared as spec values, 0/1 is read as a non-numeric label's code
        data, spec = write_toy(tmp_path, 12, favorable, labels, preds)
        out = tmp_path / "out.csv"
        assert main(["metrics", "--data", str(data), "--spec", str(spec),
                     "--predictions-column", "pred", "--out", str(out)]) == 0
        by_id = {l.split(",")[0]: l.split(",") for l in out.read_text().splitlines()}
        assert by_id["C13"][2] == "0.5"

    def test_predictions_follow_the_loaders_rows(self, tmp_path):
        # the same rows as a clean CSV, plus rows the loader rejects (an empty
        # used cell, a short row), with x repeated in the header: the loader
        # reads the last x column, so the first one may be empty
        data, spec = write_toy(tmp_path, 24)
        lines = data.read_text().splitlines()
        dirty = ["sex,x,label,pred,x"]
        for i, line in enumerate(lines[1:]):
            sex, x, label, pred = line.split(",")
            dirty.append(f"{sex},,{label},{pred},{x}")
            if i % 5 == 0:
                dirty.append(f"{sex},{x},{label},{pred},")
            if i % 7 == 0:
                dirty.append(f"{sex},{x},{label}")
        dirty_data = tmp_path / "dirty.csv"
        dirty_data.write_text("\n".join(dirty) + "\n")

        def metrics_output(path):
            out = tmp_path / f"{path.stem}.out.csv"
            assert main(["metrics", "--data", str(path), "--spec", str(spec),
                         "--predictions-column", "pred", "--out", str(out)]) == 0
            return out.read_text()

        clean = metrics_output(data)
        with pytest.warns(UserWarning, match="rejected 9 incomplete rows"):
            assert metrics_output(dirty_data) == clean
        assert len(clean.splitlines()) == 1 + 30

    def test_predictions_from_the_same_parse(self, tmp_path):
        """The encoding and the predictions take the rows of one parse of the
        CSV, so a rejected row is reported once."""
        data, spec = write_toy(tmp_path, 24)
        lines = data.read_text().splitlines()
        lines[3] = lines[3].replace(",2,", ",,")  # row 2's feature x is empty
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metrics", "--data", str(data), "--spec", str(spec),
                         "--predictions-column", "pred",
                         "--out", str(tmp_path / "m.csv")]) == 0
        messages = [str(w.message) for w in caught]
        assert sum("rejected 1 incomplete rows" in m for m in messages) == 1, messages

    def test_missing_column_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n")
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(synth.spec_dict("bad")))
        assert main(["metrics", "--data", str(data), "--spec", str(spec)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k-neighbors", "0"], "k_neighbors must be positive"),
            (["--k-neighbors", "-3"], "k_neighbors must be positive"),
            (["--concentration", "0"], "concentration must be positive"),
            (["--alpha", "-1"], "alpha must be positive"),
            (["--k-neighbors", "120"], "below the row count 120"),
            (["--k-neighbors", "500"], "below the row count 120"),
        ],
    )
    def test_bad_parameter_exit_code(self, tiny_dataset, flags, message, capsys):
        data, spec = tiny_dataset
        assert main(["metrics", "--data", str(data), "--spec", str(spec)] + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    def test_largest_k_accepted(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        out = tmp_path / "m.csv"
        assert main(["metrics", "--data", str(data), "--spec", str(spec),
                     "--k-neighbors", "119", "--out", str(out)]) == 0

    def test_empty_csv_exit_code(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(synth.spec_dict("empty")))
        assert main(["metrics", "--data", str(data), "--spec", str(spec)]) == 3


class TestExperimentCommand:
    def test_outputs_exist(self, experiment_dir):
        assert (experiment_dir / "results.csv").exists()
        manifest = json.loads((experiment_dir / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["record_count"] == 2 * 30 * 25
        assert len(manifest["inputs"]) == 1
        assert len(manifest["inputs"][0]["data_sha256"]) == 64

    def test_record_count_in_csv(self, experiment_dir):
        lines = (experiment_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 30 * 25

    def test_baseline_only_drops_rw(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(tmp_path), "--models", "baseline"]) == 0
        text = (tmp_path / "results.csv").read_text()
        assert "reweighing" not in text
        assert len(text.splitlines()) == 1 + 30 * 25

    def test_partial_failure_exit_code(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [
                {"data": str(data), "spec": str(spec)},
                {"data": str(tmp_path / "missing.csv"), "spec": str(spec)},
            ]
        }))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path)])
        assert code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert len(manifest["failures"]) == 1

    def test_too_small_dataset_is_partial_failure(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        small_data, small_spec = write_toy(tmp_path, 9)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [
                {"data": str(data), "spec": str(spec)},
                {"data": str(small_data), "spec": str(small_spec)},
            ],
            "models": ["baseline"],
        }))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path)])
        assert code == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert [f["dataset"] for f in manifest["failures"]] == [str(small_data)]
        assert "needs at least 10" in manifest["failures"][0]["error"]
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 30 * 25

    def test_only_too_small_dataset_exit_code(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path, 9)
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(tmp_path)]) == 3
        assert "needs at least 10" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_k_at_least_training_fold_exit_code(self, tmp_path, capsys):
        # 60 rows: 12-row test folds leave 48 training rows, below k = 50
        data, spec = tmp_path / "small.csv", tmp_path / "small.spec.json"
        synth.write_dataset(data, spec, "small", n_rows=60, bias_gap=0.3, seed=1)
        out = tmp_path / "out"
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(out), "--k-neighbors", "50"]) == 3
        assert "below the row count 48, got 50" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_k_at_least_training_fold_is_partial_failure(self, tmp_path, capsys):
        paths = []
        for name, n_rows in (("small", 60), ("large", 200)):
            data, spec = tmp_path / f"{name}.csv", tmp_path / f"{name}.spec.json"
            synth.write_dataset(data, spec, name, n_rows=n_rows, bias_gap=0.3, seed=1)
            paths.append((data, spec))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(d), "spec": str(s)} for d, s in paths],
            "models": ["baseline"],
            "k_neighbors": 50,
        }))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 4
        assert "smallest training fold" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["dataset"] for f in manifest["failures"]] == [str(paths[0][0])]
        assert [i["data_path"] for i in manifest["inputs"]] == [str(paths[1][0])]
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 30 * 25
        assert all(line.startswith("large,") for line in lines[1:])

    def test_duplicate_dataset_name_is_partial_failure(self, tmp_path, capsys):
        paths = []
        for stem, seed in (("first", 1), ("second", 2)):
            data, spec = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.spec.json"
            synth.write_dataset(data, spec, "same", n_rows=60, bias_gap=0.3, seed=seed)
            paths.append((data, spec))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(d), "spec": str(s)} for d, s in paths],
            "models": ["baseline"],
        }))
        out = tmp_path / "out"
        code = main(["experiment", "--config", str(config), "--out", str(out)])
        assert code == 4
        assert "repeats an earlier dataset" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert [f["dataset"] for f in manifest["failures"]] == [str(paths[1][0])]
        assert [i["data_path"] for i in manifest["inputs"]] == [str(paths[0][0])]
        assert manifest["record_count"] == 30 * 25
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 30 * 25
        assert all(line.startswith("same,") for line in lines[1:])

    def test_config_file_settings_used(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(data), "spec": str(spec)}],
            "seeds": [10, 11, 12, 13, 14],
            "models": ["baseline"],
        }))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["seeds"] == [10, 11, 12, 13, 14]

    def test_flags_and_config_file_agree(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        flags, file = tmp_path / "flags", tmp_path / "file"
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(flags), "--alpha", "3", "--k-neighbors", "4",
                     "--l2", "0.5", "--seeds", "5,6,7,8,9", "--models", "rw"]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(data), "spec": str(spec)}],
            "alpha": 3, "k_neighbors": 4, "l2_strength": 0.5,
            "seeds": [5, 6, 7, 8, 9], "models": ["rw"],
        }))
        assert main(["experiment", "--config", str(config), "--out", str(file)]) == 0
        for name in ("results.csv", "manifest.json"):
            assert (flags / name).read_bytes() == (file / name).read_bytes(), name
        settings = json.loads((file / "manifest.json").read_text())["config"]
        assert (settings["alpha"], settings["k_neighbors"], settings["l2_strength"],
                settings["seeds"], settings["models"]) == (
                    3.0, 4, 0.5, [5, 6, 7, 8, 9], ["reweighing"])

    def test_flag_overrides_config_file(self, tiny_dataset, tmp_path):
        data, spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(data), "spec": str(spec)}],
            "models": ["baseline"], "alpha": 3, "global_normalize": True,
        }))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path),
                     "--alpha", "4"]) == 0
        settings = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert (settings["alpha"], settings["global_normalize"]) == (4.0, True)

    def test_bad_seed_count_exit_code(self, tiny_dataset, tmp_path, capsys):
        data, spec = tiny_dataset
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(tmp_path), "--seeds", "1,2,3"]) == 2

    def test_model_order_does_not_change_outputs(self, tiny_dataset, experiment_dir,
                                                 tmp_path):
        data, spec = tiny_dataset
        default, swapped = tmp_path / "default", tmp_path / "swapped"
        assert main(["analyze", "--results", str(experiment_dir / "results.csv"),
                     "--out", str(default)]) == 0
        assert main(["experiment", "--data", str(data), "--spec", str(spec),
                     "--out", str(swapped), "--models", "rw,baseline"]) == 0
        assert main(["analyze", "--results", str(swapped / "results.csv"),
                     "--out", str(swapped)]) == 0
        assert ((swapped / "results.csv").read_bytes()
                == (experiment_dir / "results.csv").read_bytes())
        for name in ("clusters.json", "report.md"):
            assert (swapped / name).read_bytes() == (default / name).read_bytes(), name


class TestAnalyzeCommand:
    def test_artifacts(self, experiment_dir, tmp_path):
        assert main(["analyze", "--results", str(experiment_dir / "results.csv"),
                     "--out", str(tmp_path)]) == 0
        for name in ("correlation.csv", "correlation_dataset.csv", "dendrogram.dot",
                     "dendrogram.txt", "clusters.json", "sensitivity.csv",
                     "movement.csv", "report.md"):
            assert (tmp_path / name).exists(), name
        clusters = json.loads((tmp_path / "clusters.json").read_text())
        n_class = sum(len(c["metrics"]) for c in clusters["classification"]["clusters"])
        n_data = sum(len(c["metrics"]) for c in clusters["dataset"]["clusters"])
        assert (n_class, n_data) == (26, 4)

    def test_missing_results_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "--results", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path)]) == 3

    def test_pooled_scope_flag(self, experiment_dir, tmp_path):
        assert main(["analyze", "--results", str(experiment_dir / "results.csv"),
                     "--out", str(tmp_path), "--correlation-scope", "pooled"]) == 0
        payload = json.loads((tmp_path / "clusters.json").read_text())
        assert payload["classification"]["correlation_scope"] == "pooled"


class TestMalformedConfig:
    """A --config value of the wrong type or shape is a configuration error
    that names its key, never a traceback."""

    def _assert_config_error(self, code, capsys, key):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ")
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry, key", [
        ({"datasets": [{"data": "x.csv"}]}, "datasets"),
        ({"datasets": [{"data": 5, "spec": "x.spec.json"}]}, "datasets"),
        ({"datasets": "x"}, "datasets"),
        ({"alpha": None}, "alpha"),
        ({"models": 5}, "models"),
        ({"seeds": 5}, "seeds"),
        ({"global_normalize": "false"}, "global_normalize"),
        ({"seeds": [1.9, 2, 3, 4, 5]}, "seeds[0] must be an integer"),
        ({"seeds": [-1, 2, 3, 4, 5]}, "seeds must not be negative"),
        ({"k_neighbors": 5.7}, "k_neighbors must be an integer"),
        ({"k_neighbors": 5.0}, "k_neighbors must be an integer"),
        ({"alpha": True}, "alpha must be a finite number"),
        ({"l2_strength": float("inf")}, "l2_strength must be a finite number"),
        ({"l2": 0.5}, "unknown keys ['l2']"),
        ({"models": []}, "at least one model"),
        ({"models": ["rw", "mystery"]}, "no mitigator registered for models ['mystery']"),
    ], ids=["dataset-without-spec", "dataset-path-not-text", "datasets-text",
            "alpha-null", "models-number", "seeds-number", "normalize-text",
            "seed-fraction", "seed-negative", "k-fraction", "k-float", "alpha-true",
            "l2-infinity", "flag-name-as-key", "models-empty", "model-unknown"])
    def test_experiment(self, tiny_dataset, tmp_path, capsys, entry, key):
        data, spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"datasets": [{"data": str(data), "spec": str(spec)}], **entry}
        ))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")])
        self._assert_config_error(code, capsys, key)

    @pytest.mark.parametrize("command, flags, key", [
        ("experiment", ["--jobs", "0"], "jobs must be positive"),
        ("experiment", ["--alpha", "nan"], "alpha must be a finite number"),
        ("experiment", ["--seeds", "1,2,3"], "exactly 5 seeds"),
        ("metrics", ["--concentration", "inf"], "concentration must be a finite number"),
        ("demo", ["--jobs", "0"], "jobs must be positive"),
        ("demo", ["--rows", "5"], "at least 20 rows"),
        ("demo", ["--bias-gap", "2"], "bias_gap 2.0"),
        ("demo", ["--bias-gap", "-2"], "bias_gap -2.0"),
        ("demo", ["--seed", "-1"], "seed must not be negative"),
    ], ids=["experiment-jobs-0", "experiment-alpha-nan", "experiment-3-seeds",
            "metrics-concentration-inf", "demo-jobs-0", "demo-5-rows", "demo-gap-2",
            "demo-gap-minus-2", "demo-seed-negative"])
    def test_flag(self, tiny_dataset, tmp_path, capsys, command, flags, key):
        data, spec = tiny_dataset
        argv = [command, "--out", str(tmp_path / "out")] + flags
        if command != "demo":
            argv += ["--data", str(data), "--spec", str(spec)]
        self._assert_config_error(main(argv), capsys, key)
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("entry, key", [
        ({"thresholds": {"zero": 5}}, "thresholds.zero"),
        ({"thresholds": [1, 2]}, "thresholds"),
        ({"movement_epsilon": None}, "movement_epsilon"),
        ({"sensitivity_d": None}, "sensitivity_d"),
        ({"sensitivity_d": 0}, "sensitivity_d"),
        ({"correlation_scope": ["avg"]}, "correlation_scope"),
        ({"correlation_scope": "median"}, "correlation_scope"),
        ({"movement_epsilon": float("nan")}, "movement_epsilon must be a finite number"),
        ({"movement_epsilon": -1}, "movement_epsilon must not be negative"),
        ({"thresholds": {"zero": [0.1, -0.1]}}, "thresholds.zero must have low <= high"),
        ({"thresholds": {"one": [0.8, True]}}, "thresholds.one[1] must be a finite number"),
        ({"thresholds": {"half": [0.4, 0.6]}}, "unknown keys ['thresholds.half']"),
        ({"sensitivty_d": 100}, "unknown keys ['sensitivty_d']"),
        ({"sensitivity_d": float("inf")}, "sensitivity_d must be a finite number"),
    ], ids=["zero-band-number", "thresholds-list", "epsilon-null", "d-null", "d-zero",
            "scope-list", "scope-unknown", "epsilon-nan", "epsilon-negative",
            "zero-band-reversed", "one-band-true", "thresholds-unknown", "d-typo",
            "d-infinity"])
    def test_analyze(self, experiment_dir, tmp_path, capsys, entry, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(entry))
        code = main(["analyze", "--results", str(experiment_dir / "results.csv"),
                     "--out", str(tmp_path / "out"), "--config", str(config)])
        self._assert_config_error(code, capsys, key)
        assert not (tmp_path / "out").exists()


class TestMalformedSpec:
    """A dataset spec of the wrong shape is a configuration error naming the
    field: exit 2 from metrics, a failed dataset from experiment."""

    @pytest.fixture(params=[
        ([], "dataset spec must be an object"),
        ({"feature_columns": "f1"}, "feature_columns must be a list of objects"),
        ({"feature_columns": ["f1"]}, "feature_columns must be a list of objects"),
        ({"encoding": []}, "encoding must be an object"),
        ({"favorable_value": []}, "favorable_value must not be an empty value list"),
        ({"privileged_value": []}, "privileged_value must not be an empty value list"),
    ], ids=["list", "features-text", "features-names", "encoding-list", "favorable-empty",
            "privileged-empty"])
    def bad_spec(self, request, tmp_path):
        shape, message = request.param
        spec = tmp_path / "bad.spec.json"
        spec.write_text(json.dumps(
            shape if isinstance(shape, list) else {**synth.spec_dict("bad"), **shape}
        ))
        return spec, message

    def test_metrics_exit_code(self, tiny_dataset, bad_spec, capsys):
        spec, message = bad_spec
        code = main(["metrics", "--data", str(tiny_dataset[0]), "--spec", str(spec)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ") and message in err
        assert "Traceback" not in err

    def test_only_dataset_exit_code(self, tiny_dataset, bad_spec, tmp_path, capsys):
        spec, message = bad_spec
        out = tmp_path / "out"
        assert main(["experiment", "--data", str(tiny_dataset[0]), "--spec", str(spec),
                     "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_is_partial_failure(self, tiny_dataset, bad_spec, tmp_path):
        spec, message = bad_spec
        data, good_spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "datasets": [{"data": str(data), "spec": str(good_spec)},
                         {"data": str(data), "spec": str(spec)}],
            "models": ["baseline"],
        }))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert [message in f["error"] for f in manifest["failures"]] == [True]
        assert manifest["record_count"] == 30 * 25


# case id -> (command, spoiled file, exit code)
SPOILED_CASES = {
    "experiment-config": ("experiment", "config", 2),
    "analyze-config": ("analyze", "config", 2),
    "analyze-results": ("analyze", "results", 3),
    "metrics-spec": ("metrics", "spec", 2),
    "metrics-data": ("metrics", "data", 3),
    "experiment-data": ("experiment", "data", 3),
    "experiment-spec": ("experiment", "spec", 3),
    "experiment-data-with-good": ("experiment-with-good", "data", 4),
    "experiment-spec-with-good": ("experiment-with-good", "spec", 4),
}
# how a file is spoiled -> (the files it can spoil, what its error says)
DAMAGES = {
    "utf8": (("config", "spec", "data", "results"), "not valid utf-8"),
    "missing": (("config", "spec", "data", "results"), "cannot read: no such file"),
    "directory": (("config", "spec", "data", "results"), "cannot read: is a directory"),
    "json": (("config", "spec"), "not valid json"),
    "empty": (("data", "results"), "csv is empty"),
    "oversized": (("data", "results"), "not valid csv: field larger than field limit"),
}


class TestNonUtf8Input:
    """A file that cannot be read (missing, or a directory), is not valid
    UTF-8 (here a valid file with one trailing 0xFF byte), is not JSON (a
    config or a spec), or is empty or has an oversized field (a CSV) gets the documented exit code,
    never a traceback: 2 for a config or a spec, 3 for a data CSV or a
    results file; from experiment a bad dataset file is a failed dataset.
    The failure is one ``<tag>: <path>: <reason>`` line that names the
    spoiled file once."""

    @staticmethod
    def _spoil(path, tmp_path, damage):
        bad = tmp_path / f"{damage}-{path.name}"
        if damage == "utf8":
            bad.write_bytes(path.read_bytes() + b"\xff")
        elif damage == "directory":
            bad.mkdir()
        elif damage == "json":
            bad.write_text("{not json")
        elif damage == "empty":
            bad.write_text("")
        elif damage == "oversized":  # a field beyond csv.field_size_limit()
            bad.write_text(path.read_text() + '"' + "x" * 200_000 + '"\n')
        return str(bad)

    @pytest.mark.parametrize("command, spoiled, code, damage", [
        pytest.param(*case, damage, id=name if damage == "utf8" else f"{name}-{damage}")
        for name, case in SPOILED_CASES.items() for damage, (spoils, _) in DAMAGES.items()
        if case[1] in spoils
    ])
    def test_exit_code(self, tiny_dataset, experiment_dir, tmp_path, capsys,
                       command, spoiled, code, damage):
        data, spec = tiny_dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"models": ["baseline"]}))
        files = {"data": data, "spec": spec, "config": config,
                 "results": experiment_dir / "results.csv"}
        paths = {key: str(path) for key, path in files.items()}
        paths[spoiled] = self._spoil(files[spoiled], tmp_path, damage)
        out = str(tmp_path / "out")
        if command == "analyze":
            argv = ["analyze", "--results", paths["results"], "--config", paths["config"]]
        elif command == "metrics":
            argv = ["metrics", "--data", paths["data"], "--spec", paths["spec"]]
        elif command == "experiment":
            argv = ["experiment", "--config", paths["config"], "--data", paths["data"],
                    "--spec", paths["spec"]]
        else:
            config.write_text(json.dumps({
                "datasets": [{"data": str(data), "spec": str(spec)},
                             {"data": paths["data"], "spec": paths["spec"]}],
                "models": ["baseline"],
            }))
            argv = ["experiment", "--config", str(config)]
        assert main(argv + ["--out", out]) == code
        err = capsys.readouterr().err
        path = paths[spoiled]
        assert "Traceback" not in err
        assert err.count(path) == 1
        if command.startswith("experiment") and spoiled in ("data", "spec"):
            tag = "error"  # a failed dataset
        else:
            tag = "configuration error" if code == 2 else "data error"
        line = next(line for line in err.splitlines() if path in line)
        assert line.startswith(f"{tag}: {path}: ")
        assert DAMAGES[damage][1] in line.lower()
        if command == "experiment-with-good":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert [f["error"].startswith(f"{path}: ") for f in manifest["failures"]] == [True]


# command -> (the first file it writes under --out, --out's own kind)
WRITTEN_FIRST = {
    "experiment": ("results.csv", "directory"),
    "analyze": ("clusters.json", "directory"),
    "demo": ("biased/biased.csv", "directory"),
    "metrics": (None, "file"),
}


class TestUnwritableOutput:
    """An output that cannot be written, because a file stands where a
    directory must be made or a directory where a file must be written, is a
    data error (exit 3) as ``data error: <path>: cannot write: <reason>``,
    never a traceback."""

    @pytest.mark.parametrize("blocker", ["file", "directory"])
    @pytest.mark.parametrize("command", list(WRITTEN_FIRST))
    def test_exit_code(self, tiny_dataset, experiment_dir, tmp_path, capsys, command, blocker):
        data, spec = tiny_dataset
        first, kind = WRITTEN_FIRST[command]
        out = tmp_path / "out"
        if blocker == "file":  # no directory can be made where a file is
            out.write_text("")
            target = out if kind == "directory" else out / "m.csv"
            bad = target
            reason = "file exists" if kind == "directory" else "not a directory"
        else:  # no file can be written where a directory is
            target = out
            bad = out if kind == "file" else out / first
            bad.mkdir(parents=True)
            reason = "is a directory"
        argv = {
            "experiment": ["experiment", "--data", str(data), "--spec", str(spec)],
            "analyze": ["analyze", "--results", str(experiment_dir / "results.csv")],
            "demo": ["demo", "--rows", "200"],
            "metrics": ["metrics", "--data", str(data), "--spec", str(spec)],
        }[command]
        assert main(argv + ["--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count(str(bad)) == 1
        line = next(line for line in err.splitlines() if str(bad) in line)
        assert line.startswith(f"data error: {bad}: cannot write: ")
        assert line.lower().endswith(f": {reason}")


def _set_field(lines, index, field, text):
    row = lines[index].split(",")
    row[field] = text
    return lines[:index] + [",".join(row)] + lines[index + 1:]


def _add_unknown_metric(lines):
    """A full grid of metric C99 next to each C0 row: a complete grid, so
    only the unknown id is wrong."""
    out = lines[:1]
    for line in lines[1:]:
        row = line.split(",")
        if row[4] == "C0":
            out.append(",".join(row[:4] + ["C99"] + row[5:]))
        out.append(line)
    return out


def _keep_metrics(lines, metric_ids):
    """The header and the rows of ``metric_ids``: still a complete grid."""
    return lines[:1] + [line for line in lines[1:] if line.split(",")[4] in metric_ids]


class TestMalformedResults:
    """A results.csv that is not one value per grid entry, or whose grid
    holds too few classification metrics to cluster, is a data error."""

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:10] + lines[11:], "occurs 0 times"),
        (lambda lines: lines + [lines[10]], "occurs 2 times"),
        (lambda lines: _set_field(lines, 10, 2, "7"), "(repeat, fold) (7, 0) outside 0..4"),
        (lambda lines: _set_field(lines, 10, 5, "nan"), "line 11: value 'nan' is not finite"),
        (lambda lines: lines[:10] + ["a,b,c"] + lines[11:], "line 11: not enough values to unpack"),
        (lambda lines: lines[:1], "no entries"),
        (lambda lines: _set_field(lines, 10, 4, ""), "line 11: unknown metric id ''"),
        (_add_unknown_metric, "line 2: unknown metric id 'C99'"),
        (lambda lines: _keep_metrics(lines, {"C0"}),
         "classification scope needs at least 2 metrics to cluster, got 1 (C0)"),
        (lambda lines: _keep_metrics(lines, {"D0", "D1", "D2", "D3"}),
         "classification scope needs at least 2 metrics to cluster, got 0 (none)"),
    ], ids=["deleted-row", "duplicate-row", "repeat-7", "nan-value", "three-fields",
            "header-only", "empty-metric-id", "unknown-metric-id", "only-C0",
            "only-dataset-metrics"])
    def test_exit_code(self, experiment_dir, tmp_path, capsys, edit, message):
        lines = (experiment_dir / "results.csv").read_text().splitlines()
        edited = tmp_path / "results.csv"
        edited.write_text("\n".join(edit(lines)) + "\n")
        assert main(["analyze", "--results", str(edited),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestOverflowingSpan:
    """A numeric column of finite values whose span (max - min) overflows is
    a data error naming the column, found before any arithmetic warns."""

    @pytest.fixture
    def wide_dataset(self, tmp_path):
        data, spec = tmp_path / "wide.csv", tmp_path / "wide.spec.json"
        synth.write_dataset(data, spec, "wide", n_rows=60, bias_gap=0.3, seed=1)
        lines = data.read_text(encoding="utf-8").splitlines()
        noise = lines[0].split(",").index("noise")
        for i in range(1, len(lines)):
            lines = _set_field(lines, i, noise, ("1e308", "-1e308")[i % 2])
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return data, spec

    @pytest.mark.parametrize("command", ["experiment", "metrics"])
    def test_data_error_names_column(self, wide_dataset, tmp_path, capsys, command):
        data, spec = wide_dataset
        argv = [command, "--data", str(data), "--spec", str(spec)]
        if command == "experiment":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "column 'noise'" in err and "overflows" in err
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestCatalogCommand:
    def test_prints_inventory(self, capsys):
        assert main(["catalog"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 30


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fairsift.cli", "catalog"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"id": "C0"' in proc.stdout


def _run_cli(*argv) -> bytes:
    """``python -m fairsift.cli argv``'s stdout as bytes; it must exit 0."""
    proc = subprocess.run([sys.executable, "-m", "fairsift.cli", *argv],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestEncodingContract:
    """Every file that experiment, analyze and demo write is UTF-8 with
    "\\n" line ends and a final "\\n"; every JSON file is in the canonical
    form (indent 2, sorted keys, trailing newline)."""

    @pytest.fixture(scope="class")
    def written(self, experiment_dir, tmp_path_factory) -> list[Path]:
        analyzed = tmp_path_factory.mktemp("analyzed")
        assert main(["analyze", "--results", str(experiment_dir / "results.csv"),
                     "--out", str(analyzed)]) == 0
        demo = tmp_path_factory.mktemp("demo")
        assert main(["demo", "--rows", "200", "--out", str(demo)]) == 0
        return [path for root in (experiment_dir, analyzed, demo)
                for path in sorted(root.rglob("*")) if path.is_file()]

    def test_every_artifact_is_covered(self, written):
        names = {path.name for path in written}
        assert names >= {
            "results.csv", "manifest.json", "correlation.csv", "correlation_dataset.csv",
            "dendrogram.dot", "dendrogram.txt", "clusters.json", "sensitivity.csv",
            "movement.csv", "report.md", "demo_summary.json", "biased.csv",
            "biased.spec.json",
        }

    def test_utf8_with_newline_line_ends(self, written):
        for path in written:
            data = path.read_bytes()
            data.decode("utf-8")
            assert b"\r" not in data, path
            assert data.endswith(b"\n"), path

    def test_json_is_canonical(self, written):
        for path in written:
            if path.suffix == ".json":
                text = path.read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("flags", [[], ["--predictions-column", "outcome"]],
                             ids=["dataset-only", "predictions"])
    def test_metrics_stdout_equals_out_file(self, tiny_dataset, tmp_path, flags):
        data, spec = tiny_dataset
        args = ["metrics", "--data", str(data), "--spec", str(spec), *flags]
        out = tmp_path / "m.csv"
        assert _run_cli(*args, "--out", str(out)) == b""
        assert _run_cli(*args) == out.read_bytes()
        assert out.read_bytes().count(b"\n") == 1 + (30 if flags else 4)

    def test_catalog_stdout_equals_out_file(self, tmp_path):
        out = tmp_path / "catalog.json"
        assert _run_cli("catalog", "--out", str(out)) == b""
        assert _run_cli("catalog") == out.read_bytes()
