import json
import subprocess
import sys

import pytest

from fairsift import synth
from fairsift.cli import main


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


class TestMalformedResults:
    """A results.csv that is not one value per grid entry is a data error."""

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:10] + lines[11:], "occurs 0 times"),
        (lambda lines: lines + [lines[10]], "occurs 2 times"),
        (lambda lines: _set_field(lines, 10, 2, "7"), "(repeat, fold) (7, 0) outside 0..4"),
        (lambda lines: _set_field(lines, 10, 5, "nan"), "line 11: value 'nan' is not finite"),
        (lambda lines: lines[:10] + ["a,b,c"] + lines[11:], "line 11: not enough values to unpack"),
        (lambda lines: lines[:1], "no entries"),
        (lambda lines: _set_field(lines, 10, 4, ""), "line 11: unknown metric id ''"),
        (_add_unknown_metric, "line 2: unknown metric id 'C99'"),
    ], ids=["deleted-row", "duplicate-row", "repeat-7", "nan-value", "three-fields",
            "header-only", "empty-metric-id", "unknown-metric-id"])
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
