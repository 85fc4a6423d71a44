import json

import numpy as np
import pytest

from fairsift import metrics, report
from fairsift.harness import BASELINE, REWEIGHING, MetricSampleMatrix

from test_analysis import holey_samples


def synthetic_samples(datasets=("d1",), models=(BASELINE, REWEIGHING), seed=0):
    """Hand-built sample matrix with known correlation structure."""
    rng = np.random.default_rng(seed)
    entries = []
    for ds in datasets:
        for model in models:
            base = rng.normal(size=25)
            series = {}
            for mid in metrics.CLASSIFICATION_IDS:
                series[mid] = base + rng.normal(scale=0.3, size=25)
            # plant the analytic identities (GE is non-negative in real runs)
            series["C2"] = -series["C0"]
            series["C16"] = np.abs(series["C16"])
            series["C20"] = 2 * np.sqrt(series["C16"])
            for mid in metrics.DATASET_IDS:
                series[mid] = rng.normal(size=25)
            for mid, values in series.items():
                entries.extend(
                    (ds, model, i // 5, i % 5, mid, float(v))
                    for i, v in enumerate(values)
                )
    return MetricSampleMatrix.from_entries(entries)


@pytest.fixture(scope="module")
def result():
    return report.build_analysis(synthetic_samples())


class TestBuildAnalysis:
    def test_labels_cover_inventory(self, result):
        assert set(result.labels) == {
            ("d1", mid) for mid in metrics.CLASSIFICATION_IDS + metrics.DATASET_IDS
        }

    def test_mirrored_pairs_cocluster(self, result):
        for a, b in (("C0", "C2"), ("C16", "C20")):
            cluster = [
                c for c in result.classification.clusters if a in c.metric_ids
            ][0]
            assert b in cluster.metric_ids

    def test_clusters_partition_inventory(self, result):
        seen = [m for c in result.classification.clusters for m in c.metric_ids]
        assert sorted(seen, key=metrics.metric_sort_key) == list(
            metrics.CLASSIFICATION_IDS
        )

    def test_fold_medians_match_per_cell_calls(self):
        samples = holey_samples(0)  # holds a cell with no defined sample
        with pytest.warns(UserWarning):
            result = report.build_analysis(samples)
        assert len(result.fold_medians) == samples.values[..., 0].size
        for (ds, model, mid), median in result.fold_medians.items():
            row = samples.cell(ds, model, mid)
            values = row[np.isfinite(row)]
            want = float(np.median(values)) if len(values) else None
            assert repr(median) == repr(want)

    def test_dataset_metrics_clustered_separately(self, result):
        ds_ids = [m for c in result.dataset_metrics.clusters for m in c.metric_ids]
        assert sorted(ds_ids) == sorted(metrics.DATASET_IDS)
        assert len(result.classification.correlation.metric_ids) == 26
        assert len(result.dataset_metrics.correlation.metric_ids) == 4

    def test_unfair_percentages(self, result):
        assert set(result.unfair_pct) == {("classification", "d1"), ("dataset", "d1")}
        for pct in result.unfair_pct.values():
            assert 0 <= pct <= 100
        assert result.unfair_median == pytest.approx(
            float(np.median(result.unfair_values))
        )

    def test_movement_present_with_both_models(self, result):
        assert result.movement_models == (BASELINE, REWEIGHING)
        counts = result.movement["d1"].counts
        assert sum(counts.values()) + len(result.movement["d1"].excluded) == 26

    def test_no_movement_without_reweighing(self):
        single = report.build_analysis(synthetic_samples(models=(BASELINE,)))
        assert single.movement_models is None
        assert single.movement == {}

    def test_representative_member_of_cluster(self, result):
        for c in result.classification.clusters:
            assert c.representative in c.metric_ids


class TestWriters:
    def test_all_artifacts_written(self, result, tmp_path):
        paths = report.write_all(result, tmp_path)
        for key in ("correlation", "dendrogram_dot", "dendrogram_txt", "clusters",
                    "sensitivity", "movement", "report"):
            assert (tmp_path / paths[key].split("/")[-1]).exists()

    def test_writers_deterministic(self, result, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        report.write_all(result, a)
        report.write_all(result, b)
        for name in ("correlation.csv", "clusters.json", "report.md",
                     "sensitivity.csv", "movement.csv", "dendrogram.dot",
                     "dendrogram.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_clusters_json_matches_report_md(self, result, tmp_path):
        paths = report.write_all(result, tmp_path)
        payload = json.loads((tmp_path / "clusters.json").read_text())
        md = (tmp_path / "report.md").read_text()
        for cluster in payload["classification"]["clusters"]:
            for mid in cluster["metrics"]:
                assert f"| {cluster['cluster_id']} | {mid} |" in md
            agreement = cluster["per_dataset"]["d1"]["agreement_pct"]
            assert f"{round(agreement)}%" in md
        assert payload["unfair_median"] == result.unfair_median

    def test_dendrogram_text_contains_all_leaves(self, result):
        text = report.render_dendrogram_text(result.classification.dendrogram)
        for mid in metrics.CLASSIFICATION_IDS:
            assert mid in text

    def test_dot_is_wellformed(self, result, tmp_path):
        report.write_all(result, tmp_path)
        dot = (tmp_path / "dendrogram.dot").read_text()
        assert dot.startswith("graph")
        assert dot.rstrip().endswith("}")
        assert dot.count(" -- ") == 2 * len(result.classification.dendrogram.merges)

    def test_correlation_csv_square(self, result, tmp_path):
        report.write_all(result, tmp_path)
        lines = (tmp_path / "correlation.csv").read_text().splitlines()
        assert len(lines) == 27  # header + 26 rows
        assert lines[0].split(",")[1:] == list(metrics.CLASSIFICATION_IDS)


class TestEndToEnd:
    def test_real_experiment_analysis(self, small_experiment):
        result = report.build_analysis(small_experiment)
        # planted bias: statistical parity difference must label Unfair
        assert result.labels[("smallbias", "C15")] == "Unfair"
        assert result.labels[("smallbias", "D2")] == "Unfair"
        # reweighing drives the weighted dataset disparities to the ideal
        move = result.movement["smallbias"]
        assert result.fold_medians[("smallbias", REWEIGHING, "D2")] == pytest.approx(0.0, abs=1e-9)
        assert move.counts["UF"] >= 1

    def test_mirrored_pairs_on_real_data(self, small_experiment):
        result = report.build_analysis(small_experiment)
        corr = result.classification.correlation
        assert corr.get("C0", "C2") == -1.0
        assert corr.get("C16", "C20") == 1.0

    def test_single_cell_scopes_agree(self):
        from fairsift import analysis

        samples = synthetic_samples(models=("baseline",))
        avg = analysis.correlation_matrix(
            samples, metrics.CLASSIFICATION_IDS, scope=analysis.PER_CELL_AVERAGE
        )
        pooled = analysis.correlation_matrix(
            samples, metrics.CLASSIFICATION_IDS, scope=analysis.POOLED
        )
        assert np.allclose(avg.values, pooled.values, atol=1e-12, equal_nan=True)
