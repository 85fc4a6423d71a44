import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift import analysis, metrics, report
from fairsift.harness import BASELINE, REWEIGHING, MetricSampleMatrix

from test_analysis import holey_samples


def representative_loop(cluster, corr):
    """The most central member by one mean per member over a list of its
    defined |rho| to the others, as the scalar report did."""
    def get(a, b):
        v = corr.values[corr.metric_ids.index(a), corr.metric_ids.index(b)]
        return None if np.isnan(v) else float(v)

    members = sorted(cluster, key=metrics.metric_sort_key)
    if len(members) == 1:
        return members[0]
    best, best_score = members[0], -1.0
    for m in members:
        others = [abs(get(m, o)) for o in members if o != m and get(m, o) is not None]
        score = float(np.mean(others)) if others else -1.0
        if score > best_score:
            best, best_score = m, score
    return best


def synthetic_samples(datasets=("d1",), models=(BASELINE, REWEIGHING), seed=0):
    """Hand-built sample matrix with known correlation structure."""
    rng = np.random.default_rng(seed)
    metric_ids = metrics.CLASSIFICATION_IDS + metrics.DATASET_IDS
    grid = np.empty((len(datasets), len(models), len(metric_ids), 25))
    for d in range(len(datasets)):
        for m in range(len(models)):
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
            grid[d, m] = [series[mid] for mid in metric_ids]
    return MetricSampleMatrix(datasets, models, metric_ids, grid)


@pytest.fixture(scope="module")
def result():
    return report.build_analysis(synthetic_samples())


class TestBuildAnalysis:
    def test_labels_cover_inventory(self, result):
        ids = metrics.CLASSIFICATION_IDS + metrics.DATASET_IDS
        assert result.sensitivity.metric_ids == ids
        assert result.labels.shape == (1, len(ids))
        assert set(result.labels.ravel().tolist()) <= {"Fair", "Unfair"}

    def test_mirrored_pairs_cocluster(self, result):
        for a, b in (("C0", "C2"), ("C16", "C20")):
            cluster = [
                c for c in result.scopes[0].clusters if a in c.metric_ids
            ][0]
            assert b in cluster.metric_ids

    def test_clusters_partition_inventory(self, result):
        seen = [m for c in result.scopes[0].clusters for m in c.metric_ids]
        assert sorted(seen, key=metrics.metric_sort_key) == list(
            metrics.CLASSIFICATION_IDS
        )

    def test_fold_medians_match_per_cell_calls(self):
        samples = holey_samples(0)  # holds a cell with no defined sample
        with pytest.warns(UserWarning):
            result = report.build_analysis(samples)
        medians = result.sensitivity.median
        assert medians.shape == samples.values.shape[:-1]
        keys = itertools.product(samples.datasets, samples.models, samples.metric_ids)
        for (ds, model, mid), median in zip(keys, medians.ravel().tolist()):
            row = samples.cell(ds, model, mid)
            values = row[np.isfinite(row)]
            want = float(np.percentile(values, 50)) if len(values) else math.nan
            assert repr(median) == repr(want)

    def test_dataset_metrics_clustered_separately(self, result):
        assert [r.scope for r in result.scopes] == ["classification", "dataset"]
        ds_ids = [m for c in result.scopes[1].clusters for m in c.metric_ids]
        assert sorted(ds_ids) == sorted(metrics.DATASET_IDS)
        assert len(result.scopes[0].correlation.metric_ids) == 26
        assert len(result.scopes[1].correlation.metric_ids) == 4

    def test_unfair_percentages(self, result):
        assert set(result.unfair_pct) == {("classification", "d1"), ("dataset", "d1")}
        for pct in result.unfair_pct.values():
            assert 0 <= pct <= 100
        assert result.unfair_median == pytest.approx(
            float(np.median(sorted(result.unfair_pct.values())))
        )

    def test_movement_present_with_both_models(self, result):
        assert result.movement_models == (BASELINE, REWEIGHING)
        assert result.movement.shape == (1, 26)
        assert set(result.movement.ravel().tolist()) <= {"UF", "FU", "NC", "excluded"}

    def test_no_movement_without_reweighing(self):
        single = report.build_analysis(synthetic_samples(models=(BASELINE,)))
        assert single.movement_models is None
        assert single.movement is None

    def test_representative_member_of_cluster(self, result):
        for c in result.scopes[0].clusters:
            assert c.representative in c.metric_ids


class TestRepresentative:
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_matches_loop_oracle(self, k, seed):
        # ties on a coarse grid, Undefined entries and near-equal means
        rng = np.random.default_rng(seed)
        grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 0.1, 0.7, np.nan])
        values = np.where(rng.random((k, k)) < 0.5, rng.choice(grid, (k, k)),
                          rng.uniform(-1.0, 1.0, (k, k)))
        values = np.triu(values, 1) + np.triu(values, 1).T
        np.fill_diagonal(values, 1.0)
        ids = metrics.CLASSIFICATION_IDS[:k]
        corr = analysis.CorrelationMatrix(metric_ids=ids, values=values, scope=analysis.POOLED)
        members = [m for m in ids if rng.random() < 0.7] or [ids[0]]
        members = [members[i] for i in rng.permutation(len(members))]
        assert report._representative(members, corr) == representative_loop(members, corr)


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

    @pytest.mark.parametrize("leaves, merges, want", [
        ("abcd", [(0, 1, 0.1, 2), (2, 3, 0.2, 2), (4, 5, 0.5, 4)],
         "[0.5000]\n|- [0.1000]\n|  |- a\n|  `- b\n`- [0.2000]\n   |- c\n   `- d\n"),
        ("abcd", [(0, 1, 0.1, 2), (2, 4, 0.2, 3), (3, 5, 0.5, 4)],
         "[0.5000]\n|- d\n`- [0.2000]\n   |- c\n   `- [0.1000]\n      |- a\n      `- b\n"),
        ("ab", [], "a\nb\n"),
    ], ids=["balanced", "chain", "no-merge"])
    def test_dendrogram_text_golden(self, leaves, merges, want):
        dendro = analysis.Dendrogram(tuple(leaves), tuple(analysis.Merge(*m) for m in merges))
        assert report.render_dendrogram_text(dendro) == want

    def test_dendrogram_text_contains_all_leaves(self, result):
        text = report.render_dendrogram_text(result.scopes[0].dendrogram)
        for mid in metrics.CLASSIFICATION_IDS:
            assert mid in text

    def test_dot_is_wellformed(self, result, tmp_path):
        report.write_all(result, tmp_path)
        dot = (tmp_path / "dendrogram.dot").read_text()
        assert dot.startswith("graph")
        assert dot.rstrip().endswith("}")
        assert dot.count(" -- ") == 2 * len(result.scopes[0].dendrogram.merges)

    def test_even_count_median_same_in_both_csvs(self, tmp_path):
        # np.median and np.percentile(..., 50) round the mean of -0.1 and 0.3
        # apart; a cell has one median, written alike by both writers
        samples = synthetic_samples()
        values = samples.values.copy()
        values[0, 0, samples.metric_ids.index("C0")] = [-0.1, 0.3] + [math.nan] * 23
        samples = MetricSampleMatrix(samples.datasets, samples.models,
                                     samples.metric_ids, values)
        with pytest.warns(UserWarning):
            report.write_all(report.build_analysis(samples), tmp_path)
        sensitivity = (tmp_path / "sensitivity.csv").read_text().splitlines()
        movement = (tmp_path / "movement.csv").read_text().splitlines()
        sens_median = [r.split(",")[3] for r in sensitivity
                       if r.startswith(f"d1,{BASELINE},C0,")]
        move_median = [r.split(",")[2] for r in movement if r.startswith("d1,C0,")]
        assert sens_median == move_median == [repr(float(np.percentile([-0.1, 0.3], 50)))]

    def test_correlation_csv_square(self, result, tmp_path):
        report.write_all(result, tmp_path)
        lines = (tmp_path / "correlation.csv").read_text().splitlines()
        assert len(lines) == 27  # header + 26 rows
        assert lines[0].split(",")[1:] == list(metrics.CLASSIFICATION_IDS)


class TestEndToEnd:
    def test_real_experiment_analysis(self, small_experiment):
        result = report.build_analysis(small_experiment)
        # planted bias: statistical parity difference must label Unfair
        d = result.datasets.index("smallbias")
        col = result.sensitivity.metric_ids.index
        assert result.labels[d, col("C15")] == "Unfair"
        assert result.labels[d, col("D2")] == "Unfair"
        # reweighing drives the weighted dataset disparities to the ideal
        rw = result.models.index(REWEIGHING)
        assert result.sensitivity.median[d, rw, col("D2")] == pytest.approx(0.0, abs=1e-9)
        assert (result.movement[d] == "UF").sum() >= 1

    def test_mirrored_pairs_on_real_data(self, small_experiment):
        result = report.build_analysis(small_experiment)
        corr = result.scopes[0].correlation
        col = corr.metric_ids.index
        assert corr.values[col("C0"), col("C2")] == -1.0
        assert corr.values[col("C16"), col("C20")] == 1.0

    def test_single_cell_scopes_agree(self):
        samples = synthetic_samples(models=("baseline",))
        avg = analysis.correlation_matrix(
            samples, metrics.CLASSIFICATION_IDS, scope=analysis.PER_CELL_AVERAGE
        )
        pooled = analysis.correlation_matrix(
            samples, metrics.CLASSIFICATION_IDS, scope=analysis.POOLED
        )
        assert np.allclose(avg.values, pooled.values, atol=1e-12, equal_nan=True)
