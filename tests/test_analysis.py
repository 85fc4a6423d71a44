import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift import analysis
from fairsift.harness import MetricSampleMatrix

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def rank_average_loop(values):
    """Average ranks of a 1-D series by walking its sorted tie runs."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_pairwise(x, y):
    """One pair at a time: delete undefined entries, rank, correlate."""
    pairs = [
        (float(a), float(b))
        for a, b in zip(x, y)
        if a is not None and b is not None
        and math.isfinite(a) and math.isfinite(b)
    ]
    if len(pairs) < 3:
        return None
    xa = np.array([p[0] for p in pairs])
    ya = np.array([p[1] for p in pairs])
    if xa.min() == xa.max() or ya.min() == ya.max():
        return None
    rx = rank_average_loop(xa)
    ry = rank_average_loop(ya)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0:
        return None
    return float(dx @ dy) / denom


def correlation_pairwise(samples, metric_ids, scope):
    """The correlation matrix from one ``spearman_pairwise`` call per pair
    (pooled) or per pair and cell (per-cell average)."""
    cells = [(ds, model) for ds in samples.datasets for model in samples.models]
    k = len(metric_ids)
    out = np.full((k, k), np.nan)
    np.fill_diagonal(out, 1.0)
    for i, j in itertools.combinations(range(k), 2):
        series = [
            (samples.cell(ds, model, metric_ids[i]),
             samples.cell(ds, model, metric_ids[j]))
            for ds, model in cells
        ]
        if scope == analysis.POOLED:
            rho = spearman_pairwise(
                [v for xs, _ in series for v in xs], [v for _, ys in series for v in ys]
            )
        else:
            coeffs = [r for xs, ys in series if (r := spearman_pairwise(xs, ys)) is not None]
            rho = float(np.mean(coeffs)) if coeffs else None
        out[i, j] = out[j, i] = np.nan if rho is None else rho
    return out


def rank_bruteforce(values):
    """O(n^2) counting ranks with average ties."""
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def pearson_bruteforce(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def spearman_bruteforce(x, y):
    return pearson_bruteforce(rank_bruteforce(x), rank_bruteforce(y))


def upgma_bruteforce(dismat, labels):
    """Exhaustive average linkage: every cluster-pair distance recomputed from
    scratch as the mean of the original pairwise entries.  Same node-id and
    tie conventions as the implementation under test."""
    d = np.asarray(dismat, dtype=float)
    n = d.shape[0]
    clusters = {i: [i] for i in range(n)}  # node id -> leaf indices
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            height = float(
                np.mean([d[i, j] for i in clusters[a] for j in clusters[b]])
            )
            key = (height, (a, b))
            if best is None or key < best:
                best = key
        (height, (a, b)) = best
        merges.append((a, b, height, len(clusters[a]) + len(clusters[b])))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------

class TestSpearman:
    def test_identical_ranking(self):
        assert analysis.spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ranking(self):
        assert analysis.spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_value(self):
        assert analysis.spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_pairwise_deletion(self):
        x = [1.0, None, 2.0, 3.0, float("nan")]
        y = [2.0, 5.0, 4.0, 6.0, 1.0]
        assert analysis.spearman(x, y) == 1.0

    def test_too_few_pairs(self):
        assert analysis.spearman([1, 2], [2, 1]) is None
        assert analysis.spearman([1, None, 2], [1, 2, None]) is None

    def test_constant_vector(self):
        assert analysis.spearman([1, 1, 1], [1, 2, 3]) is None

    def test_all_permutations_match_bruteforce(self):
        for n in range(3, 7):
            x = list(range(1, n + 1))
            for perm in itertools.permutations(x):
                got = analysis.spearman(x, list(perm))
                assert got == pytest.approx(spearman_bruteforce(x, list(perm)), abs=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=8))
    def test_ties_match_bruteforce(self, ys):
        xs = list(range(len(ys)))
        expected = (
            None if min(ys) == max(ys) else spearman_bruteforce(xs, ys)
        )
        got = analysis.spearman(xs, ys)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        x = [0.5, 2.0, 1.5, 3.0, 0.1]
        y = [2 * math.sqrt(v) for v in x]
        assert analysis.spearman(x, y) == 1.0

    def test_mirror_is_exactly_minus_one(self):
        x = [0.3, -1.2, 0.8, 0.3, 2.4]  # includes a tie
        y = [-v for v in x]
        assert analysis.spearman(x, y) == -1.0


class TestRanks:
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12))
    def test_matches_bruteforce(self, values):
        got = analysis.rank_average(np.array(values, dtype=float))
        assert got.tolist() == pytest.approx(rank_bruteforce(values))

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2).map(float)
                     | st.sampled_from([0.5, -0.0, math.inf, math.nan]),
                     min_size=m, max_size=m),
            min_size=1, max_size=5,
        )
    ))
    def test_rows_match_one_dimensional(self, rows):
        got = analysis.rank_average(np.array(rows))
        for row, ranks in zip(rows, got):
            assert ranks.tolist() == analysis.rank_average(row).tolist()
            assert ranks.tolist() == rank_average_loop(row).tolist()

    def test_empty(self):
        assert analysis.rank_average([]).tolist() == []


HOLES = (None, math.nan, math.inf, -math.inf)


@st.composite
def series_blocks(draw):
    """Rows of up to 12 folds with ties, constant rows and 1-4 hole patterns."""
    m = draw(st.integers(min_value=0, max_value=12))
    patterns = draw(st.lists(
        st.lists(st.booleans(), min_size=m, max_size=m), min_size=1, max_size=4
    ))
    value = st.integers(min_value=-3, max_value=3).map(float) | st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False
    )
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        holes = draw(st.sampled_from(patterns))
        if draw(st.booleans()):
            values = [draw(value)] * m
        else:
            values = draw(st.lists(value, min_size=m, max_size=m))
        rows.append([draw(st.sampled_from(HOLES)) if h else v
                     for h, v in zip(holes, values)])
    return rows


class TestBlockSpearman:
    @given(series_blocks())
    def test_matches_pairwise_oracle(self, rows):
        got = analysis.spearman(rows)
        assert got.shape == (len(rows), len(rows))
        for i, j in itertools.product(range(len(rows)), repeat=2):
            expected = spearman_pairwise(rows[i], rows[j])
            if expected is None:
                assert np.isnan(got[i, j])
            else:
                assert got[i, j] == expected
        if len(rows) >= 2:
            assert analysis.spearman(rows[0], rows[1]) == spearman_pairwise(rows[0], rows[1])

    def test_hole_patterns_share_one_ranking(self):
        # C has a hole where A and B do not: (A, C) and (B, C) use 4 folds
        rows = [[1, 2, 3, 4, 5], [5, 3, 4, 1, 2], [2, None, 1, 4, 3]]
        got = analysis.spearman(rows)
        assert got[0, 1] == spearman_pairwise(rows[0], rows[1])
        assert got[0, 2] == got[2, 0] == spearman_pairwise(rows[0], rows[2])
        assert got[1, 2] == spearman_pairwise(rows[1], rows[2])

    def test_rejects_one_series(self):
        with pytest.raises(ValueError):
            analysis.spearman([1.0, 2.0, 3.0])


def holey_samples(seed, n_datasets=3):
    """Two models x n_datasets cells of five metrics with ties and holes."""
    rng = np.random.default_rng(seed)
    entries = []
    for d in range(n_datasets):
        for model in ("baseline", "reweighing"):
            for mid in ("C0", "C1", "C5", "C12", "D0"):
                values = rng.integers(0, 4, 25) / 4 + (mid == "C1") * rng.random(25)
                holes = rng.random(25) < {"C5": 0.3, "C12": 0.9}.get(mid, 0.0)
                if mid == "D0" and d == 0:
                    values[:] = 0.5  # a constant series
                entries.extend(
                    (f"d{d}", model, t // 5, t % 5, mid,
                     None if holes[t] else float(values[t]))
                    for t in range(25)
                )
    return MetricSampleMatrix.from_entries(entries)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("scope", [analysis.PER_CELL_AVERAGE, analysis.POOLED])
    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_equal_pairwise_oracle(self, scope, seed):
        samples = holey_samples(seed)
        ids = samples.metric_ids
        got = analysis.correlation_matrix(samples, ids, scope=scope)
        assert got.values.tobytes() == correlation_pairwise(samples, ids, scope).tobytes()

    @pytest.mark.parametrize("scope", [analysis.PER_CELL_AVERAGE, analysis.POOLED])
    def test_experiment_bytes_equal_pairwise_oracle(self, small_experiment, scope):
        ids = small_experiment.metric_ids
        got = analysis.correlation_matrix(small_experiment, ids, scope=scope)
        expected = correlation_pairwise(small_experiment, ids, scope)
        assert got.values.tobytes() == expected.tobytes()

    def test_one_spearman_call_per_cell(self, monkeypatch):
        samples = holey_samples(0)
        calls = []
        block_spearman = analysis.spearman

        def counting_spearman(block):
            calls.append(block)
            return block_spearman(block)

        monkeypatch.setattr(analysis, "spearman", counting_spearman)
        analysis.correlation_matrix(samples, samples.metric_ids)
        assert len(calls) == 6
        analysis.correlation_matrix(samples, samples.metric_ids, scope=analysis.POOLED)
        assert len(calls) == 7


# ---------------------------------------------------------------------------
# Dissimilarity + clustering
# ---------------------------------------------------------------------------

class TestDissimilarity:
    def test_values(self):
        assert analysis.dissimilarity(1.0) == 0.0
        assert analysis.dissimilarity(-0.8) == pytest.approx(0.2)
        assert analysis.dissimilarity(None) == 1.0
        assert analysis.dissimilarity(float("nan")) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            analysis.dissimilarity(1.5)


def symmetric_dissimilarity(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.01, 1.0, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


class TestAgglomerate:
    def test_three_item_hand_example(self):
        d = np.array([[0, 0.1, 0.9], [0.1, 0, 0.8], [0.9, 0.8, 0]])
        dend = analysis.agglomerate(d, ("A", "B", "C"))
        assert dend.merges[0].left == 0 and dend.merges[0].right == 1
        assert dend.merges[0].height == pytest.approx(0.1)
        assert dend.merges[1].height == pytest.approx(0.85)

    def test_two_items(self):
        dend = analysis.agglomerate([[0, 0.4], [0.4, 0]], ("A", "B"))
        assert len(dend.merges) == 1
        assert dend.merges[0].height == pytest.approx(0.4)

    def test_equal_distances_tie_rule(self):
        d = np.full((3, 3), 0.5)
        np.fill_diagonal(d, 0.0)
        dend = analysis.agglomerate(d, ("A", "B", "C"))
        # lexicographically smallest pair (0, 1) first
        assert (dend.merges[0].left, dend.merges[0].right) == (0, 1)
        assert all(m.height == pytest.approx(0.5) for m in dend.merges)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            analysis.agglomerate([[0, 0.2], [0.3, 0]], ("A", "B"))

    def test_heights_non_decreasing(self):
        for seed in range(20):
            d = symmetric_dissimilarity(7, seed)
            dend = analysis.agglomerate(d, tuple("ABCDEFG"))
            heights = list(dend.heights)
            assert heights == sorted(heights)

    def test_matches_exhaustive_oracle(self):
        for seed in range(100):
            d = symmetric_dissimilarity(6, seed)
            dend = analysis.agglomerate(d, tuple("ABCDEF"))
            expected = upgma_bruteforce(d, tuple("ABCDEF"))
            for merge, (a, b, height, size) in zip(dend.merges, expected):
                assert (merge.left, merge.right) == (a, b)
                assert merge.height == pytest.approx(height, abs=1e-12)
                assert merge.size == size


class TestSelectCut:
    def dend(self, heights):
        merges = tuple(
            analysis.Merge(left=i, right=i + 1, height=h, size=2)
            for i, h in enumerate(heights)
        )
        leaves = tuple(f"L{i}" for i in range(len(heights) + 1))
        return analysis.Dendrogram(leaves=leaves, merges=merges)

    def test_hand_example(self):
        cut = analysis.select_cut(self.dend([0.2, 0.3, 0.9]))
        assert cut.height == pytest.approx(0.6)
        assert (cut.gap_low, cut.gap_high) == (0.3, 0.9)

    def test_all_equal_heights_cut_above(self):
        cut = analysis.select_cut(self.dend([0.5, 0.5, 0.5]))
        assert cut.height == pytest.approx(0.75)
        assert cut.gap_high == 1.0

    def test_single_merge(self):
        cut = analysis.select_cut(self.dend([0.3]))
        assert cut.height == pytest.approx(0.65)

    def test_cut_strictly_inside_interval(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            heights = sorted(rng.uniform(0, 0.95, 5))
            cut = analysis.select_cut(self.dend(heights))
            assert cut.gap_low < cut.height < cut.gap_high


class TestExtractClusters:
    def test_cut_below_first_merge_gives_singletons(self):
        d = symmetric_dissimilarity(5, 3)
        dend = analysis.agglomerate(d, tuple("ABCDE"))
        parts = analysis.extract_clusters(dend, 0.0)
        assert parts == (("A",), ("B",), ("C",), ("D",), ("E",))

    def test_cut_above_last_merge_gives_one_cluster(self):
        d = symmetric_dissimilarity(5, 3)
        dend = analysis.agglomerate(d, tuple("ABCDE"))
        parts = analysis.extract_clusters(dend, 2.0)
        assert parts == (("A", "B", "C", "D", "E"),)

    def test_hand_example_two_clusters(self):
        # four leaves, merge heights 0.2, 0.3, 0.9; cut at 0.6
        merges = (
            analysis.Merge(0, 1, 0.2, 2),
            analysis.Merge(4, 2, 0.3, 3),
            analysis.Merge(5, 3, 0.9, 4),
        )
        dend = analysis.Dendrogram(leaves=("a", "b", "c", "d"), merges=merges)
        parts = analysis.extract_clusters(dend, 0.6)
        assert parts == (("a", "b", "c"), ("d",))

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.0, max_value=1.2))
    def test_partition_property(self, n, seed, cut):
        labels = tuple(f"L{i}" for i in range(n))
        dend = analysis.agglomerate(symmetric_dissimilarity(n, seed), labels)
        parts = analysis.extract_clusters(dend, cut)
        flat = [m for part in parts for m in part]
        assert sorted(flat) == sorted(labels)
        assert all(part for part in parts)

    def test_stable_interval_really_stable(self):
        for seed in range(10):
            d = symmetric_dissimilarity(7, seed)
            dend = analysis.agglomerate(d, tuple("ABCDEFG"))
            cut = analysis.select_cut(dend)
            base = analysis.extract_clusters(dend, cut.height)
            span = cut.gap_high - cut.gap_low
            for eps in (0.25, 0.75):
                probe = cut.gap_low + span * eps
                assert analysis.extract_clusters(dend, probe) == base


# ---------------------------------------------------------------------------
# Agreement, sensitivity, movement
# ---------------------------------------------------------------------------

class TestAgreement:
    def test_unanimous(self):
        assert analysis.agreement_percentage(["Fair"] * 4) == 100.0

    def test_even_split(self):
        assert analysis.agreement_percentage(["Fair", "Fair", "Unfair", "Unfair"]) == 50.0

    def test_two_thirds(self):
        got = analysis.agreement_percentage(["Fair", "Fair", "Unfair"])
        assert round(got) == 67

    @given(st.lists(st.sampled_from(["Fair", "Unfair"]), min_size=1, max_size=12))
    def test_permutation_invariant(self, labels):
        assert analysis.agreement_percentage(labels) == analysis.agreement_percentage(
            labels[::-1]
        )
        assert 50.0 <= analysis.agreement_percentage(labels) <= 100.0


class TestUnfairPercentage:
    def test_adult_like(self):
        labels = ["Unfair"] * 15 + ["Fair"] * 11
        assert round(analysis.unfair_percentage(labels)) == 58

    def test_all_fair(self):
        assert analysis.unfair_percentage(["Fair", "Fair"]) == 0.0

    @given(st.lists(st.sampled_from(["Fair", "Unfair"]), min_size=1, max_size=12))
    def test_permutation_invariant(self, labels):
        assert analysis.unfair_percentage(labels) == analysis.unfair_percentage(
            labels[::-1]
        )


def sample_grid(cells):
    """A MetricSampleMatrix from (dataset, model, metric) -> fold values; a
    cell shorter than 25 folds is padded with Undefined (None)."""
    entries = []
    for (ds, model, mid), values in cells.items():
        padded = list(values) + [None] * (25 - len(values))
        entries.extend((ds, model, t // 5, t % 5, mid, v) for t, v in enumerate(padded))
    return MetricSampleMatrix.from_entries(entries)


class TestSensitivity:
    def test_hand_example_flags(self):
        # IQR population {0, 0, 0.2, 0.2}: sigma = 0.1, threshold 0.035
        cells = {
            ("d", "m", "C0"): [1.0] * 25,
            ("d", "m", "C1"): [2.0] * 25,
            ("d", "m", "C2"): [0.0, 0.2] * 12 + [0.1],
            ("d", "m", "C3"): [1.0, 1.2] * 12 + [1.1],
        }
        report = analysis.sensitivity_table(sample_grid(cells), d=0.35)
        assert report.sigma == pytest.approx(0.1)
        assert report.threshold == pytest.approx(0.035)
        flagged = {c.metric_id: c.flagged for c in report.cells}
        assert flagged == {"C0": False, "C1": False, "C2": True, "C3": True}

    def test_constant_metric_never_flagged(self):
        cells = {
            ("d", "m", "C0"): [0.5] * 25,
            ("d", "m", "C1"): list(np.linspace(0, 3, 25)),
        }
        report = analysis.sensitivity_table(sample_grid(cells))
        assert not [c for c in report.cells if c.metric_id == "C0"][0].flagged

    def test_metric_and_cluster_verdicts(self):
        cells = {
            ("d1", "m", "C0"): [0.5] * 25,
            ("d2", "m", "C0"): [0.5] * 25,
            ("d1", "m", "C1"): list(np.linspace(0, 3, 25)),
            ("d2", "m", "C1"): list(np.linspace(0, 3, 25)),
        }
        report = analysis.sensitivity_table(sample_grid(cells))
        assert report.metric_insensitive("C0")
        assert not report.metric_insensitive("C1")
        assert report.cluster_insensitive(["C0"])
        assert not report.cluster_insensitive(["C0", "C1"])  # not a majority
        assert not report.cluster_insensitive(["C1"])

    def test_short_cell_warns(self):
        cells = {("d", "m", "C0"): [0.1] * 10, ("d", "m", "C1"): [0.2] * 25}
        with pytest.warns(UserWarning, match="10 defined samples"):
            analysis.sensitivity_table(sample_grid(cells))

    def test_short_cells_warn_once(self):
        cells = {
            ("d", "m", "C0"): [0.1] * 10,
            ("d", "m", "C1"): [0.2] * 12,
            ("d", "m", "C2"): [0.3] * 24,
            ("d", "m", "C3"): [0.4] * 25,
        }
        with pytest.warns(UserWarning) as record:
            analysis.sensitivity_table(sample_grid(cells))
        assert len(record) == 1
        message = str(record[0].message)
        assert message.startswith("3 sensitivity cell(s)")
        assert "10 defined samples" in message

    def test_median_iqr_linear_interpolation(self):
        cells = {("d", "m", "C0"): [1.0, 2.0, 3.0, 4.0]}
        with pytest.warns(UserWarning):
            report = analysis.sensitivity_table(sample_grid(cells))
        cell = report.cells[0]
        assert cell.median == pytest.approx(2.5)
        assert cell.iqr == pytest.approx(1.5)  # q3=3.25, q1=1.75


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_cell_calls(self, seed):
        samples = holey_samples(seed)
        with pytest.warns(UserWarning):
            report = analysis.sensitivity_table(samples)
        rows = samples.values.reshape(-1, samples.values.shape[-1])
        assert len(report.cells) == len(rows)
        for cell, row in zip(report.cells, rows):
            values = row[np.isfinite(row)]
            if not len(values):
                assert cell.median is None and cell.iqr is None
                continue
            q1, q2, q3 = np.percentile(values, [25, 50, 75])
            assert repr(cell.median) == repr(float(q2))
            assert repr(cell.iqr) == repr(float(q3 - q1))


fold_rows = st.lists(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.0, math.nan, math.inf, -math.inf])
        | st.floats(-5, 5),
        min_size=12, max_size=12,
    ),
    min_size=1, max_size=30,
)


class TestDefinedBlocks:
    @given(fold_rows)
    def test_axis_calls_match_per_row_calls(self, rows):
        rows = np.array(rows)
        seen = np.zeros(len(rows), dtype=bool)
        for selected, block in analysis.defined_blocks(rows):
            assert not (seen & selected).any()
            seen |= selected
            quartiles = np.percentile(block, [25, 50, 75], axis=1).T
            medians = np.median(block, axis=1)
            for i, values, q, median in zip(np.flatnonzero(selected), block,
                                            quartiles, medians):
                defined = rows[i][np.isfinite(rows[i])]
                assert values.tobytes() == defined.tobytes()
                assert q.tobytes() == np.percentile(defined, [25, 50, 75]).tobytes()
                assert median.tobytes() == np.median(defined).tobytes()
        assert (seen == np.isfinite(rows).any(axis=1)).all()


class TestMovement:
    def test_three_cases(self):
        base = {"A": 0.25, "B": 0.05, "C": 0.1}
        mitigated = {"A": 0.05, "B": 0.25, "C": 0.1}
        ideals = {"A": 0.0, "B": 0.0, "C": 0.0}
        out = analysis.movement_counts(base, mitigated, ideals)
        assert out.verdicts == {"A": "UF", "B": "FU", "C": "NC"}
        assert out.counts == {"UF": 1, "FU": 1, "NC": 1}

    def test_ratio_ideal(self):
        out = analysis.movement_counts({"A": 0.5}, {"A": 0.9}, {"A": 1.0})
        assert out.verdicts["A"] == "UF"

    def test_epsilon_absorbs_noise(self):
        out = analysis.movement_counts({"A": 0.1000}, {"A": 0.1005}, {"A": 0.0})
        assert out.verdicts["A"] == "NC"

    def test_undefined_excluded(self):
        out = analysis.movement_counts(
            {"A": None, "B": 0.3}, {"A": 0.1, "B": 0.2}, {"A": 0.0, "B": 0.0}
        )
        assert out.excluded == ("A",)
        assert out.verdicts == {"B": "UF"}

    def test_counts_sum_to_inventory(self):
        base = {f"M{i}": 0.1 * i for i in range(10)}
        mitigated = {f"M{i}": 0.05 * i for i in range(10)}
        ideals = {f"M{i}": 0.0 for i in range(10)}
        out = analysis.movement_counts(base, mitigated, ideals)
        assert sum(out.counts.values()) + len(out.excluded) == 10
