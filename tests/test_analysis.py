import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift import analysis

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

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


class _FakeSamples:
    """Minimal MetricSampleMatrix stand-in for sensitivity tests."""

    def __init__(self, cells):
        # cells: (dataset, model, metric) -> list of values
        self._cells = cells

    def datasets(self):
        return tuple(sorted({k[0] for k in self._cells}))

    def models(self):
        return tuple(sorted({k[1] for k in self._cells}))

    def metric_ids(self):
        return tuple(sorted({k[2] for k in self._cells}))

    def defined_samples(self, ds, model, mid):
        vals = [v for v in self._cells.get((ds, model, mid), []) if v is not None]
        return np.array(vals, dtype=float)


class TestSensitivity:
    def test_hand_example_flags(self):
        # IQR population {0, 0, 0.2, 0.2}: sigma = 0.1, threshold 0.035
        cells = {
            ("d", "m", "A"): [1.0] * 25,
            ("d", "m", "B"): [2.0] * 25,
            ("d", "m", "C"): [0.0, 0.2] * 12 + [0.1],
            ("d", "m", "D"): [1.0, 1.2] * 12 + [1.1],
        }
        report = analysis.sensitivity_table(_FakeSamples(cells), d=0.35)
        assert report.sigma == pytest.approx(0.1)
        assert report.threshold == pytest.approx(0.035)
        flagged = {c.metric_id: c.flagged for c in report.cells}
        assert flagged == {"A": False, "B": False, "C": True, "D": True}

    def test_constant_metric_never_flagged(self):
        cells = {
            ("d", "m", "A"): [0.5] * 25,
            ("d", "m", "B"): list(np.linspace(0, 3, 25)),
        }
        report = analysis.sensitivity_table(_FakeSamples(cells))
        assert not [c for c in report.cells if c.metric_id == "A"][0].flagged

    def test_metric_and_cluster_verdicts(self):
        cells = {
            ("d1", "m", "A"): [0.5] * 25,
            ("d2", "m", "A"): [0.5] * 25,
            ("d1", "m", "B"): list(np.linspace(0, 3, 25)),
            ("d2", "m", "B"): list(np.linspace(0, 3, 25)),
        }
        report = analysis.sensitivity_table(_FakeSamples(cells))
        assert report.metric_insensitive("A")
        assert not report.metric_insensitive("B")
        assert report.cluster_insensitive(["A"])
        assert not report.cluster_insensitive(["A", "B"])  # not a majority
        assert not report.cluster_insensitive(["B"])

    def test_short_cell_warns(self):
        cells = {("d", "m", "A"): [0.1] * 10, ("d", "m", "B"): [0.2] * 25}
        with pytest.warns(UserWarning, match="10 defined samples"):
            analysis.sensitivity_table(_FakeSamples(cells))

    def test_short_cells_warn_once(self):
        cells = {
            ("d", "m", "A"): [0.1] * 10,
            ("d", "m", "B"): [0.2] * 12,
            ("d", "m", "C"): [0.3] * 24,
            ("d", "m", "D"): [0.4] * 25,
        }
        with pytest.warns(UserWarning) as record:
            analysis.sensitivity_table(_FakeSamples(cells))
        assert len(record) == 1
        message = str(record[0].message)
        assert message.startswith("3 sensitivity cell(s)")
        assert "10 defined samples" in message

    def test_median_iqr_linear_interpolation(self):
        cells = {("d", "m", "A"): [1.0, 2.0, 3.0, 4.0]}
        with pytest.warns(UserWarning):
            report = analysis.sensitivity_table(_FakeSamples(cells))
        cell = report.cells[0]
        assert cell.median == pytest.approx(2.5)
        assert cell.iqr == pytest.approx(1.5)  # q3=3.25, q1=1.75


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
