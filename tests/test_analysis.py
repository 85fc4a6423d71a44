import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsift import analysis, metrics, report
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


# The scalar sift the array code replaced, kept verbatim as oracles: the array
# versions must return == results, ties and non-monotone heights included.

def dissimilarity_scalar(sim):
    """d = 1 - |sim|; an undefined similarity is maximally dissimilar (1)."""
    if sim is None or (isinstance(sim, float) and math.isnan(sim)):
        return 1.0
    if not -1.0 - 1e-9 <= sim <= 1.0 + 1e-9:
        raise ValueError(f"similarity must lie in [-1, 1], got {sim}")
    return max(0.0, 1.0 - abs(sim))


def agglomerate_scan(dismat, labels):
    """Average linkage by a scan over every pair of active rows per step."""
    d = np.array(dismat, dtype=float)
    n = d.shape[0]
    work = d.copy()
    node_of_row = list(range(n))
    sizes = {i: 1 for i in range(n)}
    active_rows = set(range(n))
    merges = []
    for step in range(n - 1):
        best = None
        for ri in sorted(active_rows):
            for rj in sorted(active_rows):
                if rj <= ri:
                    continue
                a, b = node_of_row[ri], node_of_row[rj]
                pair = (min(a, b), max(a, b))
                key = (work[ri, rj], pair)
                if best is None or key < best[0]:
                    best = (key, ri, rj)
        (height, pair), ri, rj = best
        a, b = pair
        size_i = sizes[node_of_row[ri]]
        size_j = sizes[node_of_row[rj]]
        new_id = n + step
        new_size = size_i + size_j
        merges.append(analysis.Merge(left=a, right=b, height=float(height), size=new_size))
        for rk in active_rows:
            if rk in (ri, rj):
                continue
            work[ri, rk] = work[rk, ri] = (
                size_i * work[ri, rk] + size_j * work[rj, rk]
            ) / new_size
        active_rows.remove(rj)
        node_of_row[ri] = new_id
        sizes[new_id] = new_size
    return analysis.Dendrogram(leaves=tuple(labels), merges=tuple(merges))


def select_cut_scan(dendrogram):
    """Widest gap by a ``>=`` scan, so the last of equal gaps wins."""
    heights = sorted(dendrogram.heights)
    levels = heights + [max(analysis.CUT_SENTINEL, heights[-1])]
    best = 0
    for i in range(len(levels) - 1):
        if levels[i + 1] - levels[i] >= levels[best + 1] - levels[best]:
            best = i
    return analysis.CutSelection(
        height=0.5 * (levels[best] + levels[best + 1]),
        gap_low=levels[best],
        gap_high=levels[best + 1],
    )


def extract_clusters_union_find(dendrogram, cut):
    """Partition below the cut by union-find over representative leaves."""
    n = len(dendrogram.leaves)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    node_root = {i: i for i in range(n)}
    for t, merge in enumerate(dendrogram.merges):
        la, lb = node_root[merge.left], node_root[merge.right]
        node_root[n + t] = la
        if merge.height < cut:
            ra, rb = find(la), find(lb)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(leaf)
    ordered = sorted(groups.values(), key=lambda g: min(g))
    return tuple(tuple(dendrogram.leaves[i] for i in sorted(g)) for g in ordered)


QUARTER_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def dissimilarity_matrices(draw):
    """Symmetric matrices with a zero diagonal: on the quarter grid (ties
    everywhere, sometimes with inf entries) or uniform floats, the latter
    sometimes with a lower triangle off by up to 1e-7 relative, which the
    symmetry check accepts and the Lance-Williams update reads."""
    n = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "grid-inf", "float", "float-asymmetric"]))
    if kind.startswith("grid"):
        grid = QUARTER_GRID + ((math.inf,) if kind == "grid-inf" else ())
        d = rng.choice(grid, size=(n, n))
    else:
        d = rng.uniform(0.0, 1.0, size=(n, n))
    d = np.triu(d, 1)
    d = d + d.T
    if kind == "float-asymmetric":
        d *= 1.0 + np.tril(rng.uniform(-1e-7, 1e-7, size=(n, n)), -1)
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def dendrograms(draw):
    """Hand-built dendrograms: random merge topology, heights on the quarter
    grid or uniform in [0, 1.5], in no particular order."""
    n = draw(st.integers(min_value=2, max_value=10))
    on_grid = draw(st.booleans())
    height = (st.sampled_from(QUARTER_GRID) if on_grid
              else st.floats(min_value=0.0, max_value=1.5))
    active = list(range(n))
    merges = []
    for t in range(n - 1):
        a = active.pop(draw(st.integers(min_value=0, max_value=len(active) - 1)))
        b = active.pop(draw(st.integers(min_value=0, max_value=len(active) - 1)))
        merges.append(analysis.Merge(left=a, right=b, height=draw(height), size=2))
        active.append(n + t)
    return analysis.Dendrogram(leaves=tuple(f"L{i}" for i in range(n)),
                               merges=tuple(merges))


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------

def spearman_pair(x, y):
    """``analysis.spearman`` of the two-row block [x, y]: its coefficient,
    or None where undefined."""
    rho = analysis.spearman([x, y])[0, 1]
    return None if np.isnan(rho) else float(rho)


class TestSpearman:
    def test_identical_ranking(self):
        assert spearman_pair([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ranking(self):
        assert spearman_pair([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_value(self):
        assert spearman_pair([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_pairwise_deletion(self):
        x = [1.0, None, 2.0, 3.0, float("nan")]
        y = [2.0, 5.0, 4.0, 6.0, 1.0]
        assert spearman_pair(x, y) == 1.0

    def test_too_few_pairs(self):
        assert spearman_pair([1, 2], [2, 1]) is None
        assert spearman_pair([1, None, 2], [1, 2, None]) is None

    def test_constant_vector(self):
        assert spearman_pair([1, 1, 1], [1, 2, 3]) is None

    def test_all_permutations_match_bruteforce(self):
        for n in range(3, 7):
            x = list(range(1, n + 1))
            for perm in itertools.permutations(x):
                got = spearman_pair(x, list(perm))
                assert got == pytest.approx(spearman_bruteforce(x, list(perm)), abs=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=8))
    def test_ties_match_bruteforce(self, ys):
        xs = list(range(len(ys)))
        expected = (
            None if min(ys) == max(ys) else spearman_bruteforce(xs, ys)
        )
        got = spearman_pair(xs, ys)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        x = [0.5, 2.0, 1.5, 3.0, 0.1]
        y = [2 * math.sqrt(v) for v in x]
        assert spearman_pair(x, y) == 1.0

    def test_mirror_is_exactly_minus_one(self):
        x = [0.3, -1.2, 0.8, 0.3, 2.4]  # includes a tie
        y = [-v for v in x]
        assert spearman_pair(x, y) == -1.0


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
            assert spearman_pair(rows[0], rows[1]) == spearman_pairwise(rows[0], rows[1])

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
    models, metric_ids = ("baseline", "reweighing"), ("C0", "C1", "C5", "C12", "D0")
    grid = np.empty((n_datasets, len(models), len(metric_ids), 25))
    for d in range(n_datasets):
        for m in range(len(models)):
            for k, mid in enumerate(metric_ids):
                values = rng.integers(0, 4, 25) / 4 + (mid == "C1") * rng.random(25)
                holes = rng.random(25) < {"C5": 0.3, "C12": 0.9}.get(mid, 0.0)
                if mid == "D0" and d == 0:
                    values[:] = 0.5  # a constant series
                grid[d, m, k] = np.where(holes, np.nan, values)
    return MetricSampleMatrix([f"d{d}" for d in range(n_datasets)], models, metric_ids, grid)


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

def correlation_of(values):
    """A CorrelationMatrix over M0..Mk-1; None becomes NaN (Undefined)."""
    values = np.array(values, dtype=float)
    ids = tuple(f"M{i}" for i in range(len(values)))
    return analysis.CorrelationMatrix(metric_ids=ids, values=values, scope=analysis.POOLED)


class TestDissimilarity:
    def test_values(self):
        d = analysis.dissimilarity_matrix(correlation_of([
            [1.0, 1.0, -0.8, None, float("nan")],
            [1.0, 1.0, 0.0, 0.0, 0.0],
            [-0.8, 0.0, 1.0, 0.0, 0.0],
            [None, 0.0, 0.0, 1.0, 0.0],
            [float("nan"), 0.0, 0.0, 0.0, 1.0],
        ]))
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(0.2)
        assert d[0, 3] == 1.0
        assert d[0, 4] == 1.0
        assert (np.diag(d) == 0.0).all()

    def test_out_of_range_rejected(self):
        for sim in (1.5, -1.5, math.inf):
            with pytest.raises(ValueError, match="similarity must lie in"):
                analysis.dissimilarity_matrix(correlation_of([[1.0, sim], [sim, 1.0]]))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_matches_scalar_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([-1.0 - 1e-9, -1.0, -0.5, 0.0, 0.25, 1.0, 1.0 + 1e-9, np.nan])
        values = np.where(rng.random((k, k)) < 0.5, rng.choice(pool, (k, k)),
                          rng.uniform(-1.0, 1.0, (k, k)))
        values = np.triu(values, 1) + np.triu(values, 1).T
        np.fill_diagonal(values, 1.0)
        want = [[0.0 if i == j else dissimilarity_scalar(sim) for j, sim in enumerate(row)]
                for i, row in enumerate(values.tolist())]
        assert analysis.dissimilarity_matrix(correlation_of(values)).tolist() == want


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

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="must not be negative, got -0.5"):
            analysis.agglomerate([[0, -0.5], [-0.5, 0]], ("A", "B"))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            analysis.agglomerate([[0, np.nan], [np.nan, 0]], ("A", "B"))

    def test_heights_non_decreasing(self):
        for seed in range(20):
            d = symmetric_dissimilarity(7, seed)
            dend = analysis.agglomerate(d, tuple("ABCDEFG"))
            heights = list(dend.heights)
            assert heights == sorted(heights)

    @given(dissimilarity_matrices())
    def test_matches_scan_oracle(self, d):
        labels = tuple(f"L{i}" for i in range(len(d)))
        assert analysis.agglomerate(d, labels) == agglomerate_scan(d, labels)

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

    def test_infinite_height_rejected(self):
        # agglomerate accepts inf entries; the cut cannot place a gap above inf
        dend = analysis.agglomerate([[0, math.inf], [math.inf, 0]], ("A", "B"))
        assert dend.heights == (math.inf,)
        with pytest.raises(ValueError, match="merge heights must be finite"):
            analysis.select_cut(dend)

    @given(dendrograms())
    def test_matches_scan_oracle(self, dend):
        got = analysis.select_cut(dend)
        assert got == select_cut_scan(dend)
        assert all(type(v) is float for v in (got.height, got.gap_low, got.gap_high))

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

    @given(dendrograms(), st.sampled_from(QUARTER_GRID + (-1.0, 0.3, 2.0)))
    def test_matches_union_find_oracle(self, dend, cut):
        assert analysis.extract_clusters(dend, cut) == extract_clusters_union_find(dend, cut)

    @given(dissimilarity_matrices().filter(lambda d: np.isfinite(d).all()))
    def test_sift_matches_oracles(self, d):
        labels = tuple(f"L{i}" for i in range(len(d)))
        dend = analysis.agglomerate(d, labels)
        cut = analysis.select_cut(dend)
        assert analysis.extract_clusters(dend, cut.height) == extract_clusters_union_find(
            agglomerate_scan(d, labels), select_cut_scan(dend).height
        )

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


def sift(values, scope):
    """|rho|, the dendrogram and the partition of a (dataset, model, metric,
    fold) grid's metrics, through the analysis functions in pipeline order."""
    ids = tuple(f"C{k}" for k in range(values.shape[2]))
    samples = MetricSampleMatrix(("d0", "d1", "d2"), ("baseline", "reweighing"), ids, values)
    corr = analysis.correlation_matrix(samples, ids, scope=scope)
    dendrogram = analysis.agglomerate(analysis.dissimilarity_matrix(corr), ids)
    partition = analysis.extract_clusters(dendrogram, analysis.select_cut(dendrogram).height)
    return np.abs(corr.values), dendrogram, partition


def random_grid(seed):
    """A 3 x 2 x 6 x 25 grid: each metric continuous or of four levels (so
    with ties), about 10% of entries Undefined and one (cell, metric)
    series in twenty entirely Undefined."""
    rng = np.random.default_rng(seed)
    shape = (3, 2, 6, 25)
    tied = rng.random((1, 1, 6, 1)) < 0.5
    values = np.where(tied, rng.integers(0, 4, shape) / 4, rng.normal(size=shape))
    values[rng.random(shape) < 0.1] = np.nan
    values[rng.random(shape[:3]) < 0.05] = np.nan
    return values


SCOPES = [analysis.PER_CELL_AVERAGE, analysis.POOLED]


class TestSiftMetamorphicRelations:
    """Relations between the sifts of two grids, which need no oracle: the
    sift sees a metric only through the ranks of its series and |rho|."""

    @pytest.mark.parametrize("scope", SCOPES)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=30)
    def test_negated_metric_sifts_the_same(self, scope, seed, k):
        values = random_grid(seed)
        negated = values.copy()
        negated[:, :, k] *= -1.0
        rho, dendrogram, partition = sift(values, scope)
        rho_negated, dendrogram_negated, partition_negated = sift(negated, scope)
        assert rho_negated.tobytes() == rho.tobytes()
        assert dendrogram_negated == dendrogram
        assert partition_negated == partition

    @pytest.mark.parametrize("scope", SCOPES)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=30)
    def test_increasing_transform_sifts_the_same(self, scope, seed, k):
        values = random_grid(seed)
        transformed = values.copy()
        transformed[:, :, k] = np.exp(values[:, :, k])
        rho, dendrogram, partition = sift(values, scope)
        rho_transformed, dendrogram_transformed, partition_transformed = sift(transformed, scope)
        assert rho_transformed.tobytes() == rho.tobytes()
        assert dendrogram_transformed == dendrogram
        assert partition_transformed == partition

    @pytest.mark.parametrize("scope", SCOPES)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(1, 5))
    @settings(max_examples=30)
    def test_duplicate_merges_with_its_copy_at_zero(self, scope, seed, k, offset):
        values = random_grid(seed)
        copy = (k + offset) % 6
        values[:, :, copy] = values[:, :, k]
        _, dendrogram, partition = sift(values, scope)
        low, high = sorted((k, copy))
        assert analysis.Merge(left=low, right=high, height=0.0, size=2) in dendrogram.merges
        assert any({f"C{k}", f"C{copy}"} <= set(cluster) for cluster in partition)


# ---------------------------------------------------------------------------
# Agreement, sensitivity, movement
# ---------------------------------------------------------------------------

def agreement(labels):
    """Majority label and its share in percent of one row of labels."""
    majority, share, _ = report.label_shares(np.array([labels]))
    return majority[0], share.tolist()[0]


def unfair_share(labels):
    return report.label_shares(np.array([labels]))[2].tolist()[0]


class TestAgreement:
    def test_unanimous(self):
        assert agreement(["Fair"] * 4) == ("Fair", 100.0)

    def test_even_split(self):
        # an even split goes to Fair
        assert agreement(["Fair", "Fair", "Unfair", "Unfair"]) == ("Fair", 50.0)
        assert agreement(["Unfair", "Unfair", "Fair", "Fair"]) == ("Fair", 50.0)

    def test_two_thirds(self):
        majority, got = agreement(["Fair", "Fair", "Unfair"])
        assert (majority, round(got)) == ("Fair", 67)
        assert agreement(["Unfair", "Fair", "Unfair"]) == ("Unfair", got)

    @given(st.lists(st.sampled_from(["Fair", "Unfair"]), min_size=1, max_size=12))
    def test_permutation_invariant(self, labels):
        assert agreement(labels) == agreement(labels[::-1])
        majority, share = agreement(labels)
        assert 50.0 <= share <= 100.0
        # the count arithmetic of the per-list scan it replaced
        assert majority == max(("Fair", "Unfair"), key=labels.count)
        assert share == 100.0 * max(map(labels.count, set(labels))) / len(labels)


class TestUnfairPercentage:
    def test_adult_like(self):
        labels = ["Unfair"] * 15 + ["Fair"] * 11
        assert round(unfair_share(labels)) == 58

    def test_all_fair(self):
        assert unfair_share(["Fair", "Fair"]) == 0.0

    @given(st.lists(st.sampled_from(["Fair", "Unfair"]), min_size=1, max_size=12))
    def test_permutation_invariant(self, labels):
        assert unfair_share(labels) == unfair_share(labels[::-1])
        assert unfair_share(labels) == 100.0 * labels.count("Unfair") / len(labels)

    def test_rows_are_datasets(self):
        labels = np.array([["Unfair", "Fair", "Fair"], ["Unfair", "Unfair", "Fair"]])
        majority, share, unfair = report.label_shares(labels)
        assert majority.tolist() == ["Fair", "Unfair"]
        assert share.tolist() == [100.0 * 2 / 3] * 2
        assert unfair.tolist() == [100.0 / 3, 100.0 * 2 / 3]


def sample_grid(cells):
    """A MetricSampleMatrix from (dataset, model, metric) -> fold values, one
    cell for each combination of the keys' datasets, models and metrics; a
    cell shorter than 25 folds is padded with Undefined (NaN)."""
    axes = [sorted({key[i] for key in cells}) for i in range(3)]
    axes[2].sort(key=metrics.metric_sort_key)
    grid = np.full([len(axis) for axis in axes] + [25], np.nan)
    assert len(cells) == grid[..., 0].size, "every (dataset, model, metric) needs a cell"
    for key, values in cells.items():
        cell = tuple(axis.index(part) for axis, part in zip(axes, key))
        grid[cell][:len(values)] = values
    return MetricSampleMatrix(*axes, grid)


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
        assert report.flagged.shape == (1, 1, 4)
        flagged = dict(zip(report.metric_ids, report.flagged[0, 0].tolist()))
        assert flagged == {"C0": False, "C1": False, "C2": True, "C3": True}

    def test_constant_metric_never_flagged(self):
        cells = {
            ("d", "m", "C0"): [0.5] * 25,
            ("d", "m", "C1"): list(np.linspace(0, 3, 25)),
        }
        report = analysis.sensitivity_table(sample_grid(cells))
        assert not report.flagged[0, 0, report.metric_ids.index("C0")]

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
        assert report.median[0, 0, 0] == pytest.approx(2.5)
        assert report.iqr[0, 0, 0] == pytest.approx(1.5)  # q3=3.25, q1=1.75

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_cell_calls(self, seed):
        samples = holey_samples(seed)
        with pytest.warns(UserWarning):
            report = analysis.sensitivity_table(samples)
        for stat in (report.median, report.iqr, report.flagged):
            assert stat.shape == samples.values.shape[:-1]
        rows = samples.values.reshape(-1, samples.values.shape[-1])
        stats = zip(report.median.ravel().tolist(), report.iqr.ravel().tolist(), rows)
        for median, iqr, row in stats:
            values = row[np.isfinite(row)]
            if not len(values):
                assert math.isnan(median) and math.isnan(iqr)
                continue
            q1, q2, q3 = np.percentile(values, [25, 50, 75])
            assert repr(median) == repr(float(q2))
            assert repr(iqr) == repr(float(q3 - q1))
        # a metric is insensitive iff a minority of its defined cells are flagged
        for k, mid in enumerate(report.metric_ids):
            defined = np.isfinite(report.iqr[..., k])
            flagged = int(report.flagged[..., k][defined].sum())
            want = bool(defined.any()) and 2 * flagged < int(defined.sum())
            assert report.metric_insensitive(mid) == want


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


def movement_oracle(base, mitigated, ideal, epsilon):
    """One metric's verdict by the scalar rule, None for Undefined."""
    if base is None or mitigated is None:
        return "excluded"
    delta = abs(mitigated - ideal) - abs(base - ideal)
    if delta < -epsilon:
        return "UF"
    if delta > epsilon:
        return "FU"
    return "NC"


medians = st.sampled_from([math.nan, 0.0, 0.1, 0.1005, 0.999, 1.0, 1.001]) | st.floats(-3, 3)


class TestMovement:
    def test_three_cases(self):
        out = analysis.movement_counts([0.25, 0.05, 0.1], [0.05, 0.25, 0.1], [0.0] * 3)
        assert out.tolist() == ["UF", "FU", "NC"]

    def test_ratio_ideal(self):
        assert analysis.movement_counts([0.5], [0.9], [1.0]).tolist() == ["UF"]

    def test_epsilon_absorbs_noise(self):
        assert analysis.movement_counts([0.1000], [0.1005], [0.0]).tolist() == ["NC"]

    def test_undefined_excluded(self):
        out = analysis.movement_counts([math.nan, 0.3], [0.1, 0.2], [0.0, 0.0])
        assert out.tolist() == ["excluded", "UF"]

    def test_counts_sum_to_inventory(self):
        base = 0.1 * np.arange(10).reshape(2, 5)
        out = analysis.movement_counts(base, base / 2, np.zeros(5))
        assert out.shape == (2, 5)
        assert set(out.ravel().tolist()) <= {"UF", "FU", "NC", "excluded"}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            analysis.movement_counts(np.zeros((2, 3)), np.zeros(3), np.zeros(3))

    @given(st.data(), st.integers(1, 4), st.integers(1, 6),
           st.sampled_from([0.0, 0.001, 0.05]))
    def test_matches_scalar_oracle(self, data, n_datasets, n_metrics, epsilon):
        grid = st.lists(
            st.lists(medians, min_size=n_metrics, max_size=n_metrics),
            min_size=n_datasets, max_size=n_datasets,
        )
        base, mitigated = np.array(data.draw(grid)), np.array(data.draw(grid))
        ideals = data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                    min_size=n_metrics, max_size=n_metrics))
        out = analysis.movement_counts(base, mitigated, ideals, epsilon=epsilon)
        for d in range(n_datasets):
            for k in range(n_metrics):
                b, m = (None if math.isnan(v) else float(v)
                        for v in (base[d, k], mitigated[d, k]))
                assert out[d, k] == movement_oracle(b, m, ideals[k], epsilon)
