import json
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift import metrics

# ---------------------------------------------------------------------------
# Brute-force oracles: plain-python translations of the definitional sums,
# kept deliberately separate from the vectorized implementations they check.
# ---------------------------------------------------------------------------

def ge_bruteforce(b, alpha):
    n = len(b)
    mu = sum(b) / n
    total = 0.0
    for bi in b:
        total += (bi / mu) ** alpha - 1.0
    return total / (n * alpha * (alpha - 1.0))


def theil_bruteforce(b):
    n = len(b)
    mu = sum(b) / n
    total = 0.0
    for bi in b:
        r = bi / mu
        if r > 0:
            total += r * math.log(r)
    return total / n


def entropy(b, alpha=2.0):
    """metrics.entropy_indices of a per-row list, through its value counts."""
    counts = Counter(float(v) for v in b)
    return metrics.entropy_indices(list(counts), list(counts.values()), alpha)


def consistency_dense(X, y, k=5, gram=None):
    """kNN consistency on the whole n x n distance matrix at once.

    The pre-blocking implementation, kept as the reference for the blocked
    ``metrics.consistency``: same distance expression, same k-th-distance
    threshold, same smallest-row-index rule.  ``gram`` replaces ``X @ X.T``,
    so both can be fed the same products and must then agree bit for bit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sq = (X * X).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T if gram is None else gram)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, np.inf)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    counts = (d <= kth[:, None]).sum(axis=1)
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    neighbor_mean = y[idx].sum(axis=1) / k
    for i in np.flatnonzero(counts != k):
        row = d[i]
        strict = row < kth[i]
        m = int(strict.sum())
        tied = np.flatnonzero(row == kth[i])[: k - m]
        neighbor_mean[i] = (y[strict].sum() + y[tied].sum()) / k
    return float(1.0 - np.abs(y - neighbor_mean).mean())


def consistency_exact(grid, y, k):
    """kNN consistency on integer grid points, by sorting every row's other
    points by (exact squared distance, row index)."""
    n = len(grid)
    neighbor_mean = []
    for i in range(n):
        order = sorted(
            (sum((a - b) ** 2 for a, b in zip(grid[i], grid[j])), j)
            for j in range(n)
            if j != i
        )
        neighbor_mean.append(sum(y[j] for _, j in order[:k]) / k)
    y = np.asarray(y, dtype=float)
    return float(1.0 - np.abs(y - np.array(neighbor_mean)).mean())


def integer_fold(rng, n):
    """Min-max scaled integer columns, German-Credit style: many exact ties
    whose scaled values are not dyadic."""
    cols = [
        rng.integers(19, 76, n) // 10,  # age band
        rng.integers(1, 5, n),  # installment rate
        rng.integers(0, 4, n),  # label-encoded category
    ]
    X = np.column_stack(cols).astype(float)
    lo, hi = X.min(axis=0), X.max(axis=0)
    return (X - lo) / np.where(hi > lo, hi - lo, 1.0)


def cells(tp, fp, fn, tn):
    """One group's 2x2 counts, indexed [label][prediction]."""
    return [[tn, fp], [fn, tp]]


benefit_vectors = st.lists(
    st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=6
).filter(lambda b: sum(b) > 0)


class TestRates:
    def test_worked_example(self):
        r = metrics.confusion_rates(cells(tp=40, fp=10, fn=20, tn=30))
        assert r.tpr == pytest.approx(2 / 3)
        assert r.fpr == pytest.approx(0.25)
        assert r.fnr == pytest.approx(1 / 3)
        assert r.false_omission_rate == pytest.approx(0.4)
        assert r.fdr == pytest.approx(0.2)
        assert r.err == pytest.approx(0.3)
        assert r.selection_rate == pytest.approx(0.5)

    def test_zero_denominator_undefined(self):
        r = metrics.confusion_rates(cells(tp=0, fp=0, fn=5, tn=5))
        assert r.fdr is None
        assert r.fnr == 1.0

    def test_perfect_prediction(self):
        r = metrics.confusion_rates(cells(tp=6, fp=0, fn=0, tn=4))
        assert r.fpr == 0.0 and r.fnr == 0.0 and r.err == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion_rates(cells(tp=-1, fp=0, fn=0, tn=0))

    @given(st.tuples(*[st.integers(min_value=0, max_value=30)] * 4))
    def test_complementary_rates(self, counts):
        tp, fp, fn, tn = counts
        r = metrics.confusion_rates(cells(tp, fp, fn, tn))
        if r.tpr is not None:
            assert r.tpr + r.fnr == pytest.approx(1.0, abs=1e-12)
        if r.fpr is not None:
            assert r.fpr + tn / (fp + tn) == pytest.approx(1.0, abs=1e-12)


def rates(tpr=0.5, fpr=0.5, sel=0.5, fnr=None, fom=0.5, fdr=0.5, err=0.5):
    return metrics.RateSet(
        tpr=tpr,
        fpr=fpr,
        fnr=None if tpr is None else (1 - tpr if fnr is None else fnr),
        fdr=fdr,
        false_omission_rate=fom,
        err=err,
        selection_rate=sel,
    )


class TestDisparity:
    def test_difference_order(self):
        assert metrics.disparity(
            "TPR", "difference", rates(tpr=0.6), rates(tpr=0.8)
        ) == pytest.approx(-0.2)

    def test_ratio(self):
        assert metrics.disparity(
            "FPR", "ratio", rates(fpr=0.1), rates(fpr=0.2)
        ) == pytest.approx(0.5)

    def test_zero_denominator_ratio_undefined(self):
        assert metrics.disparity("FOR", "ratio", rates(fom=0.3), rates(fom=0.0)) is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metrics.disparity("PPV", "difference", rates(), rates())

    def test_undefined_propagates(self):
        assert metrics.disparity("TPR", "difference", rates(tpr=None), rates()) is None


class TestAverageOdds:
    def test_hand_computed(self):
        # deltas: TPR -0.273, FPR -0.186
        u = rates(tpr=0.427, fpr=0.214)
        p = rates(tpr=0.700, fpr=0.400)
        assert metrics.average_odds(u, p) == pytest.approx(-0.2295)
        assert metrics.average_odds(u, p, absolute=True) == pytest.approx(0.2295)

    def test_cancellation_vs_absolute(self):
        u = rates(tpr=0.7, fpr=0.3)
        p = rates(tpr=0.5, fpr=0.5)  # deltas +0.2 / -0.2
        assert metrics.average_odds(u, p) == pytest.approx(0.0)
        assert metrics.average_odds(u, p, absolute=True) == pytest.approx(0.2)

    def test_equal_rates_zero(self):
        u = p = rates(tpr=0.4, fpr=0.1)
        assert metrics.average_odds(u, p) == 0.0
        assert metrics.average_odds(u, p, absolute=True) == 0.0


class TestStatisticalParity:
    def test_difference_and_ratio(self):
        assert metrics.statistical_parity(0.3, 0.5, "difference") == pytest.approx(-0.2)
        assert metrics.statistical_parity(0.3, 0.5, "ratio") == pytest.approx(0.6)

    def test_identity_case(self):
        assert metrics.statistical_parity(0.4, 0.4, "difference") == 0.0
        assert metrics.statistical_parity(0.4, 0.4, "ratio") == 1.0

    def test_zero_denominator(self):
        assert metrics.statistical_parity(0.0, 0.0, "ratio") is None


class TestBenefit:
    """b = yhat - y + 1 per row, seen through C16/C19 on one group."""

    @staticmethod
    def single_group(y_true, y_pred):
        return metrics.compute_classification_metrics(
            y_true, y_pred, [1] * len(y_true)
        )

    def test_elementwise(self):
        out = self.single_group([1, 0], [0, 1])  # b = [0, 2]
        assert out["C16"] == pytest.approx(ge_bruteforce([0, 2], 2.0), abs=1e-12)
        assert out["C19"] == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction(self):
        out = self.single_group([1, 0, 1], [1, 0, 1])  # b = [1, 1, 1]
        assert out["C16"] == out["C19"] == out["C20"] == 0.0

    def test_third_example(self):
        out = self.single_group([0, 0, 1], [1, 0, 1])  # b = [2, 1, 1]
        assert out["C16"] == pytest.approx(ge_bruteforce([2, 1, 1], 2.0), abs=1e-12)
        assert out["C19"] == pytest.approx(theil_bruteforce([2, 1, 1]), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.compute_classification_metrics([], [], [])


class TestEntropyFamily:
    def test_equal_benefits_zero(self):
        assert entropy([1, 1, 1, 1], alpha=2)[0] == 0.0
        assert entropy([2, 2])[1] == pytest.approx(0.0)
        assert entropy([1, 1])[2] == 0.0

    def test_worked_values(self):
        ge, theil, cov = entropy([2, 0], alpha=2)
        assert ge == pytest.approx(0.5)
        assert theil == pytest.approx(math.log(2))
        assert cov == pytest.approx(math.sqrt(2))

    def test_theil_three_elements(self):
        # oracle: (1/3)[1.5*ln(1.5) + 2*0.75*ln(0.75)] with mu = 4/3
        assert entropy([2, 1, 1])[1] == pytest.approx(
            theil_bruteforce([2, 1, 1]), abs=1e-12
        )
        assert entropy([2, 1, 1])[1] == pytest.approx(0.0588915178, abs=1e-9)

    @given(benefit_vectors)
    def test_ge2_matches_bruteforce(self, b):
        assert entropy(b, alpha=2)[0] == pytest.approx(
            ge_bruteforce(b, 2.0), abs=1e-12
        )

    @given(benefit_vectors)
    def test_theil_matches_bruteforce(self, b):
        assert entropy(b)[1] == pytest.approx(theil_bruteforce(b), abs=1e-12)

    @given(benefit_vectors, st.sampled_from([0.5, 3.0]))
    def test_scale_invariance(self, b, c):
        scaled = [c * bi for bi in b]
        assert entropy(scaled, alpha=2)[0] == pytest.approx(
            entropy(b, alpha=2)[0], abs=1e-12
        )
        assert entropy(scaled)[1] == pytest.approx(entropy(b)[1], abs=1e-12)

    def test_alpha_one_is_theil(self):
        ge, theil, _ = entropy([2, 1, 0, 1], alpha=1)
        assert ge == theil

    def test_zero_mean_undefined(self):
        assert entropy([0, 0], alpha=2) == (None, None, None)
        assert entropy([0.0]) == (None, None, None)

    def test_cov_monotone_in_ge(self):
        lo = entropy([1, 1, 1, 2])[2]
        hi = entropy([2, 0, 2, 0])[2]
        assert hi > lo

    def test_zero_benefit_at_nonpositive_alpha_is_infinite(self):
        # the mean log deviation (alpha 0) and alpha < 0 diverge on a zero
        assert entropy([2, 0], alpha=0)[0] == math.inf
        assert entropy([2, 0], alpha=-1)[0] == math.inf
        assert entropy([2, 1], alpha=0)[0] == pytest.approx(
            -(math.log(4 / 3) + math.log(2 / 3)) / 2, abs=1e-12
        )


class TestBetweenGroup:
    """C18/C21/C22: every row's benefit replaced by its group's mean."""

    def test_equal_group_means(self):
        # b = [2, 0, 1, 1]: group means 1 and 1
        out = metrics.compute_classification_metrics(
            [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]
        )
        assert out["C18"] == out["C21"] == out["C22"] == 0.0

    def test_distinct_group_means(self):
        # b = [2, 2, 0, 0]: group means 2 and 0
        out = metrics.compute_classification_metrics(
            [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]
        )
        assert out["C18"] == pytest.approx(0.5)
        assert out["C21"] == pytest.approx(math.log(2))

    def test_single_group_zero(self):
        # one group: its mean benefit 1 on all 3 rows
        assert metrics.entropy_indices([1.0], [3]) == (0.0, 0.0, 0.0)

    def test_scopes_coincide_for_binary_attribute(self):
        # b = [2, 1, 0, 1, 2]
        out = metrics.compute_classification_metrics(
            [0, 1, 1, 0, 0], [1, 1, 0, 0, 1], [1, 0, 1, 0, 1]
        )
        assert out["C17"] == out["C18"]
        assert out["C23"] == out["C21"]
        assert out["C24"] == out["C22"]


class TestSmoothedEdf:
    def test_worked_example(self):
        # groups (5 of 10) and (2 of 10), concentration 1:
        # smoothed rates 0.5 and 2.5/11; edf = ln(2.2)
        got = metrics.smoothed_edf([5, 2], [10, 10], concentration=1.0)
        assert got == pytest.approx(0.7884573603642702, abs=1e-12)

    def test_identical_groups_zero(self):
        assert metrics.smoothed_edf([3, 3], [8, 8]) == 0.0

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(1, 20)), min_size=2, max_size=5)
        .map(lambda ps: [(min(p, t), t) for p, t in ps])
    )
    def test_permutation_invariant_and_nonnegative(self, pairs):
        pos = [p for p, _ in pairs]
        tot = [t for _, t in pairs]
        v = metrics.smoothed_edf(pos, tot)
        assert v >= 0
        assert metrics.smoothed_edf(pos[::-1], tot[::-1]) == pytest.approx(v, abs=1e-12)

    def test_single_group_undefined(self):
        assert metrics.smoothed_edf([3], [5]) is None

    def test_zero_iff_equal_smoothed_rates(self):
        assert metrics.smoothed_edf([4, 2], [8, 4]) == pytest.approx(0.0)
        assert metrics.smoothed_edf([4, 2], [8, 5]) > 0


class TestBiasAmplification:
    def test_identity(self):
        assert metrics.bias_amplification(0.4, 0.4) == 0.0

    def test_difference(self):
        assert metrics.bias_amplification(0.9, 0.6) == pytest.approx(0.3)

    def test_undefined_propagates(self):
        assert metrics.bias_amplification(None, 0.2) is None


class TestConsistency:
    def test_uniform_labels(self):
        X = np.random.default_rng(0).random((10, 2))
        assert metrics.consistency(X, np.ones(10), k=3) == 1.0

    def test_two_point_disagreement(self):
        assert metrics.consistency([[0.0], [1.0]], [1, 0], k=1) == 0.0

    def test_three_points_agree(self):
        assert metrics.consistency([[0.0], [0.1], [1.0]], [1, 1, 1], k=2) == 1.0

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            metrics.consistency([[0.0], [1.0]], [1, 0], k=2)
        with pytest.raises(ValueError):
            metrics.consistency([[0.0], [1.0]], [1, 0], k=0)

    def test_tie_break_by_row_index(self):
        # rows 1 and 2 are duplicates equidistant from row 0; k=1 must pick row 1
        X = [[0.0], [1.0], [1.0]]
        y = [0, 1, 0]
        # neighbor of row 0 is row 1 (label 1) -> |0-1| = 1
        # neighbor of row 1 is row 2 (distance 0), of row 2 is row 1
        got = metrics.consistency(X, y, k=1)
        assert got == pytest.approx(1.0 - (1 + 1 + 1) / 3)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        X = rng.random((n, 3))
        y = rng.integers(0, 2, n)
        v = metrics.consistency(X, y, k=5)
        assert 0.0 <= v <= 1.0

    @given(st.integers(min_value=0, max_value=2**31))
    def test_duplicate_point_never_decreases_k1(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        X = rng.random((n, 2))
        y = rng.integers(0, 2, n)
        base = metrics.consistency(X, y, k=1)
        X2 = np.vstack([X, X[0]])
        y2 = np.append(y, y[0])
        assert metrics.consistency(X2, y2, k=1) >= base - 1e-12


class TestBlockedConsistency:
    # (rows, element budget): one block, two blocks and many blocks; row
    # counts that are not a multiple of the block size, n = k + 1, and a
    # remainder of one row, which joins the block before it.
    BLOCKINGS = [
        (6, 2**18),  # n = k + 1, one block
        (6, 18),  # n = k + 1, blocks of 3 rows
        (40, 40 * 20),  # two blocks of 20
        (41, 41 * 20),  # 20 + 21 rows
        (97, 97 * 10),  # nine blocks of 10, then 7
        (51, 51 * 5),  # ten blocks of 5, the last one 6
        (50, 1),  # the smallest block: 2 rows
        (300, 2**18),  # one block
    ]

    @pytest.mark.parametrize("n,budget", BLOCKINGS)
    def test_row_blocks_cover_rows_in_order(self, n, budget, monkeypatch):
        monkeypatch.setattr(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget)
        blocks = list(metrics._row_blocks(n))
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        step = max(2, budget // n)
        assert all(2 <= stop - start <= step + 1 for start, stop in blocks)

    @pytest.mark.parametrize("n,budget", BLOCKINGS)
    def test_real_folds_equal_dense_oracle(self, n, budget, monkeypatch):
        monkeypatch.setattr(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(n * 1000 + budget % 1000)
        for _ in range(5):
            X = rng.random((n, 4))
            y = rng.integers(0, 2, n)
            for k in (1, 5):
                assert metrics.consistency(X, y, k=k) == consistency_dense(X, y, k)

    @pytest.mark.parametrize("n,budget", BLOCKINGS)
    def test_integer_folds_equal_dense_oracle(self, n, budget, monkeypatch):
        # A block's product can differ in the last bit from the same rows of
        # the whole X @ X.T, depending on n and the BLAS build, and on tied
        # data that can move a tie across the k-th distance.  The oracle is
        # therefore fed the kernel's own block products: this checks the
        # blocking, the threshold and the tie rule, not the BLAS rounding.
        monkeypatch.setattr(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(n * 1000 + budget % 1000)
        for _ in range(5):
            X = integer_fold(rng, n)
            y = rng.integers(0, 2, n)
            gram = np.vstack([X[a:b] @ X.T for a, b in metrics._row_blocks(n)])
            for k in (1, 5):
                assert metrics.consistency(X, y, k=k) == consistency_dense(
                    X, y, k, gram
                )

    def test_one_block_is_the_whole_product(self):
        # Below the budget the one block is X itself, so the product is
        # X @ X.T and the result is the dense one whatever the BLAS.
        rng = np.random.default_rng(3)
        for n in (6, 97, 300, 511):
            X = integer_fold(rng, n)
            y = rng.integers(0, 2, n)
            assert metrics.consistency(X, y) == consistency_dense(X, y)

    @pytest.mark.parametrize("n", [40, 300])
    def test_integer_folds_have_boundary_ties(self, n):
        # The oracle comparison above is only as strong as its tie share.
        X = integer_fold(np.random.default_rng(n), n)
        d = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        part = np.partition(d, (4, 5), axis=1)
        assert (part[:, 4] == part[:, 5]).mean() > 0.2

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 8), min_size=dim, max_size=dim),
                min_size=2,
                max_size=24,
            )
        ),
        st.data(),
    )
    def test_dyadic_grid_matches_exact_oracle(self, grid, data):
        # Multiples of 1/8 keep |a|^2 + |b|^2 - 2ab exact, so every tie is
        # a true tie and the smallest-row-index rule decides alone.
        n = len(grid)
        k = data.draw(st.integers(1, n - 1))
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        budget = data.draw(st.sampled_from([1, 3 * n, 2**18]))
        X = np.array(grid, dtype=float) / 8.0
        with mock.patch.object(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget):
            got = metrics.consistency(X, y, k=k)
        assert got == consistency_exact(grid, y, k)

    def test_memory_linear_in_rows(self):
        # The n x n version peaks near 384 MB here.
        rng = np.random.default_rng(5)
        X = integer_fold(rng, 4000)
        y = rng.integers(0, 2, 4000)
        tracemalloc.start()
        try:
            metrics.consistency(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def random_instance(rng, n_lo=6, n_hi=40):
    n = int(rng.integers(n_lo, n_hi))
    y_true = rng.integers(0, 2, n)
    y_pred = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    s[0], s[1] = 0, 1  # both groups present
    return y_true, y_pred, s


class TestFullClassificationSet:
    def test_complete_inventory(self, rng):
        y_true, y_pred, s = random_instance(rng)
        out = metrics.compute_classification_metrics(y_true, y_pred, s)
        assert sorted(out) == sorted(metrics.CLASSIFICATION_IDS)

    def test_identities(self, rng):
        for _ in range(200):
            y_true, y_pred, s = random_instance(rng)
            out = metrics.compute_classification_metrics(y_true, y_pred, s)
            if out["C0"] is not None:
                assert out["C2"] == pytest.approx(-out["C0"], abs=1e-12)
            if out["C9"] is not None:
                assert out["C10"] >= abs(out["C9"]) - 1e-12
            if out["C16"] is not None:
                assert out["C20"] == pytest.approx(
                    2 * math.sqrt(out["C16"]), abs=1e-12
                )

    def test_perfect_balanced_predictions_all_ideal(self):
        y = [1, 0, 1, 0]
        s = [1, 1, 0, 0]  # both groups have base rate 1/2
        out = metrics.compute_classification_metrics(y, y, s)
        for mid in ("C0", "C1", "C2", "C9", "C10", "C11", "C15"):
            assert out[mid] == 0.0
        assert out["C14"] == pytest.approx(1.0)
        assert out["C16"] == 0.0 and out["C19"] == 0.0 and out["C20"] == 0.0
        # perfect predictions leave the error-rate ratios 0/0, hence undefined
        assert out["C5"] is None and out["C12"] is None

    def test_equal_groups_all_ideal(self):
        # mirrored halves: rates identical per group
        y_true = [1, 0, 1, 0, 1, 0, 1, 0]
        y_pred = [1, 1, 0, 0, 1, 1, 0, 0]
        s = [1, 1, 1, 1, 0, 0, 0, 0]
        out = metrics.compute_classification_metrics(y_true, y_pred, s)
        for mid in ("C0", "C1", "C2", "C3", "C4", "C9", "C10", "C11", "C15"):
            assert out[mid] == pytest.approx(0.0, abs=1e-12)
        for mid in ("C5", "C6", "C7", "C8", "C12", "C14"):
            assert out[mid] == pytest.approx(1.0, abs=1e-12)

    def test_single_group_inputs(self):
        out = metrics.compute_classification_metrics(
            [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]
        )
        assert out["C0"] is None and out["C15"] is None and out["C17"] is None
        assert out["C13"] == 0.5
        assert out["C16"] is not None and out["C19"] is not None and out["C20"] is not None

    def test_biased_directions(self):
        # unprivileged group predicted favorable less often and with lower TPR
        y_true = [1, 1, 1, 0, 0, 0] + [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 1, 1, 0, 0] + [1, 0, 0, 0, 0, 0]
        s = [1] * 6 + [0] * 6
        out = metrics.compute_classification_metrics(y_true, y_pred, s)
        assert out["C0"] < 0  # TPR gap disfavors unprivileged
        assert out["C9"] < 0
        assert out["C15"] < 0
        assert out["C14"] < 1

    def test_between_group_ids_coincide(self, rng):
        y_true, y_pred, s = random_instance(rng)
        out = metrics.compute_classification_metrics(y_true, y_pred, s)
        assert out["C17"] == out["C18"]
        assert out["C21"] == out["C23"]
        assert out["C22"] == out["C24"]


rows_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=60,
)


class TestCountCore:
    """Every C metric is a function of the count tensor c[group, label, pred]."""

    @given(rows_strategy, st.data())
    def test_row_order_invariant(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        assert metrics.compute_classification_metrics(
            *zip(*rows)
        ) == metrics.compute_classification_metrics(*zip(*shuffled))

    @given(rows_strategy, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_entropy_family_matches_per_row_oracle(self, rows, alpha):
        y_true, y_pred, s = zip(*rows)
        out = metrics.compute_classification_metrics(y_true, y_pred, s, alpha=alpha)
        b = [p - y + 1.0 for y, p, _ in rows]
        means = {g: np.mean([bi for bi, si in zip(b, s) if si == g]) for g in set(s)}
        per_row_means = [means[g] for g in s]

        def oracle(values):
            # The CV slot holds GE(2): CV = 2*sqrt(GE(2)) is checked through
            # (CV/2)**2, since the square root turns the oracle's ~1e-16
            # rounding on equal benefits into ~1e-8 while the count path
            # returns an exact 0.
            if sum(values) == 0:
                return None, None, None
            ge = theil_bruteforce(values) if alpha == 1 else ge_bruteforce(values, alpha)
            ge2 = max(ge_bruteforce(values, 2.0), 0.0)
            return ge, theil_bruteforce(values), ge2

        expected = dict(zip(("C16", "C19", "C20"), oracle(b)))
        between = oracle(per_row_means) if len(means) == 2 else (None, None, None)
        expected.update(zip(("C18", "C21", "C22"), between))
        for mid, want in expected.items():
            got = out[mid]
            if want is None:
                assert got is None, mid
                continue
            if mid in ("C20", "C22"):
                got = (got / 2) ** 2
            assert got == pytest.approx(want, abs=1e-12), mid


class TestDatasetMetrics:
    def test_inventory_and_formula_match(self, rng):
        n = 30
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        s[0], s[1] = 0, 1
        y[0], y[1] = 0, 1
        X = rng.random((n, 3))
        out = metrics.compute_dataset_metrics(y, s, X)
        assert sorted(out) == sorted(metrics.DATASET_IDS)
        # D2/D3 are the statistical-parity formulas applied to true labels
        sel_u = y[s == 0].mean()
        sel_p = y[s == 1].mean()
        assert out["D2"] == pytest.approx(sel_u - sel_p, abs=1e-12)
        assert out["D3"] == pytest.approx(sel_u / sel_p, abs=1e-12)

    def test_balanced_labels_zero_difference(self):
        y = [1, 0, 1, 0]
        s = [1, 1, 0, 0]
        out = metrics.compute_dataset_metrics(y, s, np.eye(4), k=1)
        assert out["D2"] == pytest.approx(0.0)
        assert out["D3"] == pytest.approx(1.0)

    def test_weights_flow_into_rates(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([1, 1, 0, 0])
        # upweight unprivileged favorable row
        out = metrics.compute_dataset_metrics(
            y, s, np.eye(4), weights=[1, 1, 3, 1], k=1
        )
        assert out["D2"] == pytest.approx(0.75 - 0.5)

    def test_single_group(self):
        out = metrics.compute_dataset_metrics([1, 0, 1], [1, 1, 1], np.eye(3), k=1)
        assert out["D1"] is None and out["D2"] is None and out["D3"] is None
        assert out["D0"] is not None


class TestLabelFair:
    def test_examples(self):
        assert metrics.label_fair(0.05, 0) == "Fair"
        assert metrics.label_fair(1.25, 1) == "Unfair"
        assert metrics.label_fair(-0.1, 0) == "Fair"  # boundary inclusive
        assert metrics.label_fair(0.8, 1) == "Fair"
        assert metrics.label_fair(1.2, 1) == "Fair"

    def test_undefined_is_unfair(self):
        assert metrics.label_fair(None, 0) == "Unfair"
        assert metrics.label_fair(float("nan"), 1) == "Unfair"
        assert metrics.label_fair(float("inf"), 1) == "Unfair"

    @given(
        st.sampled_from([0.0, 1.0]),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_toward_ideal(self, ideal, value, shrink):
        closer = ideal + (value - ideal) * shrink
        if metrics.label_fair(value, ideal) == "Fair":
            assert metrics.label_fair(closer, ideal) == "Fair"


class TestCatalog:
    def test_ids_and_ideals_pinned(self):
        expected_ideals = {
            **{f"C{i}": 0.0 for i in range(26)},
            "C5": 1.0, "C6": 1.0, "C7": 1.0, "C8": 1.0, "C12": 1.0, "C14": 1.0,
            "D0": 1.0, "D1": 0.0, "D2": 0.0, "D3": 1.0,
        }
        assert len(metrics.ALL_METRICS) == 30
        for m in metrics.ALL_METRICS:
            assert expected_ideals[m.id] == m.ideal

    def test_names_pinned(self):
        cat = metrics.METRIC_CATALOG
        assert cat["C0"].name == "true_positive_rate_difference"
        assert cat["C10"].name == "average_abs_odds_difference"
        assert cat["C13"].name == "selection_rate"
        assert cat["C16"].name == "generalized_entropy_index"
        assert cat["C25"].name == "differential_fairness_bias_amplification"
        assert cat["D0"].name == "consistency"
        assert cat["D1"].name == "smoothed_empirical_differential_fairness"
        assert cat["D2"].name == "mean_difference"
        assert cat["D3"].name == "disparate_impact"
        assert cat["C14"].name == cat["D3"].name

    def test_catalog_json_parses(self):
        entries = json.loads(metrics.catalog_json())
        assert len(entries) == 30
        assert {e["kind"] for e in entries} == {"classification", "dataset"}
