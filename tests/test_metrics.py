import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairsift import metrics
from fairsift.datamodel import apply_minmax, fit_minmax
from fairsift.harness import make_cv_plan
from fairsift.models import reweigh

from conftest import german_style

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


def block_gram(X):
    """``X @ X.T`` as the float kernel forms it, one row block at a time."""
    return np.vstack([X[a:b] @ X.T for a, b in metrics._row_blocks(len(X))])


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


def integer_bounds(rows, fit):
    """(mins, maxs) of the ``fit`` rows of integer ``rows``, as int lists."""
    cols = list(zip(*(row for row, f in zip(rows, fit) if f)))
    return [min(col) for col in cols], [max(col) for col in cols]


def consistency_rational(rows, y, k, mask, bounds):
    """D0 of the mask's rows of integer ``rows``, min-max scaled in Fraction
    arithmetic by ``bounds``, integer (mins, maxs), through
    ``consistency_exact``'s (squared distance, row index) sort."""
    points = [
        [Fraction(v - lo, hi - lo) if hi > lo else Fraction(0) for v, lo, hi in zip(row, *bounds)]
        for row, m in zip(rows, mask) if m
    ]
    return consistency_exact(points, [v for v, m in zip(y, mask) if m], k)


def d0_of(y, nearest):
    """The D0 expression over each row's k neighbour indices."""
    return 1.0 - np.abs(y - y[nearest].sum(axis=1) / nearest.shape[1]).mean()


def as_given(X, y, k=5):
    """D0 of all rows of X as given: one all-rows mask under unit bounds,
    with X's neighbour list, which serves the mask when X's spans are 1."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    return float(metrics.consistency(
        X, y, k, np.ones((1, n), dtype=bool), [(np.zeros(p), np.ones(p))],
        metrics.neighbour_list(X, k),
    )[0])


def consistency_int64(X, y, k=5, fit=None):
    """D0 of integer rows X, min-max scaled by the bounds of ``fit`` (default
    X), by direct int64 differences: squared distances times lcm(span**2),
    each row's others ordered by a stable argsort, so by (distance, index)."""
    X = np.asarray(X).astype(np.int64)
    fit = X if fit is None else np.asarray(fit).astype(np.int64)
    squares = [int(s) ** 2 for s in fit.max(axis=0) - fit.min(axis=0)]
    lcm = math.lcm(*(q for q in squares if q))
    weights = np.array([lcm // q if q else 0 for q in squares], dtype=np.int64)
    y = np.asarray(y, dtype=float)
    n = len(X)
    neighbor_mean = np.empty(n)
    for start in range(0, n, 100):
        block = X[start : start + 100]
        d = (((block[:, None, :] - X[None, :, :]) ** 2) * weights).sum(axis=2)
        d[np.arange(len(block)), np.arange(start, start + len(block))] = np.iinfo(np.int64).max
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        neighbor_mean[start : start + len(block)] = y[nearest].sum(axis=1) / k
    return float(1.0 - np.abs(y - neighbor_mean).mean())


@st.composite
def integer_folds(draw):
    """Integer rows of few levels (duplicates, ties, constant columns), their
    labels, k, 1-4 masks of more than k rows (random subsets, often with
    narrower spans than all rows), and per mask the rows whose bounds scale
    it: -1 for all rows, else a mask's index (its own or another's)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 16))
    row = st.lists(st.integers(-2, 5), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n - 1))
    masks = []
    for _ in range(draw(st.integers(1, 4))):
        keep = set(draw(st.permutations(range(n)))[: draw(st.integers(k + 1, n))])
        masks.append([i in keep for i in range(n)])
    sources = [draw(st.sampled_from([-1, i, draw(st.integers(0, len(masks) - 1))]))
               for i in range(len(masks))]
    return rows, y, k, masks, sources


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


def smoothed_edf_loop(pos, tot, concentration=1.0):
    """Smoothed EDF of one set of groups by a loop over group pairs."""
    rates = (np.asarray(pos, float) + concentration / 2.0) / (
        np.asarray(tot, float) + concentration
    )
    log_r, log_c = np.log(rates), np.log(1.0 - rates)
    worst = 0.0
    for g in range(len(rates)):
        for h in range(g + 1, len(rates)):
            worst = max(worst, abs(log_r[g] - log_r[h]), abs(log_c[g] - log_c[h]))
    return worst


def _div(num, den):
    return None if den == 0 else num / den


def classification_oracle(counts, alpha=2.0, concentration=1.0):
    """The 26 metrics of one (2, 2, 2) count tensor, scalar by scalar.

    This is the per-fold ``compute_classification_metrics`` the batch one
    replaced: per-group rates with None for 0/0, then one difference, ratio
    or average per metric, None propagating.  A tensor whose counts total 0
    is Undefined everywhere.
    """
    c = np.asarray(counts).tolist()
    out = {m: None for m in metrics.CLASSIFICATION_IDS}
    benefit = [(g[1][0], g[1][1] + g[0][0], g[0][1]) for g in c]
    sizes = [sum(counts) for counts in benefit]
    if sum(sizes) == 0:
        return out
    pred_pos = [g[0][1] + g[1][1] for g in c]
    true_pos = [g[1][0] + g[1][1] for g in c]
    out["C13"] = sum(pred_pos) / sum(sizes)
    out["C16"], out["C19"], out["C20"] = metrics.entropy_indices(
        metrics.BENEFITS, [u + p for u, p in zip(*benefit)], alpha
    )
    if min(sizes) == 0:
        return out

    def rates(group):
        (tn, fp), (fn, tp) = group
        n = tp + fp + fn + tn
        return {
            "TPR": _div(tp, tp + fn), "FPR": _div(fp, fp + tn),
            "FNR": _div(fn, tp + fn), "FDR": _div(fp, tp + fp),
            "FOR": _div(fn, tn + fn), "ERR": _div(fp + fn, n),
            "SEL": _div(tp + fp, n),
        }

    ru, rp = rates(c[0]), rates(c[1])

    def difference(kind):
        u, p = ru[kind], rp[kind]
        return None if u is None or p is None else u - p

    def ratio(kind):
        u, p = ru[kind], rp[kind]
        return None if u is None or p is None or p == 0 else u / p

    for mid, kind in (("C0", "TPR"), ("C1", "FPR"), ("C2", "FNR"), ("C3", "FOR"),
                      ("C4", "FDR"), ("C11", "ERR"), ("C15", "SEL")):
        out[mid] = difference(kind)
    for mid, kind in (("C5", "FPR"), ("C6", "FNR"), ("C7", "FOR"), ("C8", "FDR"),
                      ("C12", "ERR"), ("C14", "SEL")):
        out[mid] = ratio(kind)
    d_tpr, d_fpr = difference("TPR"), difference("FPR")
    if d_tpr is not None and d_fpr is not None:
        out["C9"] = 0.5 * (d_fpr + d_tpr)
        out["C10"] = 0.5 * (abs(d_fpr) + abs(d_tpr))
    means = [
        sum(b * k for b, k in zip(metrics.BENEFITS, counts)) / size
        for counts, size in zip(benefit, sizes)
    ]
    out["C18"], out["C21"], out["C22"] = metrics.entropy_indices(means, sizes, alpha)
    out["C17"], out["C23"], out["C24"] = out["C18"], out["C21"], out["C22"]
    out["C25"] = smoothed_edf_loop(pred_pos, sizes, concentration) - smoothed_edf_loop(
        true_pos, sizes, concentration
    )
    return out


def classification(y_true, y_pred, s, **kwargs):
    """``compute_classification_metrics`` of one prediction set, as an id ->
    value dict with None for Undefined."""
    row = metrics.compute_classification_metrics(
        metrics.confusion_counts(y_true, y_pred, s), **kwargs
    )
    return {
        mid: None if math.isnan(v) else v
        for mid, v in zip(metrics.CLASSIFICATION_IDS, row.tolist())
    }


def tensor(unpriv, priv):
    """The count tensor of two groups given as ``cells`` lists."""
    return np.array([unpriv, priv], dtype=np.int64)


def metric(counts, metric_id):
    """One metric of one count tensor; None for Undefined."""
    v = float(metrics.compute_classification_metrics(counts)[
        metrics.CLASSIFICATION_IDS.index(metric_id)])
    return None if math.isnan(v) else v


# every rate of this group is 1/2
REFERENCE = cells(tp=1, fp=1, fn=1, tn=1)


def group_rates(tp, fp, fn, tn):
    """One group's rates, read back from its differences (C0-C4, C11, C15)
    against the REFERENCE group; None where the rate is 0/0."""
    counts = tensor(cells(tp, fp, fn, tn), REFERENCE)
    kinds = (("tpr", "C0"), ("fpr", "C1"), ("fnr", "C2"), ("false_omission_rate", "C3"),
             ("fdr", "C4"), ("err", "C11"), ("selection_rate", "C15"))
    out = {}
    for kind, mid in kinds:
        d = metric(counts, mid)
        out[kind] = None if d is None else d + 0.5
    return out


benefit_vectors = st.lists(
    st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=6
).filter(lambda b: sum(b) > 0)


class TestRates:
    def test_worked_example(self):
        r = group_rates(tp=40, fp=10, fn=20, tn=30)
        assert r["tpr"] == pytest.approx(2 / 3)
        assert r["fpr"] == pytest.approx(0.25)
        assert r["fnr"] == pytest.approx(1 / 3)
        assert r["false_omission_rate"] == pytest.approx(0.4)
        assert r["fdr"] == pytest.approx(0.2)
        assert r["err"] == pytest.approx(0.3)
        assert r["selection_rate"] == pytest.approx(0.5)

    def test_zero_denominator_undefined(self):
        r = group_rates(tp=0, fp=0, fn=5, tn=5)
        assert r["fdr"] is None
        assert r["fnr"] == 1.0

    def test_perfect_prediction(self):
        r = group_rates(tp=6, fp=0, fn=0, tn=4)
        assert r["fpr"] == 0.0 and r["fnr"] == 0.0 and r["err"] == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics.compute_classification_metrics(
                tensor(cells(tp=-1, fp=0, fn=0, tn=0), REFERENCE)
            )

    @given(st.tuples(*[st.integers(min_value=0, max_value=30)] * 4))
    def test_complementary_rates(self, counts):
        tp, fp, fn, tn = counts
        r = group_rates(tp, fp, fn, tn)
        if r["tpr"] is not None:
            assert r["tpr"] + r["fnr"] == pytest.approx(1.0, abs=1e-12)
        if r["fpr"] is not None:
            assert r["fpr"] + tn / (fp + tn) == pytest.approx(1.0, abs=1e-12)


class TestDisparity:
    """Unprivileged (group 0) minus or over privileged (group 1)."""

    def test_difference_order(self):
        counts = tensor(cells(tp=3, fp=0, fn=2, tn=1), cells(tp=4, fp=0, fn=1, tn=1))
        assert metric(counts, "C0") == pytest.approx(-0.2)

    def test_ratio(self):
        counts = tensor(cells(tp=1, fp=1, fn=0, tn=9), cells(tp=1, fp=2, fn=0, tn=8))
        assert metric(counts, "C5") == pytest.approx(0.5)

    def test_zero_denominator_ratio_undefined(self):
        # FOR 0.3 over FOR 0
        counts = tensor(cells(tp=1, fp=0, fn=3, tn=7), cells(tp=1, fp=0, fn=0, tn=5))
        assert metric(counts, "C7") is None

    def test_malformed_counts_rejected(self):
        for bad in (np.zeros((2, 2, 3), dtype=np.int64), np.zeros((2, 2)),
                    np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                metrics.compute_classification_metrics(bad)

    def test_undefined_propagates(self):
        # no favorable label in the unprivileged group: its TPR is 0/0
        counts = tensor(cells(tp=0, fp=1, fn=0, tn=3), cells(tp=2, fp=1, fn=1, tn=3))
        assert metric(counts, "C0") is None


class TestAverageOdds:
    def test_hand_computed(self):
        # deltas: TPR -0.273, FPR -0.186
        counts = tensor(cells(tp=427, fp=214, fn=573, tn=786), cells(tp=7, fp=4, fn=3, tn=6))
        assert metric(counts, "C9") == pytest.approx(-0.2295)
        assert metric(counts, "C10") == pytest.approx(0.2295)

    def test_cancellation_vs_absolute(self):
        # TPR 0.7 / 0.5, FPR 0.3 / 0.5: deltas +0.2 / -0.2
        counts = tensor(cells(tp=7, fp=3, fn=3, tn=7), cells(tp=5, fp=5, fn=5, tn=5))
        assert metric(counts, "C9") == pytest.approx(0.0)
        assert metric(counts, "C10") == pytest.approx(0.2)

    def test_equal_rates_zero(self):
        group = cells(tp=4, fp=1, fn=6, tn=9)
        counts = tensor(group, group)
        assert metric(counts, "C9") == 0.0
        assert metric(counts, "C10") == 0.0


class TestStatisticalParity:
    def test_difference_and_ratio(self):
        # selection rates 0.3 and 0.5
        counts = tensor(cells(tp=3, fp=0, fn=0, tn=7), cells(tp=5, fp=0, fn=0, tn=5))
        assert metric(counts, "C15") == pytest.approx(-0.2)
        assert metric(counts, "C14") == pytest.approx(0.6)

    def test_identity_case(self):
        counts = tensor(cells(tp=2, fp=2, fn=1, tn=5), cells(tp=1, fp=3, fn=3, tn=3))
        assert metric(counts, "C15") == 0.0
        assert metric(counts, "C14") == 1.0

    def test_zero_denominator(self):
        # nobody selected in either group
        counts = tensor(cells(tp=0, fp=0, fn=2, tn=3), cells(tp=0, fp=0, fn=1, tn=4))
        assert metric(counts, "C14") is None


class TestBenefit:
    """b = yhat - y + 1 per row, seen through C16/C19 on one group."""

    @staticmethod
    def single_group(y_true, y_pred):
        return classification(y_true, y_pred, [1] * len(y_true))

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
            classification([], [], [])


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
        assert np.isnan(entropy([0, 0], alpha=2)).tolist() == [True, True, True]
        assert np.isnan(entropy([0.0])).tolist() == [True, True, True]

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
        out = classification(
            [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]
        )
        assert out["C18"] == out["C21"] == out["C22"] == 0.0

    def test_distinct_group_means(self):
        # b = [2, 2, 0, 0]: group means 2 and 0
        out = classification(
            [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]
        )
        assert out["C18"] == pytest.approx(0.5)
        assert out["C21"] == pytest.approx(math.log(2))

    def test_single_group_zero(self):
        # one group: its mean benefit 1 on all 3 rows
        assert metrics.entropy_indices([1.0], [3]) == (0.0, 0.0, 0.0)

    def test_scopes_coincide_for_binary_attribute(self):
        # b = [2, 1, 0, 1, 2]
        out = classification(
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
        assert math.isnan(metrics.smoothed_edf([3], [5]))
        assert np.isnan(metrics.smoothed_edf([[3], [4]], [[5], [5]])).tolist() == [True, True]

    def test_batch_matches_pair_loop(self, rng):
        tot = rng.integers(1, 20, (4, 6, 3))
        pos = rng.integers(0, 20, (4, 6, 3)) % (tot + 1)
        got = metrics.smoothed_edf(pos, tot, concentration=0.5)
        assert got.shape == (4, 6)
        for index in np.ndindex(4, 6):
            assert got[index] == smoothed_edf_loop(pos[index], tot[index], 0.5)

    def test_zero_iff_equal_smoothed_rates(self):
        assert metrics.smoothed_edf([4, 2], [8, 4]) == pytest.approx(0.0)
        assert metrics.smoothed_edf([4, 2], [8, 5]) > 0


class TestBiasAmplification:
    """C25: smoothed EDF of the predictions minus that of the labels."""

    def test_identity(self):
        # predictions equal to the labels
        counts = tensor(cells(tp=3, fp=0, fn=0, tn=4), cells(tp=5, fp=0, fn=0, tn=1))
        assert metric(counts, "C25") == 0.0

    def test_difference(self):
        unpriv, priv = cells(tp=2, fp=0, fn=3, tn=5), cells(tp=6, fp=3, fn=1, tn=0)
        edf_predictions = metrics.smoothed_edf([2, 9], [10, 10])
        edf_labels = metrics.smoothed_edf([5, 7], [10, 10])
        assert metric(tensor(unpriv, priv), "C25") == edf_predictions - edf_labels
        assert edf_predictions - edf_labels > 0

    def test_undefined_propagates(self):
        # an empty unprivileged group
        counts = tensor(cells(tp=0, fp=0, fn=0, tn=0), cells(tp=5, fp=1, fn=1, tn=3))
        assert metric(counts, "C25") is None


class TestConsistency:
    def test_uniform_labels(self):
        X = np.random.default_rng(0).random((10, 2))
        assert as_given(X, np.ones(10), k=3) == 1.0

    def test_two_point_disagreement(self):
        assert as_given([[0.0], [1.0]], [1, 0], k=1) == 0.0

    def test_three_points_agree(self):
        assert as_given([[0.0], [0.1], [1.0]], [1, 1, 1], k=2) == 1.0

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            as_given([[0.0], [1.0]], [1, 0], k=2)
        with pytest.raises(ValueError):
            as_given([[0.0], [1.0]], [1, 0], k=0)

    def test_tie_break_by_row_index(self):
        # rows 1 and 2 are duplicates equidistant from row 0; k=1 must pick row 1
        X = [[0.0], [1.0], [1.0]]
        y = [0, 1, 0]
        # neighbor of row 0 is row 1 (label 1) -> |0-1| = 1
        # neighbor of row 1 is row 2 (distance 0), of row 2 is row 1
        got = as_given(X, y, k=1)
        assert got == pytest.approx(1.0 - (1 + 1 + 1) / 3)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        X = rng.random((n, 3))
        y = rng.integers(0, 2, n)
        v = as_given(X, y, k=5)
        assert 0.0 <= v <= 1.0

    @given(st.integers(min_value=0, max_value=2**31))
    def test_duplicate_point_never_decreases_k1(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        X = rng.random((n, 2))
        y = rng.integers(0, 2, n)
        base = as_given(X, y, k=1)
        X2 = np.vstack([X, X[0]])
        y2 = np.append(y, y[0])
        assert as_given(X2, y2, k=1) >= base - 1e-12


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
                assert as_given(X, y, k=k) == consistency_dense(X, y, k)

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
            for k in (1, 5):
                assert as_given(X, y, k=k) == consistency_dense(X, y, k, block_gram(X))

    def test_one_block_is_the_whole_product(self):
        # Below the budget the one block is X itself, so the product is
        # X @ X.T and the result is the dense one whatever the BLAS.
        rng = np.random.default_rng(3)
        for n in (6, 97, 300, 511):
            X = integer_fold(rng, n)
            y = rng.integers(0, 2, n)
            assert as_given(X, y) == consistency_dense(X, y)

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
            got = as_given(X, y, k=k)
        assert got == consistency_exact(grid, y, k)

    @pytest.mark.parametrize("budget", [1, 3 * 80, 2**18])
    def test_float_masks_share_buffers(self, budget, monkeypatch):
        # Masks of 61, 12 and 60 rows reuse one call's block buffers; a
        # stale entry from a larger mask would change a smaller one's D0.
        monkeypatch.setattr(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(budget)
        X = np.round(rng.normal(size=(80, 3)) * 2) / 2 + 0.25
        y = rng.integers(0, 2, 80)
        masks = np.zeros((3, 80), dtype=bool)
        for mask, size in zip(masks, (61, 12, 60)):
            mask[rng.permutation(80)[:size]] = True
        bounds = [fit_minmax(X[mask]) for mask in masks]
        assert metrics.neighbour_list(X, 5) is None
        together = metrics.consistency(X, y, 5, masks, bounds, None)
        alone = np.concatenate([metrics.consistency(X, y, 5, mask[None], [b], None)
                                for mask, b in zip(masks, bounds)])
        assert together.tobytes() == alone.tobytes()
        for mask, b, d0 in zip(masks, bounds, together):
            scaled = apply_minmax(X[mask], *b)
            assert d0 == consistency_dense(scaled, y[mask], 5, block_gram(scaled))

    def test_memory_linear_in_rows(self):
        # The n x n version peaks near 384 MB here.
        rng = np.random.default_rng(5)
        X = integer_fold(rng, 4000)
        y = rng.integers(0, 2, 4000)
        tracemalloc.start()
        try:
            as_given(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExactConsistency:
    """Integer-coded rows: D0 from exact integer distances, per mask or off
    one neighbour list, equal to exact oracles."""

    @given(integer_folds(), st.sampled_from([1, 40, 2**18]))
    # duplicate rows tied at the k-th distance, in two folds sharing a list
    @example(([[0, 0], [1, 1], [1, 1], [1, 1], [0, 1], [1, 0], [1, 1]], [0, 1, 0, 1, 1, 0, 0], 2,
              [[True] * 7, [True, True, False, True, True, True, True]], [0, 1]), 1)
    # a constant column
    @example(([[3, 0], [3, 1], [3, 2], [3, 2], [3, 0], [3, 1]], [1, 0, 0, 1, 1, 0], 1,
              [[True] * 6, [False, True, True, True, True, True]], [0, 1]), 2**18)
    # n = k + 1
    @example(([[0], [2], [1]], [1, 0, 0], 2, [[True, True, True]], [0]), 1)
    # the last fold drops the far row, so its spans are narrower
    @example(([[0], [1], [2], [3], [4], [10]], [0, 1, 1, 0, 1, 0], 2,
              [[True] * 6, [True, True, True, True, True, False]], [0, 1]), 40)
    @example(([[0], [1], [2], [3], [4], [10]], [0, 1, 1, 0, 1, 0], 2,
              [[True] * 6, [True, True, True, True, True, False]], [-1, -1]), 40)
    # each fold scaled by the other's bounds: the narrow fold by the wide
    # bounds, and the wide fold by narrow ones that leave row 5 past 1
    @example(([[0], [1], [2], [3], [4], [10]], [0, 1, 1, 0, 1, 0], 2,
              [[True] * 6, [True, True, True, True, True, False]], [1, 0]), 40)
    def test_integer_folds_match_rational_oracle(self, case, budget):
        rows, y, k, masks, sources = case
        bounds = [integer_bounds(rows, [True] * len(rows) if i < 0 else masks[i])
                  for i in sources]
        with mock.patch.object(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget):
            X = np.array(rows, dtype=float)
            got = metrics.consistency(X, y, k, np.array(masks), bounds,
                                      metrics.neighbour_list(X, k))
        assert got.tolist() == [
            consistency_rational(rows, y, k, mask, b) for mask, b in zip(masks, bounds)
        ]

    def test_small_integer_folds_independent_of_block_budget(self, monkeypatch):
        # 240 datasets x 5 training folds; budget 1 makes blocks of two rows
        rng = np.random.default_rng(1200)
        cases = []
        for i in range(240):
            n = int(rng.integers(10, 80))
            X = np.column_stack([
                rng.integers(19, 76, n) // 10, rng.integers(1, 5, n), rng.integers(0, 4, n)
            ]).astype(float)
            masks = rng.permutation(n) % 5 != np.arange(5)[:, None]
            cases.append((X, rng.integers(0, 2, n), masks, i % 2 == 1))
        got = []
        for budget in (1, 1000, 2**18):
            monkeypatch.setattr(metrics, "CONSISTENCY_BLOCK_ELEMENTS", budget)
            got.append(np.concatenate([
                metrics.consistency(X, y, 5, masks,
                                    [fit_minmax(X if g else X[mask]) for mask in masks],
                                    metrics.neighbour_list(X, 5))
                for X, y, masks, g in cases
            ]))
        assert got[0].size == 1200
        assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()
        want = [
            consistency_int64(X[mask], y[mask], fit=X if g else None)
            for X, y, masks, g in cases for mask in masks
        ]
        assert got[0].tolist() == want

    def spy(self, monkeypatch):
        """Record what ``_first_in_mask`` returns, and the (rows, k) of each
        ``_nearest`` call: the list's (all rows, 4k) or a per-mask kernel's."""
        calls = {"list": [], "nearest": []}
        first_in_mask, nearest = metrics._first_in_mask, metrics._nearest

        def from_list(*args):
            calls["list"].append(first_in_mask(*args))
            return calls["list"][-1]

        def kernel(A, weights, k):
            calls["nearest"].append((len(A), k))
            return nearest(A, weights, k)

        monkeypatch.setattr(metrics, "_first_in_mask", from_list)
        monkeypatch.setattr(metrics, "_nearest", kernel)
        return calls

    @pytest.mark.parametrize("all_rows", [False, True])
    def test_list_equals_per_mask_kernel(self, monkeypatch, all_rows):
        ds = german_style(300, 4)
        X, y = ds.X.copy(), ds.y
        X[0, 0] = 90  # the one oldest row: the fold that tests it has narrower spans
        masks = np.arange(300) % 5 != np.arange(5)[:, None]
        bounds = [fit_minmax(X if all_rows else X[mask]) for mask in masks]
        nearest, exact_metric = metrics._nearest, metrics._exact_metric
        calls = self.spy(monkeypatch)
        got = metrics.consistency(X, y, 5, masks, bounds, metrics.neighbour_list(X, 5))
        for mask, (mins, maxs), d0 in zip(masks, bounds, got):
            assert d0 == d0_of(y[mask], nearest(*exact_metric(X[mask], maxs - mins), 5))
        # all rows' bounds serve every fold; otherwise fold 0 has its own
        assert len(calls["list"]) == (5 if all_rows else 4)
        assert all(first is not None for first in calls["list"])
        assert sorted(calls["nearest"]) == [(240, 5)] * (5 - len(calls["list"])) + [(300, 20)]

    def test_row_short_of_k_candidates_runs_per_mask_kernel(self, monkeypatch):
        # k = 1 keeps 4 candidates a row; in mask 0 row 0's four nearest,
        # its duplicates, are all outside the mask
        rows = [[0]] * 5 + [[3], [5], [7], [9], [9]]
        y = [1, 0, 0, 0, 0, 1, 0, 1, 0, 1]
        masks = np.array([[True] + [False] * 4 + [True] * 5, [True] * 10])
        bounds = [integer_bounds(rows, mask) for mask in masks]
        calls = self.spy(monkeypatch)
        X = np.array(rows, dtype=float)
        got = metrics.consistency(X, y, 1, masks, bounds, metrics.neighbour_list(X, 1))
        assert calls["list"][0] is None and calls["list"][1] is not None
        assert calls["nearest"] == [(10, 4), (6, 1)]  # the list, then mask 0's own
        assert got.tolist() == [
            consistency_rational(rows, y, 1, mask, b) for mask, b in zip(masks, bounds)
        ]

    def test_one_list_serves_every_fold_of_tied_data(self, monkeypatch):
        ds = german_style(3000, 1)
        plan = make_cv_plan(3000)
        calls = self.spy(monkeypatch)
        listed = metrics.neighbour_list(ds.X, 5)
        got = []
        for assignment in plan.assignments:
            masks = assignment != np.arange(5)[:, None]
            got.append(metrics.consistency(ds.X, ds.y, 5, masks,
                                           [fit_minmax(ds.X[mask]) for mask in masks], listed))
        assert calls["nearest"] == [(3000, 20)] and len(calls["list"]) == 25
        for repeat, fold in ((0, 0), (2, 3), (4, 4)):
            train = plan.assignments[repeat] != fold
            assert got[repeat][fold] == consistency_int64(ds.X[train], ds.y[train])

    def test_past_the_bound_runs_the_float_kernel(self):
        # coprime spans make lcm(span**2) about 1e24, far past 2**53
        spans = (10007, 10009, 10037)
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.integers(0, s + 1, 200) for s in spans]).astype(float)
        X[:2] = [[0, 0, 0], spans]
        y = rng.integers(0, 2, 200)
        bounds = fit_minmax(X)
        assert metrics._exact_metric(X, bounds[1] - bounds[0]) is None
        assert metrics.neighbour_list(X, 5) is None
        masks = np.arange(200) % 5 != np.arange(5)[:, None]
        for mask, d0 in zip(masks, metrics.consistency(X, y, 5, masks, [bounds] * 5, None)):
            scaled = apply_minmax(X[mask], *bounds)
            assert d0 == consistency_dense(scaled, y[mask], 5, block_gram(scaled))

    def test_list_memory_linear_in_rows(self):
        ds = german_style(4000, 5)
        masks = np.arange(4000) % 5 != np.arange(5)[:, None]
        bounds = [fit_minmax(ds.X[mask]) for mask in masks]
        tracemalloc.start()
        try:
            metrics.consistency(ds.X, ds.y, 5, masks, bounds, metrics.neighbour_list(ds.X, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("masks, message", [
        (np.ones(6, dtype=bool), "boolean"),
        (np.ones((2, 6), dtype=int), "boolean"),
        (np.ones((2, 5), dtype=bool), "boolean"),
        (np.array([[True] * 6, [True] * 2 + [False] * 4]), "more than k=2 rows"),
    ])
    def test_bad_masks_rejected(self, masks, message):
        with pytest.raises(ValueError, match=message):
            metrics.consistency(np.arange(6.0)[:, None], np.ones(6), 2, masks,
                                [([0.0], [1.0])] * 2, None)

    @pytest.mark.parametrize("bounds, message", [
        ([([0.0, 0.0], [1.0, 1.0])], r"one \(mins, maxs\) per mask: 2 masks, 1 bounds"),
        ([([0.0, 0.0], [1.0, 1.0])] * 3, r"one \(mins, maxs\) per mask: 2 masks, 3 bounds"),
        ([([0.0, 0.0], [1.0, 1.0]), ([0.0], [1.0])], r"width 2, got shapes \(1,\) and \(1,\)"),
        ([([0.0, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, 1.0, 1.0])], "width 2"),
        ([([0.0, 0.0], [1.0, 1.0]), (0.0, 1.0)], "width 2"),
    ])
    def test_bad_bounds_rejected(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            metrics.consistency(np.arange(12.0).reshape(6, 2), np.ones(6), 2,
                                np.ones((2, 6), dtype=bool), bounds, None)


class TestNeighbourList:
    """``neighbour_list`` is built once per dataset and read by every
    ``consistency`` call on its rows."""

    def test_list_gives_the_bits_of_the_per_mask_kernels(self):
        ds = german_style(600, 3)
        listed = metrics.neighbour_list(ds.X, 5)
        assert listed is not None
        for assignment in make_cv_plan(600).assignments:
            masks = assignment != np.arange(5)[:, None]
            for bounds in ([fit_minmax(ds.X[mask]) for mask in masks], [fit_minmax(ds.X)] * 5):
                with_list = metrics.consistency(ds.X, ds.y, 5, masks, bounds, listed)
                without = metrics.consistency(ds.X, ds.y, 5, masks, bounds, None)
                assert with_list.tobytes() == without.tobytes()

    def test_list_is_the_spans_and_nearest_of_all_rows(self):
        ds = german_style(200, 4)
        nearest, spans = metrics.neighbour_list(ds.X, 3)
        assert spans.tolist() == (ds.X.max(axis=0) - ds.X.min(axis=0)).tolist()
        assert nearest.shape == (200, 12)
        want = metrics._nearest(*metrics._exact_metric(ds.X, spans), 12)
        assert nearest.tolist() == want.tolist()

    def test_none_on_float_rows(self):
        rng = np.random.default_rng(11)
        X = rng.random((50, 3))
        assert metrics.neighbour_list(X, 5) is None
        X[:, 0] = np.round(X[:, 0] * 10)  # one integer column is not enough
        assert metrics.neighbour_list(X, 5) is None

    def test_list_of_other_rows_rejected(self):
        ds = german_style(60, 2)
        listed = metrics.neighbour_list(ds.X[:50], 5)
        masks = np.ones((1, 60), dtype=bool)
        with pytest.raises(ValueError, match="neighbour list has 50 rows, X has 60"):
            metrics.consistency(ds.X, ds.y, 5, masks, [fit_minmax(ds.X)], listed)

    @pytest.mark.parametrize("X, k", [(np.arange(6.0), 2), (np.zeros((1, 2)), 1),
                                      (np.zeros((6, 2)), 0)])
    def test_bad_arguments_rejected(self, X, k):
        with pytest.raises(ValueError, match="need 2-D X of at least 2 rows and k >= 1"):
            metrics.neighbour_list(X, k)


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
        out = classification(y_true, y_pred, s)
        assert sorted(out) == sorted(metrics.CLASSIFICATION_IDS)

    def test_identities(self, rng):
        for _ in range(200):
            y_true, y_pred, s = random_instance(rng)
            out = classification(y_true, y_pred, s)
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
        out = classification(y, y, s)
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
        out = classification(y_true, y_pred, s)
        for mid in ("C0", "C1", "C2", "C3", "C4", "C9", "C10", "C11", "C15"):
            assert out[mid] == pytest.approx(0.0, abs=1e-12)
        for mid in ("C5", "C6", "C7", "C8", "C12", "C14"):
            assert out[mid] == pytest.approx(1.0, abs=1e-12)

    def test_single_group_inputs(self):
        out = classification(
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
        out = classification(y_true, y_pred, s)
        assert out["C0"] < 0  # TPR gap disfavors unprivileged
        assert out["C9"] < 0
        assert out["C15"] < 0
        assert out["C14"] < 1

    def test_between_group_ids_coincide(self, rng):
        y_true, y_pred, s = random_instance(rng)
        out = classification(y_true, y_pred, s)
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
        assert classification(
            *zip(*rows)
        ) == classification(*zip(*shuffled))

    @given(rows_strategy, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_entropy_family_matches_per_row_oracle(self, rows, alpha):
        y_true, y_pred, s = zip(*rows)
        out = classification(y_true, y_pred, s, alpha=alpha)
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


class TestStackedCounts:
    """``confusion_counts`` of a ``(..., n)`` stack, optionally masked by
    ``where``, is the stack of 1-D calls on each row's selected entries."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1,), (4,), (2, 3)]),
           st.integers(1, 30), st.booleans())
    def test_stack_is_its_rows_counted_alone(self, seed, stack, n, masked):
        rng = np.random.default_rng(seed)
        y_true, y_pred, s = rng.integers(0, 2, (3,) + stack + (n,))
        where = rng.random(stack + (n,)) < 0.6 if masked else np.ones(stack + (n,), bool)
        got = metrics.confusion_counts(y_true, y_pred, s, where=where if masked else None)
        assert got.shape == stack + (2, 2, 2) and got.dtype == np.int64
        for i in np.ndindex(stack):
            row = where[i]
            want = (metrics.confusion_counts(y_true[i][row], y_pred[i][row], s[i][row])
                    if row.any() else np.zeros((2, 2, 2), dtype=np.int64))
            assert np.array_equal(got[i], want), i
        every = metrics.confusion_counts(y_true, y_pred, s, where=np.ones(stack + (n,), bool))
        assert np.array_equal(every, metrics.confusion_counts(y_true, y_pred, s))

    def test_shapes_and_mask_checked(self):
        y = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="^length mismatch: y_true=2x3 y_pred=3x2 s=2x3$"):
            metrics.confusion_counts(y, y.T, y)
        with pytest.raises(ValueError, match="^length mismatch: .* s=2x3 where=3$"):
            metrics.confusion_counts(y, y, y, where=np.ones(3, bool))
        with pytest.raises(ValueError, match="^where must contain only 0 and 1$"):
            metrics.confusion_counts(y, y, y, where=np.full((2, 3), 2))


count_tensors = st.lists(
    st.integers(0, 12) | st.just(0), min_size=8, max_size=8
).map(lambda v: np.array(v, dtype=np.int64).reshape(2, 2, 2))


def as_row(out: dict) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in out.values()])


class TestBatch:
    """The batch function against the scalar oracle, one tensor at a time."""

    @given(count_tensors, st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           st.sampled_from([0.5, 1.0, 2.0]))
    @example(np.zeros((2, 2, 2), dtype=np.int64), 2.0, 1.0)
    @example(np.array([[[0, 0], [0, 0]], [[3, 1], [2, 4]]]), 2.0, 1.0)
    @example(np.array([[[3, 0], [0, 0]], [[0, 0], [2, 4]]]), 1.0, 1.0)
    def test_matches_scalar_oracle(self, counts, alpha, concentration):
        got = metrics.compute_classification_metrics(counts, alpha, concentration)
        want = as_row(classification_oracle(counts, alpha, concentration))
        assert got.shape == (26,)
        assert got.tobytes() == want.tobytes()

    def test_all_zero_tensor_undefined(self):
        got = metrics.compute_classification_metrics(np.zeros((2, 2, 2), dtype=np.int64))
        assert np.isnan(got).all()

    def test_stack_equals_per_tensor(self, rng):
        counts = rng.integers(0, 6, (3, 2, 5, 2, 2, 2))
        counts[0, 1, 2] = 0  # an all-zero tensor
        counts[1, 0, 3, 0] = 0  # an empty unprivileged group
        got = metrics.compute_classification_metrics(counts, alpha=3.0)
        assert got.shape == (3, 2, 5, 26)
        for index in np.ndindex(3, 2, 5):
            one = metrics.compute_classification_metrics(counts[index], alpha=3.0)
            assert got[index].tobytes() == one.tobytes()
            assert one.tobytes() == as_row(classification_oracle(counts[index], 3.0)).tobytes()


def dataset_oracle(y, s, X, weights=None, k=5, concentration=1.0):
    """The 4 dataset metrics of one labeled set as an id -> value dict, None
    for Undefined: the per-fold implementation that the batch
    ``compute_dataset_metrics`` replaced, kept as its reference."""
    y = np.asarray(y)
    s = np.asarray(s)
    w = np.ones(len(y), dtype=float) if weights is None else np.asarray(weights, float)
    out = {m.id: None for m in metrics.DATASET_METRICS}
    out["D0"] = as_given(X, y, k=k)
    if len(np.unique(s)) < 2:
        return out
    values = np.asarray(y, dtype=float)
    pos, tot = [], []
    for g in (1, 0):  # privileged first
        mask = s == g
        pos.append(float((w[mask] * values[mask]).sum()))
        tot.append(float(w[mask].sum()))
    pos, tot = np.array(pos), np.array(tot)
    out["D1"] = metrics.smoothed_edf(pos, tot, concentration)
    rate_priv, rate_unpriv = (pos / tot).tolist()
    out["D2"] = rate_unpriv - rate_priv
    out["D3"] = None if rate_priv == 0 else rate_unpriv / rate_priv
    return out


def dataset(y, s, X, weights=None, k=5, concentration=1.0):
    """``compute_dataset_metrics`` of one labeled set, as an id -> value dict
    with None for Undefined; ``weights`` default to 1."""
    w = np.ones(len(y)) if weights is None else weights
    row = metrics.compute_dataset_metrics(
        metrics.label_weights(y, s, w), as_given(X, y, k=k), concentration
    )
    return {
        mid: None if math.isnan(v) else v
        for mid, v in zip(metrics.DATASET_IDS, row.tolist())
    }


class TestDatasetMetrics:
    def test_inventory_and_formula_match(self, rng):
        n = 30
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        s[0], s[1] = 0, 1
        y[0], y[1] = 0, 1
        X = rng.random((n, 3))
        out = dataset(y, s, X)
        assert sorted(out) == sorted(metrics.DATASET_IDS)
        # D2/D3 are the statistical-parity formulas applied to true labels
        sel_u = y[s == 0].mean()
        sel_p = y[s == 1].mean()
        assert out["D2"] == pytest.approx(sel_u - sel_p, abs=1e-12)
        assert out["D3"] == pytest.approx(sel_u / sel_p, abs=1e-12)

    def test_balanced_labels_zero_difference(self):
        y = [1, 0, 1, 0]
        s = [1, 1, 0, 0]
        out = dataset(y, s, np.eye(4), k=1)
        assert out["D2"] == pytest.approx(0.0)
        assert out["D3"] == pytest.approx(1.0)

    def test_weights_flow_into_rates(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([1, 1, 0, 0])
        # upweight unprivileged favorable row
        out = dataset(y, s, np.eye(4), weights=[1, 1, 3, 1], k=1)
        assert out["D2"] == pytest.approx(0.75 - 0.5)

    def test_single_group(self):
        out = dataset([1, 0, 1], [1, 1, 1], np.eye(3), k=1)
        assert out["D1"] is None and out["D2"] is None and out["D3"] is None
        assert out["D0"] is not None


@st.composite
def labeled_folds(draw):
    """(y, s, weights): weights are None (all 1), reweighing weights, or
    random positive weights; a fold may hold a single group."""
    n = draw(st.integers(4, 40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    y, s = np.array(draw(bits)), np.array(draw(bits))
    kind = draw(st.sampled_from(["ones", "reweigh", "random"]))
    if kind == "ones":
        return y, s, None
    if kind == "reweigh":
        y[:4], s[:4] = [0, 0, 1, 1], [0, 1, 0, 1]
        return y, s, reweigh(y, s)[s, y]
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return y, s, np.array(weights)


class TestDatasetBatch:
    """The batch dataset metrics against the per-fold oracle."""

    @given(labeled_folds(), st.sampled_from([0.5, 1.0, 2.0]))
    @example((np.array([1, 0, 1, 1]), np.array([1, 1, 1, 1]), None), 1.0)
    @example((np.array([1, 0, 0, 1]), np.zeros(4, dtype=np.int64),
              np.array([0.5, 2.0, 3.0, 0.25])), 1.0)
    @example((np.array([0, 0, 0, 1, 1]), np.array([1, 0, 1, 0, 1]), None), 2.0)
    @example((np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]),
              np.array([0.1, 0.2, 0.3, 0.1])), 1.0)  # group totals below 1
    def test_matches_oracle(self, fold, concentration):
        y, s, weights = fold
        X = np.random.default_rng(len(y)).random((len(y), 2))
        got = np.array(list(dataset(y, s, X, weights, 1, concentration).values()),
                       dtype=float)
        want = as_row(dataset_oracle(y, s, X, weights, 1, concentration))
        assert got.tobytes() == want.tobytes()

    def test_all_zero_tensor_undefined(self):
        got = metrics.compute_dataset_metrics(np.zeros((2, 2)), 0.75)
        assert got.shape == (4,)
        assert np.isnan(got).all()

    def test_stack_equals_per_tensor(self, rng):
        weights = np.empty((3, 2, 5, 2, 2))
        for index in np.ndindex(3, 2, 5):
            y, s = rng.integers(0, 2, 20), rng.integers(0, 2, 20)
            weights[index] = metrics.label_weights(y, s, rng.random(20))
        weights[0, 1, 2] = 0  # an all-zero tensor
        weights[1, 0, 3, 0] = 0  # an empty unprivileged group
        consistency = rng.random((3, 2, 5))
        got = metrics.compute_dataset_metrics(weights, consistency, concentration=2.0)
        assert got.shape == (3, 2, 5, 4)
        assert np.isnan(got[0, 1, 2]).all()
        assert np.isnan(got[1, 0, 3, 1:]).all() and np.isfinite(got[1, 0, 3, 0])
        for index in np.ndindex(3, 2, 5):
            one = metrics.compute_dataset_metrics(weights[index], consistency[index], 2.0)
            assert got[index].tobytes() == one.tobytes()

    def test_malformed_label_weights_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            metrics.compute_dataset_metrics(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError, match="favorable <= total"):
            metrics.compute_dataset_metrics(np.array([[2.0, 1.0], [1.0, 1.0]]), 1.0)
        for weights in ([1.0, -1.0], [1.0, np.nan], [1.0]):
            with pytest.raises(ValueError, match="weights must align, weights non-negative"):
                metrics.label_weights([1, 0], [1, 0], weights)


class TestCheckBinary:
    @pytest.mark.parametrize("values", [
        [0.0, 1.0, 1.0], np.array([True, False, True]), [1, 0, 0],
    ])
    def test_zero_one_values_accepted(self, values):
        c = metrics.confusion_counts(values, values, values)
        assert c.sum() == 3 and c[1, 1, 1] == sum(np.asarray(values) == 1)
        assert metrics.label_weights(values, values, np.ones(3))[1, 0] == c[1, 1, 1]

    @pytest.mark.parametrize("bad", [[0.0, np.nan], [0, 2], [0.5, 1.0]])
    def test_other_values_rejected(self, bad):
        for name, args in (("y_true", (bad, [0, 1], [0, 1])),
                           ("y_pred", ([0, 1], bad, [0, 1])),
                           ("s", ([0, 1], [0, 1], bad))):
            with pytest.raises(ValueError, match=f"^{name} must contain only 0 and 1$"):
                metrics.confusion_counts(*args)
        with pytest.raises(ValueError, match="^y must contain only 0 and 1$"):
            metrics.label_weights(bad, [0, 1], np.ones(2))

    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_consistency_labels_rejected(self, bad):
        # the kernels count favourable neighbours, so labels must be 0 and 1
        y = np.array([0, 1, 0, 1, 1, bad])
        with pytest.raises(ValueError, match="^y must contain only 0 and 1$"):
            metrics.consistency(np.arange(6.0)[:, None] / 3, y, 2,
                                np.ones((1, 6), dtype=bool), [([0.0], [1.0])], None)


def label_fair_scalar(value, ideal, zero_band=metrics.ZERO_FAIR_BAND,
                      one_band=metrics.ONE_FAIR_BAND):
    """One value at a time, as the scalar labeler did."""
    if value is None or not math.isfinite(value):
        return "Unfair"
    lo, hi = zero_band if ideal == 0 else one_band
    return "Fair" if lo <= value <= hi else "Unfair"


label_values = st.one_of(
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 0.1, 0.8, 1.2, -0.0]),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
bands = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(sorted).map(tuple)


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

    @given(st.lists(st.tuples(label_values, st.sampled_from([0.0, 1.0])), min_size=1,
                    max_size=20), bands, bands)
    def test_array_matches_scalar_oracle(self, pairs, zero_band, one_band):
        values, ideals = zip(*pairs)
        want = [label_fair_scalar(v, i, zero_band, one_band) for v, i in pairs]
        got = metrics.label_fair(np.array(values, dtype=float), ideals, zero_band, one_band)
        assert got.tolist() == want
        grid = metrics.label_fair(np.array([values, values], dtype=float), ideals,
                                  zero_band, one_band)
        assert grid.tolist() == [want, want]
        for (v, i), label in zip(pairs, want):
            scalar = metrics.label_fair(v, i, zero_band, one_band)
            assert type(scalar) is str and scalar == label


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
