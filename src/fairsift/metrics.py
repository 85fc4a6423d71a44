"""The 30-metric fairness inventory: confusion-matrix rates, group disparities,
benefit-entropy measures, smoothed differential fairness, kNN consistency, and
fair/unfair labeling.

Metric ids follow the AIF360-derived inventory used throughout this project:
``C0``..``C25`` are classification metrics (need predictions), ``D0``..``D3``
are dataset metrics (need only labels, groups, features, weights).

A metric is *undefined* where its formula is (for example a 0/0 rate or a
ratio with a zero denominator): NaN in the arrays of
``compute_classification_metrics``, which takes any stack of count tensors
``(..., 2, 2, 2)`` and returns ``(..., 26)``, and None in the dict of
``compute_dataset_metrics``.  Undefined never silently turns into a number:
it propagates, is excluded pairwise from correlations, and is labeled Unfair.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# Families for reporting, mirroring the metric-type groupings common in the
# fairness-toolkit literature.
MISCLASSIFICATION = "misclassification"
DIFFERENTIAL_FAIRNESS = "differential_fairness"
INDIVIDUAL_FAIRNESS = "individual_fairness"
CONFUSION_MATRIX_GROUP = "confusion_matrix_group"
BETWEEN_GROUP_INDIVIDUAL = "between_group_individual"
INTERMEDIATE = "intermediate"

FAIR = "Fair"
UNFAIR = "Unfair"


@dataclass(frozen=True)
class MetricDef:
    id: str
    name: str
    ideal: float
    family: str

    @property
    def kind(self) -> str:
        return "classification" if self.id.startswith("C") else "dataset"


CLASSIFICATION_METRICS: tuple[MetricDef, ...] = (
    MetricDef("C0", "true_positive_rate_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C1", "false_positive_rate_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C2", "false_negative_rate_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C3", "false_omission_rate_difference", 0.0, MISCLASSIFICATION),
    MetricDef("C4", "false_discovery_rate_difference", 0.0, MISCLASSIFICATION),
    MetricDef("C5", "false_positive_rate_ratio", 1.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C6", "false_negative_rate_ratio", 1.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C7", "false_omission_rate_ratio", 1.0, MISCLASSIFICATION),
    MetricDef("C8", "false_discovery_rate_ratio", 1.0, MISCLASSIFICATION),
    MetricDef("C9", "average_odds_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C10", "average_abs_odds_difference", 0.0, DIFFERENTIAL_FAIRNESS),
    MetricDef("C11", "error_rate_difference", 0.0, MISCLASSIFICATION),
    MetricDef("C12", "error_rate_ratio", 1.0, MISCLASSIFICATION),
    MetricDef("C13", "selection_rate", 0.0, INTERMEDIATE),
    MetricDef("C14", "disparate_impact", 1.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C15", "statistical_parity_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("C16", "generalized_entropy_index", 0.0, INDIVIDUAL_FAIRNESS),
    MetricDef(
        "C17",
        "between_all_groups_generalized_entropy_index",
        0.0,
        BETWEEN_GROUP_INDIVIDUAL,
    ),
    MetricDef(
        "C18", "between_group_generalized_entropy_index", 0.0, BETWEEN_GROUP_INDIVIDUAL
    ),
    MetricDef("C19", "theil_index", 0.0, INDIVIDUAL_FAIRNESS),
    MetricDef("C20", "coefficient_of_variation", 0.0, INDIVIDUAL_FAIRNESS),
    MetricDef("C21", "between_group_theil_index", 0.0, BETWEEN_GROUP_INDIVIDUAL),
    MetricDef(
        "C22", "between_group_coefficient_of_variation", 0.0, BETWEEN_GROUP_INDIVIDUAL
    ),
    MetricDef("C23", "between_all_groups_theil_index", 0.0, BETWEEN_GROUP_INDIVIDUAL),
    MetricDef(
        "C24",
        "between_all_groups_coefficient_of_variation",
        0.0,
        BETWEEN_GROUP_INDIVIDUAL,
    ),
    MetricDef(
        "C25", "differential_fairness_bias_amplification", 0.0, DIFFERENTIAL_FAIRNESS
    ),
)

DATASET_METRICS: tuple[MetricDef, ...] = (
    MetricDef("D0", "consistency", 1.0, INDIVIDUAL_FAIRNESS),
    MetricDef(
        "D1", "smoothed_empirical_differential_fairness", 0.0, DIFFERENTIAL_FAIRNESS
    ),
    MetricDef("D2", "mean_difference", 0.0, CONFUSION_MATRIX_GROUP),
    MetricDef("D3", "disparate_impact", 1.0, CONFUSION_MATRIX_GROUP),
)

ALL_METRICS: tuple[MetricDef, ...] = CLASSIFICATION_METRICS + DATASET_METRICS
METRIC_CATALOG: dict[str, MetricDef] = {m.id: m for m in ALL_METRICS}

CLASSIFICATION_IDS: tuple[str, ...] = tuple(m.id for m in CLASSIFICATION_METRICS)
DATASET_IDS: tuple[str, ...] = tuple(m.id for m in DATASET_METRICS)


def metric_sort_key(metric_id: str) -> tuple[int, int]:
    """Canonical ordering: C0..C25 then D0..D3."""
    return (0 if metric_id[:1] == "C" else 1, int(metric_id[1:]))


def catalog_json() -> str:
    """The metric inventory as JSON, for downstream tools to pin against."""
    entries = [
        {"id": m.id, "name": m.name, "ideal": m.ideal, "family": m.family, "kind": m.kind}
        for m in ALL_METRICS
    ]
    return json.dumps(entries, indent=2, sort_keys=True)


def check_parameters(
    alpha: float, k: int, concentration: float, n_rows: int | None = None
) -> None:
    """Raise ValueError unless the entropy-index ``alpha``, the consistency
    neighbor count ``k`` and the Dirichlet ``concentration`` are positive
    and, when the row count is known, ``k`` is below it."""
    for name, value in (
        ("alpha", alpha), ("k_neighbors", k), ("concentration", concentration)
    ):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if n_rows is not None and k >= n_rows:
        raise ValueError(f"k_neighbors must be below the row count {n_rows}, got {k}")


# --------------------------------------------------------------------------
# The count tensor
# --------------------------------------------------------------------------

def _check_binary(name: str, v) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if not np.isin(v, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return v.astype(np.int64)


def confusion_counts(y_true, y_pred, s) -> np.ndarray:
    """Integer count tensor ``c[group, label, prediction]``, shape (2, 2, 2).

    Group 1 is privileged, label and prediction 1 are favorable, so
    ``c[g, 1, 1]`` is group g's TP, ``c[g, 0, 1]`` its FP, ``c[g, 1, 0]`` its
    FN and ``c[g, 0, 0]`` its TN.  Every classification metric is a function
    of these 8 counts alone.
    """
    y_true = _check_binary("y_true", y_true)
    y_pred = _check_binary("y_pred", y_pred)
    s = _check_binary("s", s)
    if not (len(y_true) == len(y_pred) == len(s)):
        raise ValueError(
            f"length mismatch: y_true={len(y_true)} y_pred={len(y_pred)} s={len(s)}"
        )
    if len(y_true) == 0:
        raise ValueError("empty input")
    return np.bincount(4 * s + 2 * y_true + y_pred, minlength=8).reshape(2, 2, 2)


def _ratio(num, den) -> np.ndarray:
    """``num / den`` elementwise, NaN where ``den`` is 0 or either is NaN."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den != 0)


# --------------------------------------------------------------------------
# Benefit-based individual fairness (generalized entropy family)
# --------------------------------------------------------------------------

# Benefit b = yhat - y + 1 of a row: 0 for FN, 1 for TP and TN, 2 for FP.
BENEFITS = (0.0, 1.0, 2.0)


def entropy_indices(values, counts, alpha: float = 2.0):
    """(GE(alpha), Theil, CoV) of a population where ``values[j]`` occurs
    ``counts[j]`` times; all three None when the mean mu is 0.

    GE(alpha) = 1/(n*alpha*(alpha-1)) * sum(count * ((v/mu)^alpha - 1)), with
    alpha = 1 the Theil limit and alpha = 0 the mean-log-deviation limit;
    Theil = (1/n) * sum(count * (v/mu) * ln(v/mu)) with 0*ln(0) = 0; CoV =
    2*sqrt(GE(2)).  Values with count 0 are skipped, never multiplied, since
    0*ln(0) and 0*inf would give NaN.
    """
    terms = [(c, v) for v, c in zip(values, counts) if c]
    n = sum(c for c, _ in terms)
    mu = sum(c * v for c, v in terms) / n
    if mu <= 0:
        return None, None, None
    ratios = [(c, v / mu) for c, v in terms]

    def ge(a: float) -> float:
        if a <= 0 and any(r == 0 for _, r in ratios):
            return math.inf
        if a == 0:
            return -sum(c * math.log(r) for c, r in ratios) / n
        return sum(c * (r**a - 1.0) for c, r in ratios) / (n * a * (a - 1.0))

    theil = sum(c * r * math.log(r) for c, r in ratios if r > 0) / n
    ge_alpha = theil if alpha == 1 else ge(alpha)
    ge2 = ge_alpha if alpha == 2 else ge(2.0)
    return ge_alpha, theil, 2.0 * math.sqrt(max(ge2, 0.0))


# --------------------------------------------------------------------------
# Smoothed differential fairness
# --------------------------------------------------------------------------

def smoothed_edf(pos_counts, totals, concentration: float = 1.0):
    """Largest absolute log-ratio of Dirichlet-smoothed group base rates.

    The trailing axis of ``pos_counts`` and ``totals`` runs over groups; any
    leading axes are a batch, with one result per entry.  Each group's
    favorable rate is smoothed as ``(pos + concentration/2) / (total +
    concentration)``; the result is the max over group pairs of
    max(|ln(r_g/r_h)|, |ln((1-r_g)/(1-r_h))|).  Fewer than two groups give
    None.
    """
    pos = np.asarray(pos_counts, dtype=float)
    tot = np.asarray(totals, dtype=float)
    if pos.shape != tot.shape or pos.ndim == 0:
        raise ValueError("pos_counts and totals must have equal shapes with a group axis")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if np.any(tot <= 0) or np.any(pos < 0) or np.any(pos > tot):
        raise ValueError("need 0 <= pos <= total and total > 0 per group")
    if pos.shape[-1] < 2:
        return None
    rates = (pos + concentration / 2.0) / (tot + concentration)
    gaps = [
        np.abs(logs[..., :, None] - logs[..., None, :])
        for logs in (np.log(rates), np.log(1.0 - rates))
    ]
    return np.maximum(*gaps).max(axis=(-2, -1))


# --------------------------------------------------------------------------
# kNN consistency
# --------------------------------------------------------------------------

# Distance entries held per block of rows; a block has about budget // n
# rows, so memory stays O(n) whatever the number of rows.
CONSISTENCY_BLOCK_ELEMENTS = 2**18


def _row_blocks(n: int):
    """(start, stop) of the consecutive row blocks ``consistency`` works on.

    No block has a single row: numpy multiplies one row through its
    matrix-vector path, which rounds differently from a matrix product.
    """
    step = max(2, CONSISTENCY_BLOCK_ELEMENTS // n)
    start = 0
    while start < n:
        stop = n if n - start < step + 2 else start + step
        yield start, stop
        start = stop


def consistency(X, y, k: int = 5) -> float:
    """1 - mean |y_i - mean(y of the k nearest neighbors of x_i)|.

    Euclidean distance on (normalized) features, self excluded, distance ties
    broken by smallest row index.  Requires n > k >= 1.

    Squared distances are computed as |a|^2 + |b|^2 - 2ab one block of rows
    at a time, about ``CONSISTENCY_BLOCK_ELEMENTS`` entries (2 MB) per block,
    so memory is O(n) per block rather than n^2: ``fairsift metrics`` on a
    whole dataset of tens of thousands of rows needs a few MB.  Up to the
    budget the one block is ``X @ X.T`` itself.  Above it, the BLAS may round
    a block's products differently in the last bit from the whole product,
    which on exactly tied data can decide a tie at the k-th distance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError("y must align with X rows")
    if not (1 <= k < n):
        raise ValueError(f"need n > k >= 1, got n={n} k={k}")

    sq = (X * X).sum(axis=1)
    neighbor_mean = np.empty(n)
    for start, stop in _row_blocks(n):
        rows = slice(start, stop)
        d = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
        np.maximum(d, 0.0, out=d)
        local = np.arange(stop - start)
        d[local, local + start] = np.inf

        # The first k partitioned entries hold the k smallest distances and
        # entry k the (k+1)-th.  When the k-th is strictly below the (k+1)-th
        # the neighbor *set* is unambiguous; only rows with ties straddling
        # the boundary need the explicit smallest-row-index rule.
        idx = np.argpartition(d, k, axis=1)[:, : k + 1]
        cand = np.take_along_axis(d, idx, axis=1)
        kth = cand[:, :k].max(axis=1)
        neighbor_mean[rows] = y[idx[:, :k]].sum(axis=1) / k
        for i in np.flatnonzero(cand[:, k] == kth):
            row = d[i]
            strict = row < kth[i]
            m = int(strict.sum())
            tied = np.flatnonzero(row == kth[i])[: k - m]
            neighbor_mean[start + i] = (y[strict].sum() + y[tied].sum()) / k
    return float(1.0 - np.abs(y - neighbor_mean).mean())


# --------------------------------------------------------------------------
# Full metric sets
# --------------------------------------------------------------------------

def _group_counts(values: np.ndarray, s: np.ndarray, weights: np.ndarray):
    """Per-group (weighted favorable count, weighted total), privileged first."""
    pos, tot = [], []
    for g in (1, 0):
        mask = s == g
        pos.append(float((weights[mask] * values[mask]).sum()))
        tot.append(float(weights[mask].sum()))
    return np.array(pos), np.array(tot)


def compute_classification_metrics(
    counts, alpha: float = 2.0, concentration: float = 1.0
) -> np.ndarray:
    """All 26 classification metrics of every count tensor in a stack.

    ``counts`` is an integer array ``(..., 2, 2, 2)`` of ``confusion_counts``
    tensors; the result is a float array ``(..., 26)`` in
    ``CLASSIFICATION_IDS`` order, NaN for Undefined.  A rate with a zero
    denominator is Undefined, and so is every group comparison where either
    group is empty; the individual-fairness measures (C16, C19, C20) and the
    overall selection rate (C13) need only a non-empty tensor.  A tensor
    whose counts total 0 is Undefined in all 26 metrics: that is how the
    experiment records a fold whose model could not be trained.

    C0-C15 and C25 are array expressions over the whole stack.  The entropy
    family C16-C24 calls ``entropy_indices`` once per tensor, since numpy's
    vectorized log and power can round differently in the last bit from
    the scalar ones it uses.
    """
    c = np.asarray(counts)
    if c.shape[-3:] != (2, 2, 2) or not np.issubdtype(c.dtype, np.integer):
        raise ValueError(f"counts must be integers of shape (..., 2, 2, 2), got "
                         f"{c.dtype} {c.shape}")
    if (c < 0).any():
        raise ValueError("confusion counts must be non-negative")
    # per group, unprivileged first: shape (..., 2); for_ is the false omission rate
    tn, fp, fn, tp = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    size = tn + fp + fn + tp
    pred_pos, true_pos = tp + fp, tp + fn
    tpr, fpr, fnr = _ratio(tp, true_pos), _ratio(fp, fp + tn), _ratio(fn, true_pos)
    fdr, for_ = _ratio(fp, pred_pos), _ratio(fn, tn + fn)
    err, sel = _ratio(fp + fn, size), _ratio(pred_pos, size)

    def diff(r):
        return r[..., 0] - r[..., 1]

    def ratio(r):
        return _ratio(r[..., 0], r[..., 1])

    # an empty group's total is taken as 1 to keep smoothed_edf's domain;
    # C25 is NaN for those tensors anyway
    both = (size > 0).all(axis=-1)
    totals = np.maximum(size, 1)
    c25 = smoothed_edf(pred_pos, totals, concentration) - smoothed_edf(
        true_pos, totals, concentration
    )

    # per tensor: counts of the benefits in BENEFITS, i.e. (FN, TP + TN, FP)
    individual, between = [], []
    undefined = (None, None, None)
    for groups in np.stack([fn, tp + tn, fp], axis=-1).reshape(-1, 2, 3).tolist():
        sizes = [sum(counts) for counts in groups]
        individual.append(
            entropy_indices(BENEFITS, [u + p for u, p in zip(*groups)], alpha)
            if sum(sizes) else undefined
        )
        if min(sizes) == 0:
            between.append(undefined)
            continue
        # between-group variants: every row's benefit replaced by its group's mean
        means = [
            sum(b * k for b, k in zip(BENEFITS, counts)) / n
            for counts, n in zip(groups, sizes)
        ]
        between.append(entropy_indices(means, sizes, alpha))
    batch = size.shape[:-1]
    ge, theil, cov = np.array(individual, dtype=float).T.reshape((3,) + batch)
    b_ge, b_theil, b_cov = np.array(between, dtype=float).T.reshape((3,) + batch)

    d_tpr, d_fpr = diff(tpr), diff(fpr)
    # The "all groups" variants C17, C23 and C24 range over every
    # intersection of protected attributes; with one binary attribute those
    # are the same two groups as C18, C21 and C22.
    columns = (
        d_tpr, d_fpr, diff(fnr), diff(for_), diff(fdr),  # C0-C4
        ratio(fpr), ratio(fnr), ratio(for_), ratio(fdr),  # C5-C8
        0.5 * (d_fpr + d_tpr), 0.5 * (np.abs(d_fpr) + np.abs(d_tpr)),  # C9, C10
        diff(err), ratio(err), _ratio(pred_pos.sum(-1), size.sum(-1)),  # C11-C13
        ratio(sel), diff(sel),  # C14, C15
        ge, b_ge, b_ge, theil, cov, b_theil, b_cov, b_theil, b_cov,  # C16-C24
        np.where(both, c25, np.nan),  # C25
    )
    return np.stack(columns, axis=-1)


def compute_dataset_metrics(
    y,
    s,
    X,
    weights=None,
    k: int = 5,
    concentration: float = 1.0,
    precomputed_consistency: float | None = None,
) -> dict[str, float | None]:
    """The 4 dataset metrics (D0..D3) on labels/groups/features.

    Instance weights feed the D1-D3 rate estimates so a reweighed training
    set can be evaluated; consistency (D0) is a geometric property of the
    labeled points and ignores weights, so callers evaluating several
    weightings of the same rows may pass it in precomputed.
    """
    y = np.asarray(y)
    s = np.asarray(s)
    X = np.asarray(X, dtype=float)
    w = np.ones(len(y), dtype=float) if weights is None else np.asarray(weights, float)
    if w.shape != (len(y),):
        raise ValueError("weights must align with y")

    out: dict[str, float | None] = {m.id: None for m in DATASET_METRICS}
    if precomputed_consistency is None:
        out["D0"] = consistency(X, y, k=k)
    else:
        out["D0"] = precomputed_consistency
    if len(np.unique(s)) < 2:
        return out

    pos, tot = _group_counts(np.asarray(y, dtype=float), s, w)
    out["D1"] = smoothed_edf(pos, tot, concentration)
    # smoothed_edf has checked that both totals are positive
    rate_priv, rate_unpriv = (pos / tot).tolist()
    out["D2"] = rate_unpriv - rate_priv
    out["D3"] = None if rate_priv == 0 else rate_unpriv / rate_priv
    return out


# --------------------------------------------------------------------------
# Fair / Unfair labeling
# --------------------------------------------------------------------------

ZERO_FAIR_BAND = (-0.1, 0.1)
ONE_FAIR_BAND = (0.8, 1.2)


def label_fair(
    value: float | None,
    ideal: float,
    zero_band: tuple[float, float] = ZERO_FAIR_BAND,
    one_band: tuple[float, float] = ONE_FAIR_BAND,
) -> str:
    """Label a metric value Fair or Unfair against its ideal's band.

    Ideal 0 metrics are fair in [-0.1, 0.1]; ideal 1 metrics in [0.8, 1.2];
    band boundaries included.  Undefined values are labeled Unfair: an
    unmeasurable disparity deserves scrutiny, not a pass.
    """
    if value is None or not math.isfinite(value):
        return UNFAIR
    lo, hi = zero_band if ideal == 0 else one_band
    return FAIR if lo <= value <= hi else UNFAIR
