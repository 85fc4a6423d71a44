"""The 30-metric fairness inventory: confusion-matrix rates, group disparities,
benefit-entropy measures, smoothed differential fairness, kNN consistency, and
fair/unfair labeling.

Metric ids follow the AIF360-derived inventory used throughout this project:
``C0``..``C25`` are classification metrics (need predictions), ``D0``..``D3``
are dataset metrics (need only labels, groups, features, weights).

A metric value is ``float | None``; ``None`` means *undefined* (for example a
0/0 rate or a ratio with a zero denominator).  Undefined never silently turns
into a number: it propagates, is excluded pairwise from correlations, and is
labeled Unfair.
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
# The count tensor and its confusion-matrix rates
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


def _safe_div(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


@dataclass(frozen=True)
class RateSet:
    """Confusion-matrix rates of one group; None where 0/0."""

    tpr: float | None
    fpr: float | None
    fnr: float | None
    fdr: float | None
    false_omission_rate: float | None
    err: float | None
    selection_rate: float | None

    _KINDS = {
        "TPR": "tpr",
        "FPR": "fpr",
        "FNR": "fnr",
        "FDR": "fdr",
        "FOR": "false_omission_rate",
        "ERR": "err",
    }

    def get(self, kind: str) -> float | None:
        try:
            return getattr(self, self._KINDS[kind])
        except KeyError:
            raise ValueError(f"unknown rate kind {kind!r}") from None


def confusion_rates(cells) -> RateSet:
    """Rates from one group's 2x2 counts ``cells[label][prediction]``.

    TPR = TP/(TP+FN), FPR = FP/(FP+TN), FNR = FN/(TP+FN), FDR = FP/(TP+FP),
    FOR = FN/(TN+FN), ERR = (FP+FN)/N, selection rate = (TP+FP)/N.  Empty
    denominators give None.
    """
    (tn, fp), (fn, tp) = cells
    if min(tp, fp, fn, tn) < 0:
        raise ValueError("confusion counts must be non-negative")
    n = tp + fp + fn + tn
    return RateSet(
        tpr=_safe_div(tp, tp + fn),
        fpr=_safe_div(fp, fp + tn),
        fnr=_safe_div(fn, tp + fn),
        fdr=_safe_div(fp, tp + fp),
        false_omission_rate=_safe_div(fn, tn + fn),
        err=_safe_div(fp + fn, n),
        selection_rate=_safe_div(tp + fp, n),
    )


DIFFERENCE = "difference"
RATIO = "ratio"

_DISPARITY_KINDS = ("TPR", "FPR", "FNR", "FOR", "FDR", "ERR")


def disparity(
    kind: str, mode: str, rates_unpriv: RateSet, rates_priv: RateSet
) -> float | None:
    """Unprivileged-minus-privileged difference or unprivileged/privileged ratio.

    The subtraction/division order is fixed: the unprivileged group comes
    first.  None propagates; a ratio with a zero privileged rate is None.
    """
    if kind not in _DISPARITY_KINDS:
        raise ValueError(f"unknown disparity kind {kind!r}")
    u, p = rates_unpriv.get(kind), rates_priv.get(kind)
    if u is None or p is None:
        return None
    if mode == DIFFERENCE:
        return u - p
    if mode == RATIO:
        return None if p == 0 else u / p
    raise ValueError(f"mode must be {DIFFERENCE!r} or {RATIO!r}, got {mode!r}")


def average_odds(
    rates_unpriv: RateSet, rates_priv: RateSet, absolute: bool = False
) -> float | None:
    """Half the sum of the FPR and TPR group deltas (absolute deltas if asked)."""
    d_tpr = disparity("TPR", DIFFERENCE, rates_unpriv, rates_priv)
    d_fpr = disparity("FPR", DIFFERENCE, rates_unpriv, rates_priv)
    if d_tpr is None or d_fpr is None:
        return None
    if absolute:
        return 0.5 * (abs(d_fpr) + abs(d_tpr))
    return 0.5 * (d_fpr + d_tpr)


def statistical_parity(
    sel_unpriv: float | None, sel_priv: float | None, mode: str
) -> float | None:
    """Selection-rate difference (unpriv - priv) or ratio (unpriv / priv)."""
    if sel_unpriv is None or sel_priv is None:
        return None
    if mode == DIFFERENCE:
        return sel_unpriv - sel_priv
    if mode == RATIO:
        return None if sel_priv == 0 else sel_unpriv / sel_priv
    raise ValueError(f"mode must be {DIFFERENCE!r} or {RATIO!r}, got {mode!r}")


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

def smoothed_edf(pos_counts, totals, concentration: float = 1.0) -> float | None:
    """Largest absolute log-ratio of Dirichlet-smoothed group base rates.

    Each group's favorable rate is smoothed as
    ``(pos + concentration/2) / (total + concentration)``; the result is the
    max over group pairs of max(|ln(r_g/r_h)|, |ln((1-r_g)/(1-r_h))|).
    """
    pos = np.asarray(pos_counts, dtype=float)
    tot = np.asarray(totals, dtype=float)
    if pos.shape != tot.shape or pos.ndim != 1:
        raise ValueError("pos_counts and totals must be 1-D and equal length")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if np.any(tot <= 0) or np.any(pos < 0) or np.any(pos > tot):
        raise ValueError("need 0 <= pos <= total and total > 0 per group")
    if len(pos) < 2:
        return None
    rates = (pos + concentration / 2.0) / (tot + concentration)
    log_r = np.log(rates)
    log_c = np.log(1.0 - rates)
    worst = 0.0
    for g in range(len(rates)):
        for h in range(g + 1, len(rates)):
            worst = max(
                worst, abs(log_r[g] - log_r[h]), abs(log_c[g] - log_c[h])
            )
    return worst


def bias_amplification(
    edf_classifier: float | None, edf_dataset: float | None
) -> float | None:
    """Classifier EDF minus dataset EDF; positive means amplified unfairness."""
    if edf_classifier is None or edf_dataset is None:
        return None
    return edf_classifier - edf_dataset


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
    y_true,
    y_pred,
    s,
    alpha: float = 2.0,
    concentration: float = 1.0,
) -> dict[str, float | None]:
    """All 26 classification metrics (C0..C25) for one prediction set.

    Every value is computed from the count tensor of ``confusion_counts``, so
    equal counts give bit-equal values whatever the row order.  With only one
    protected group present, every group-comparison metric is None; the
    individual-fairness measures (C16, C19, C20) and the overall selection
    rate (C13) are still computed.
    """
    c = confusion_counts(y_true, y_pred, s).tolist()
    out: dict[str, float | None] = {m.id: None for m in CLASSIFICATION_METRICS}

    # per group: counts of the benefits in BENEFITS, i.e. (FN, TP + TN, FP)
    benefit = [(g[1][0], g[1][1] + g[0][0], g[0][1]) for g in c]
    sizes = [sum(counts) for counts in benefit]
    pred_pos = [g[0][1] + g[1][1] for g in c]
    true_pos = [g[1][0] + g[1][1] for g in c]
    out["C13"] = sum(pred_pos) / sum(sizes)
    out["C16"], out["C19"], out["C20"] = entropy_indices(
        BENEFITS, [u + p for u, p in zip(*benefit)], alpha
    )

    if min(sizes) == 0:
        return out

    ru, rp = confusion_rates(c[0]), confusion_rates(c[1])
    out["C0"] = disparity("TPR", DIFFERENCE, ru, rp)
    out["C1"] = disparity("FPR", DIFFERENCE, ru, rp)
    out["C2"] = disparity("FNR", DIFFERENCE, ru, rp)
    out["C3"] = disparity("FOR", DIFFERENCE, ru, rp)
    out["C4"] = disparity("FDR", DIFFERENCE, ru, rp)
    out["C5"] = disparity("FPR", RATIO, ru, rp)
    out["C6"] = disparity("FNR", RATIO, ru, rp)
    out["C7"] = disparity("FOR", RATIO, ru, rp)
    out["C8"] = disparity("FDR", RATIO, ru, rp)
    out["C9"] = average_odds(ru, rp, absolute=False)
    out["C10"] = average_odds(ru, rp, absolute=True)
    out["C11"] = disparity("ERR", DIFFERENCE, ru, rp)
    out["C12"] = disparity("ERR", RATIO, ru, rp)
    out["C14"] = statistical_parity(ru.selection_rate, rp.selection_rate, RATIO)
    out["C15"] = statistical_parity(ru.selection_rate, rp.selection_rate, DIFFERENCE)

    # between-group variants: every row's benefit replaced by its group's mean
    means = [
        sum(b * k for b, k in zip(BENEFITS, counts)) / size
        for counts, size in zip(benefit, sizes)
    ]
    out["C18"], out["C21"], out["C22"] = entropy_indices(means, sizes, alpha)
    # The "all groups" variants range over every intersection of protected
    # attributes; with one binary attribute those are the same two groups.
    out["C17"], out["C23"], out["C24"] = out["C18"], out["C21"], out["C22"]

    out["C25"] = bias_amplification(
        smoothed_edf(pred_pos, sizes, concentration),
        smoothed_edf(true_pos, sizes, concentration),
    )
    return out


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
    rate_priv = None if tot[0] == 0 else float(pos[0] / tot[0])
    rate_unpriv = None if tot[1] == 0 else float(pos[1] / tot[1])
    out["D2"] = statistical_parity(rate_unpriv, rate_priv, DIFFERENCE)
    out["D3"] = statistical_parity(rate_unpriv, rate_priv, RATIO)
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
