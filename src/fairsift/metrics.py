"""The 30-metric fairness inventory: confusion-matrix rates, group disparities,
benefit-entropy measures, smoothed differential fairness, kNN consistency, and
fair/unfair labeling.

Metric ids follow the AIF360-derived inventory used throughout this project:
``C0``..``C25`` are classification metrics (need predictions), ``D0``..``D3``
are dataset metrics (need only labels, groups, features, weights).

A metric is *undefined* where its formula is (for example a 0/0 rate or a
ratio with a zero denominator): NaN in the arrays that
``compute_classification_metrics`` (count tensors ``(..., 2, 2, 2)`` to
``(..., 26)``) and ``compute_dataset_metrics`` (label-weight tensors
``(..., 2, 2)`` to ``(..., 4)``) return.  Undefined never silently turns
into a number: it propagates, is excluded pairwise from correlations, and is
labeled Unfair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import apply_minmax, json_text

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
    """The metric inventory as JSON (``datamodel.json_text``), for
    downstream tools to pin against."""
    entries = [
        {"id": m.id, "name": m.name, "ideal": m.ideal, "family": m.family, "kind": m.kind}
        for m in ALL_METRICS
    ]
    return json_text(entries)


# --------------------------------------------------------------------------
# The count tensor
# --------------------------------------------------------------------------

def _check_binary(name: str, v) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim == 0:
        raise ValueError(f"{name} must have a row axis")
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return v.astype(np.int64)


def confusion_counts(y_true, y_pred, s, where=None) -> np.ndarray:
    """Integer count tensor ``c[group, label, prediction]``, shape (2, 2, 2).

    Group 1 is privileged, label and prediction 1 are favorable, so
    ``c[g, 1, 1]`` is group g's TP, ``c[g, 0, 1]`` its FP, ``c[g, 1, 0]`` its
    FN and ``c[g, 0, 0]`` its TN.  Every classification metric is a function
    of these 8 counts alone.  Stacked inputs of one shape ``(..., n)`` give
    ``(..., 2, 2, 2)``; a boolean ``where`` of that shape counts only its
    True entries.
    """
    named = {"y_true": y_true, "y_pred": y_pred, "s": s, "where": where}
    checked = {name: _check_binary(name, v)
               for name, v in named.items() if v is not None or name != "where"}
    if len({v.shape for v in checked.values()}) > 1:
        raise ValueError("length mismatch: " + " ".join(
            f"{name}={'x'.join(map(str, v.shape))}" for name, v in checked.items()))
    y_true, y_pred, s = (checked[name] for name in ("y_true", "y_pred", "s"))
    if y_true.shape[-1] == 0:
        raise ValueError("empty input")
    stack, size = y_true.shape[:-1], math.prod(y_true.shape[:-1])
    key = 8 * np.arange(size).reshape(stack + (1,)) + 4 * s + 2 * y_true + y_pred
    if where is not None:
        key = key[checked["where"] == 1]
    return np.bincount(key.ravel(), minlength=8 * size).reshape(stack + (2, 2, 2))


def label_weights(y, s, weights, where=None) -> np.ndarray:
    """Float tensor ``w[group, (favorable, total)]``, shape (2, 2): group g's
    summed instance weight over its favorable rows and over all its rows.

    Group 1 is privileged, so the unprivileged group comes first, as in
    ``confusion_counts``.  D1-D3 are functions of these 4 numbers alone.
    Stacks ``(..., n)`` give ``(..., 2, 2)``, summing the True entries of a
    boolean ``where`` of that shape.  Each sum is numpy's ``.sum()`` over an
    entry's rows of a group in row order, a 1-D call's bits: hence the loop.
    """
    y, s = _check_binary("y", y), _check_binary("s", s)
    w = np.asarray(weights, dtype=float)
    keep = np.ones(y.shape, bool) if where is None else _check_binary("where", where) == 1
    # NaN fails w >= 0, and an infinite weight makes the sum infinite
    if not (y.shape == s.shape == w.shape == keep.shape and (w >= 0).all()
            and np.isfinite(w.sum())):
        raise ValueError("y, s, where and weights must align, weights non-negative and finite")
    favorable = w * y
    out = np.empty(y.shape[:-1] + (2, 2))
    for g in (0, 1):
        rows = keep & (s == g)
        for i in np.ndindex(y.shape[:-1]):
            out[i + (g,)] = favorable[i][rows[i]].sum(), w[i][rows[i]].sum()
    return out


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
    ``counts[j]`` times; all three NaN (Undefined) when the mean mu is 0.

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
        return math.nan, math.nan, math.nan
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
    max(|ln(r_g/r_h)|, |ln((1-r_g)/(1-r_h))|).  A group of total 0 is
    skipped (its rate is NaN, which ``np.fmax`` skips); fewer than two
    non-empty groups give NaN (Undefined).
    """
    pos = np.asarray(pos_counts, dtype=float)
    tot = np.asarray(totals, dtype=float)
    if pos.shape != tot.shape or pos.ndim == 0:
        raise ValueError("pos_counts and totals must have equal shapes with a group axis")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if np.any(pos < 0) or np.any(pos > tot):
        raise ValueError("need 0 <= pos <= total per group")
    rates = np.where(tot > 0, (pos + concentration / 2.0) / (tot + concentration), np.nan)
    first, second = np.triu_indices(pos.shape[-1], 1)
    gaps = [np.abs(logs[..., first] - logs[..., second])
            for logs in (np.log(rates), np.log(1.0 - rates))]
    return np.fmax.reduce(np.fmax(*gaps), axis=-1, initial=np.nan)


# --------------------------------------------------------------------------
# kNN consistency
# --------------------------------------------------------------------------

# Distance entries held per block of rows; a block has about budget // n
# rows, so memory stays O(n) whatever the number of rows.
CONSISTENCY_BLOCK_ELEMENTS = 2**18

# The neighbour list keeps each row's first CONSISTENCY_LIST_FACTOR * k
# candidates, enough that a row of a training fold (four fifths of the rows)
# all but never has fewer than k of them inside its fold.
CONSISTENCY_LIST_FACTOR = 4


def _row_blocks(n: int, budget: int | None = None):
    """(start, stop) of the consecutive row blocks the kNN kernels work on,
    about ``budget`` (default ``CONSISTENCY_BLOCK_ELEMENTS``) entries each.

    No block has a single row: numpy multiplies one row through its
    matrix-vector path, which rounds differently from a matrix product.
    """
    step = max(2, (CONSISTENCY_BLOCK_ELEMENTS if budget is None else budget) // n)
    start = 0
    while start < n:
        stop = n if n - start < step + 2 else start + step
        yield start, stop
        start = stop


def neighbour_list(X, k: int):
    """The neighbour list of finite rows X, or None for rows that are not:
    ``(nearest, spans, reach)``, where ``nearest`` holds each row's first
    ``K = CONSISTENCY_LIST_FACTOR * k`` nearest other rows (all of them if
    fewer), min-max scaled by all rows' ``spans``.

    Integer-valued rows get the exact list: the K nearest in (distance, row
    index) order under ``_exact_metric``, and ``reach`` None.  Any other
    rows, or integers past its ``2**53`` bound, get a float list: the K
    nearest by the float kernel's distances of the scaled rows, in no set
    order, and ``reach[i]``, a lower bound on the exact scaled squared
    distance from row i to every row off its list: its (K+1)-th float
    distance minus ``floatlist.rounding_bound`` (+inf when every other row
    is on the list).

    The list depends only on the rows and k, so one list serves every mask
    of every ``consistency`` call on X.  The spans make an index, not a
    scaling.  The list takes O(n K) memory.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2 or k < 1:
        raise ValueError(f"need 2-D X of at least 2 rows and k >= 1, "
                         f"got shape {X.shape} and k={k}")
    if not np.isfinite(X).all():
        return None
    mins, maxs = X.min(axis=0), X.max(axis=0)
    spans = maxs - mins
    size = min(CONSISTENCY_LIST_FACTOR * k, len(X) - 1)
    metric = _exact_metric(X, spans)
    if metric is not None:
        return _nearest(*metric, size), spans, None
    from . import floatlist  # loaded only for data that needs a float list

    nearest, reach = floatlist.build(apply_minmax(X, mins, maxs), size)
    return nearest, spans, reach


def consistency(X, y, k: int, masks, bounds, listed) -> np.ndarray:
    """kNN consistency (D0, Zemel et al. 2013) of each mask's rows: 1 - mean
    |y_i - mean(y of the k nearest neighbors of x_i)|, Euclidean distance,
    self excluded, distance ties broken by the smallest row index.

    X holds raw rows, y their 0/1 labels, ``masks`` is a boolean (m, n)
    array, and ``bounds`` holds one ``(mins, maxs)`` per mask, fitted by the
    caller, which scale the mask's rows as ``datamodel.apply_minmax`` does;
    unit bounds take the rows as given.  ``listed`` is ``neighbour_list(X,
    k)``, built once by the caller for all its calls on X, or None.  Each
    mask needs more than k rows.  The result is the array of each mask's D0.

    Integer-valued rows take the exact path: scaled squared distances times
    ``lcm(span**2)`` are exact integers (``_exact_metric``), so ties are
    exact and the tie rule holds whatever the BLAS.  A mask whose bounds
    have an exact list's spans reads its rows' k nearest in-mask neighbours
    off the list; any other integer mask, or one with a row short of k
    in-mask candidates, runs the exact kernel on its own rows.

    Other data, or integers past the ``2**53`` bound, follows the float
    kernel on the mask's scaled rows (``_float_votes``).  With a float list,
    each row's in-mask candidates are re-ranked by the mask's metric, and a
    row whose k-th candidate distance is far enough below the (k+1)-th and
    its ``reach`` takes its vote from them (``floatlist.votes``): that is the
    kernel's vote, bit for bit.  The kernel runs only on the ``_row_blocks``
    of the mask that hold a row the list could not certify, or on all of
    them when the mask's bounds do not let the list decide; its two block
    buffers are allocated once per call and reused by every float mask.
    All paths end in each row's favourable-neighbour count, one (m, n)
    array, and one D0 expression, a mean per mask taken for all masks of a
    size at once.

    Memory is O(m n) for the counts and O(n) per block of rows otherwise:
    about ``CONSISTENCY_BLOCK_ELEMENTS`` entries (2 MB) per buffer, and the
    float list's ranking works in chunks of rows of about as many entries
    per array.
    """
    X = np.asarray(X, dtype=float)
    y = _check_binary("y", y)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y must align with X rows")
    masks = np.asarray(masks)
    if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"masks must be a boolean (m, {n}) array, "
                         f"got {masks.dtype} {masks.shape}")
    if len(bounds) != len(masks):
        raise ValueError(f"need one (mins, maxs) per mask: {len(masks)} masks, "
                         f"{len(bounds)} bounds")
    bounds = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in bounds]
    for lo, hi in bounds:
        if lo.shape != (p,) or hi.shape != (p,):
            raise ValueError(f"bounds must be (mins, maxs) of width {p}, "
                             f"got shapes {lo.shape} and {hi.shape}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    sizes = masks.sum(axis=1)
    if (sizes <= k).any():
        raise ValueError(f"every mask needs more than k={k} rows, got {sizes.tolist()}")
    if listed is not None and len(listed[0]) != n:
        raise ValueError(f"the neighbour list has {len(listed[0])} rows, X has {n}")
    exact_list = listed is not None and listed[2] is None
    float_list = listed is not None and not exact_list

    # each row's favourable-neighbour count per mask, at the mask's rows;
    # only a mask of integer-valued rows can have an exact metric
    votes = np.zeros(masks.shape, dtype=np.intp)
    integral = ~(masks & ~(X == np.round(X)).all(axis=1)).any(axis=1)
    pending = []
    for i, (mask, (mins, maxs)) in enumerate(zip(masks, bounds)):
        nearest = None
        if exact_list and np.array_equal(maxs - mins, listed[1]):
            nearest = _first_in_mask(listed[0], mask, k)
        if nearest is None and integral[i]:
            own = _exact_metric(X[mask], maxs - mins)
            if own is not None:
                nearest = np.flatnonzero(mask)[_nearest(*own, k)]
        if nearest is None:
            pending.append(i)
        else:
            votes[i, mask] = y[nearest].sum(axis=1)
    open_rows = masks[pending]
    if pending and float_list:
        from . import floatlist

        votes[pending], certified = floatlist.votes(X, y, k, open_rows,
                                                    [bounds[i] for i in pending], listed)
        open_rows &= ~certified
    buffers = None
    for j in np.flatnonzero(open_rows.any(axis=1)):
        i = pending[j]
        mask, (mins, maxs) = masks[i], bounds[i]
        own, rows = votes[i, mask], open_rows[j, mask]
        blocks = [(a, b) for a, b in _row_blocks(sizes[i]) if rows[a:b].any()]
        if buffers is None:  # sized for every mask: a smaller one can have larger blocks
            size = max((stop - start) * m for m in set(sizes.tolist())
                       for start, stop in _row_blocks(m))
            buffers = np.empty(size), np.empty(size)
        _float_votes(apply_minmax(X[mask], mins, maxs), y[mask] == 1, k, *buffers, own, blocks)
        votes[i, mask] = own
    # the rows of a 2-D mean have the bits of each mask's own 1-D mean
    gaps = np.abs(y - votes / k)
    d0 = np.empty(len(masks))
    for size in set(sizes.tolist()):
        group = sizes == size
        d0[group] = 1.0 - gaps[group][masks[group]].reshape(-1, size).mean(axis=1)
    return d0


def _exact_metric(X, spans):
    """Rows and integer column weights under which the weighted squared
    distance is the one min-max scaled by column ``spans`` (maxs - mins)
    times ``lcm(span**2)``, exactly; None where X or the spans are not
    integers, or the bound below fails.

    Scaling divides column c by its span s_c, so the scaled squared distance
    times L = lcm(s_c**2) is sum_c (L / s_c**2) (x_c - x'_c)**2; a constant
    column maps to 0 and weighs nothing.  With the rows shifted to start at
    0, every product, partial sum and key ``_nearest`` forms is an integer
    of magnitude at most 2 R n + n, R the largest weighted distance (at most
    p L).  ``4 R n < 2**53`` keeps them all exact in float64, in whatever
    order the BLAS adds.
    """
    if not ((X == np.round(X)).all() and (spans == np.round(spans)).all()
            and np.isfinite(X).all() and np.isfinite(spans).all() and (spans >= 0).all()):
        return None
    squares = [int(s) ** 2 for s in spans]
    lcm = math.lcm(*(q for q in squares if q))
    weights = [lcm // q if q else 0 for q in squares]
    lo = X.min(axis=0)
    reach = sum(w * int(r) ** 2 for w, r in zip(weights, X.max(axis=0) - lo))
    if 4 * reach * len(X) >= 2**53:
        return None
    return X - lo, np.array(weights, dtype=float)


def _nearest(A, weights, k: int) -> np.ndarray:
    """Each row's k nearest other rows of A, in (distance, row index) order,
    under the exact weighted distance of ``_exact_metric``.

    Each candidate is keyed ``distance * n + index``, one exact float per
    pair, so a partition of a row's keys picks its k smallest by (distance,
    index) with no separate tie rule, and the index is the key modulo n.
    """
    n = len(A)
    # keys are -2 n (a . b) + n |a|^2 + (n |b|^2 + index), every term exact
    left = A * (-2.0 * n * weights)
    sq = (A * A) @ weights * n
    right = sq + np.arange(n)
    nearest = np.empty((n, k), dtype=np.intp)
    for start, stop in _row_blocks(n):
        keys = left[start:stop] @ A.T
        keys += sq[start:stop, None]
        keys += right
        rows = np.arange(stop - start)
        keys[rows, rows + start] = np.inf  # self
        keys.partition(k - 1, axis=1)
        first = np.sort(keys[:, :k], axis=1)
        nearest[start:stop] = first % n
    return nearest


def _first_in_mask(nearest, mask, k: int):
    """Each mask row's first k neighbours inside the mask, in list order,
    read off the list ``nearest``; None when some row has fewer than k."""
    candidates = nearest[mask]
    inside = mask[candidates]
    rank = np.cumsum(inside, axis=1)
    if (rank[:, -1] < k).any():
        return None
    return candidates[inside & (rank <= k)].reshape(-1, k)


def _float_distances(X, sq, start: int, stop: int, d, g) -> None:
    """Fill ``d`` with the float squared distances (|a|^2 + |b|^2) - 2ab of
    rows start:stop of X to every row, ``sq`` the rows' squared norms, and
    +inf at each row's self; ``g``, of d's shape, holds the Gram product.

    Up to the block budget the one block's product is ``X @ X.T`` itself.
    Above it, the BLAS may round a block's products differently in the last
    bit from the whole product, but never past ``floatlist.rounding_bound``.
    """
    # the cheap row broadcast first; addition commutes, so the bits are
    # those of sq[i] + sq[j]
    np.copyto(d, sq)
    d += sq[start:stop, None]
    np.matmul(X[start:stop], X.T, out=g)
    g *= 2.0
    d -= g
    np.maximum(d, 0.0, out=d)
    local = np.arange(stop - start)
    d[local, local + start] = np.inf


def _float_votes(X, favourable, k: int, d_buffer, g_buffer, votes, blocks) -> None:
    """Each row's count of ``favourable`` rows among its k nearest other rows
    of X as given, in floating point, written to ``votes`` for the rows of
    ``blocks``, some blocks of ``_row_blocks(len(X))``: squared distances
    by ``_float_distances``, the k-th smallest as each row's threshold, and
    ties at it broken by the smallest row index.

    Each block works in views of the flat buffers, which must hold any
    block's entries: ``d`` holds its distances, and ``g`` its Gram product,
    then a copy of ``d`` partitioned in place.  A block's counts depend on
    no other block.  Equal distances of values that are not dyadic may
    round apart, and the BLAS may round a block's product differently from
    the whole one; either can decide a tie at the k-th distance.
    """
    sq = (X * X).sum(axis=1)
    n = len(X)
    for start, stop in blocks:
        shape = (stop - start, n)
        d = d_buffer[:shape[0] * n].reshape(shape)
        g = g_buffer[:shape[0] * n].reshape(shape)
        _float_distances(X, sq, start, stop, d, g)

        # After the partition the first k entries of g hold the k smallest
        # distances and entry k the (k+1)-th.  When the k-th is strictly
        # below the (k+1)-th the k entries of d at or below it are the
        # neighbours; only rows with ties straddling the boundary need the
        # explicit smallest-row-index rule.
        np.copyto(g, d)
        g.partition(k, axis=1)
        kth = g[:, :k].max(axis=1)
        take = d <= kth[:, None]
        for i in np.flatnonzero(g[:, k] == kth):
            tied = np.flatnonzero(d[i] == kth[i])
            take[i, tied[k - np.count_nonzero(d[i] < kth[i]):]] = False
        take &= favourable
        votes[start:stop] = np.count_nonzero(take, axis=1)


# --------------------------------------------------------------------------
# Full metric sets
# --------------------------------------------------------------------------

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
    experiment records a fold whose model could not be trained.  A ratio
    (C5-C8, C12, C14) whose numerator is 0 is 0, as the division gives, so
    swapping the groups turns it Undefined (a zero denominator).

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

    c25 = smoothed_edf(pred_pos, size, concentration) - smoothed_edf(true_pos, size, concentration)

    # per tensor: counts of the benefits in BENEFITS, i.e. (FN, TP + TN, FP)
    individual, between = [], []
    undefined = (math.nan, math.nan, math.nan)
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
        c25,  # C25
    )
    return np.stack(columns, axis=-1)


def compute_dataset_metrics(
    label_weights, consistency, concentration: float = 1.0
) -> np.ndarray:
    """All 4 dataset metrics of every label-weight tensor in a stack.

    ``label_weights`` is a float array ``(..., 2, 2)`` of ``label_weights``
    tensors and ``consistency`` their D0 values, broadcastable to ``...``;
    the result is ``(..., 4)`` in ``DATASET_IDS`` order, NaN for Undefined.
    D1 is ``smoothed_edf`` over the group axis, D2 and D3 the difference and
    ratio of the groups' weighted favorable rates; all three are Undefined
    where either group has zero weight, and D3 is 0 at a zero numerator.  A
    tensor of all zeros is Undefined in all 4: that is how the experiment
    records a fold whose reweighing failed.
    """
    w = np.asarray(label_weights, dtype=float)
    pos, tot = w[..., 0], w[..., 1]  # per group, unprivileged first
    if w.shape[-2:] != (2, 2) or not (np.isfinite(w).all(-1) & (pos >= 0) & (pos <= tot)).all():
        raise ValueError(f"label weights must have shape (..., 2, 2) and finite 0 <= "
                         f"favorable <= total per group, got shape {w.shape}")
    rates = _ratio(pos, tot)
    return np.stack((
        np.where((tot > 0).any(axis=-1), consistency, np.nan),  # D0
        smoothed_edf(pos, tot, concentration),  # D1
        rates[..., 0] - rates[..., 1],  # D2
        _ratio(rates[..., 0], rates[..., 1]),  # D3
    ), axis=-1)


# --------------------------------------------------------------------------
# Fair / Unfair labeling
# --------------------------------------------------------------------------

ZERO_FAIR_BAND = (-0.1, 0.1)
ONE_FAIR_BAND = (0.8, 1.2)


def label_fair(
    value,
    ideal,
    zero_band: tuple[float, float] = ZERO_FAIR_BAND,
    one_band: tuple[float, float] = ONE_FAIR_BAND,
):
    """Label metric values Fair or Unfair against their ideals' bands.

    Ideal 0 metrics are fair in [-0.1, 0.1]; ideal 1 metrics in [0.8, 1.2];
    band boundaries included.  Undefined values (NaN, inf) are labeled
    Unfair: an unmeasurable disparity deserves scrutiny, not a pass.
    ``value`` and ``ideal`` broadcast against each other; scalars give one
    label string, arrays an array of them.
    """
    value = np.asarray(value, dtype=float)
    zero = np.asarray(ideal) == 0
    low = np.where(zero, zero_band[0], one_band[0])
    high = np.where(zero, zero_band[1], one_band[1])
    fair = np.isfinite(value) & (low <= value) & (value <= high)
    labels = np.where(fair, FAIR, UNFAIR)
    return labels.item() if labels.ndim == 0 else labels
