"""Metric-redundancy analysis.

The selection tactic implemented here: correlate metrics across repeated
cross-validation samples (Spearman), turn correlation into dissimilarity
``d = 1 - |rho|``, cluster with average linkage, cut the dendrogram at the
widest stable gap, then score each cluster for intra-cluster agreement and
fold-to-fold sensitivity so uninformative clusters can be pruned.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .harness import MetricSampleMatrix


# --------------------------------------------------------------------------
# Spearman rank correlation
# --------------------------------------------------------------------------

def rank_average(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based) along the last axis; tied values share
    their average rank.  Each row of a 2-D input is ranked on its own."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    n = values.shape[-1]
    pos = np.arange(n)
    # a tie run spans sorted positions first..last and gets 0.5*(first+last)+1
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(values.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape, dtype=float)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)
    return ranks


def spearman(x, y=None) -> np.ndarray | float | None:
    """Spearman rho with pairwise deletion of undefined entries.

    ``spearman(x, y)`` correlates two series and returns a float or None.
    ``spearman(block)`` correlates every pair of rows of a 2-D block (one
    series per row) and returns the matrix of coefficients, NaN where
    undefined.  Entries that are None or non-finite on either side of a pair
    are dropped; fewer than 3 surviving pairs, or a constant survivor
    series, gives undefined.

    Pairs of rows are grouped by their common defined entries.  Each group's
    rows are ranked on those entries once, and one product of the centred
    ranks gives every pair's sums.  Average ranks are half-integers with
    mean (m+1)/2, so those sums are exact and each coefficient is bit-equal
    to correlating the pair on its own.
    """
    block = np.array(x if y is None else [x, y], dtype=float)
    if block.ndim != 2:
        raise ValueError("spearman needs two series or a 2-D block of series")
    defined = np.isfinite(block)
    patterns, pattern_of_row = np.unique(defined, axis=0, return_inverse=True)
    pattern_of_row = pattern_of_row.ravel()
    groups: dict[bytes, tuple[np.ndarray, list]] = {}
    for p in range(len(patterns)):
        for q in range(p, len(patterns)):
            common = patterns[p] & patterns[q]
            groups.setdefault(common.tobytes(), (common, []))[1].append((p, q))

    rho = np.full((len(block), len(block)), np.nan)
    for common, pattern_pairs in groups.values():
        m = int(common.sum())
        if m < 3:
            continue
        rows = np.flatnonzero(np.isin(pattern_of_row, np.ravel(pattern_pairs)))
        centred = rank_average(block[np.ix_(rows, common)]) - 0.5 * (m + 1)
        sums = centred @ centred.T
        norms = np.diag(sums)
        denom = np.sqrt(np.outer(norms, norms))
        with np.errstate(divide="ignore", invalid="ignore"):
            coeffs = np.where(denom == 0, np.nan, sums / denom)
        local = pattern_of_row[rows]
        for p, q in pattern_pairs:
            a, b = local == p, local == q
            rho[np.ix_(rows[a], rows[b])] = coeffs[np.ix_(a, b)]
            rho[np.ix_(rows[b], rows[a])] = coeffs[np.ix_(b, a)]
    if y is None:
        return rho
    return None if np.isnan(rho[0, 1]) else float(rho[0, 1])


PER_CELL_AVERAGE = "per_cell_average"
POOLED = "pooled"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Spearman matrix over metric ids; NaN marks undefined entries."""

    metric_ids: tuple[str, ...]
    values: np.ndarray
    scope: str

    def __post_init__(self):
        self.values.setflags(write=False)

    def get(self, a: str, b: str) -> float | None:
        i = self.metric_ids.index(a)
        j = self.metric_ids.index(b)
        v = self.values[i, j]
        return None if np.isnan(v) else float(v)


def correlation_matrix(
    samples: MetricSampleMatrix, metric_ids, scope: str = PER_CELL_AVERAGE
) -> CorrelationMatrix:
    """Metric-to-metric Spearman over every (dataset, model) cell.

    Each cell's block is its (metrics x folds) slice of ``samples.values``,
    NaN for Undefined, so a pair uses the folds both series define.
    ``per_cell_average`` correlates each cell's block in one ``spearman``
    call, then averages every pair's defined per-cell coefficients in cell
    order (undefined cells are skipped).  ``pooled`` concatenates the cell
    blocks along the fold axis and correlates once.
    """
    if scope not in (PER_CELL_AVERAGE, POOLED):
        raise ValueError(f"unknown correlation scope {scope!r}")
    metric_ids = tuple(metric_ids)
    rows = [samples.metric_ids.index(mid) for mid in metric_ids]
    values = samples.values[:, :, rows]
    blocks = values.reshape(-1, *values.shape[2:])  # (cells, metrics, folds)

    if scope == POOLED:
        out = spearman(np.concatenate(blocks, axis=1))
    else:
        per_cell = np.stack([spearman(block) for block in blocks])
        k = len(metric_ids)
        out = np.full((k, k), np.nan)
        for i in range(k):
            for j in range(i + 1, k):
                coeffs = per_cell[:, i, j]
                coeffs = coeffs[~np.isnan(coeffs)]
                if len(coeffs):
                    out[i, j] = out[j, i] = float(np.mean(coeffs))
    np.fill_diagonal(out, 1.0)
    return CorrelationMatrix(metric_ids=metric_ids, values=out, scope=scope)


# --------------------------------------------------------------------------
# Dissimilarity and average-linkage clustering
# --------------------------------------------------------------------------

def dissimilarity(sim: float | None) -> float:
    """d = 1 - |sim|; an undefined similarity is maximally dissimilar (1)."""
    if sim is None or (isinstance(sim, float) and math.isnan(sim)):
        return 1.0
    if not -1.0 - 1e-9 <= sim <= 1.0 + 1e-9:
        raise ValueError(f"similarity must lie in [-1, 1], got {sim}")
    return max(0.0, 1.0 - abs(sim))


def dissimilarity_matrix(corr: CorrelationMatrix) -> np.ndarray:
    k = len(corr.metric_ids)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = 0.0 if i == j else dissimilarity(
                None if np.isnan(corr.values[i, j]) else float(corr.values[i, j])
            )
    return out


@dataclass(frozen=True)
class Merge:
    """One agglomeration step; node ids follow the usual convention that
    leaves are 0..n-1 and the merge created at step t gets id n+t."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    @property
    def heights(self) -> tuple[float, ...]:
        return tuple(m.height for m in self.merges)


def agglomerate(dismat, labels) -> Dendrogram:
    """Average-linkage (UPGMA) clustering of a symmetric dissimilarity matrix.

    Cluster distances are updated with the size-weighted Lance-Williams rule,
    which keeps each inter-cluster distance equal to the mean pairwise
    dissimilarity between members.  Ties on the minimum distance are broken by
    the lexicographically smallest (node id, node id) pair, which makes the
    merge order deterministic.
    """
    d = np.array(dismat, dtype=float)
    labels = tuple(labels)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("dissimilarity matrix must be square")
    if len(labels) != n:
        raise ValueError("labels must match matrix size")
    if n < 2:
        raise ValueError("need at least 2 items to cluster")
    if not np.allclose(d, d.T, atol=1e-12):
        raise ValueError("dissimilarity matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("dissimilarity matrix must have a zero diagonal")

    # active: node id -> (row index into the working matrix, cluster size)
    work = d.copy()
    node_of_row = list(range(n))
    sizes = {i: 1 for i in range(n)}
    active_rows = set(range(n))
    merges: list[Merge] = []

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
        merges.append(Merge(left=a, right=b, height=float(height), size=new_size))

        # Lance-Williams average-linkage update, written into row ri; weights
        # follow the clusters living in the rows, not the node-id order.
        for rk in active_rows:
            if rk in (ri, rj):
                continue
            work[ri, rk] = work[rk, ri] = (
                size_i * work[ri, rk] + size_j * work[rj, rk]
            ) / new_size
        active_rows.remove(rj)
        node_of_row[ri] = new_id
        sizes[new_id] = new_size
    return Dendrogram(leaves=labels, merges=tuple(merges))


@dataclass(frozen=True)
class CutSelection:
    """Chosen cut height plus the stable interval it sits inside."""

    height: float
    gap_low: float
    gap_high: float


CUT_SENTINEL = 1.0  # maximum possible dissimilarity under d = 1 - |rho|


def select_cut(dendrogram: Dendrogram) -> CutSelection:
    """Cut at the midpoint of the widest gap between consecutive merge heights.

    Heights are sorted ascending and followed by a sentinel at 1.0, so a flat
    dendrogram cuts above everything (one cluster).  On ties the highest gap
    wins, which also prefers the sentinel gap.
    """
    if not dendrogram.merges:
        raise ValueError("dendrogram has no merges")
    heights = sorted(dendrogram.heights)
    levels = heights + [max(CUT_SENTINEL, heights[-1])]
    best = 0
    for i in range(len(levels) - 1):
        if levels[i + 1] - levels[i] >= levels[best + 1] - levels[best]:
            best = i
    return CutSelection(
        height=0.5 * (levels[best] + levels[best + 1]),
        gap_low=levels[best],
        gap_high=levels[best + 1],
    )


def extract_clusters(dendrogram: Dendrogram, cut: float) -> tuple[tuple[str, ...], ...]:
    """Partition of the leaves induced by merges strictly below the cut.

    Clusters are ordered by their smallest leaf index, members by leaf index,
    so the numbering is deterministic.
    """
    n = len(dendrogram.leaves)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # every internal node keeps a representative leaf so later merges can be
    # applied even when an earlier one fell above the cut
    node_root = {i: i for i in range(n)}
    for t, merge in enumerate(dendrogram.merges):
        la, lb = node_root[merge.left], node_root[merge.right]
        node_root[n + t] = la
        if merge.height < cut:
            ra, rb = find(la), find(lb)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(leaf)
    ordered = sorted(groups.values(), key=lambda g: min(g))
    return tuple(tuple(dendrogram.leaves[i] for i in sorted(g)) for g in ordered)


# --------------------------------------------------------------------------
# Agreement and disagreement summaries
# --------------------------------------------------------------------------

def agreement_percentage(labels) -> float:
    """Share of the majority label, in percent; an even split scores 50."""
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    top = max(labels.count(v) for v in set(labels))
    return 100.0 * top / len(labels)


def unfair_percentage(labels) -> float:
    """Share of Unfair labels, in percent."""
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    return 100.0 * sum(1 for v in labels if v == "Unfair") / len(labels)


# --------------------------------------------------------------------------
# Sensitivity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityCell:
    dataset: str
    model: str
    metric_id: str
    median: float | None
    iqr: float | None
    flagged: bool


@dataclass(frozen=True)
class SensitivityReport:
    cells: tuple[SensitivityCell, ...]
    sigma: float
    threshold: float
    d: float

    def metric_insensitive(self, metric_id: str) -> bool:
        """A metric is insensitive iff a minority of its cells are flagged."""
        mine = [c for c in self.cells if c.metric_id == metric_id and c.iqr is not None]
        if not mine:
            return False
        flagged = sum(1 for c in mine if c.flagged)
        return 2 * flagged < len(mine)

    def cluster_insensitive(self, metric_ids) -> bool:
        """A cluster is insensitive iff a majority of its metrics are."""
        metric_ids = list(metric_ids)
        insensitive = sum(1 for m in metric_ids if self.metric_insensitive(m))
        return 2 * insensitive > len(metric_ids)


def defined_blocks(rows: np.ndarray):
    """Yield ``(selected, block)`` for each count n > 0 of finite entries a
    row of the 2-D ``rows`` can have: ``selected`` marks the rows with n
    finite entries and ``block`` holds those entries, one row each, in their
    order.  One quantile call along a block's last axis gives every selected
    row the bits of its own 1-D call."""
    finite = np.isfinite(rows)
    n_defined = finite.sum(axis=1)
    for n in np.unique(n_defined[n_defined > 0]):
        selected = n_defined == n
        yield selected, rows[selected][finite[selected]].reshape(-1, n)


def sensitivity_table(samples: MetricSampleMatrix, d: float = 0.35) -> SensitivityReport:
    """Median and IQR per (dataset, model, metric), flagged when volatile.

    Quantiles use linear interpolation over defined samples.  A cell is flagged
    iff its IQR exceeds ``d`` times the standard deviation of all IQRs in the run.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    n_samples = samples.values.shape[-1]
    rows = samples.values.reshape(-1, n_samples)
    quartiles = np.full((len(rows), 3), np.nan)
    for selected, block in defined_blocks(rows):
        quartiles[selected] = np.percentile(block, [25, 50, 75], axis=1).T
    n_defined = np.isfinite(rows).sum(axis=1)
    short = n_defined[(n_defined > 0) & (n_defined < n_samples)]
    if len(short):
        warnings.warn(
            f"{len(short)} sensitivity cell(s) have fewer than {n_samples} "
            f"defined samples (the shortest has {short.min()} defined samples); "
            f"their statistics use the available ones"
        )

    medians = quartiles[:, 1]
    iqrs = quartiles[:, 2] - quartiles[:, 0]
    defined = np.isfinite(iqrs)
    sigma = float(iqrs[defined].std()) if defined.any() else 0.0
    threshold = d * sigma
    keys = itertools.product(samples.datasets, samples.models, samples.metric_ids)
    cells = tuple(
        SensitivityCell(
            dataset=ds,
            model=model,
            metric_id=mid,
            median=None if math.isnan(median) else median,
            iqr=None if math.isnan(iqr) else iqr,
            flagged=iqr > threshold,  # False for NaN, a cell with no defined sample
        )
        for (ds, model, mid), median, iqr in zip(keys, medians.tolist(), iqrs.tolist())
    )
    return SensitivityReport(cells=cells, sigma=sigma, threshold=threshold, d=d)


# --------------------------------------------------------------------------
# Movement after mitigation
# --------------------------------------------------------------------------

TOWARD_IDEAL = "UF"
AWAY_FROM_IDEAL = "FU"
NO_CHANGE = "NC"


@dataclass(frozen=True)
class MovementResult:
    verdicts: dict[str, str]  # metric id -> UF / FU / NC
    excluded: tuple[str, ...]  # metric ids undefined on either side

    @property
    def counts(self) -> dict[str, int]:
        out = {TOWARD_IDEAL: 0, AWAY_FROM_IDEAL: 0, NO_CHANGE: 0}
        for verdict in self.verdicts.values():
            out[verdict] += 1
        return out


def movement_counts(
    baseline_medians: dict,
    mitigated_medians: dict,
    ideals: dict,
    epsilon: float = 0.001,
) -> MovementResult:
    """Classify each metric's move after mitigation.

    delta = |mitigated - ideal| - |baseline - ideal|; below -epsilon the
    metric moved toward its ideal (UF), above +epsilon it moved away (FU),
    otherwise it did not change (NC).
    """
    if set(baseline_medians) != set(mitigated_medians):
        raise ValueError("baseline and mitigated medians must cover the same metrics")
    verdicts: dict[str, str] = {}
    excluded: list[str] = []
    for mid in baseline_medians:
        base, mit = baseline_medians[mid], mitigated_medians[mid]
        if base is None or mit is None:
            excluded.append(mid)
            continue
        delta = abs(mit - ideals[mid]) - abs(base - ideals[mid])
        if delta < -epsilon:
            verdicts[mid] = TOWARD_IDEAL
        elif delta > epsilon:
            verdicts[mid] = AWAY_FROM_IDEAL
        else:
            verdicts[mid] = NO_CHANGE
    return MovementResult(verdicts=verdicts, excluded=tuple(sorted(excluded)))
