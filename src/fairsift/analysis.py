"""Metric-redundancy analysis.

The selection tactic implemented here: correlate metrics across repeated
cross-validation samples (Spearman), turn correlation into dissimilarity
``d = 1 - |rho|``, cluster with average linkage, cut the dendrogram at the
widest stable gap, then score each cluster for intra-cluster agreement and
fold-to-fold sensitivity so uninformative clusters can be pruned.

Everything here reads and returns arrays with NaN as the one Undefined
value.  The sift runs on the correlation matrix: ``dissimilarity_matrix`` is
one array expression, ``agglomerate`` takes each step's minimum over a mask
of live row pairs and updates whole rows, ``select_cut`` takes the last
widest gap of ``np.diff``, and ``extract_clusters`` relabels an array of
per-leaf cluster labels.  Per-cell statistics are arrays over ``[dataset,
model, metric]``.  ``sensitivity_table`` makes one quartile call per block
of cells with equal counts of defined folds; its 50th percentile is each
cell's one median, which the labels, the movement verdicts and every writer
read.  ``movement_counts`` classifies whole median arrays in one call.
"""

import itertools
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


def _first_seen(keys) -> tuple[np.ndarray, list]:
    """Each key's group, numbered from 0 as first seen, and the groups'
    keys in that order."""
    groups = {}
    codes = [groups.setdefault(key, len(groups)) for key in keys]
    return np.array(codes, dtype=np.intp), list(groups)


def spearman(block) -> np.ndarray:
    """Spearman rho of every pair of rows of a 2-D block (one series per
    row), with pairwise deletion of undefined entries: the matrix of
    coefficients, NaN where undefined.  Entries that are NaN or infinite on
    either side of a pair are dropped; fewer than 3 surviving pairs, or a
    constant survivor series, gives NaN.

    Pairs of rows are grouped by their common defined entries: rows by
    their packed defined-entry pattern, then each pair of patterns by the
    entries both define, each through a dict keyed on the packed bytes
    (``_first_seen``).  Each group's rows are ranked on those
    entries once, and one product of the centred ranks gives every pair's
    sums.  Average ranks are half-integers with mean (m+1)/2, so those sums
    are exact and each coefficient is bit-equal to correlating the pair on
    its own.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("spearman needs a 2-D block of series")
    # one bit per entry keeps the dict keys short
    defined = np.packbits(np.isfinite(block), axis=1)
    pattern_of_row, patterns = _first_seen(map(bytes, defined))
    patterns = np.frombuffer(b"".join(patterns), dtype=np.uint8).reshape(
        len(patterns), defined.shape[1])
    common = patterns[:, None, :] & patterns[None, :, :]
    group_of_pair, commons = _first_seen(
        map(bytes, common.reshape(len(patterns) ** 2, defined.shape[1])))
    # the group of every pair of rows (symmetric, as common entries are)
    group = group_of_pair.reshape(common.shape[:2])[np.ix_(pattern_of_row, pattern_of_row)]

    rho = np.full(group.shape, np.nan)
    for g, bits in enumerate(commons):
        columns = np.unpackbits(np.frombuffer(bits, dtype=np.uint8),
                                count=block.shape[1]).astype(bool)
        m = int(columns.sum())
        if m < 3:
            continue
        in_group = group == g
        rows = np.flatnonzero(in_group.any(axis=1))
        centred = rank_average(block[np.ix_(rows, columns)]) - 0.5 * (m + 1)
        sums = centred @ centred.T
        norms = np.diag(sums)
        denom = np.sqrt(np.outer(norms, norms))
        with np.errstate(divide="ignore", invalid="ignore"):
            coeffs = np.where(denom == 0, np.nan, sums / denom)
        rho[in_group] = coeffs[in_group[np.ix_(rows, rows)]]
    return rho


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


def correlation_matrix(
    samples: MetricSampleMatrix, metric_ids, scope: str = PER_CELL_AVERAGE
) -> CorrelationMatrix:
    """Metric-to-metric Spearman over every (dataset, model) cell.

    Each cell's block is its (metrics x folds) slice of ``samples.values``,
    NaN for Undefined, so a pair uses the folds both series define.
    ``per_cell_average`` correlates each cell's block in one ``spearman``
    call, then averages every pair's defined per-cell coefficients in cell
    order (undefined cells are skipped): one ``mean`` per ``defined_blocks``
    block of the [pair, cell] coefficients.  ``pooled`` concatenates the cell
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
        upper = np.triu_indices(len(metric_ids), 1)
        pair_means = np.full(len(upper[0]), np.nan)
        for selected, coeffs in defined_blocks(per_cell[:, upper[0], upper[1]].T):
            pair_means[selected] = coeffs.mean(axis=1)
        out = np.full(per_cell.shape[1:], np.nan)
        out[upper] = out[upper[::-1]] = pair_means
    np.fill_diagonal(out, 1.0)
    return CorrelationMatrix(metric_ids=metric_ids, values=out, scope=scope)


# --------------------------------------------------------------------------
# Dissimilarity and average-linkage clustering
# --------------------------------------------------------------------------

def dissimilarity_matrix(corr: CorrelationMatrix) -> np.ndarray:
    """d = max(0, 1 - |rho|) per entry, with a zero diagonal; an undefined
    (NaN) rho is maximally dissimilar (1)."""
    rho = np.abs(corr.values)
    outside = corr.values[rho > 1.0 + 1e-9]
    if len(outside):
        raise ValueError(f"similarity must lie in [-1, 1], got {outside[0]}")
    out = np.where(np.isnan(rho), 1.0, np.maximum(0.0, 1.0 - rho))
    np.fill_diagonal(out, 0.0)
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
    merge order deterministic.  Entries may be ``inf`` but not NaN or negative.
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
    if np.isnan(d).any():
        raise ValueError("dissimilarities must not be NaN")
    if not np.allclose(d, d.T, atol=1e-12):
        raise ValueError("dissimilarity matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("dissimilarity matrix must have a zero diagonal")
    if np.any(d < 0):
        raise ValueError(f"dissimilarities must not be negative, got {d[d < 0][0]}")

    # row r of the working matrix holds cluster node[r] of size[r]; a merge
    # lives on in the lower of its two rows.  ``live`` marks the upper-triangle
    # pairs of rows still in play (a mask, not an inf sentinel: the input may
    # itself hold inf).
    work = d.copy()
    node = np.arange(n)
    size = np.ones(n, dtype=int)
    live = np.triu(np.ones((n, n), dtype=bool), 1)
    merges: list[Merge] = []

    for step in range(n - 1):
        rows, cols = np.nonzero(live & (work == work[live].min()))
        low = np.minimum(node[rows], node[cols])
        high = np.maximum(node[rows], node[cols])
        best = np.lexsort((high, low))[0]
        ri, rj = rows[best], cols[best]
        new_size = size[ri] + size[rj]
        merges.append(Merge(left=int(low[best]), right=int(high[best]),
                            height=float(work[ri, rj]), size=int(new_size)))

        # Lance-Williams average-linkage update, written into row ri; weights
        # follow the clusters living in the rows, not the node-id order.
        work[ri] = work[:, ri] = (size[ri] * work[ri] + size[rj] * work[rj]) / new_size
        live[rj] = live[:, rj] = False
        node[ri] = n + step
        size[ri] = new_size
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
    wins, which also prefers the sentinel gap.  Every height must be finite.
    """
    if not dendrogram.merges:
        raise ValueError("dendrogram has no merges")
    heights = np.sort(dendrogram.heights, kind="stable")
    if not np.isfinite(heights).all():
        raise ValueError(f"merge heights must be finite, got {heights.tolist()}")
    levels = np.append(heights, max(CUT_SENTINEL, heights[-1]))
    gaps = np.diff(levels)
    best = len(gaps) - 1 - int(np.argmax(gaps[::-1]))
    low, high = levels[best].item(), levels[best + 1].item()
    return CutSelection(height=0.5 * (low + high), gap_low=low, gap_high=high)


def extract_clusters(dendrogram: Dendrogram, cut: float) -> tuple[tuple[str, ...], ...]:
    """Partition of the leaves induced by merges strictly below the cut.

    Clusters are ordered by their smallest leaf index, members by leaf index,
    so the numbering is deterministic.
    """
    n = len(dendrogram.leaves)
    cluster = np.arange(n)  # cluster label of each leaf
    # every node keeps a representative leaf so later merges can be applied
    # even when an earlier one fell above the cut
    leaf_of_node = list(range(n))
    for merge in dendrogram.merges:
        la, lb = leaf_of_node[merge.left], leaf_of_node[merge.right]
        leaf_of_node.append(la)
        if merge.height < cut:
            cluster[cluster == cluster[lb]] = cluster[la]
    _, first = np.unique(cluster, return_index=True)
    return tuple(
        tuple(dendrogram.leaves[i] for i in np.flatnonzero(cluster == cluster[f]))
        for f in np.sort(first)
    )


# --------------------------------------------------------------------------
# Sensitivity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityReport:
    """Per-cell statistics over ``[dataset, model, metric]``.

    ``median`` and ``iqr`` are NaN where a cell has no defined sample;
    ``flagged`` marks the volatile cells and ``insensitive[metric]`` the
    metrics with only a minority of their defined cells flagged.
    """

    datasets: tuple[str, ...]
    models: tuple[str, ...]
    metric_ids: tuple[str, ...]
    median: np.ndarray
    iqr: np.ndarray
    flagged: np.ndarray
    insensitive: np.ndarray
    sigma: float
    threshold: float
    d: float

    def rows(self):
        """(dataset, model, metric id, median, iqr, flagged) per cell in grid
        order, as Python values."""
        keys = itertools.product(self.datasets, self.models, self.metric_ids)
        stats = zip(*(a.ravel().tolist() for a in (self.median, self.iqr, self.flagged)))
        return ((*key, *cell) for key, cell in zip(keys, stats))

    def metric_insensitive(self, metric_id: str) -> bool:
        return bool(self.insensitive[self.metric_ids.index(metric_id)])

    def cluster_insensitive(self, metric_ids) -> bool:
        """A cluster is insensitive iff a majority of its metrics are."""
        metric_ids = list(metric_ids)
        return 2 * sum(map(self.metric_insensitive, metric_ids)) > len(metric_ids)


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
    """Median, IQR and flag of every (dataset, model, metric) cell.

    One ``np.percentile(block, [25, 50, 75])`` call per ``defined_blocks``
    block gives every cell's quartiles over its defined samples (linear
    interpolation); the 50th percentile is the cell's one median.  A cell is
    flagged iff its IQR exceeds ``d`` times the standard deviation of all
    IQRs in the run.  A metric is insensitive iff a minority of its cells
    with a defined IQR are flagged.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    n_samples = samples.values.shape[-1]
    rows = samples.values.reshape(-1, n_samples)
    quartiles = np.full((3, len(rows)), np.nan)
    for selected, block in defined_blocks(rows):
        quartiles[:, selected] = np.percentile(block, [25, 50, 75], axis=1)
    n_defined = np.isfinite(rows).sum(axis=1)
    short = n_defined[(n_defined > 0) & (n_defined < n_samples)]
    if len(short):
        warnings.warn(
            f"{len(short)} sensitivity cell(s) have fewer than {n_samples} "
            f"defined samples (the shortest has {short.min()} defined samples); "
            f"their statistics use the available ones"
        )

    q1, median, q3 = quartiles.reshape(3, *samples.values.shape[:-1])
    iqr = q3 - q1
    defined = np.isfinite(iqr)
    sigma = float(iqr[defined].std()) if defined.any() else 0.0
    threshold = d * sigma
    flagged = iqr > threshold  # False for NaN, a cell with no defined sample
    n_cells = defined.sum(axis=(0, 1))
    insensitive = (n_cells > 0) & (2 * flagged.sum(axis=(0, 1)) < n_cells)
    return SensitivityReport(
        datasets=samples.datasets,
        models=samples.models,
        metric_ids=samples.metric_ids,
        median=median,
        iqr=iqr,
        flagged=flagged,
        insensitive=insensitive,
        sigma=sigma,
        threshold=threshold,
        d=d,
    )


# --------------------------------------------------------------------------
# Movement after mitigation
# --------------------------------------------------------------------------

TOWARD_IDEAL = "UF"
AWAY_FROM_IDEAL = "FU"
NO_CHANGE = "NC"
EXCLUDED = "excluded"


def movement_counts(baseline, mitigated, ideals, epsilon: float = 0.001) -> np.ndarray:
    """Classify each metric's move after mitigation, element by element.

    ``baseline`` and ``mitigated`` are median arrays of one shape, NaN for
    Undefined; ``ideals`` broadcasts against them.  With
    delta = |mitigated - ideal| - |baseline - ideal|, a metric moved toward
    its ideal (UF) below -epsilon, away from it (FU) above +epsilon, and
    did not change (NC) otherwise; it is excluded where either median is
    Undefined.  Returns the verdict strings in the medians' shape.
    """
    baseline = np.asarray(baseline, dtype=float)
    mitigated = np.asarray(mitigated, dtype=float)
    if baseline.shape != mitigated.shape:
        raise ValueError("baseline and mitigated medians must have the same shape")
    delta = np.abs(mitigated - ideals) - np.abs(baseline - ideals)
    return np.select(
        [np.isnan(delta), delta < -epsilon, delta > epsilon],
        [EXCLUDED, TOWARD_IDEAL, AWAY_FROM_IDEAL],
        NO_CHANGE,
    )
