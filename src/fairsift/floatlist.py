"""The float neighbour list of kNN consistency (D0): its build and the votes
a float mask reads off it.

``metrics.neighbour_list`` builds the list of rows that are not
integer-coded with ``build``, and ``metrics.consistency`` reads a float
mask's votes with ``votes``.  ``metrics`` imports this module when it first
needs it, so a run on integer-coded data never loads it.
"""

import numpy as np

from . import metrics

# Distance entries per block of the list's pass: its three block arrays stay
# in cache and small next to a kernel block, so the pass adds little to the
# heap.  D0's bits do not depend on the list's blocking.
LIST_BLOCK_ELEMENTS = 2**14


def rounding_bound(p: int) -> float:
    """E(p) = 8 u p (p + 4), u = 2**-53: how far any float distance of the
    kNN code lies from R = sum_c ((x_c - x'_c) / s_c)**2, the exact squared
    distance of two raw rows x, x' under column spans s, for rows that the
    bounds (lo, lo + s) hold, so every scaled value is in [0, 1].

    Higham (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, section 3.1) bounds a float dot product of p terms in any order,
    fused or not, by |fl(a.b) - a.b| <= gamma_p |a|.|b|, gamma_n = n u /
    (1 - n u) <= 1.01 n u.  For p columns:

    * the scaling: z = fl(fl(x - lo) / s) is within gamma_2 of (x - lo) / s,
      so each column's squared difference moves by at most 4 gamma_2
      (1 + 2u) and D, the exact squared distance of the scaled rows, lies
      within 5 p gamma_2 of R;
    * the float kernel's (|a|^2 + |b|^2) - 2ab: the row norms and the Gram
      entry are within gamma_p p of theirs, the sum adds one rounding and
      the difference another, of a value at most p, so the result lies
      within 6 p gamma_{p+1} of D (the clamp at 0 only moves it closer);
    * the re-rank's raw differences, their squares, the weights 1 / s**2
      and the weighted sum of p non-negative terms: a relative error of
      gamma_{p+5}, on R at most p (1 + 3u).

    Together u p (6.06 p + 16.2) and u p (1.02 p + 5.1) are below E(p), and
    the slack of at least 17 u p covers the one rounding of each
    comparison or subtraction that uses E.
    """
    return 8 * (np.finfo(float).eps / 2) * p * (p + 4)


def build(X, size: int):
    """The float list of scaled rows X (``metrics.neighbour_list``): each
    row's ``size`` nearest other rows by ``metrics._float_distances``, and
    its reach."""
    n = len(X)
    sq = (X * X).sum(axis=1)
    nearest = np.empty((n, size), dtype=np.intp)
    reach = np.empty(n)
    blocks = list(metrics._row_blocks(n, LIST_BLOCK_ELEMENTS))
    step = max(stop - start for start, stop in blocks)
    d, g = np.empty((step, n)), np.empty((step, n))
    for start, stop in blocks:
        block = d[:stop - start]
        metrics._float_distances(X, sq, start, stop, block, g[:stop - start])
        # entry `size` is the (size+1)-th nearest: with every other row on
        # the list it is the row itself, at +inf
        order = np.argpartition(block, size, axis=1)
        nearest[start:stop] = order[:, :size]
        reach[start:stop] = np.take_along_axis(block, order[:, size:size + 1], axis=1)[:, 0]
    return nearest, reach - rounding_bound(X.shape[1])


def votes(X, y, k: int, masks, bounds, listed):
    """Each row's count of favourable rows among its k nearest rows of each
    mask, read off the float list ``listed``, and whether the list
    certified it: two (m, n) arrays, meaningful where the mask holds the
    row and the list certified it.

    Each row's candidates inside a mask are ranked by the mask's metric:
    raw differences squared, weighted by 1 / span**2.  A row is certified
    when its k-th candidate distance plus the margin 4 E(p)
    (``rounding_bound``) lies strictly below both its (k+1)-th candidate
    distance (+inf when it has only k) and its ``reach``.  A mask span at
    most the list's makes every mask distance at least the all-rows one, so
    no row off the list comes nearer than ``reach``.  Each distance here is
    within E of the exact one, and so is the kernel's: the first k
    candidates' kernel distances are at most the k-th candidate distance
    plus 2 E, every other row's is larger, so the kernel selects the same k
    rows, and its vote is this one.

    No row of a mask is certified when a mask span exceeds the list's, a
    column is constant in the mask but not in all rows, or the bounds do
    not hold the mask's rows.  The squared differences of a chunk of rows,
    about ``metrics.CONSISTENCY_BLOCK_ELEMENTS`` entries, are formed once
    for all masks, then ranked mask by mask: no (n, K, p) stack is built.
    """
    nearest, spans, reach = listed
    (n, size), p = nearest.shape, X.shape[1]
    mins, maxs = (np.array(side)[:, :, None] for side in zip(*bounds))
    fold = (maxs - mins)[:, :, 0]
    usable = ((fold <= spans) & ((fold > 0) | (spans == 0))).all(axis=1)
    weights = np.divide(1.0, fold * fold, out=np.zeros_like(fold), where=fold > 0)
    # +inf on the distance to a candidate outside the mask
    outside = np.where(masks, 0.0, np.inf)
    margin = 4 * rounding_bound(p)
    favourable = y == 1
    ones = np.ones(size)  # counts a row's taken candidates, as exact floats
    counts = np.empty((len(masks), n), dtype=np.intp)
    certified = np.empty((len(masks), n), dtype=bool)
    # a chunk's largest arrays: (rows, K, p) differences, (m, p, rows) checks
    step = max(1, metrics.CONSISTENCY_BLOCK_ELEMENTS // (p * max(size, len(masks))))
    for start in range(0, n, step):
        stop = min(n, start + step)
        rows, candidates = X[start:stop], nearest[start:stop]
        # rows along the last axis keep numpy's inner loops long
        columns = np.ascontiguousarray(rows.T)
        stray = (columns < mins) | (columns > maxs)
        stray &= masks[:, None, start:stop]
        usable &= ~stray.any(axis=(1, 2))
        diff = X[candidates]
        diff -= rows[:, None]
        diff *= diff
        squares = diff.reshape(-1, p)
        labels = favourable[candidates]
        take = np.empty(candidates.shape, dtype=bool)
        # each row's k-th and (k+1)-th candidate distance per mask
        kth, beyond = np.empty((2, len(masks), stop - start))
        if size == k:  # every other row is a candidate: none is (k+1)-th
            beyond.fill(np.inf)
        for t in range(len(masks)):
            dist = (squares @ weights[t]).reshape(candidates.shape)
            dist += outside[t][candidates]
            ranked = np.sort(dist, axis=1)
            kth[t] = ranked[:, k - 1]
            if size > k:
                beyond[t] = ranked[:, k]
            np.less_equal(dist, ranked[:, k - 1:k], out=take)
            take &= labels
            counts[t, start:stop] = take @ ones
        kth += margin
        certified[:, start:stop] = (kth < beyond) & (kth < reach[start:stop])
    certified &= usable[:, None]
    return counts, certified
