"""Independent brute-force oracles used by the metric, model and synthesis
tests and the acceptance suite. The AUROC, AUPR, density and brute-force
component oracles deliberately share no code with the library
implementations they check; the coverage-curve oracle is the per-threshold
loop over those (separately checked) per-subset metrics, and the pair-graph
components are the resizing baseline's original method."""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from oodlab.metrics import UndefinedMetricError, aupr, auroc, miou_old, threshold_for_coverage


def auroc_pair_counting(scores, is_outlier):
    """O(n^2) oracle: (#correctly ordered pairs + 0.5 * #ties) / (pos * neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_outlier, dtype=bool)
    sp = scores[pos][:, None]
    sn = scores[~pos][None, :]
    wins = np.sum(sp > sn) + 0.5 * np.sum(sp == sn)
    return wins / (sp.shape[0] * sn.shape[1])


def aupr_exhaustive_sweep(scores, is_outlier):
    """Oracle: recompute precision/recall from scratch at every distinct
    threshold, descending, and accumulate the step-interpolated area."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_outlier, dtype=bool)
    n_pos = int(pos.sum())
    ap = 0.0
    prev_recall = 0.0
    for tau in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= tau
        tp = float(np.sum(predicted & pos))
        fp = float(np.sum(predicted & ~pos))
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def coverage_curves_brute_force(points, num_classes, grid):
    """Oracle: at each target coverage, pick the threshold with
    ``threshold_for_coverage`` and recompute risk, AUPR and AUROC from
    scratch on the covered subset with ``miou_old``, ``aupr`` and ``auroc``;
    a metric that raises is a NaN gap. Returns the five curve arrays."""
    grid = np.asarray(grid, dtype=np.float64)
    m = len(grid)
    cov = np.empty(m)
    thr = np.empty(m)
    risk = np.full(m, np.nan)
    pr = np.full(m, np.nan)
    roc = np.full(m, np.nan)
    for i, target in enumerate(grid):
        tau = threshold_for_coverage(points.scores, float(target))
        covered = points.scores < tau
        thr[i] = tau
        cov[i] = float(covered.mean())
        try:
            miou = miou_old(
                points.pred_labels[covered], points.true_labels[covered], num_classes
            )
            risk[i] = (100.0 - miou) / cov[i]
        except UndefinedMetricError:
            pass
        try:
            pr[i] = aupr(points.scores[covered], points.is_outlier[covered])
        except UndefinedMetricError:
            pass
        try:
            roc[i] = auroc(points.scores[covered], points.is_outlier[covered])
        except UndefinedMetricError:
            pass
    return cov, thr, risk, pr, roc


def density_brute_force(points, r):
    """O(n^2) oracle for the ``density`` feature: per point, the number of
    other points with ``(dx*dx + dy*dy) + dz*dz <= r*r``. Ties at r count,
    duplicates count, the point itself does not. The squared distance is
    summed in that order, as cKDTree sums it, so ties at r round alike."""
    points = np.asarray(points, dtype=np.float64)
    d = points[:, None, :] - points[None, :, :]
    sq = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    return np.sum(sq <= r * r, axis=1) - 1


def components_brute_force(points, t):
    """O(n^2) oracle for the resizing baseline's instances: the single-linkage
    components of ``points`` when every pair with ``(dx*dx + dy*dy) + dz*dz
    <= t*t`` joins (ties at t and duplicates join), numbered by lowest member
    index. Returns (count, component of each point). The squared distance is
    summed as cKDTree sums it, as in ``density_brute_force``."""
    points = np.asarray(points, dtype=np.float64)
    d = points[:, None, :] - points[None, :, :]
    adjacent = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2] <= t * t
    labels = np.full(len(points), -1)
    count = 0
    for first in range(len(points)):
        if labels[first] >= 0:
            continue
        labels[first] = count
        frontier = [first]
        while frontier:
            reached = np.flatnonzero(adjacent[frontier.pop()] & (labels < 0))
            labels[reached] = count
            frontier.extend(reached.tolist())
        count += 1
    return count, labels


def components_pair_graph(points, t):
    """The same components from every pair ``cKDTree.query_pairs`` lists
    within t, as an undirected scipy graph: the resizing baseline's original
    labelling, kept to check that the instance it picks never changes."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    pairs = cKDTree(points).query_pairs(t, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    return connected_components(graph, directed=False)
