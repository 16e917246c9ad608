"""Independent brute-force oracles used by the metric, model and synthesis
tests and the acceptance suite. The AUROC, AUPR, mIoU, density and
brute-force component oracles deliberately share no code with the library
implementations they check. The coverage-curve oracle re-sorts each covered
subset and scores it from scratch: with ``aupr`` and ``auroc``, each checked
against the exhaustive sweep and pair counting by criterion 2, and with
``miou_brute_force``. The pair-graph components are the resizing baseline's
original method, and the merge-window oracle tests every (scene point,
object point) pair."""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from oodlab.metrics import aupr, auroc, threshold_for_coverage


class Undefined(ValueError):
    """An oracle's metric is undefined for its input."""


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


def miou_brute_force(pred_labels, true_labels, num_classes):
    """Oracle for ``miou_old``: one IoU per inlier class 1..c from boolean
    masks over the points with true label <= c, averaged over the classes
    present on either side; Undefined when no such point."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    keep = true <= num_classes
    if not keep.any():
        raise Undefined("no inlier ground truth present")
    pred = pred[keep]
    true = true[keep]
    ious = []
    for k in range(1, num_classes + 1):
        in_true = true == k
        in_pred = pred == k
        if not (in_true.any() or in_pred.any()):
            continue
        tp = float(np.sum(in_true & in_pred))
        fp = float(np.sum(~in_true & in_pred))
        fn = float(np.sum(in_true & ~in_pred))
        ious.append(tp / (tp + fp + fn))
    return 100.0 * float(np.mean(ious))


def coverage(scores, tau):
    """Fraction of points the model predicts on: score < tau."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(np.mean(scores < tau))


def selective_risk(points, tau, num_classes):
    """(100 - mIoU on the covered subset) / coverage, by ``miou_brute_force``;
    Undefined at zero coverage."""
    covered = points.scores < tau
    phi = float(covered.mean())
    if phi == 0.0:
        raise Undefined("zero coverage")
    miou = miou_brute_force(points.pred_labels[covered], points.true_labels[covered],
                            num_classes)
    return (100.0 - miou) / phi


def coverage_curves_brute_force(points, num_classes, grid):
    """Oracle: at each target coverage, pick the threshold with
    ``threshold_for_coverage`` and recompute coverage, risk, AUPR and AUROC
    from scratch on the covered subset with ``coverage``,
    ``selective_risk``, ``aupr`` and ``auroc``; a risk that raises is a NaN
    gap, as is an AUPR or AUROC that is NaN. Returns the five curve arrays."""
    grid = np.asarray(grid, dtype=np.float64)
    m = len(grid)
    cov = np.empty(m)
    thr = np.empty(m)
    risk = np.full(m, np.nan)
    pr = np.empty(m)
    roc = np.empty(m)
    for i, target in enumerate(grid):
        tau = threshold_for_coverage(points.scores, float(target))
        covered = points.scores < tau
        thr[i] = tau
        cov[i] = coverage(points.scores, tau)
        try:
            risk[i] = selective_risk(points, tau, num_classes)
        except Undefined:
            pass
        pr[i] = aupr(points.scores[covered], points.is_outlier[covered])
        roc[i] = auroc(points.scores[covered], points.is_outlier[covered])
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


def window_min_radius_brute_force(scene_sph, obj_sph, window_lon, window_lat):
    """Oracle for the merge window: per scene point k, the smallest radius
    of the object points j with ``lon_j - window_lon < lon_k < lon_j +
    window_lon`` and ``|lat_k - lat_j| < window_lat``, each side computed
    in float64 as written; +inf where none matches. Loops over every pair."""
    scene_sph = np.asarray(scene_sph, dtype=np.float64)
    obj_sph = np.asarray(obj_sph, dtype=np.float64)
    best = np.full(len(scene_sph), np.inf)
    for k, (lon_k, lat_k, _) in enumerate(scene_sph.tolist()):
        for lon_j, lat_j, r_j in obj_sph.tolist():
            if lon_j - window_lon < lon_k < lon_j + window_lon and abs(lat_k - lat_j) < window_lat:
                best[k] = min(best[k], r_j)
    return best
