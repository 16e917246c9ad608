"""Independent brute-force oracles used by the metric and model tests and the
acceptance suite. The AUROC, AUPR and density oracles deliberately share no
code with the library implementations they check; the coverage-curve oracle
is the per-threshold loop over those (separately checked) per-subset
metrics."""

import numpy as np

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
