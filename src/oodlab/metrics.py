"""Evaluation machinery: AUPR, AUROC, inlier mIoU, coverage, empirical
selective risk, the four coverage-curve families, and the p^o histogram.
This module computes only; ``io.write_csv`` writes the results.

Scores follow the convention "higher = more anomalous" with the outlier
class as positive. The abstention rule is: predict iff score < tau, abstain
otherwise, so coverage is non-decreasing in tau. Selective risk is the
complement of the inlier mIoU on the covered subset, divided by coverage;
at full coverage it reduces to 100 - mIoU exactly.

AUPR/AUROC points of the coverage curves are computed on the covered subset
at each threshold: they measure how well the score still separates
outliers among the points the model predicts on. (Computed over all points
instead, they would not change with the threshold, which leaves the scores'
ranking as it is.)
Undefined curve points (e.g. a single-class covered subset) are NaN,
explicit gaps ("NA" in CSV output), never interpolated.

``threshold_for_coverage`` and ``coverage_curves`` share one threshold rule
(``_coverage_cuts``): the candidates are the distinct scores plus a top
sentinel, so a threshold never splits a tie block and the covered set
score < tau is always a prefix of the ascending score order. The curves
therefore sort once and read every grid point from prefix counts (confusion
counts, positives and midrank sums per tie block) instead of re-sorting each
covered subset: one O(n log n) sort plus O(m * B) for the AUPR sweeps over m
grid points and B tie blocks. Each curve value equals ``miou_old``,
``aupr`` or ``auroc`` on the covered subset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class AUROC)."""


@dataclass
class ScoredPoints:
    """Parallel per-point arrays: anomaly score, ground-truth outlier flag,
    predicted class, true class."""

    scores: np.ndarray
    is_outlier: np.ndarray
    pred_labels: np.ndarray
    true_labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_outlier = np.asarray(self.is_outlier, dtype=bool)
        self.pred_labels = np.asarray(self.pred_labels, dtype=np.int64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        n = self.scores.shape[0]
        for name in ("is_outlier", "pred_labels", "true_labels"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} length must match scores")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


def auroc(scores, is_outlier) -> float:
    """Rank-based (Mann-Whitney) AUROC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_outlier, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs at least one positive and one negative")
    if np.isnan(scores).any():  # a NaN has no rank: the AUROC is NaN
        return float("nan")
    # midranks: the tie block at sorted positions start..end-1 shares the
    # rank (start + 1 + end) / 2, a half-integer, so any sort kind gives them
    order = np.argsort(scores)
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr(scores, is_outlier) -> float:
    """Average precision over the descending-score sweep, with step
    interpolation and tied scores processed as one block."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_outlier, dtype=bool)
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUPR needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = pos[order].astype(np.float64)
    # last index of each tie block
    block_end = np.flatnonzero(np.diff(s_sorted) != 0.0)
    block_end = np.append(block_end, len(s_sorted) - 1)
    tp = np.cumsum(y_sorted)[block_end]
    total = block_end + 1.0
    precision = tp / total
    recall = tp / n_pos
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def miou_old(pred_labels, true_labels, num_classes: int) -> float:
    """Mean IoU over the inlier classes, scaled to 0..100.

    Ground-truth outlier points are excluded; a predicted-outlier label on a
    true inlier counts against its true class (a false negative). Classes
    absent from both ground truth and prediction on the evaluated subset are
    excluded from the mean.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    keep = true <= num_classes
    if not keep.any():
        raise UndefinedMetricError("no inlier ground truth present")
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


def coverage(scores, tau: float) -> float:
    """Fraction of points the model predicts on: score < tau."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(np.mean(scores < tau))


def selective_risk(points: ScoredPoints, tau: float, num_classes: int) -> float:
    """(100 - mIoU on the covered subset) / coverage."""
    covered = points.scores < tau
    phi = float(covered.mean())
    if phi == 0.0:
        raise UndefinedMetricError("zero coverage")
    miou = miou_old(points.pred_labels[covered], points.true_labels[covered], num_classes)
    return (100.0 - miou) / phi


def _coverage_cuts(sorted_scores: np.ndarray, targets):
    """The one threshold rule, over ascending scores. Returns the start of
    each tie block and, for each target coverage, the smallest candidate
    threshold whose coverage reaches it, the number of points it covers
    (score < tau) and the number of tie blocks those make up.

    Candidates are the distinct score values plus a top sentinel (1.0 when
    all scores are below 1, else just above the maximum). The candidate
    opening block j covers blocks 0..j-1, i.e. ``starts[j]`` points; the
    sentinel covers all n.
    """
    n = len(sorted_scores)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_scores) != 0.0) + 1))
    cand = sorted_scores[starts]
    top = 1.0 if cand[-1] < 1.0 else np.nextafter(cand[-1], np.inf)
    cand = np.append(cand, top)
    counts = np.append(starts, n)
    targets = np.asarray(targets, dtype=np.float64)
    j = np.searchsorted(counts / n, targets, side="left")
    unreachable = np.flatnonzero(j >= len(cand))
    if unreachable.size:
        raise UndefinedMetricError(f"coverage {float(targets[unreachable[0]])} unreachable")
    return starts, cand[j], counts[j], j


def threshold_for_coverage(scores, target: float) -> float:
    """Smallest threshold achieving coverage >= target, by the rule of
    ``_coverage_cuts`` that ``coverage_curves`` shares."""
    # stable, like coverage_curves' argsort: both see -0.0 and 0.0 in one order
    sorted_scores = np.sort(np.asarray(scores, dtype=np.float64), kind="stable")
    _, tau, _, _ = _coverage_cuts(sorted_scores, [target])
    return float(tau[0])


@dataclass
class CoverageCurves:
    """The four curve families of one sweep, sharing coverage/threshold."""

    coverage: np.ndarray
    threshold: np.ndarray
    risk: np.ndarray
    aupr: np.ndarray
    auroc: np.ndarray


def default_grid(size: int = 100) -> np.ndarray:
    """`size` target coverages evenly spaced in (0, 1]."""
    return np.arange(1, size + 1) / size


def _prefix_confusion(true, pred, num_classes: int, order, cuts) -> np.ndarray:
    """Inlier confusion counts of the points ``order[:k]`` for each k in
    ascending ``cuts``: one (c+1, c+1) true-by-predicted matrix per cut, with
    labels outside 1..c folded into row/column 0 and ground-truth outliers
    (true > c) left out. Counted segment by segment between cuts."""
    c = num_classes
    w = c + 1

    def fold(labels):
        return np.where((labels >= 1) & (labels <= c), labels, 0)

    code = np.where(true <= c, fold(true) * w + fold(pred), w * w)
    counts = np.zeros((len(cuts), w * w + 1), dtype=np.int64)
    for i, segment in enumerate(np.split(order, cuts)[:-1]):
        counts[i] = np.bincount(code[segment], minlength=w * w + 1)
    return counts.cumsum(axis=0)[:, :-1].reshape(len(cuts), w, w)


def _block_prefix_sums(sorted_is_outlier, starts) -> tuple[np.ndarray, np.ndarray]:
    """Per tie block b of the ascending order: the positives in blocks
    0..b-1, and twice the sum of their midranks (block j's doubled midrank
    is its start + 1 + its end)."""
    block_pos = np.add.reduceat(sorted_is_outlier, starts, dtype=np.int64)
    ends = np.append(starts[1:], len(sorted_is_outlier))
    cum_pos = np.concatenate(([0], np.cumsum(block_pos)))
    cum_rank2 = np.concatenate(([0], np.cumsum(block_pos * (starts + 1 + ends))))
    return cum_pos, cum_rank2


def coverage_curves(points: ScoredPoints, num_classes: int, grid=None) -> CoverageCurves:
    """Sweep target coverages; at each, pick the smallest threshold reaching
    it and evaluate risk / AUPR / AUROC on the covered subset.

    The recorded coverage is the achieved empirical coverage (which may
    exceed the target when scores are tied).

    Every covered subset is a prefix of the stable ascending score order
    made of whole tie blocks, so one sort serves all grid points:
    - risk comes from the inlier confusion counts of the prefix, gathered
      segment by segment between consecutive cut points;
    - AUROC's rank sum is the cumulative sum of the global midranks of the
      positives, since a prefix of whole blocks keeps its midranks (the sums
      are half-integers far below 2**52, so they are exact);
    - AUPR's descending sweep visits the prefix's blocks from the last one
      down, with tp and total read from the block starts and cumulative
      positive counts, and sums them by the same expression as ``aupr``.
    Each value equals ``miou_old``/``aupr``/``auroc`` on the covered subset
    bit for bit, and each gap is where they raise. Cost: one O(n log n)
    sort, O(n) counting, and O(m * B) for AUPR over m grid points and B tie
    blocks.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    m = len(grid)
    n = len(points.scores)
    order = np.argsort(points.scores, kind="stable")
    starts, thr, covered, blocks = _coverage_cuts(points.scores[order], grid)
    cov = covered / n
    cuts, cut_of = np.unique(covered, return_inverse=True)
    confusion = _prefix_confusion(points.true_labels, points.pred_labels, num_classes,
                                  order, cuts)
    cum_pos, cum_rank2 = _block_prefix_sums(points.is_outlier[order], starts)
    del order  # before the sweep buffers, to keep the peak down
    # the descending sweep of b blocks visits blocks b-1..0: their starts and
    # the positives before them are the last b entries of these reversed views
    desc_start, desc_pos_before = starts[::-1], cum_pos[-2::-1]
    tp_buf, precision_buf, step_buf = (np.empty(len(starts)) for _ in range(3))

    risk = np.full(m, np.nan)
    pr = np.full(m, np.nan)
    roc = np.full(m, np.nan)
    for i in range(m):
        k, b = int(covered[i]), int(blocks[i])
        n_pos = int(cum_pos[b])
        n_neg = k - n_pos
        conf = confusion[cut_of[i]]
        if conf.sum():  # miou_old from counts, over classes on either side
            in_true = conf.sum(axis=1)[1:]
            in_pred = conf.sum(axis=0)[1:]
            present = (in_true + in_pred) > 0
            hits = conf.diagonal()[1:][present].astype(np.float64)
            fp = in_pred[present] - hits
            fn = in_true[present] - hits
            miou = 100.0 * float(np.mean(hits / (hits + fp + fn)))
            risk[i] = (100.0 - miou) / cov[i]
        if n_pos:  # aupr's np.sum(np.diff(recall, prepend=0.0) * precision), in place
            last_b = slice(len(starts) - b, None)
            tp = np.subtract(n_pos, desc_pos_before[last_b], out=tp_buf[:b])
            precision = np.subtract(k, desc_start[last_b], out=precision_buf[:b])
            np.divide(tp, precision, out=precision)
            recall = np.divide(tp, n_pos, out=tp)
            step = step_buf[:b]
            step[0] = recall[0]
            np.subtract(recall[1:], recall[:-1], out=step[1:])
            pr[i] = float(np.sum(np.multiply(step, precision, out=step)))
        if n_pos and n_neg:  # auroc: the rank sum is exact, a half-integer < 2**52
            rank_sum = cum_rank2[b] / 2.0
            roc[i] = float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return CoverageCurves(coverage=cov, threshold=thr, risk=risk, aupr=pr, auroc=roc)


@dataclass
class Histogram:
    """Ten fixed-width bins over [0, 1]; the last bin is right-closed."""

    bin_edges: np.ndarray
    inlier_counts: np.ndarray
    outlier_counts: np.ndarray


def po_histogram(scores, is_outlier) -> Histogram:
    """Bin p^o into [0,0.1), ..., [0.9,1.0], split by ground truth.

    Boundary values 0.1*k land in bin k; 1.0 lands in the last bin.
    """
    p = np.asarray(scores, dtype=np.float64)
    if (p < 0.0).any() or (p > 1.0).any():
        raise ValueError("p^o values must lie in [0, 1]")
    out = np.asarray(is_outlier, dtype=bool)
    edges = np.arange(1, 10) / 10.0
    bins = np.digitize(p, edges)
    return Histogram(
        bin_edges=np.arange(11) / 10.0,
        inlier_counts=np.bincount(bins[~out], minlength=10),
        outlier_counts=np.bincount(bins[out], minlength=10),
    )

