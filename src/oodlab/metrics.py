"""Evaluation machinery: AUPR, AUROC, inlier mIoU, coverage, empirical
selective risk, the four coverage-curve families, and the p^o histogram.

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
Undefined curve points (e.g. a single-class covered subset) are emitted as
explicit gaps ("NA" in CSV output), never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .io import atomic_write


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
    ranks = rankdata(scores)
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


def threshold_for_coverage(scores, target: float) -> float:
    """Smallest threshold achieving coverage >= target.

    Candidates are the distinct score values plus a top sentinel (1.0 when
    all scores are below 1, else just above the maximum).
    """
    scores = np.asarray(scores, dtype=np.float64)
    sorted_scores = np.sort(scores)
    cand = np.unique(scores)
    top = 1.0 if cand[-1] < 1.0 else np.nextafter(cand[-1], np.inf)
    cand = np.append(cand, top)
    cov = np.searchsorted(sorted_scores, cand, side="left") / len(scores)
    j = int(np.searchsorted(cov, target, side="left"))
    if j >= len(cand):
        raise UndefinedMetricError(f"coverage {target} unreachable")
    return float(cand[j])


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


def coverage_curves(points: ScoredPoints, num_classes: int, grid=None) -> CoverageCurves:
    """Sweep target coverages; at each, pick the smallest threshold reaching
    it and evaluate risk / AUPR / AUROC on the covered subset.

    The recorded coverage is the achieved empirical coverage (which may
    exceed the target when scores are tied)."""
    grid = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
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


def _fmt(v: float) -> str:
    return "NA" if np.isnan(v) else repr(float(v))


def write_curves_csv(path, curves: CoverageCurves) -> None:
    """UTF-8, LF-terminated CSV: coverage,threshold,risk,aupr,auroc,
    written atomically."""
    lines = ["coverage,threshold,risk,aupr,auroc"]
    columns = (curves.coverage, curves.threshold, curves.risk, curves.aupr, curves.auroc)
    lines += [",".join(map(_fmt, row)) for row in zip(*columns)]
    atomic_write(path, "\n".join(lines) + "\n")


def write_histogram_csv(path, hist: Histogram) -> None:
    """UTF-8, LF-terminated CSV: bin_lo,bin_hi,inlier_count,outlier_count,
    written atomically."""
    lines = ["bin_lo,bin_hi,inlier_count,outlier_count"]
    for i in range(10):
        lines.append(
            f"{_fmt(hist.bin_edges[i])},{_fmt(hist.bin_edges[i + 1])},"
            f"{int(hist.inlier_counts[i])},{int(hist.outlier_counts[i])}"
        )
    atomic_write(path, "\n".join(lines) + "\n")
