"""Evaluation machinery: AUPR, AUROC, inlier mIoU, the four coverage-curve
families, and the p^o histogram. This module computes only;
``io.write_csv`` writes the results.

Scores follow the convention "higher = more anomalous" with the outlier
class as positive. The abstention rule is: predict iff score < tau, abstain
otherwise, so coverage is non-decreasing in tau. Selective risk is the
complement of the inlier mIoU on the covered subset, divided by coverage;
at full coverage it reduces to 100 - mIoU exactly.

``threshold_for_coverage`` and ``coverage_curves`` share one threshold rule
(``_coverage_cuts``): the candidates are the distinct scores plus a top
sentinel, so a threshold never splits a tie block, and the covered set
score < tau is the first tie blocks of the ascending score order.

Each metric has one implementation, a kernel over the first b tie blocks of
an ascending order: ``_miou`` reads their confusion count, and ``_aupr``
and ``_auroc`` the block statistics of ``_tie_blocks``. ``miou_old`` and
``aupr_auroc`` (one sort per score array; ``aupr`` and ``auroc`` are its
halves) run their kernels on all the blocks, and a coverage curve on the
covered ones, so each curve value is its metric on the covered subset by
construction. The curves' AUPR/AUROC thus measure how well the score still
separates outliers among the points the model predicts on (over all points
they would not change with the threshold). One rule covers an undefined
value: it is NaN ("NA" in CSV output), never an error and never
interpolated. AUPR needs a positive, AUROC a positive and a negative, both
a score array without NaN, and mIoU an inlier ground-truth point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


class _TieBlocks(NamedTuple):
    """The tie blocks of an ascending score order, as prefix sums over
    blocks: block j starts at ``starts[j]``, and ``cum_pos[j]`` and
    ``cum_rank2[j]`` are the positives in blocks 0..j-1 and twice the sum of
    their midranks (block j's doubled midrank is its start + 1 + its end)."""

    starts: np.ndarray
    cum_pos: np.ndarray
    cum_rank2: np.ndarray


def _tie_starts(sorted_scores: np.ndarray) -> np.ndarray:
    """The first position of each run of equal ascending scores; -0.0 and
    0.0 are equal."""
    return np.flatnonzero(np.r_[sorted_scores.size > 0, sorted_scores[1:] != sorted_scores[:-1]])


def _tie_blocks(starts: np.ndarray, sorted_is_outlier: np.ndarray) -> _TieBlocks:
    """The blocks starting at ``starts`` of an ascending order whose outlier
    flags are ``sorted_is_outlier``."""
    block_pos = np.add.reduceat(sorted_is_outlier, starts, dtype=np.int64)
    ends = np.append(starts[1:], len(sorted_is_outlier))
    cum_pos = np.concatenate(([0], np.cumsum(block_pos)))
    cum_rank2 = np.concatenate(([0], np.cumsum(block_pos * (starts + 1 + ends))))
    return _TieBlocks(starts, cum_pos, cum_rank2)


def _aupr(blocks: _TieBlocks, k: int, b: int) -> float:
    """AUPR of the first ``b`` tie blocks, ``k`` points. The descending
    sweep visits blocks b-1..0; block j has tp = the positives in blocks
    j..b-1 and precision tp / (k - starts[j]), and the area sums each recall
    step times its precision."""
    n_pos = int(blocks.cum_pos[b])
    if n_pos == 0:
        return float("nan")
    # in place: the curves run this sweep once per distinct cut
    tp = np.subtract(n_pos, blocks.cum_pos[b - 1::-1], dtype=np.float64)
    area = np.subtract(k, blocks.starts[b - 1::-1], dtype=np.float64)
    np.divide(tp, area, out=area)  # the precisions
    recall = np.divide(tp, n_pos, out=tp)
    area[0] *= recall[0]
    area[1:] *= recall[1:] - recall[:-1]
    return float(area.sum())


def _auroc(blocks: _TieBlocks, k: int, b: int) -> float:
    """Mann-Whitney AUROC of the first ``b`` tie blocks, ``k`` points, from
    the positives' midrank sum: exact, a half-integer below 2**52."""
    n_pos = int(blocks.cum_pos[b])
    n_neg = k - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    rank_sum = blocks.cum_rank2[b] / 2.0
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr_auroc(scores, is_outlier) -> tuple[float, float]:
    """(AUPR, AUROC) of all the points from one sort: block statistics do
    not depend on the order within a tie block, so any sort kind serves."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores)
    sorted_scores = scores[order]
    # argsort puts NaN last, and a NaN has no rank
    if not sorted_scores.size or np.isnan(sorted_scores[-1]):
        return float("nan"), float("nan")
    starts = _tie_starts(sorted_scores)
    blocks = _tie_blocks(starts, np.asarray(is_outlier, dtype=bool)[order])
    return _aupr(blocks, len(scores), len(starts)), _auroc(blocks, len(scores), len(starts))


def auroc(scores, is_outlier) -> float:
    """Rank-based (Mann-Whitney) AUROC with midrank tie handling."""
    return aupr_auroc(scores, is_outlier)[1]


def aupr(scores, is_outlier) -> float:
    """Average precision over the descending-score sweep, with step
    interpolation and tied scores processed as one block."""
    return aupr_auroc(scores, is_outlier)[0]


def _confusions(true, pred, num_classes: int, order, cuts) -> np.ndarray:
    """The inlier confusion counts of the points ``order[:k]``, for each k
    in ascending ``cuts``: one (c+1, c+1) true-by-predicted matrix per cut,
    with labels outside 1..c folded into row/column 0 and ground-truth
    outliers (true > c) left out. Counted segment by segment between cuts."""
    c = num_classes
    w = c + 1
    cell = np.where((true >= 1) & (true <= c), true, 0)
    cell *= w
    cell += np.where((pred >= 1) & (pred <= c), pred, 0)
    cell[true > c] = w * w  # the last cell holds the ground-truth outliers
    counts = [np.bincount(part, minlength=w * w + 1) for part in np.split(cell[order], cuts)[:-1]]
    return np.reshape(counts, (len(cuts), w * w + 1))[:, :-1].cumsum(axis=0).reshape(-1, w, w)


def _miou(confusion: np.ndarray) -> float:
    """Mean IoU ×100 of a ``_confusions`` matrix over the classes 1..c
    present on either side."""
    if not confusion.any():
        return float("nan")
    in_true = confusion.sum(axis=1)[1:]
    in_pred = confusion.sum(axis=0)[1:]
    present = (in_true + in_pred) > 0
    hits = confusion.diagonal()[1:][present].astype(np.float64)
    fp = in_pred[present] - hits
    fn = in_true[present] - hits
    return 100.0 * float(np.mean(hits / (hits + fp + fn)))


def miou_old(pred_labels, true_labels, num_classes: int) -> float:
    """Mean IoU over the inlier classes, scaled to 0..100.

    Ground-truth outlier points are excluded; a predicted-outlier label on a
    true inlier counts against its true class (a false negative). Classes
    absent from both ground truth and prediction on the evaluated subset are
    excluded from the mean.
    """
    true = np.asarray(true_labels, dtype=np.int64)
    pred = np.asarray(pred_labels, dtype=np.int64)
    return _miou(_confusions(true, pred, num_classes, slice(None), [len(true)])[0])


def _coverage_cuts(sorted_scores: np.ndarray, starts: np.ndarray, targets):
    """The one threshold rule, over ascending scores with tie blocks
    starting at ``starts``. Returns, for each target coverage, the smallest
    candidate threshold whose coverage reaches it, the number of points it
    covers (score < tau) and the number of tie blocks those make up.

    Candidates are the distinct score values plus a top sentinel (1.0 when
    all scores are below 1, else just above the maximum). The candidate
    opening block j covers blocks 0..j-1, i.e. ``starts[j]`` points; the
    sentinel covers all n.
    """
    n = len(sorted_scores)
    cand = sorted_scores[starts]
    top = 1.0 if cand[-1] < 1.0 else np.nextafter(cand[-1], np.inf)
    cand = np.append(cand, top)
    counts = np.append(starts, n)
    targets = np.asarray(targets, dtype=np.float64)
    j = np.searchsorted(counts / n, targets, side="left")
    unreachable = np.flatnonzero(j >= len(cand))
    if unreachable.size:
        raise ValueError(f"coverage {float(targets[unreachable[0]])} unreachable")
    return cand[j], counts[j], j


def threshold_for_coverage(scores, target: float) -> float:
    """Smallest threshold achieving coverage >= target, by the rule of
    ``_coverage_cuts`` that ``coverage_curves`` shares."""
    # stable, like coverage_curves' argsort: both see -0.0 and 0.0 in one order
    sorted_scores = np.sort(np.asarray(scores, dtype=np.float64), kind="stable")
    tau, _, _ = _coverage_cuts(sorted_scores, _tie_starts(sorted_scores), [target])
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


def coverage_curves(points: ScoredPoints, num_classes: int, grid=None) -> CoverageCurves:
    """Sweep target coverages; at each, pick the smallest threshold reaching
    it and evaluate risk / AUPR / AUROC on the covered subset.

    The recorded coverage is the achieved empirical coverage (which may
    exceed the target when scores are tied).

    One stable sort serves the sweep: the covered subset of each distinct cut
    is its first b tie blocks, k points, and the kernels of ``miou_old``
    and ``aupr_auroc`` score it from that prefix of ``_confusions`` and
    ``_tie_blocks``. Cost: one O(n log n) sort, O(n) counting, and
    O(m * B) for AUPR over m grid points and B blocks.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    order = np.argsort(points.scores, kind="stable")
    sorted_scores = points.scores[order]
    starts = _tie_starts(sorted_scores)
    thr, covered, n_blocks = _coverage_cuts(sorted_scores, starts, grid)
    del sorted_scores  # before the block sums, to keep the peak down
    cuts, first, cut_of = np.unique(covered, return_index=True, return_inverse=True)
    blocks = _tie_blocks(starts, points.is_outlier[order])
    confusion = _confusions(points.true_labels, points.pred_labels, num_classes, order, cuts)
    del order
    miou, pr, roc = np.array([
        (_miou(prefix), _aupr(blocks, k, b), _auroc(blocks, k, b))
        for prefix, k, b in zip(confusion, cuts.tolist(), n_blocks[first].tolist())
    ]).reshape(-1, 3)[cut_of].T
    cov = covered / len(points.scores)
    return CoverageCurves(coverage=cov, threshold=thr, risk=(100.0 - miou) / cov,
                          aupr=pr, auroc=roc)


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

