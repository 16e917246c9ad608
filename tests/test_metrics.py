import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab.core import RngStream
from oodlab.io import write_csv
from oodlab.metrics import (
    CoverageCurves,
    Histogram,
    ScoredPoints,
    aupr,
    aupr_auroc,
    auroc,
    coverage_curves,
    default_grid,
    miou_old,
    po_histogram,
    threshold_for_coverage,
)


from oracles import (aupr_exhaustive_sweep, auroc_pair_counting, coverage,
                     coverage_curves_brute_force, miou_brute_force)


def random_scored(seed, n=None, heavy_ties=False):
    gen = RngStream(seed, 0).generator()
    if n is None:
        n = int(gen.integers(2, 501))
    if heavy_ties:
        scores = gen.integers(0, 5, size=n) / 4.0
    else:
        scores = gen.uniform(size=n)
    is_outlier = gen.uniform(size=n) < 0.3
    if not is_outlier.any():
        is_outlier[0] = True
    if is_outlier.all():
        is_outlier[-1] = False
    return scores, is_outlier


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5

    def test_hand_case(self):
        # pairs: 3 of 4 correctly ordered
        assert auroc([0.9, 0.8, 0.7, 0.1],
                     [True, False, True, False]) == pytest.approx(0.75)

    def test_single_class_error(self):
        assert np.isnan(auroc([0.1, 0.2], [True, True]))
        assert np.isnan(auroc([0.1, 0.2], [False, False]))

    def test_matches_pair_counting(self):
        for seed in range(60):
            scores, is_outlier = random_scored(seed, heavy_ties=seed % 3 == 0)
            assert abs(auroc(scores, is_outlier)
                       - auroc_pair_counting(scores, is_outlier)) <= 1e-12

    def test_nan_score_gives_nan(self):
        assert np.isnan(auroc([0.9, np.nan, 0.1], [True, True, False]))


class TestAupr:
    def test_single_positive_ranked_first(self):
        assert aupr([0.9, 0.5, 0.3, 0.1], [True, False, False, False]) == 1.0

    def test_single_positive_ranked_second(self):
        assert aupr([0.9, 0.5], [False, True]) == pytest.approx(0.5)

    def test_all_positive(self):
        assert aupr([0.3, 0.9, 0.1], [True, True, True]) == 1.0

    def test_no_positive_error(self):
        assert np.isnan(aupr([0.5, 0.6], [False, False]))

    def test_tie_block_processing(self):
        # one tie block containing both a positive and a negative
        scores = [0.5, 0.5, 0.1]
        labels = [True, False, False]
        assert aupr(scores, labels) == pytest.approx(
            aupr_exhaustive_sweep(scores, labels))

    def test_matches_exhaustive_sweep(self):
        for seed in range(60):
            scores, is_outlier = random_scored(seed + 100, heavy_ties=seed % 3 == 0)
            assert abs(aupr(scores, is_outlier)
                       - aupr_exhaustive_sweep(scores, is_outlier)) <= 1e-12

    def test_nan_score_gives_nan(self):
        # a NaN has no rank, as in auroc; it used to rank below every score
        assert np.isnan(aupr([0.9, np.nan, 0.1], [True, True, False]))
        assert np.isnan(aupr([0.9, np.nan], [False, False]))


class TestAuprAuroc:
    """``aupr_auroc`` is both whole-set metrics from one sort."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_single_metrics_and_full_coverage_curve(self, seed):
        gen = RngStream(37, seed).generator()
        n = int(gen.integers(1, 300))
        scores = gen.integers(0, 4, size=n) / 4.0 - gen.choice([0.0, 0.5], size=n)
        pts = labelled_points(gen, scores, 3, outlier_share=float(gen.uniform()))
        pr, roc = aupr_auroc(pts.scores, pts.is_outlier)
        assert np.array_equal([pr, roc], [aupr(pts.scores, pts.is_outlier),
                                         auroc(pts.scores, pts.is_outlier)], equal_nan=True)
        curves = coverage_curves(pts, 3, grid=[1.0])
        assert np.array_equal([pr, roc], [curves.aupr[0], curves.auroc[0]], equal_nan=True)

    def test_single_class(self):
        pr, roc = aupr_auroc([0.1, 0.2, 0.2], [True, True, True])
        assert pr == 1.0 and np.isnan(roc)
        assert np.isnan(aupr_auroc([0.1, 0.2, 0.2], [False, False, False])).all()

    def test_nan_score(self):
        assert np.isnan(aupr_auroc([0.9, np.nan, 0.1], [True, False, False])).all()

    @pytest.mark.parametrize("metric", [aupr_auroc, aupr, auroc])
    def test_empty_input_is_nan(self, metric):
        assert np.isnan(metric([], [])).all()


@pytest.mark.parametrize("metric", [aupr, auroc])
@pytest.mark.parametrize("seed", range(20))
def test_tied_scores_permuted(metric, seed):
    # the labels inside each tie block, -0.0 and 0.0 one block, move
    # between its points: the value stays the same to the bit
    gen = RngStream(35, seed).generator()
    n = int(gen.integers(2, 200))
    scores = gen.choice([-0.5, -0.0, 0.0, 0.25, 0.5], size=n)
    is_outlier = gen.uniform(size=n) < 0.4
    is_outlier[:2] = True, False
    want = metric(scores, is_outlier)
    for _ in range(5):
        shuffled = is_outlier.copy()
        for value in (-0.5, 0.0, 0.25, 0.5):
            block = np.flatnonzero(scores == value)
            shuffled[block] = gen.permutation(shuffled[block])
        assert metric(scores, shuffled) == want
        perm = gen.permutation(n)
        assert metric(scores[perm], is_outlier[perm]) == want


class TestMiou:
    def test_perfect(self):
        assert miou_old([1, 2, 3], [1, 2, 3], 3) == 100.0

    def test_hand_confusion_matrix(self):
        # confusion [[3,1],[1,3]]: both classes IoU 3/5 -> 60
        true = [1, 1, 1, 1, 2, 2, 2, 2]
        pred = [1, 1, 1, 2, 2, 2, 2, 1]
        assert miou_old(pred, true, 2) == pytest.approx(60.0)

    def test_class_in_gt_never_predicted_counts_zero(self):
        true = [1, 1, 2]
        pred = [1, 1, 1]
        # class1: tp2 fp1 fn0 -> 2/3; class2: 0 -> mean 1/3
        assert miou_old(pred, true, 2) == pytest.approx(100.0 / 3.0)

    def test_outlier_gt_excluded_predicted_outlier_counts_against(self):
        true = [1, 1, 3, 1, 2]  # third point is a true outlier (c=2)
        pred = [1, 3, 2, 1, 2]  # second point predicted outlier
        # the true outlier row is dropped entirely; on the remaining subset
        # class1: tp2 fp0 fn1 (the predicted-outlier point) -> 2/3
        # class2: tp1 fp0 fn0 -> 1
        assert miou_old(pred, true, 2) == pytest.approx(100.0 * (2.0 / 3.0 + 1.0) / 2)

    def test_absent_classes_excluded_from_mean(self):
        assert miou_old([1, 1], [1, 1], 5) == 100.0

    def test_no_inlier_gt_error(self):
        assert np.isnan(miou_old([1], [3], 2))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        # labels from -1 to c + 3: below 1, inlier, outlier, beyond the label space
        gen = RngStream(36, seed).generator()
        n = int(gen.integers(1, 300))
        c = int(gen.integers(1, 6))
        pred = gen.integers(-1, c + 4, size=n)
        true = gen.integers(-1, c + 4, size=n)
        true[0] = int(gen.integers(1, c + 1))
        assert miou_old(pred, true, c) == miou_brute_force(pred, true, c)


def make_points(scores, is_outlier, pred, true):
    return ScoredPoints(np.asarray(scores, dtype=float),
                        np.asarray(is_outlier, dtype=bool),
                        np.asarray(pred), np.asarray(true))


def unlabelled(scores):
    """Inlier points of class 1, predicted right, at ``scores``."""
    n = len(scores)
    return make_points(scores, np.zeros(n, bool), np.ones(n, int), np.ones(n, int))


class TestCoverage:
    """The coverage that ``coverage_curves`` records at a target."""

    def test_tau_one_with_all_below(self):
        curves = coverage_curves(unlabelled([0.2, 0.9, 0.5]), 1, grid=[1.0])
        assert curves.threshold[0] == 1.0 and curves.coverage[0] == 1.0

    def test_tau_zero(self):
        curves = coverage_curves(unlabelled([0.2, 0.9]), 1, grid=[0.0])
        assert curves.threshold[0] == 0.2 and curves.coverage[0] == 0.0

    def test_fraction(self):
        curves = coverage_curves(unlabelled([0.1, 0.4, 0.9]), 1, grid=[0.5])
        assert curves.threshold[0] == 0.9
        assert curves.coverage[0] == pytest.approx(2.0 / 3.0)

    def test_monotone_in_tau(self):
        gen = RngStream(30, 0).generator()
        scores = gen.uniform(size=200)
        curves = coverage_curves(unlabelled(scores), 1, grid=np.linspace(0, 1, 21))
        assert all(a <= b for a, b in zip(curves.coverage, curves.coverage[1:]))
        assert [coverage(scores, t) for t in curves.threshold] == curves.coverage.tolist()


class TestSelectiveRisk:
    """The risk that ``coverage_curves`` records at a target."""

    def test_full_coverage_perfect(self):
        pts = make_points([0.1, 0.2], [False, False], [1, 2], [1, 2])
        assert coverage_curves(pts, 2, grid=[1.0]).risk[0] == 0.0

    def test_full_coverage_identity(self):
        gen = RngStream(31, 0).generator()
        n = 100
        pred = gen.integers(1, 3, size=n)
        true = gen.integers(1, 3, size=n)
        pts = make_points(gen.uniform(size=n) * 0.9, np.zeros(n, bool), pred, true)
        risk = coverage_curves(pts, 2, grid=[1.0]).risk[0]
        assert risk == 100.0 - miou_old(pred, true, 2)

    def test_half_coverage_scaling(self):
        # covered half: class1 tp3 fp1 fn0 -> 3/4, class2 tp1 fp0 fn1 -> 1/2,
        # mIoU 62.5, so risk = (100 - 62.5) / 0.5 = 75
        scores = [0.1, 0.1, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9, 0.9]
        pred = [1, 1, 1, 1, 2, 1, 1, 1, 1, 1]
        true = [1, 1, 1, 2, 2, 1, 1, 1, 1, 1]
        pts = make_points(scores, [False] * 10, pred, true)
        curves = coverage_curves(pts, 2, grid=[0.5])
        assert curves.threshold[0] == 0.9 and curves.coverage[0] == 0.5
        assert miou_old(pred[:5], true[:5], 2) == pytest.approx(62.5)
        assert curves.risk[0] == pytest.approx(75.0)

    def test_quoted_example_scaling(self):
        # coverage 0.5 with covered-subset mIoU exactly 80 -> risk 40:
        # covered class1 has tp4 fn1 (one point predicted outlier) -> 4/5,
        # class2 absent from both sides and excluded
        scores = [0.1] * 5 + [0.9] * 5
        pred = [1, 1, 1, 1, 3] + [1] * 5
        true = [1] * 10
        pts = make_points(scores, [False] * 10, pred, true)
        curves = coverage_curves(pts, 2, grid=[0.5])
        assert curves.coverage[0] == 0.5
        assert miou_old(np.array(pred)[:5], np.array(true)[:5], 2) == pytest.approx(80.0)
        assert curves.risk[0] == pytest.approx(40.0)

    def test_zero_coverage_gap(self):
        pts = make_points([0.5], [False], [1], [1])
        curves = coverage_curves(pts, 1, grid=[0.0])
        assert curves.coverage[0] == 0.0 and np.isnan(curves.risk[0])


class TestThresholdForCoverage:
    def test_smallest_threshold(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        assert threshold_for_coverage(scores, 0.5) == pytest.approx(0.3)
        assert threshold_for_coverage(scores, 0.75) == pytest.approx(0.4)
        assert threshold_for_coverage(scores, 1.0) == 1.0

    def test_handles_score_equal_one(self):
        scores = np.array([0.5, 1.0])
        tau = threshold_for_coverage(scores, 1.0)
        assert tau > 1.0
        assert coverage(scores, tau) == 1.0

    def test_ties(self):
        scores = np.array([0.2, 0.2, 0.2, 0.8])
        assert threshold_for_coverage(scores, 0.5) == pytest.approx(0.8)
        assert coverage(scores, 0.8) == 0.75  # achieved exceeds target


class TestCoverageCurves:
    def two_block_points(self):
        # calibrated toy: inliers p_o = 0.1, outliers p_o = 0.9
        n_in, n_out = 40, 10
        scores = np.concatenate([np.full(n_in, 0.1), np.full(n_out, 0.9)])
        is_outlier = np.concatenate([np.zeros(n_in, bool), np.ones(n_out, bool)])
        gen = RngStream(32, 0).generator()
        pred_in = gen.integers(1, 3, size=n_in)
        true_in = np.where(gen.uniform(size=n_in) < 0.8, pred_in,
                           3 - pred_in)  # 80% correct inliers
        pred = np.concatenate([pred_in, np.full(n_out, 3)])
        true = np.concatenate([true_in, np.full(n_out, 3)])
        return make_points(scores, is_outlier, pred, true)

    def test_two_block_risk_drop(self):
        pts = self.two_block_points()
        curves = coverage_curves(pts, 2, grid=np.array([0.8, 1.0]))
        # at target 0.8 only the inlier block is covered
        inlier_miou = miou_old(pts.pred_labels[:40], pts.true_labels[:40], 2)
        assert curves.coverage[0] == pytest.approx(0.8)
        assert curves.risk[0] == pytest.approx((100 - inlier_miou) / 0.8)
        # full coverage endpoint equals the Eq.-style identity
        full_miou = miou_old(pts.pred_labels, pts.true_labels, 2)
        assert curves.risk[1] == 100.0 - full_miou

    def test_threshold_curve_non_decreasing(self):
        gen = RngStream(33, 0).generator()
        pts = make_points(gen.uniform(size=300), gen.uniform(size=300) < 0.2,
                          gen.integers(1, 4, size=300), gen.integers(1, 4, size=300))
        curves = coverage_curves(pts, 3)
        assert np.all(np.diff(curves.threshold) >= 0)
        assert np.all(np.diff(curves.coverage) >= 0)

    def test_gap_when_covered_subset_single_class(self):
        # lowest-score block is all inliers: AUPR/AUROC undefined there
        pts = make_points([0.1, 0.1, 0.9], [False, False, True],
                          [1, 1, 2], [1, 1, 2])
        curves = coverage_curves(pts, 2, grid=np.array([0.5, 1.0]))
        assert np.isnan(curves.aupr[0]) and np.isnan(curves.auroc[0])
        assert np.isfinite(curves.aupr[1]) and np.isfinite(curves.auroc[1])

    def test_permutation_invariance(self):
        gen = RngStream(34, 0).generator()
        scores = gen.uniform(size=150)
        is_outlier = gen.uniform(size=150) < 0.3
        pred = gen.integers(1, 4, size=150)
        true = gen.integers(1, 5, size=150)
        pts = make_points(scores, is_outlier, pred, true)
        perm = gen.permutation(150)
        pts_shuffled = make_points(scores[perm], is_outlier[perm],
                                   pred[perm], true[perm])
        a = coverage_curves(pts, 3)
        b = coverage_curves(pts_shuffled, 3)
        for name in ("coverage", "threshold", "risk", "aupr", "auroc"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.array_equal(np.isnan(x), np.isnan(y))
            assert np.allclose(x[~np.isnan(x)], y[~np.isnan(y)], atol=0, rtol=0)

    def test_default_grid(self):
        grid = default_grid()
        assert len(grid) == 100
        assert grid[0] == 0.01 and grid[-1] == 1.0


def labelled_points(gen, scores, c, outlier_share=0.3):
    """Random points over labels 1..c+2 (c+1 and c+2 are outliers) with
    predictions in 1..c+1, at the given scores."""
    n = len(scores)
    true = np.where(gen.uniform(size=n) < outlier_share,
                    gen.integers(c + 1, c + 3, size=n), gen.integers(1, c + 1, size=n))
    pred = gen.integers(1, c + 2, size=n)
    return make_points(scores, true > c, pred, true)


class TestCoverageCurvesOracle:
    """``coverage_curves`` agrees bit for bit with the per-threshold loop,
    NaN gaps included."""

    def assert_matches(self, pts, c, grid=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coverage_curves(pts, c, grid)
        want = coverage_curves_brute_force(pts, c, default_grid() if grid is None else grid)
        for name, w in zip(("coverage", "threshold", "risk", "aupr", "auroc"), want):
            g = getattr(got, name)
            assert np.array_equal(np.isnan(g), np.isnan(w)), name
            assert np.array_equal(g[~np.isnan(g)], w[~np.isnan(w)]), name

    @pytest.mark.parametrize("seed", range(12))
    def test_heavy_ties(self, seed):
        gen = RngStream(50, seed).generator()
        n = int(gen.integers(2, 300))
        scores = gen.integers(0, 5, size=n) / 4.0
        self.assert_matches(labelled_points(gen, scores, 3), 3)

    @pytest.mark.parametrize("seed", range(12))
    def test_all_distinct(self, seed):
        gen = RngStream(51, seed).generator()
        n = int(gen.integers(2, 300))
        pts = labelled_points(gen, gen.permutation(n) / n, 4)
        assert len(np.unique(pts.scores)) == n
        self.assert_matches(pts, 4)

    @pytest.mark.parametrize("score, true", [(0.3, 1), (0.3, 3), (1.0, 1), (1.0, 4)])
    def test_single_point(self, score, true):
        pts = make_points([score], [true > 2], [1], [true])
        self.assert_matches(pts, 2)
        self.assert_matches(pts, 2, np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("outlier_share", [0.0, 1.0], ids=["all-inlier", "all-outlier"])
    def test_single_class(self, outlier_share):
        gen = RngStream(52, 0).generator()
        pts = labelled_points(gen, np.round(gen.uniform(size=200), 2), 3, outlier_share)
        assert pts.is_outlier.all() == (outlier_share == 1.0)
        curves = coverage_curves(pts, 3)
        assert np.isnan(curves.auroc).all()
        assert np.isnan(curves.aupr).all() == (outlier_share == 0.0)
        assert np.isnan(curves.risk).all() == (outlier_share == 1.0)
        self.assert_matches(pts, 3)

    def test_grid_starting_with_empty_prefix(self):
        gen = RngStream(53, 0).generator()
        scores = np.concatenate([np.full(30, 0.05), gen.uniform(0.1, 1.0, size=70)])
        pts = labelled_points(gen, scores, 2)
        grid = np.array([0.0, 0.1, 0.3, 0.31, 0.9, 1.0])
        curves = coverage_curves(pts, 2, grid)
        assert curves.coverage[0] == 0.0 and curves.coverage[1] == 0.3
        assert np.isnan([curves.risk[0], curves.aupr[0], curves.auroc[0]]).all()
        self.assert_matches(pts, 2, grid)

    @pytest.mark.parametrize("grid", [[0.9, 0.05, 1.0, 0.5, 0.05, 0.33, 0.0, 0.77], []],
                             ids=["unsorted-with-repeats", "empty"])
    def test_custom_grid(self, grid):
        gen = RngStream(54, 0).generator()
        pts = labelled_points(gen, np.round(gen.uniform(size=250), 2), 3)
        self.assert_matches(pts, 3, np.array(grid, dtype=float))

    def test_scores_at_and_above_one(self):
        gen = RngStream(55, 0).generator()
        pts = labelled_points(gen, gen.integers(0, 6, size=120) / 4.0, 3)
        assert pts.scores.max() > 1.0
        self.assert_matches(pts, 3)

    def test_target_above_one_raises(self):
        pts = make_points([0.1, 0.9], [False, True], [1, 3], [1, 3])
        with pytest.raises(ValueError, match="coverage 1.5 unreachable"):
            coverage_curves(pts, 2, np.array([0.5, 1.5]))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                st.floats(0.0, 1.0)),
                      st.integers(1, 5), st.integers(1, 4)),
            min_size=1, max_size=60),
        grid=st.one_of(st.none(),
                       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)),
    )
    def test_property_matches_brute_force(self, data, grid):
        scores, true, pred = map(np.array, zip(*data))
        pts = make_points(scores, true > 3, pred, true)
        self.assert_matches(pts, 3, None if grid is None else np.array(grid))


class TestPoHistogram:
    def test_all_in_first_bin(self):
        hist = po_histogram([0.05, 0.05], [False, True])
        assert hist.inlier_counts[0] == 1 and hist.outlier_counts[0] == 1
        assert hist.inlier_counts[1:].sum() == 0

    def test_one_point_zero_in_last_bin(self):
        hist = po_histogram([1.0], [False])
        assert hist.inlier_counts[9] == 1

    def test_boundaries_right_open(self):
        values = np.arange(11) / 10.0  # 0.0, 0.1, ..., 1.0
        hist = po_histogram(values, np.zeros(11, bool))
        expect = np.ones(10, int)
        expect[9] = 2  # 0.9 and 1.0 share the right-closed last bin
        assert np.array_equal(hist.inlier_counts, expect)

    def test_partition_sums(self):
        for seed in range(20):
            gen = RngStream(40 + seed, 0).generator()
            p = gen.uniform(size=int(gen.integers(1, 400)))
            out = gen.uniform(size=p.size) < 0.5
            hist = po_histogram(p, out)
            assert hist.inlier_counts.sum() == np.sum(~out)
            assert hist.outlier_counts.sum() == np.sum(out)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            po_histogram([1.5], [False])


def small_curves():
    return CoverageCurves(
        coverage=np.array([0.5, 1.0]),
        threshold=np.array([0.3, 1.0]),
        risk=np.array([10.0, np.nan]),
        aupr=np.array([np.nan, 0.75]),
        auroc=np.array([0.5, 1.0]),
    )


def write_curves_csv(path, c: CoverageCurves):
    """The curves as ``oodlab eval`` writes curves.csv."""
    write_csv(path, ["coverage", "threshold", "risk", "aupr", "auroc"],
              zip(c.coverage, c.threshold, c.risk, c.aupr, c.auroc))


def write_histogram_csv(path, h: Histogram):
    """The histogram as ``oodlab eval`` writes histogram.csv."""
    write_csv(path, ["bin_lo", "bin_hi", "inlier_count", "outlier_count"],
              zip(h.bin_edges[:-1], h.bin_edges[1:], h.inlier_counts, h.outlier_counts))


class TestCsvOutput:
    def test_curves_csv(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, small_curves())
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "coverage,threshold,risk,aupr,auroc"
        assert lines[1] == "0.5,0.3,10.0,NA,0.5"
        assert lines[2] == "1.0,1.0,NA,0.75,1.0"
        assert "\r" not in raw and raw.endswith("\n")

    def test_histogram_csv(self, tmp_path):
        hist = po_histogram([0.05, 0.95], [False, True])
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,inlier_count,outlier_count"
        assert len(lines) == 11
        assert lines[1] == "0.0,0.1,1,0"
        assert lines[10] == "0.9,1.0,0,1"

    @pytest.mark.parametrize("write", [
        lambda path: write_curves_csv(path, small_curves()),
        lambda path: write_histogram_csv(path, po_histogram([0.05, 0.95], [False, True])),
    ], ids=["curves", "histogram"])
    def test_existing_file_intact_when_rename_fails(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            write(path)
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]
