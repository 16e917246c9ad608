import math

import numpy as np
import pytest

from oodlab.core import LabelSpace, RngStream
from oodlab.losses import (
    REFERENCE_MARGINS,
    HeadOutput,
    LossConfig,
    abstain_loss,
    cce_loss,
    compute_alpha,
    dynamic_penalty_loss,
    finite_difference_grads,
    margins,
    max_relative_error,
    penalty_loss,
    random_instance,
    run_gradient_checks,
    softmax_head,
    total_loss,
)

from conftest import head_of

SPACE4 = LabelSpace(4)
CFG = LossConfig()
# the penalty hand cases use c = 1
M_IN, M_OUT, M_ROUT, M_SOUT = margins(1)


def head_from_alpha(alphas, outlier_logits=None):
    """c=1 trick: alpha = -yhat, so the alphas are directly controllable."""
    alphas = np.asarray(alphas, dtype=np.float64)
    o = np.zeros(len(alphas)) if outlier_logits is None else np.asarray(outlier_logits)
    return head_of((-alphas)[:, None], o)


class TestHeadOutput:
    def test_flat_and_outlier_only_logits_rejected(self):
        # the logits are one (n, c+1) array with c >= 1: neither a flat
        # vector nor a lone outlier column (c = 0) is a head
        with pytest.raises(ValueError, match=r"logits must be \(n, c\+1\)"):
            HeadOutput(np.zeros(3))
        with pytest.raises(ValueError, match="c >= 1"):
            HeadOutput(np.zeros((3, 1)))

    def test_columns_are_views_of_the_logits(self):
        head = HeadOutput(np.arange(6.0).reshape(2, 3))
        assert head.num_classes == 2
        assert np.shares_memory(head.inlier_logits, head.logits)
        assert np.array_equal(head.outlier_logit, [2.0, 5.0])
        with pytest.raises(AttributeError):
            head.outlier_logit = np.zeros(2)


class TestSoftmaxHead:
    def test_uniform(self):
        head = head_of(np.zeros((2, 3)), np.zeros(2))
        probs = softmax_head(head)
        assert np.allclose(probs.p_inlier, 0.25)
        assert np.allclose(probs.p_o, 0.25)

    def test_hand_case(self):
        head = head_of(np.array([[math.log(2.0), 0.0]]), np.array([0.0]))
        probs = softmax_head(head)
        assert np.allclose(probs.p_inlier, [[0.5, 0.25]], atol=1e-15)
        assert np.allclose(probs.p_o, [0.25], atol=1e-15)

    def test_shift_invariance(self):
        gen = RngStream(0, 0).generator()
        y = gen.normal(size=(10, 4))
        o = gen.normal(size=10)
        a = softmax_head(head_of(y, o))
        b = softmax_head(head_of(y + 1000.0, o + 1000.0))
        assert np.max(np.abs(a.p_inlier - b.p_inlier)) < 1e-12
        assert np.max(np.abs(a.p_o - b.p_o)) < 1e-12

    def test_rows_sum_to_one(self):
        gen = RngStream(1, 0).generator()
        probs = softmax_head(head_of(gen.normal(size=(50, 4)) * 5, gen.normal(size=50)))
        assert np.max(np.abs(probs.p_inlier.sum(axis=1) + probs.p_o - 1.0)) < 1e-9
        assert np.all(probs.p_inlier > 0) and np.all(probs.p_o > 0)


class TestComputeAlpha:
    def test_single_zero_logit(self):
        assert compute_alpha(np.array([[0.0]]))[0] == 0.0

    def test_two_zeros(self):
        assert compute_alpha(np.array([[0.0, 0.0]]))[0] == pytest.approx(-math.log(2))

    def test_overflow_safe(self):
        assert compute_alpha(np.array([[10.0, 10.0]]))[0] == pytest.approx(
            -(10.0 + math.log(2)))
        assert np.isfinite(compute_alpha(np.array([[1000.0, 999.0]]))).all()

    def test_matches_probs_invariant(self):
        gen = RngStream(2, 0).generator()
        y = gen.normal(size=(20, 4)) * 3
        alpha = compute_alpha(y)
        direct = -np.log(np.exp(y).sum(axis=1))
        assert np.max(np.abs(alpha - direct)) < 1e-9


class TestAbstainLoss:
    def test_hand_single_inlier(self):
        space = LabelSpace(1)
        head = head_of(np.array([[-2.0]]), np.array([0.0]))
        res = abstain_loss(head, [1], space)
        p_o = 1.0 / (1.0 + math.exp(-2.0))
        p_y = math.exp(-2.0) / (1.0 + math.exp(-2.0))
        expect = -math.log(p_y + p_o / 4.0)  # alpha = 2
        assert res.value == pytest.approx(expect, abs=1e-12)
        assert res.value == pytest.approx(1.0806, abs=1e-4)

    def test_vanishing_outlier_prob_reduces_to_ce(self):
        space = LabelSpace(3)
        y = np.array([[2.0, -1.0, 0.5]])
        head = head_of(y, np.array([-40.0]))
        res = abstain_loss(head, [1], space)
        z = np.concatenate([y[0], [-40.0]])
        ce = -(z[0] - math.log(np.exp(z).sum()))
        assert res.value == pytest.approx(ce, abs=1e-8)

    def test_outlier_branch_sums_not_averages(self):
        space = LabelSpace(2)
        head = head_of(np.array([[0.0, 0.0]]), np.array([0.0]))
        res = abstain_loss(head, [space.resized_outlier], space)
        # p = (1/3, 1/3, 1/3); alpha = -log 2, so alpha^2 < 1 and the payoff
        # is floored at 1: abstain term = (1/3) / max(1, log(2)^2) = 1/3
        a = (1.0 / 3.0) / max(1.0, math.log(2.0) ** 2)
        expect = -2.0 * math.log(1.0 / 3.0 + a)
        assert res.value == pytest.approx(expect, abs=1e-12)

    def test_both_outlier_labels_use_outlier_branch(self):
        space = LabelSpace(2)
        gen = RngStream(3, 0).generator()
        head = head_of(gen.normal(size=(4, 2)), gen.normal(size=4))
        r1 = abstain_loss(head, [3, 3, 3, 3], space)
        r2 = abstain_loss(head, [4, 4, 4, 4], space)
        assert r1.value == r2.value

    def test_monotone_in_outlier_logit_for_outliers(self):
        space = LabelSpace(3)
        gen = RngStream(4, 0).generator()
        y = gen.normal(size=(6, 3))
        o = gen.normal(size=6)
        labels = [space.synthetic_outlier] * 6
        base = abstain_loss(head_of(y, o), labels, space).value
        bumped = abstain_loss(head_of(y, o + 0.1), labels, space).value
        assert bumped < base

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for k in range(25):
            head, labels, _ = random_instance(SPACE4, RngStream(100, k), max_points=24)
            res = abstain_loss(head, labels, SPACE4)
            fd = finite_difference_grads(
                lambda h, b: abstain_loss(h, labels, SPACE4).value, head)
            worst = max(worst, max_relative_error(res, fd))
        assert worst <= 1e-4

    def test_finite_for_extreme_logits(self):
        space = LabelSpace(2)
        head = head_of(np.array([[800.0, -800.0], [-700.0, -720.0]]),
                          np.array([-500.0, 600.0]))
        res = abstain_loss(head, [1, 3], space)
        assert np.isfinite(res.value)

    def test_nonnegative_when_alpha_at_least_one(self):
        # |alpha| >= 1 makes the log argument <= 1, hence value >= 0
        space = LabelSpace(4)
        for k in range(50):
            head, labels, _ = random_instance(space, RngStream(200, k), max_points=16)
            alpha = compute_alpha(head.inlier_logits)
            if not np.all(np.abs(alpha) >= 1.0):
                continue
            assert abstain_loss(head, labels, space).value >= 0.0

    def test_invalid_label_rejected(self):
        head = head_of(np.zeros((1, 4)), np.zeros(1))
        with pytest.raises(ValueError):
            abstain_loss(head, [7], SPACE4)

    def test_payoff_floor_keeps_value_nonnegative(self):
        # the bare 1/alpha^2 reward grows without bound as alpha -> 0; the
        # floored payoff max(1, alpha^2) keeps every log argument <= 1
        space = LabelSpace(3)
        gen = RngStream(210, 0).generator()
        y = gen.normal(size=(200, 3))
        # adding a constant to a row's logits lowers its alpha by that much
        y += (compute_alpha(y) - gen.uniform(-0.9, 0.9, size=200))[:, None]
        o = gen.normal(0.0, 3.0, size=200)
        labels = gen.integers(1, space.max_label + 1, size=200)
        assert np.all(np.abs(compute_alpha(y)) < 1.0)
        for i in range(200):
            res = abstain_loss(head_of(y[i:i + 1], o[i:i + 1]), labels[i:i + 1], space)
            assert res.value >= 0.0

    @pytest.mark.parametrize("c", [2, 3, 5, 20])
    def test_abstaining_pays_at_default_margins(self, c):
        # a desk-like head: points at the margins for c with
        # p^o = sigmoid(-4), over peaked and flat inlier softmaxes. Descent
        # must raise the outlier logit on every outlier, and lower it on
        # every inlier whose class has the largest softmax
        m_in, m_out, _, m_synth = margins(c)
        space = LabelSpace(c)
        gen = RngStream(220, c).generator()
        n = 300
        y = gen.normal(0.0, 2.0, size=(n, c))
        kind = np.arange(n) % 3
        target = np.array([m_out, m_synth, m_in])[kind]
        y += (compute_alpha(y) - target)[:, None]
        assert np.allclose(compute_alpha(y), target)
        o = -4.0 - target  # ohat + alpha = -4
        labels = np.array([space.resized_outlier, space.synthetic_outlier, 0])[kind]
        labels[kind == 2] = np.argmax(y[kind == 2], axis=1) + 1
        res = abstain_loss(head_of(y, o), labels, space)
        assert np.all(res.grad_outlier[kind < 2] < 0.0)
        assert np.all(res.grad_outlier[kind == 2] > 0.0)


class TestMargins:
    @pytest.mark.parametrize("c", [1, 3, 10, 100])
    def test_default_squares_straddle_c(self, c):
        m_in, m_out, m_rout, m_sout = margins(c)
        assert m_in ** 2 == pytest.approx(c * 12.0 / 7.0)
        assert m_sout ** 2 == pytest.approx(c * 7.0 / 12.0)
        assert m_out == m_rout and m_out ** 2 < m_sout ** 2 < c < m_in ** 2

    def test_reference_margins_at_their_center(self):
        # c = 12 * 7 is the geometric mean of the reference m_in^2, m_sout^2
        assert margins(84) == REFERENCE_MARGINS


class TestPenaltyLoss:
    def test_inlier_inside_margin(self):
        res = penalty_loss(head_from_alpha([M_IN - 1.0]), [1], LabelSpace(1))
        assert res.value == 0.0

    def test_inlier_violation(self):
        res = penalty_loss(head_from_alpha([M_IN + 2.0]), [1], LabelSpace(1))
        assert res.value == pytest.approx(2.0)

    def test_outlier_violation(self):
        space = LabelSpace(1)
        res = penalty_loss(head_from_alpha([M_OUT - 1.0]), [space.resized_outlier], space)
        assert res.value == pytest.approx(1.0)

    def test_zero_set_characterization(self):
        space = LabelSpace(1)
        # all inliers below m_in and all outliers above m_out -> exactly zero
        head = head_from_alpha([M_IN - 0.5, M_IN - 2.0, M_OUT + 1.0, M_OUT])
        labels = [1, 1, space.resized_outlier, space.synthetic_outlier]
        assert penalty_loss(head, labels, space).value == 0.0
        # any violation -> strictly positive
        head2 = head_from_alpha([M_IN + 0.1, M_IN - 2.0, M_OUT + 1.0, M_OUT])
        assert penalty_loss(head2, labels, space).value > 0.0

    def test_outlier_logit_gradient_is_zero(self):
        head, labels, _ = random_instance(SPACE4, RngStream(5, 0))
        res = penalty_loss(head, labels, SPACE4)
        assert np.all(res.grad_outlier == 0.0)

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for k in range(25):
            head, labels, _ = random_instance(SPACE4, RngStream(300, k), max_points=24)
            res = penalty_loss(head, labels, SPACE4)
            fd = finite_difference_grads(
                lambda h, b: penalty_loss(h, labels, SPACE4).value, head)
            worst = max(worst, max_relative_error(res, fd))
        assert worst <= 1e-4


class TestDynamicPenaltyLoss:
    def test_reduces_to_static(self):
        # beta = 1 and m_rout = m_out: identical values on inlier + c+1 data
        space = LabelSpace(1)
        head = head_from_alpha([M_IN + 2.0, M_OUT - 1.0, M_IN - 1.0])
        labels = [1, space.resized_outlier, 1]
        dyn = dynamic_penalty_loss(head, labels, space, np.ones(3))
        stat = penalty_loss(head, labels, space)
        assert dyn.value == pytest.approx(stat.value, abs=1e-15)

    def test_synth_outlier_margin(self):
        space = LabelSpace(1)
        res = dynamic_penalty_loss(head_from_alpha([M_SOUT - 1.0]),
                                   [space.synthetic_outlier], space, np.ones(3))
        assert res.value == pytest.approx(1.0)

    def test_beta_gradient_values(self):
        space = LabelSpace(1)
        head = head_from_alpha([M_IN + 2.0, M_ROUT - 1.0, M_SOUT - 1.0])
        labels = [1, space.resized_outlier, space.synthetic_outlier]
        # all three hinges active: above m_in, below m_rout, below m_sout
        res = dynamic_penalty_loss(head, labels, space, np.ones(3))
        assert res.grad_beta == pytest.approx([-M_IN / 3, M_ROUT / 3, M_SOUT / 3])

    def test_beta_gradient_matches_finite_differences(self):
        worst = 0.0
        for k in range(25):
            head, labels, beta = random_instance(SPACE4, RngStream(400, k), max_points=24)
            res = dynamic_penalty_loss(head, labels, SPACE4, beta)
            fd = finite_difference_grads(
                lambda h, b: dynamic_penalty_loss(h, labels, SPACE4, b).value,
                head, beta=beta)
            worst = max(worst, max_relative_error(res, fd))
        assert worst <= 1e-6

    def test_beta_prior_gives_finite_optimum(self, monkeypatch):
        # alone, the hinges' beta gradient loosens every margin at every
        # beta; with the prior, beta_k settles at 1 -/+ f_k / lambda, f_k the
        # fraction of type k's points whose hinge is active
        space = LabelSpace(1)
        r, s = space.resized_outlier, space.synthetic_outlier
        # alphas in units of the reference margins (-12 / -6 / -7)
        scale = M_IN / REFERENCE_MARGINS[0]
        head = head_from_alpha(scale * np.array([-1.0, -20.0, -20.0, -20.0, -30.0, 0.0,
                                                 -40.0, 0.0, 0.0, 0.0]))
        labels = [1, 1, 1, 1, r, r, s, s, s, s]
        optimum = np.array([0.75, 1.5, 1.25])  # f = 1/4, 1/2, 1/4; lambda = 1
        res = dynamic_penalty_loss(head, labels, space, optimum)
        assert np.allclose(res.grad_beta, 0.0, atol=1e-12)
        loose = np.array([0.6, 1.7, 1.4])
        g = dynamic_penalty_loss(head, labels, space, loose).grad_beta
        assert g[0] < 0 and g[1] > 0 and g[2] > 0  # descent tightens all
        import oodlab.losses as losses_mod
        monkeypatch.setattr(losses_mod, "BETA_PRIOR", 0.0)
        for beta in (np.ones(3), optimum, np.array([0.5, 2.0, 2.0])):
            g = dynamic_penalty_loss(head, labels, space, beta).grad_beta
            assert g[0] > 0 and g[1] < 0 and g[2] < 0  # descent loosens all

    def test_bad_beta_shape(self):
        head, labels, _ = random_instance(SPACE4, RngStream(6, 0))
        with pytest.raises(ValueError):
            dynamic_penalty_loss(head, labels, SPACE4, np.ones(2))


class TestTotalLoss:
    def test_static_sums_weighted_abstain_and_penalty(self):
        head, labels, _ = random_instance(SPACE4, RngStream(7, 0))
        cfg = LossConfig(weight_abstain=0.7)
        tot = total_loss(head, labels, SPACE4, cfg, "abstain+static")
        ab = abstain_loss(head, labels, SPACE4)
        pen = penalty_loss(head, labels, SPACE4)
        assert abs(tot.value - (0.7 * ab.value + pen.value)) < 1e-12
        assert np.allclose(tot.grad_inlier, 0.7 * ab.grad_inlier + pen.grad_inlier,
                           atol=1e-15)
        assert np.allclose(tot.grad_outlier, 0.7 * ab.grad_outlier, atol=1e-15)
        assert tot.grad_beta is None

    def test_abstain_weight_zero_is_penalty(self):
        head, labels, _ = random_instance(SPACE4, RngStream(8, 0))
        cfg = LossConfig(weight_abstain=0.0)
        tot = total_loss(head, labels, SPACE4, cfg, "abstain+static")
        pen = penalty_loss(head, labels, SPACE4)
        assert tot.value == pen.value
        assert np.array_equal(tot.grad_inlier, pen.grad_inlier)
        assert np.all(tot.grad_outlier == 0.0)

    def test_linearity(self):
        head, labels, beta = random_instance(SPACE4, RngStream(9, 0))
        cfg = LossConfig(weight_abstain=0.7)
        tot = total_loss(head, labels, SPACE4, cfg, "abstain+dynamic", beta)
        ab = abstain_loss(head, labels, SPACE4)
        dyn = dynamic_penalty_loss(head, labels, SPACE4, beta)
        assert abs(tot.value - (0.7 * ab.value + dyn.value)) < 1e-12
        assert np.array_equal(tot.grad_beta, dyn.grad_beta)

    @pytest.mark.parametrize("mode, weight_cce", [("ce+cce", 1.0), ("ce", 0.0)])
    def test_ce_modes_are_cce_loss(self, mode, weight_cce):
        head, labels, beta = random_instance(SPACE4, RngStream(9, 1))
        tot = total_loss(head, labels, SPACE4, CFG, mode, beta)
        ref = cce_loss(head, labels, SPACE4, weight_cce)
        assert tot.value == ref.value
        assert np.array_equal(tot.grad_inlier, ref.grad_inlier)
        assert np.array_equal(tot.grad_outlier, ref.grad_outlier)
        assert tot.grad_beta is None

    def test_dynamic_requires_beta(self):
        head, labels, _ = random_instance(SPACE4, RngStream(10, 0))
        with pytest.raises(ValueError):
            total_loss(head, labels, SPACE4, CFG, "abstain+dynamic")

    def test_unknown_mode(self):
        head, labels, _ = random_instance(SPACE4, RngStream(10, 1))
        for mode in ("softmax", "static", "dynamic"):
            with pytest.raises(ValueError):
                total_loss(head, labels, SPACE4, CFG, mode)


class TestCceLoss:
    def manual_ce(self, z, col):
        m = z.max()
        lse = m + math.log(np.exp(z - m).sum())
        return lse - z[col]

    def test_zero_weight_is_plain_ce(self):
        gen = RngStream(11, 0).generator()
        y = gen.normal(size=(5, 4))
        o = gen.normal(size=5)
        labels = np.array([1, 2, 3, 4, 5])
        res = cce_loss(head_of(y, o), labels, SPACE4, 0.0)
        z = np.concatenate([y, o[:, None]], axis=1)
        expect = np.mean([self.manual_ce(z[i], labels[i] - 1) for i in range(5)])
        assert res.value == pytest.approx(expect, abs=1e-12)

    def test_outlier_rows_ignore_lambda(self):
        gen = RngStream(12, 0).generator()
        y = gen.normal(size=(3, 4))
        o = gen.normal(size=3)
        labels = [SPACE4.resized_outlier] * 3
        a = cce_loss(head_of(y, o), labels, SPACE4, 0.0)
        b = cce_loss(head_of(y, o), labels, SPACE4, 5.0)
        assert a.value == b.value
        assert np.array_equal(a.grad_inlier, b.grad_inlier)

    def test_synth_label_collapses_to_resized(self):
        gen = RngStream(13, 0).generator()
        head = head_of(gen.normal(size=(3, 4)), gen.normal(size=3))
        a = cce_loss(head, [SPACE4.resized_outlier] * 3, SPACE4, 1.0)
        b = cce_loss(head, [SPACE4.synthetic_outlier] * 3, SPACE4, 1.0)
        assert a.value == b.value

    def test_cce_term_manual(self):
        # single inlier point: CCE = lse_{k != y}(z) - o
        y = np.array([[1.0, -0.5]])
        o = np.array([0.3])
        space = LabelSpace(2)
        res = cce_loss(head_of(y, o), [1], space, 1.0)
        z = np.array([1.0, -0.5, 0.3])
        ce = self.manual_ce(z, 0)
        lse_ex = math.log(math.exp(-0.5) + math.exp(0.3))
        expect = ce + (lse_ex - 0.3)
        assert res.value == pytest.approx(expect, abs=1e-12)

    def test_value_nonnegative(self):
        for k in range(30):
            head, labels, _ = random_instance(SPACE4, RngStream(500, k), max_points=16)
            assert cce_loss(head, labels, SPACE4, 1.0).value >= 0.0

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for k in range(25):
            head, labels, _ = random_instance(SPACE4, RngStream(600, k), max_points=24)
            res = cce_loss(head, labels, SPACE4, 1.0)
            fd = finite_difference_grads(
                lambda h, b: cce_loss(h, labels, SPACE4, 1.0).value, head)
            worst = max(worst, max_relative_error(res, fd))
        assert worst <= 1e-4


class TestGradcheckHarness:
    def test_run_gradient_checks_small(self):
        results = run_gradient_checks(num_instances=5, max_points=16, seed=3)
        assert set(results) == {
            "cce", "abstain", "penalty", "dynamic_penalty",
            "total_static", "total_dynamic",
        }
        for err, worst_seed in results.values():
            assert err <= 1e-4
            assert 0 <= worst_seed < 5

    def test_instances_cover_payoff_floor_and_beta_prior(self):
        # the gradcheck's instances probe the abstain payoff on both sides
        # of its floor |alpha| = 1, and beta away from 1, where the prior acts
        alphas, betas = [], []
        for k in range(100):
            head, _, beta = random_instance(SPACE4, RngStream(0, k))
            alphas.append(np.abs(compute_alpha(head.inlier_logits)))
            betas.append(beta)
        alphas = np.concatenate(alphas)
        assert np.sum(alphas < 1.0) >= 50 and np.sum(alphas > 1.0) >= 50
        assert np.all(np.array(betas) != 1.0)

    def test_detects_corrupted_gradient(self, monkeypatch):
        import oodlab.losses as losses_mod

        real = losses_mod.abstain_loss

        def flipped(*args, **kwargs):
            res = real(*args, **kwargs)
            res.grad[:, :-1] *= -1.0
            return res

        monkeypatch.setattr(losses_mod, "abstain_loss", flipped)
        results = losses_mod.run_gradient_checks(num_instances=2, max_points=8, seed=0)
        assert results["abstain"][0] > 1e-4
