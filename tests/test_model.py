import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oodlab.model as model_mod
from oodlab.core import LabelSpace, RngStream, Scene
from oodlab.io import FormatError, generate_scan
from oodlab.losses import LOSS_MODES, HeadOutput, LossConfig, cce_loss, softmax_head, total_loss
from oodlab.model import (
    CHECKPOINT_MAGIC,
    STREAM_TRAIN,
    FeatureConfig,
    MlpParams,
    TrainConfig,
    TrainingDiverged,
    backward,
    extract_features,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_maxlogit,
    score_msp,
    score_outlier_prob,
    train,
    _forward_cache,
)

from _benchmark import SCAN_CFG as DESK_SCAN_CFG
from conftest import blob_scenes, head_of
from oracles import density_brute_force


def flat_scene(n=20, z=0.0):
    gen = RngStream(0, 0).generator()
    pts = gen.uniform(-5, 5, size=(n, 3))
    pts[:, 2] = z
    return Scene(points=pts, labels=np.ones(n, dtype=int))


class TestExtractFeatures:
    def test_constant_z_column(self):
        scene = flat_scene(z=0.7)
        feats = extract_features(scene, FeatureConfig(features=("z",)))
        assert feats.shape == (20, 1)
        assert np.all(feats == 0.7)

    def test_isolated_point_density_zero(self):
        scene = Scene(points=np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]),
                      labels=np.array([1, 1]))
        feats = extract_features(
            scene, FeatureConfig(features=("density",), density_radius=1.0))
        assert np.all(feats == 0.0)

    def test_pair_within_radius(self):
        scene = Scene(points=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                      labels=np.array([1, 1]))
        feats = extract_features(
            scene, FeatureConfig(features=("density",), density_radius=1.0))
        assert np.all(feats == 1.0)

    def test_normalizers_and_order(self):
        scene = Scene(points=np.array([[3.0, 0.0, 4.0]]), labels=np.array([1]))
        cfg = FeatureConfig(features=("r", "x", "z"), normalizers={"r": 5.0, "z": 2.0})
        feats = extract_features(scene, cfg)
        assert np.allclose(feats, [[1.0, 3.0, 2.0]])

    def test_overflowing_normalizer_named(self):
        # 4 / 1e-310 is beyond the double range; 3 / 1e-300 is not
        scene = Scene(points=np.array([[3.0, 0.0, 4.0]]), labels=np.array([1]))
        cfg = FeatureConfig(features=("x", "z"), normalizers={"x": 1e-300, "z": 1e-310})
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"^features\.normalizers\['z'\]: dividing "
                                                 r"by 1e-310 scales z beyond the double range$"):
                extract_features(scene, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(features=())
        with pytest.raises(ValueError):
            FeatureConfig(features=("x", "color"))
        with pytest.raises(ValueError):
            FeatureConfig(features=("density",), density_radius=0.0)
        for divisor in ("x", 0.0, True):
            with pytest.raises(ValueError):
                FeatureConfig(normalizers={"z": divisor})
        # a normalizer must name a selected feature
        with pytest.raises(ValueError, match=r"normalizers\['densty'\]"):
            FeatureConfig(normalizers={"densty": 10.0})
        with pytest.raises(ValueError, match=r"normalizers\['x'\]"):
            FeatureConfig(features=("z",), normalizers={"x": 20.0})


# DENSITY_PAIR_BUDGET values that send every scene to one density path.
SELF_JOIN = 1 << 62
BALL_QUERY = -1


def density_column(points, r, budget=None):
    """The density column of ``points``, under ``budget`` when one is given."""
    scene = Scene(points=points, labels=np.ones(len(points), dtype=int))
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(model_mod, "DENSITY_PAIR_BUDGET", budget)
        return extract_features(
            scene, FeatureConfig(features=("density",), density_radius=r))[:, 0]


def lattice(spacing, n=10):
    axis = np.arange(n) * spacing
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


# Clouds with ties on a dyadic grid, duplicates and arbitrary floats.
cloud_coords = st.lists(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
                                  st.floats(-2.0, 2.0)),
                        min_size=3, max_size=600)
cloud_radii = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 4.0))


def cloud(coords):
    return np.array(coords[:len(coords) // 3 * 3]).reshape(-1, 3)


class TestDensityMatchesBruteForce:
    """The density column against ``oracles.density_brute_force``, on inputs
    with points at exactly distance r, duplicates, and enough points per ball
    that whole tree nodes fall inside it. Counted by the self-join here and
    by the ball query in the subclass below."""

    budget = SELF_JOIN

    @pytest.mark.parametrize("spacing", [1.0, 0.3, 0.1])
    @pytest.mark.parametrize("offset", [0.0, 7.3])
    def test_lattice_ties_at_r(self, spacing, offset):
        points = lattice(spacing) + offset
        want = density_brute_force(points, spacing)
        assert want.max() == 6  # the six axis neighbours, at r up to rounding
        assert np.array_equal(density_column(points, spacing, self.budget), want)

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_rounded_cloud(self, r, seed):
        gen = RngStream(seed, 0).generator()
        points = gen.uniform(-2.0, 2.0, size=(1000, 3)).astype(np.float32).astype(np.float64)
        assert np.array_equal(density_column(points, r, self.budget), density_brute_force(points, r))

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_quarter_grid_cloud_with_duplicates(self, r):
        gen = RngStream(2, 0).generator()
        points = np.round(gen.uniform(-1.5, 1.5, size=(1000, 3)) * 4.0) / 4.0
        assert len(np.unique(points, axis=0)) < len(points)
        assert np.array_equal(density_column(points, r, self.budget), density_brute_force(points, r))

    def test_single_point(self):
        assert density_column(np.array([[1.0, 2.0, 3.0]]), 1.0, self.budget).tolist() == [0.0]

    @settings(max_examples=100, deadline=None)
    @given(coords=cloud_coords, r=cloud_radii)
    def test_property(self, coords, r):
        self.check_property(coords, r)

    def check_property(self, coords, r):
        points = cloud(coords)
        assert np.array_equal(density_column(points, r, self.budget), density_brute_force(points, r))


class TestDensityBallQueryMatchesBruteForce(TestDensityMatchesBruteForce):
    """The same inputs counted by the ball query, the path of scenes whose
    x-slab bound exceeds DENSITY_PAIR_BUDGET."""

    budget = BALL_QUERY

    # hypothesis runs one @given method on one class only
    @settings(max_examples=100, deadline=None)
    @given(coords=cloud_coords, r=cloud_radii)
    def test_property(self, coords, r):
        self.check_property(coords, r)


class TestDensityPaths:
    """Which density path a scene takes, and that both count alike."""

    def test_paths_agree_on_desk_scans(self):
        for i in range(3):
            points = generate_scan(DESK_SCAN_CFG, RngStream(9000, i)).points
            assert np.array_equal(density_column(points, 1.0, SELF_JOIN),
                                  density_column(points, 1.0, BALL_QUERY))

    @settings(max_examples=100, deadline=None)
    @given(coords=cloud_coords, r=cloud_radii)
    def test_x_slab_bound_covers_pairs(self, coords, r):
        points = cloud(coords)
        assert model_mod._x_slab_pairs(points, r) >= density_brute_force(points, r).sum() // 2

    def test_self_join_only_under_budget(self, monkeypatch):
        listed = []

        class Spy(cKDTree):
            def query_pairs(self, *args, **kwargs):
                listed.append(len(self.data))
                return super().query_pairs(*args, **kwargs)

        monkeypatch.setattr(model_mod, "cKDTree", Spy)
        gen = RngStream(3, 0).generator()
        # 3000 points in a 1 m x-slab: ~4.5M slab pairs, far fewer within 1 m
        slab = gen.uniform([0.0, -500.0, -500.0], [1.0, 500.0, 500.0], size=(3000, 3))
        assert model_mod._x_slab_pairs(slab, 1.0) > model_mod.DENSITY_PAIR_BUDGET
        over = density_column(slab, 1.0)
        assert listed == []
        under = density_column(slab[:1000], 1.0)
        assert listed == [1000]
        assert np.array_equal(over, density_brute_force(slab, 1.0))
        assert np.array_equal(under, density_brute_force(slab[:1000], 1.0))


@pytest.fixture
def trees_built(monkeypatch):
    """The count of density trees ``extract_features`` builds from here on."""
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return cKDTree(*args, **kwargs)

    monkeypatch.setattr(model_mod, "cKDTree", counting)
    return built


class TestDensityMemo:
    """A scene's density column is counted once per radius while its points
    are unchanged; every call still returns a fresh matrix."""

    def test_second_call_builds_no_tree(self, trees_built):
        scene = blob_scenes(n_scenes=1)[0]
        first = extract_features(scene, FeatureConfig())
        second = extract_features(scene, FeatureConfig())
        assert len(trees_built) == 1
        assert np.array_equal(first, second) and first is not second
        first[:] = 0.0  # the caller owns the matrix; the memo is untouched
        assert np.array_equal(extract_features(scene, FeatureConfig()), second)

    def test_mutated_points_counted_again(self, trees_built):
        scene = Scene(points=lattice(0.3, n=6), labels=np.ones(216, dtype=int))
        cfg = FeatureConfig(features=("density",), density_radius=0.3)
        before = extract_features(scene, cfg)[:, 0]
        scene.points[::2] += 0.05  # in place
        in_place = extract_features(scene, cfg)[:, 0]
        assert np.array_equal(in_place, density_brute_force(scene.points, 0.3))
        assert not np.array_equal(in_place, before)
        scene.points = lattice(0.3, n=6) * 1.5  # reassigned
        assert np.array_equal(extract_features(scene, cfg)[:, 0],
                              density_brute_force(scene.points, 0.3))
        assert len(trees_built) == 3

    def test_each_radius_has_its_own_entry(self, trees_built):
        scene = Scene(points=lattice(0.3, n=6), labels=np.ones(216, dtype=int))
        for r in (0.3, 0.5, 0.3, 0.5):
            got = extract_features(scene, FeatureConfig(features=("density",),
                                                        density_radius=r))[:, 0]
            assert np.array_equal(got, density_brute_force(scene.points, r))
        assert len(trees_built) == 2

    def test_copy_and_equality_ignore_memo(self, trees_built):
        scene = blob_scenes(n_scenes=1)[0]
        twin = Scene(scene.points, scene.labels)  # the same arrays, no counts yet
        extract_features(scene, FeatureConfig())
        assert scene == twin and repr(scene) == repr(twin)
        extract_features(scene.copy(), FeatureConfig())
        assert len(trees_built) == 2

    def test_train_in_every_mode_counts_each_scene_once(self, trees_built):
        scenes = blob_scenes()
        for s in scenes:
            s.labels[-8:] = 4
        for mode in LOSS_MODES:
            cfg = TrainConfig(epochs=1, loss_mode=mode, hidden_sizes=(8,))
            train(scenes, LabelSpace(2), FeatureConfig(), cfg, LossConfig())
        assert len(trees_built) == len(scenes)


class TestForward:
    def test_zero_params_uniform_probs(self):
        params = MlpParams([np.zeros((2, 8)), np.zeros((8, 4))],
                           [np.zeros(8), np.zeros(4)])
        head = forward(np.ones((5, 2)), params)
        probs = softmax_head(head)
        assert np.allclose(probs.p_inlier, 0.25)
        assert np.allclose(probs.p_o, 0.25)

    def test_single_affine_layer_hand_case(self):
        params = MlpParams([np.eye(2) * np.array([[2.0, -1.0]]).T * 0 + np.array([[2.0, 0.0], [0.0, -1.0]])],
                           [np.array([0.5, -0.5])])
        head = forward(np.array([[1.0, 3.0]]), params)
        # logits = [1*2 + 0.5, 3*(-1) - 0.5] = [2.5, -3.5]
        assert np.allclose(head.inlier_logits, [[2.5]])
        assert np.allclose(head.outlier_logit, [-3.5])

    def test_relu_hidden(self):
        params = MlpParams(
            [np.array([[1.0, -1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])],
            [np.zeros(2), np.zeros(2)],
        )
        head = forward(np.array([[2.0], [-2.0]]), params)
        # hidden = relu([x, -x]); logits equal hidden
        assert np.allclose(head.inlier_logits[:, 0], [2.0, 0.0])
        assert np.allclose(head.outlier_logit, [0.0, 2.0])

    def test_shape_mismatch(self):
        params = init_params([3, 4, 3], RngStream(0, 0))
        with pytest.raises(ValueError):
            forward(np.ones((2, 2)), params)

    def test_determinism(self):
        params = init_params([3, 8, 3], RngStream(1, 0))
        x = RngStream(2, 0).generator().normal(size=(10, 3))
        a = forward(x, params)
        b = forward(x, params)
        assert np.array_equal(a.inlier_logits, b.inlier_logits)

    def test_init_bounds(self):
        params = init_params([16, 8, 3], RngStream(3, 0))
        assert np.all(np.abs(params.weights[0]) <= 0.25)
        assert np.all(np.abs(params.weights[1]) <= 1 / np.sqrt(8))


class TestBackward:
    def test_param_gradients_match_finite_differences(self):
        space = LabelSpace(2)
        gen = RngStream(4, 0).generator()
        x = gen.normal(size=(12, 3))
        labels = gen.integers(1, space.max_label + 1, size=12)
        params = init_params([3, 6, 3], RngStream(5, 0))

        def loss_value(p):
            logits, _ = _forward_cache(x, p)
            return cce_loss(HeadOutput(logits), labels, space, 1.0).value

        logits, acts = _forward_cache(x, params)
        res = cce_loss(HeadOutput(logits), labels, space, 1.0)
        gw, gb = backward(params, acts, res.grad)

        h = 1e-6
        for k in range(len(params.weights)):
            for arr, grad in ((params.weights[k], gw[k]), (params.biases[k], gb[k])):
                flat = arr.ravel()
                gflat = grad.ravel()
                idx = RngStream(6, k).generator().choice(flat.size, size=min(10, flat.size),
                                                         replace=False)
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_value(params)
                    flat[i] = orig - h
                    down = loss_value(params)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    assert gflat[i] == pytest.approx(fd, abs=1e-5, rel=1e-4)

    def test_reused_buffers_give_identical_results(self):
        gen = RngStream(7, 0).generator()
        x = gen.normal(size=(15, 3))
        params = init_params([3, 6, 4, 3], RngStream(8, 0))
        logits, acts = _forward_cache(x, params)
        grad = gen.normal(size=logits.shape)
        gw, gb = backward(params, acts, grad)
        # buffers sized for more rows than this scene, and dirty
        act_bufs = [np.full(40 * d, np.nan) for d in (6, 4)]
        delta_bufs = [np.full(40 * 6, np.nan) for _ in range(2)]
        logits_b, acts_b = _forward_cache(x, params, act_bufs)
        gw_b, gb_b = backward(params, acts_b, grad, delta_bufs)
        assert np.array_equal(logits, logits_b)
        for a, b in zip(gw + gb, gw_b + gb_b):
            assert np.array_equal(a, b)


class TestTrain:
    FEATS = FeatureConfig(features=("x", "y", "z"))

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss_mode="mse")
        for sizes in ((0,), (8, 0), (-1,)):
            with pytest.raises(ValueError, match="hidden_sizes"):
                TrainConfig(hidden_sizes=sizes)

    def test_ce_loss_decreases_on_separable_data(self):
        scenes = blob_scenes()
        cfg = TrainConfig(learning_rate=0.1, epochs=10, loss_mode="ce",
                          hidden_sizes=(8,), seed=1)
        _, _, log = train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())
        losses = log.epoch_losses
        assert all(losses[i + 1] < losses[i] for i in range(len(losses) - 1))

    def test_outliers_required_for_non_ce_modes(self):
        scenes = blob_scenes()
        for mode in ("abstain+static", "abstain+dynamic", "ce+cce"):
            cfg = TrainConfig(loss_mode=mode, epochs=1)
            with pytest.raises(ValueError):
                train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())

    @pytest.mark.parametrize("mode", ["ce", "abstain+static"])
    def test_labels_outside_space_rejected_on_entry(self, mode, monkeypatch):
        import oodlab.model as model_mod

        scenes = blob_scenes()
        scenes[1].labels[0] = 9  # c = 2: labels run 1..4
        monkeypatch.setattr(model_mod, "extract_features", pytest.fail)
        cfg = TrainConfig(loss_mode=mode, epochs=1)
        with pytest.raises(ValueError, match=r"labels outside 1\.\.4: \[9\]"):
            train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())

    def test_dynamic_mode_moves_beta(self):
        scenes = blob_scenes()
        for s in scenes:
            s.labels[-8:] = 4  # synthetic outliers (c=2 -> c+2=4)
            s.labels[-16:-8] = 3
        cfg = TrainConfig(learning_rate=0.05, epochs=1, loss_mode="abstain+dynamic",
                          hidden_sizes=(8,), seed=2)
        _, beta, _ = train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())
        assert not np.allclose(beta, 1.0)

    def test_static_mode_keeps_beta_at_one(self):
        scenes = blob_scenes()
        for s in scenes:
            s.labels[-8:] = 4
        for mode in ("abstain+static", "ce+cce", "ce"):
            cfg = TrainConfig(epochs=1, loss_mode=mode, hidden_sizes=(8,))
            _, beta, _ = train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())
            assert np.array_equal(beta, np.ones(3)), mode

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_one_scene_one_epoch_is_one_sgd_step(self, mode):
        # one step on the only scene: the seeded init minus lr times the
        # backward pass of total_loss's gradient, bit for bit
        scene = blob_scenes(n_scenes=1)[0]
        scene.labels[-8:] = 4
        scene.labels[-16:-8] = 3
        space, lr = LabelSpace(2), 0.03
        cfg = TrainConfig(learning_rate=lr, epochs=1, loss_mode=mode, hidden_sizes=(8, 4),
                          seed=5, outlier_bias_init=-1.0, beta_lr_scale=0.5)
        loss_cfg = LossConfig(weight_abstain=0.7)
        params, beta, log = train([scene], space, self.FEATS, cfg, loss_cfg)

        init = init_params([3, 8, 4, 3], RngStream(5, STREAM_TRAIN))
        init.biases[-1][2] += -1.0
        logits, acts = _forward_cache(extract_features(scene, self.FEATS), init)
        res = total_loss(HeadOutput(logits), scene.labels, space, loss_cfg, mode, np.ones(3))
        gw, gb = backward(init, acts, res.grad)
        for got, start, grad in zip(params.weights + params.biases,
                                    init.weights + init.biases, gw + gb):
            assert np.array_equal(got, start - lr * grad)
        if mode == "abstain+dynamic":
            assert np.array_equal(beta, np.ones(3) - lr * 0.5 * res.grad_beta)
            assert not np.array_equal(beta, np.ones(3))
        else:
            assert res.grad_beta is None and np.array_equal(beta, np.ones(3))
        assert log.epoch_losses == [res.value]

    def test_step_is_one_scene(self):
        assert TrainConfig(scenes_per_batch=1).scenes_per_batch == 1
        for bad in (0, 2, 40):
            with pytest.raises(ValueError, match="scenes_per_batch must be 1: each SGD "
                                                 "step is one scene"):
                TrainConfig(scenes_per_batch=bad)

    def test_bitwise_determinism(self):
        scenes = blob_scenes()
        cfg = TrainConfig(learning_rate=0.05, epochs=3, loss_mode="ce",
                          hidden_sizes=(8, 4), seed=7)
        p1, b1, log1 = train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())
        p2, b2, log2 = train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
        assert log1.epoch_losses == log2.epoch_losses

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts(self):
        scenes = blob_scenes(n_scenes=2)
        cfg = TrainConfig(learning_rate=1e12, epochs=50, loss_mode="ce",
                          hidden_sizes=(8,))
        with pytest.raises(TrainingDiverged):
            train(scenes, LabelSpace(2), self.FEATS, cfg, LossConfig())

    def test_overflowing_last_step_raises(self):
        # one scene, one epoch: no forward pass follows the only update, so
        # the parameters themselves must be checked
        cfg = TrainConfig(learning_rate=1e308, epochs=1, loss_mode="ce", hidden_sizes=(8,))
        with pytest.raises(TrainingDiverged, match=r"epoch 0$"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(blob_scenes(n_scenes=1, separation=100.0), LabelSpace(2), self.FEATS, cfg, LossConfig())


class TestScores:
    def test_msp_one_hot(self):
        probs = softmax_head(head_of(np.array([[50.0, 0.0]]), np.array([0.0])))
        assert score_msp(probs)[0] == pytest.approx(0.0, abs=1e-12)

    def test_msp_uniform_four_classes(self):
        probs = softmax_head(head_of(np.zeros((1, 4)), np.zeros(1)))
        assert score_msp(probs)[0] == pytest.approx(0.75)

    def test_msp_bounds(self):
        gen = RngStream(8, 0).generator()
        probs = softmax_head(head_of(gen.normal(size=(100, 4)) * 4,
                                        gen.normal(size=100)))
        s = score_msp(probs)
        assert np.all((s >= 0.0) & (s <= 0.75 + 1e-12))

    @pytest.mark.parametrize("ohat", [30.0, 40.0, 50.0])
    def test_msp_stays_in_range_as_p_o_nears_one(self, ohat):
        # 1 - p^o cancels near p^o = 1, so MSP comes from the inlier softmax
        # s alone; for inlier logits (1, 0, -1) it is 0.3348 at every ohat
        gen = RngStream(10, 0).generator()
        y = np.vstack([[1.0, 0.0, -1.0], gen.normal(size=(50, 3)) * 4])
        probs = softmax_head(head_of(y, np.full(len(y), ohat)))
        msp = score_msp(probs)
        assert np.array_equal(msp, 1.0 - probs.s.max(axis=1))
        assert np.all((msp >= 0.0) & (msp <= 1.0 - 1.0 / 3))
        assert msp[0] == pytest.approx(0.33476, abs=1e-5)

    def test_msp_shift_invariant_maxlogit_not(self):
        gen = RngStream(9, 0).generator()
        y = gen.normal(size=(20, 4))
        o = gen.normal(size=20)
        base_msp = score_msp(softmax_head(head_of(y, o)))
        # shifting a whole row of yhat together with ohat keeps the softmax
        # over the inlier block intact
        shifted_msp = score_msp(softmax_head(head_of(y + 10.0, o + 10.0)))
        assert np.allclose(base_msp, shifted_msp, atol=1e-9)
        assert np.allclose(score_maxlogit(y + 10.0), score_maxlogit(y) - 10.0)

    def test_maxlogit_hand_case(self):
        assert score_maxlogit(np.array([[3.0, 1.0]]))[0] == -3.0

    def test_maxlogit_ranking_equals_alpha_for_single_class(self):
        from oodlab.losses import compute_alpha
        y = RngStream(10, 0).generator().normal(size=(30, 1))
        s = score_maxlogit(y)
        a = -compute_alpha(y)  # both reduce to -yhat
        assert np.array_equal(np.argsort(s), np.argsort(-a))

    def test_outlier_prob_monotone_in_ohat(self):
        y = np.zeros((1, 3))
        lo = score_outlier_prob(softmax_head(head_of(y, np.array([-1.0]))))
        hi = score_outlier_prob(softmax_head(head_of(y, np.array([1.0]))))
        assert hi[0] > lo[0]

    def test_outlier_prob_limits(self):
        probs = softmax_head(head_of(np.zeros((1, 3)), np.array([-200.0])))
        assert score_outlier_prob(probs)[0] == pytest.approx(0.0, abs=1e-12)
        probs_eq = softmax_head(head_of(np.zeros((1, 3)), np.array([0.0])))
        assert score_outlier_prob(probs_eq)[0] == pytest.approx(0.25)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params([5, 8, 4], RngStream(11, 0))
        beta = np.array([1.0, 0.9, 1.2])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, beta)
        loaded, beta2 = load_checkpoint(path)
        assert loaded.layer_sizes == params.layer_sizes
        for w1, w2 in zip(params.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, loaded.biases):
            assert np.array_equal(b1, b2)
        assert np.array_equal(beta, beta2)

    def test_byte_layout(self, tmp_path):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([5.0, 6.0])
        params = MlpParams([w], [b])
        beta = np.array([1.0, 1.0, 1.0])
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(path, params, beta)
        expect = (CHECKPOINT_MAGIC + struct.pack("<II", 1, 1)
                  + struct.pack("<2I", 2, 2)
                  + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
                  + beta.astype("<f8").tobytes())
        assert path.read_bytes() == expect

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params([2, 3], RngStream(0, 0))
        path = tmp_path / "pad.ckpt"
        save_checkpoint(path, params, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        params = init_params([3, 4, 3], RngStream(2, 0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, np.ones(3))
        data = path.read_bytes()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(FormatError, match="model.ckpt"):
                load_checkpoint(path)

    def test_layer_count_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 2**32 - 1) + bytes(18))
        with pytest.raises(FormatError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_sizes_disagreeing_with_length_rejected(self, tmp_path):
        # a 2 -> 2 layer and beta fill 20 + 8 * (4 + 2 + 3) = 92 bytes; a
        # header declaring 3 -> 2 implies 20 + 8 * (6 + 2 + 3) = 108
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, MlpParams([np.ones((2, 2))], [np.ones(2)]), np.ones(3))
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<I", 3)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"92 bytes, layer sizes \(3, 2\) imply 108"):
            load_checkpoint(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes_load_or_format_error(self, tmp_path_factory, data):
        # mostly well-formed headers over arbitrary payloads, so that the
        # checks past the magic are reached, and sometimes any bytes at all
        word = st.integers(0, 4) | st.integers(0, 2**32 - 1)
        n_layers = data.draw(st.integers(0, 3) | st.integers(0, 2**32 - 1))
        sizes = data.draw(st.lists(word, min_size=min(n_layers + 1, 5),
                                   max_size=min(n_layers + 1, 5)))
        magic = data.draw(st.just(CHECKPOINT_MAGIC) | st.binary(min_size=4, max_size=4))
        header = magic + struct.pack(f"<II{len(sizes)}I", data.draw(st.just(1) | word),
                                     n_layers, *sizes)
        floats = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])) + 3
        payload = data.draw(st.binary(min_size=8 * floats, max_size=8 * floats)
                            if floats <= 64 else st.binary(max_size=64))
        blob = data.draw(st.just(header + payload) | st.binary(max_size=120)
                         | st.binary(max_size=len(header + payload)).map(
                             lambda cut: (header + payload)[:len(cut)]))
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        path.write_bytes(blob)
        try:
            params, beta = load_checkpoint(path)
        except FormatError:
            return
        assert beta.shape == (3,) and params.layer_sizes == list(sizes)
        assert all(np.all(np.isfinite(a)) for a in (*params.weights, *params.biases))

    def test_non_finite_parameters_rejected(self, tmp_path):
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, MlpParams([np.ones((2, 2))], [np.ones(2)]), np.ones(3))
        data = bytearray(path.read_bytes())
        data[20:28] = struct.pack("<d", float("nan"))  # first weight
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="nan.ckpt: layer 0: non-finite"):
            load_checkpoint(path)
