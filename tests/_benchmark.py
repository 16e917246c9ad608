"""The desk benchmark: 200 procedural scans, 3 inlier classes, asset-based
outliers from a held-out asset family in the eval split.

Used by the acceptance suite (loss-mode ordering criteria) and by the demo
scripts. The scan corpus is fixed; each run seed re-draws synthesis and
training. Position features (x, y) are deliberately excluded so models
cannot memorize obstacle placements; the held-out cuboid family collides
with the inlier box class in per-point feature space, which is exactly the
regime where ranking resolution between methods shows up.
"""

import numpy as np

from oodlab.core import LabelSpace, RngStream
from oodlab.io import ObjectAsset, ScanConfig, generate_scan
from oodlab.losses import LossConfig, softmax_head
from oodlab.metrics import aupr
from oodlab.model import (
    FeatureConfig,
    TrainConfig,
    extract_features,
    forward,
    score_outlier_prob,
    train,
)
from oodlab.synthesis import SynthesisConfig, resize_existing, synthesize_scene

SPACE = LabelSpace(3)  # ground=1, box=2, cylinder=3

SCAN_CFG = ScanConfig(
    sensor_height=1.7,
    beam_elevations=tuple(np.deg2rad(np.linspace(-25.0, 3.0, 16))),
    azimuth_step=float(np.deg2rad(1.0)),
    ground_z=0.0,
    max_range=40.0,
    random_obstacles=6,
    obstacle_distance=(4.0, 22.0),
    obstacle_size=(0.6, 2.8),
)

FEATURES = FeatureConfig(
    features=("z", "r", "lat", "lon", "density"),
    density_radius=1.0,
    normalizers={"z": 2.0, "r": 20.0, "lat": 0.5,
                 "lon": 3.141592653589793, "density": 10.0},
)

SYNTH_CFG = SynthesisConfig()

N_SCANS = 200
N_TRAIN = 40
SCAN_SEED = 9000
MODES = ("abstain+static", "abstain+dynamic", "ce+cce", "ce")

TRAIN_RECIPE = dict(
    learning_rate=0.07,
    epochs=120,
    hidden_sizes=(24, 24),
    outlier_bias_init=-4.0,
)
LOSS_RECIPE = dict(weight_abstain=0.3, clamp_beta=True)


def _sphere_points(gen, radius, count):
    v = gen.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return radius * v


def _cone_points(gen, base_radius, height, count):
    # lateral surface, apex up, base centered at z = -height/2
    u = np.sqrt(gen.uniform(size=count))  # area-weighted along the slant
    theta = gen.uniform(0.0, 2 * np.pi, size=count)
    r = base_radius * u
    z = height * (1.0 - u) - height / 2.0
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _cuboid_points(gen, sx, sy, sz, count):
    # surface-sampled box, area-weighted over the six faces
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    face = gen.choice(6, size=count, p=areas / areas.sum())
    u = gen.uniform(-0.5, 0.5, size=count)
    v = gen.uniform(-0.5, 0.5, size=count)
    pts = np.empty((count, 3))
    sign = np.where(face % 2 == 0, 0.5, -0.5)
    axis = face // 2
    for k in range(count):
        a = axis[k]
        rest = [i for i in range(3) if i != a]
        p = np.empty(3)
        p[a] = sign[k] * (sx, sy, sz)[a] * 2 * 0.5
        p[rest[0]] = u[k] * (sx, sy, sz)[rest[0]]
        p[rest[1]] = v[k] * (sx, sy, sz)[rest[1]]
        pts[k] = p
    return pts


def make_asset_pools(count_per_asset=500):
    """Train pool: spheres + cones. Held-out eval pool: cuboids, which are
    deliberately confusable with the inlier box class."""
    train_pool, eval_pool = [], []
    gen = RngStream(SCAN_SEED, 1 << 34).generator()
    for i, radius in enumerate((0.25, 0.32, 0.40, 0.48)):
        train_pool.append(ObjectAsset(
            _sphere_points(gen, radius, count_per_asset), source_id=f"sphere{i}"))
    for i, (br, h) in enumerate(((0.25, 0.5), (0.3, 0.7), (0.35, 0.9), (0.2, 0.6))):
        train_pool.append(ObjectAsset(
            _cone_points(gen, br, h, count_per_asset), source_id=f"cone{i}"))
    for i, (sx, sy, sz) in enumerate(((0.5, 0.4, 0.6), (0.7, 0.3, 0.4),
                                      (0.4, 0.4, 0.8), (0.6, 0.5, 0.5))):
        eval_pool.append(ObjectAsset(
            _cuboid_points(gen, sx, sy, sz, count_per_asset), source_id=f"cuboid{i}"))
    return train_pool, eval_pool


def make_scan_corpus(n_scans=N_SCANS):
    return [generate_scan(SCAN_CFG, RngStream(SCAN_SEED, i)) for i in range(n_scans)]


def synthesize_splits(scans, run_seed, n_train=N_TRAIN):
    """Train split: both pipelines (resized boxes become label 4, asset
    objects label 5) with the train pool. Eval split: asset pipeline only,
    from the held-out family."""
    train_pool, eval_pool = make_asset_pools()
    train_scenes, eval_scenes = [], []
    for i, scan in enumerate(scans):
        gen = RngStream(run_seed, (1 << 32) + i).generator()
        if i < n_train:
            scene, _ = resize_existing(scan, 2, SPACE, (1.5, 3.0), gen)
            scene, _ = synthesize_scene(scene, train_pool, SPACE, SYNTH_CFG, gen)
            train_scenes.append(scene)
        else:
            scene, _ = synthesize_scene(scan, eval_pool, SPACE, SYNTH_CFG, gen)
            eval_scenes.append(scene)
    return train_scenes, eval_scenes


def eval_aupr(params, eval_scenes, eval_feats):
    scores, truth = [], []
    for scene, feats in zip(eval_scenes, eval_feats):
        head = forward(feats, params)
        scores.append(score_outlier_prob(softmax_head(head)))
        truth.append(scene.labels)
    scores = np.concatenate(scores)
    is_outlier = np.concatenate(truth) > SPACE.num_classes
    return float(aupr(scores, is_outlier))


def run_benchmark_seed(scans, run_seed, modes=MODES, n_train=N_TRAIN,
                       train_recipe=None, loss_recipe=None):
    train_recipe = dict(TRAIN_RECIPE, **(train_recipe or {}))
    loss_recipe = dict(LOSS_RECIPE, **(loss_recipe or {}))
    train_scenes, eval_scenes = synthesize_splits(scans, run_seed, n_train=n_train)
    eval_feats = [extract_features(s, FEATURES) for s in eval_scenes]
    out = {}
    for mode in modes:
        cfg = TrainConfig(seed=run_seed, loss_mode=mode, **train_recipe)
        params, _beta, _log = train(train_scenes, SPACE, FEATURES, cfg,
                                    LossConfig(**loss_recipe))
        out[mode] = eval_aupr(params, eval_scenes, eval_feats)
    return out


def run_benchmark(seeds=(1, 2, 3, 4, 5), **kwargs):
    scans = make_scan_corpus()
    per_seed = [run_benchmark_seed(scans, 17000 + s, **kwargs) for s in seeds]
    medians = {
        mode: float(np.median([r[mode] for r in per_seed]))
        for mode in per_seed[0]
    }
    return medians, per_seed
