"""The desk recipe the desk workloads run on.

A frozen copy of the scan config, features, training and loss recipes and
asset pools of the acceptance suite's desk benchmark, so that a recipe edit
there does not silently change what this benchmark measures. Two things
differ: the scan corpus is drawn from the workload seed instead of a fixed
corpus seed, and the eval split is the first ``N_EVAL`` held-out scenes
instead of all 160, so that every run fits the benchmark's time budget.

Library calls go through module attributes (``io.generate_scan``, not a
name imported at load time) so the traced run sees them.
"""

import warnings

import numpy as np

from oodlab import io, synthesis
from oodlab.core import LabelSpace, RngStream
from oodlab.model import FeatureConfig

SPACE = LabelSpace(3)  # ground=1, box=2, cylinder=3

SCAN_CFG = io.ScanConfig(
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

SYNTH_CFG = synthesis.SynthesisConfig()

N_TRAIN = 40
N_EVAL = 40
MODES = ("abstain+static", "abstain+dynamic", "ce+cce", "ce")

TRAIN_RECIPE = dict(
    learning_rate=0.07,
    epochs=120,
    scenes_per_batch=1,
    hidden_sizes=(24, 24),
    beta_lr_scale=0.0002,
    outlier_bias_init=-4.0,
)
LOSS_RECIPE = dict(weight_abstain=0.3, clamp_beta=True)

# stream-id namespaces, one per stage, as in the CLI
STREAM_SYNTH = 1 << 32
STREAM_TRAIN = 1 << 33
STREAM_ASSETS = 1 << 34


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
    size = np.array([sx, sy, sz])
    axis = face // 2
    pts = np.empty((count, 3))
    for k in range(count):
        a = axis[k]
        rest = [i for i in range(3) if i != a]
        pts[k, a] = (0.5 if face[k] % 2 == 0 else -0.5) * size[a]
        pts[k, rest[0]] = u[k] * size[rest[0]]
        pts[k, rest[1]] = v[k] * size[rest[1]]
    return pts


def make_asset_pools(seed, count_per_asset=500):
    """Train pool: spheres + cones. Held-out eval pool: cuboids, which are
    deliberately confusable with the inlier box class."""
    gen = RngStream(seed, STREAM_ASSETS).generator()
    train_pool, eval_pool = [], []
    for i, radius in enumerate((0.25, 0.32, 0.40, 0.48)):
        train_pool.append(io.ObjectAsset(
            _sphere_points(gen, radius, count_per_asset), source_id=f"sphere{i}"))
    for i, (br, h) in enumerate(((0.25, 0.5), (0.3, 0.7), (0.35, 0.9), (0.2, 0.6))):
        train_pool.append(io.ObjectAsset(
            _cone_points(gen, br, h, count_per_asset), source_id=f"cone{i}"))
    for i, (sx, sy, sz) in enumerate(((0.5, 0.4, 0.6), (0.7, 0.3, 0.4),
                                      (0.4, 0.4, 0.8), (0.6, 0.5, 0.5))):
        eval_pool.append(io.ObjectAsset(
            _cuboid_points(gen, sx, sy, sz, count_per_asset), source_id=f"cuboid{i}"))
    return train_pool, eval_pool


def make_scans(seed, n_train=N_TRAIN, n_eval=N_EVAL):
    return [io.generate_scan(SCAN_CFG, RngStream(seed, i))
            for i in range(n_train + n_eval)]


def synthesize_splits(scans, seed, n_train=N_TRAIN):
    """Train split: both pipelines (resized boxes become label 4, asset
    objects label 5) with the train pool. Eval split: asset pipeline only,
    from the held-out family."""
    train_pool, eval_pool = make_asset_pools(seed)
    train_scenes, eval_scenes = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scenes may lack resizable boxes
        for i, scan in enumerate(scans):
            gen = RngStream(seed, STREAM_SYNTH + i).generator()
            if i < n_train:
                scene, _ = synthesis.resize_existing(scan, 2, SPACE, (1.5, 3.0), gen)
                scene, _ = synthesis.synthesize_scene(scene, train_pool, SPACE, SYNTH_CFG, gen)
                train_scenes.append(scene)
            else:
                scene, _ = synthesis.synthesize_scene(scan, eval_pool, SPACE, SYNTH_CFG, gen)
                eval_scenes.append(scene)
    return train_scenes, eval_scenes
