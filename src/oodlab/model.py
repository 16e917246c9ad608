"""A toy per-point classifier: feature extraction, a small fully-connected
network with hand-written backprop, an SGD trainer, baseline anomaly scores,
and a versioned binary checkpoint format.

The backbone stands in for a full 3D segmentation network; the objectives
being exercised are backbone-agnostic, so a per-point MLP over simple
geometric features is enough at desk scale.

Checkpoint layout (all little-endian):

    bytes 0..3   magic b"OODC"
    uint32       format version (currently 1)
    uint32       L = number of affine layers
    uint32[L+1]  layer sizes d_0 .. d_L (d_L = c + 1)
    then per layer k = 1..L:
        float64[d_{k-1} * d_k]  weight matrix, row-major (input-major)
        float64[d_k]            bias vector
    float64[3]   beta (margin weights)
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .core import LabelSpace, RngStream, Scene, as_generator, to_spherical
from .io import FormatError, atomic_write, read_bytes
from .losses import LOSS_MODES, HeadOutput, HeadStats, LossConfig, total_loss

FEATURE_NAMES = ("x", "y", "z", "r", "lat", "lon", "density")

# Points per cKDTree leaf for the density count. On a 2-vCPU Xeon (scipy
# 1.17), 128-point leaves with sliding-midpoint splits counted 1.0 m balls
# 1.6-2.1x faster than scipy's 16-point median-split default on 96k-point
# sweep scans (~1100 neighbours per point) and 1.3-1.5x faster on 4.8k-point
# desk scenes (~60). Leaves of 64 to 192 points timed within noise of 128.
DENSITY_LEAFSIZE = 128

CHECKPOINT_MAGIC = b"OODC"
CHECKPOINT_VERSION = 1

# The training stream's id under the run seed: without an ``rng``, ``train``
# draws its initialisation and scene orders from RngStream(seed, STREAM_TRAIN).
# The CLI's other stages use other ids (``cli``).
STREAM_TRAIN = 1 << 33


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss or parameters; names the last epoch
    that finished."""

    def __init__(self, epoch: int, last_good_epoch: int | None):
        super().__init__(
            f"non-finite loss or parameters in epoch {epoch}"
            + (f" (last good epoch: {last_good_epoch})" if last_good_epoch is not None else "")
        )


@dataclass
class FeatureConfig:
    """Which per-point features to emit, in order, plus their divisors.

    ``density`` is, per point, the number of other points at Euclidean
    distance at most ``density_radius``: a point at exactly that distance
    counts, every duplicate of a point counts, and the point itself does
    not. ``normalizers`` maps feature name -> nonzero divisor, a number
    that converts to a finite float; unlisted features pass through
    unscaled.

    The density column is counted once per Scene and ``density_radius``:
    ``extract_features`` keeps it on the Scene and reuses it while a digest
    of the scene's points still matches. ``Scene.copy()`` carries no counts.
    """

    features: tuple[str, ...] = FEATURE_NAMES
    density_radius: float = 1.0
    normalizers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.features = tuple(self.features)
        if not self.features:
            raise ValueError("at least one feature required")
        unknown = set(self.features) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        if "density" in self.features and not self.density_radius > 0:
            raise ValueError("density_radius must be > 0")
        for name, divisor in self.normalizers.items():
            if name not in self.features:
                raise ValueError(f"normalizers[{name!r}] names no selected feature")
            number = isinstance(divisor, (int, float)) and not isinstance(divisor, bool)
            try:  # an integer beyond the double range does not convert
                usable = number and divisor != 0 and math.isfinite(divisor)
            except OverflowError:
                usable = False
            if not usable:
                raise ValueError(f"normalizers[{name!r}] must be a nonzero finite number")


def _density_column(scene: Scene, radius: float) -> np.ndarray:
    """Per point, the count of other points within ``radius`` (as float64),
    from the scene's memo when its points are unchanged since the count."""
    points = np.ascontiguousarray(scene.points, dtype=np.float64)
    sha = hashlib.sha256(repr(points.shape).encode())
    sha.update(points)
    digest = sha.digest()
    memo = scene._density_memo.get(radius)
    if memo is not None and memo[0] == digest:
        return memo[1]
    # Shaped for counting, not for scipy's defaults: with 16-point leaves a
    # ball of ~1000 neighbours costs more in tree walking than in distance
    # tests, so large leaves scanned straight through are cheaper
    # (DENSITY_LEAFSIZE). The counts are the same integers either way;
    # tests/test_model.py checks them against a brute-force oracle.
    tree = cKDTree(points, leafsize=DENSITY_LEAFSIZE, balanced_tree=False)
    column = tree.query_ball_point(points, radius, return_length=True) - 1.0
    column.flags.writeable = False
    scene._density_memo[radius] = (digest, column)
    return column


def extract_features(scene: Scene, cfg: FeatureConfig) -> np.ndarray:
    """(n, d) feature matrix in the configured order, a fresh array on every
    call; the density column is counted once per Scene and radius
    (``FeatureConfig``). A divisor so small that a scaled value overflows
    raises ValueError naming the feature and its divisor."""
    columns = {}
    need_sph = {"r", "lat", "lon"} & set(cfg.features)
    if need_sph:
        sph = to_spherical(scene.points)
        columns["lon"], columns["lat"], columns["r"] = sph[:, 0], sph[:, 1], sph[:, 2]
    for axis, name in enumerate(("x", "y", "z")):
        if name in cfg.features:
            columns[name] = scene.points[:, axis]
    if "density" in cfg.features:
        columns["density"] = _density_column(scene, cfg.density_radius)
    with np.errstate(over="ignore"):  # an overflow is named below
        out = np.stack(
            [columns[name] / cfg.normalizers.get(name, 1.0) for name in cfg.features],
            axis=1,
        )
    if not np.isfinite(out).all():
        name = next(n for n, col in zip(cfg.features, out.T) if not np.isfinite(col).all())
        raise ValueError(f"features.normalizers[{name!r}]: dividing by "
                         f"{cfg.normalizers[name]!r} scales {name} beyond the double range")
    return out


@dataclass
class MlpParams:
    """Affine layers; hidden activations are ReLU, the output is linear and
    splits into c inlier logits plus one outlier logit."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching, nonempty weight/bias lists")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {k}: incompatible shapes {w.shape} / {b.shape}")
            if k > 0 and w.shape[0] != self.weights[k - 1].shape[1]:
                raise ValueError(f"layer {k}: input dim mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k}: non-finite parameters")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def init_params(layer_sizes, rng) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, seeded."""
    gen = as_generator(rng)
    weights, biases = [], []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(d_in)
        weights.append(gen.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(gen.uniform(-bound, bound, size=d_out))
    return MlpParams(weights, biases)


def _matmul(a, b, buf):
    """a @ b, written into the head of the flat array ``buf``.

    The trainer reuses its buffers across steps: a fresh (n, hidden) array
    is mapped anew by the allocator and pays a page fault every 4 KiB,
    which took half of the forward pass's time at desk size.
    """
    return np.matmul(a, b, out=buf[:a.shape[0] * b.shape[1]].reshape(a.shape[0], b.shape[1]))


def _forward_cache(features: np.ndarray, params: MlpParams, bufs=None):
    """Logits and the input of every layer; ``bufs`` holds one flat buffer
    per hidden layer, each at least n times that layer's width (allocated
    here if not given)."""
    acts = [np.asarray(features, dtype=np.float64)]
    h = acts[0]
    if bufs is None:
        bufs = [np.empty(len(h) * w.shape[1]) for w in params.weights[:-1]]
    for w, b, buf in zip(params.weights[:-1], params.biases[:-1], bufs):
        h = _matmul(h, w, buf)
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    logits = h @ params.weights[-1] + params.biases[-1]
    return logits, acts


def forward(features: np.ndarray, params: MlpParams) -> HeadOutput:
    """Run the network; the last column of the output is the outlier logit."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"features shape {features.shape} incompatible with input dim "
            f"{params.weights[0].shape[0]}"
        )
    return HeadOutput(_forward_cache(features, params)[0])


def backward(params: MlpParams, acts: list[np.ndarray], grad_logits: np.ndarray,
             bufs=None):
    """Gradients of a scalar loss wrt every weight/bias, given d(loss)/d(logits).

    ReLU subgradient at 0 is 0, matching the hinge convention. ``bufs``
    holds two flat buffers, each at least n times the widest hidden layer,
    which the layers' deltas alternate between (allocated here if not
    given).
    """
    if bufs is None:
        width = max((w.shape[1] for w in params.weights[:-1]), default=0)
        bufs = [np.empty(len(grad_logits) * width) for _ in range(2)]
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = grad_logits
    for k in range(len(params.weights) - 1, -1, -1):
        grads_w[k] = acts[k].T @ delta
        grads_b[k] = np.einsum("ij->j", delta)  # sum(axis=0), same order, faster
        if k > 0:
            delta = _matmul(delta, params.weights[k].T, bufs[k % 2])
            delta *= acts[k] > 0.0
    return grads_w, grads_b


@dataclass
class TrainConfig:
    """SGD settings.

    Each SGD step is one scene. ``scenes_per_batch`` must be 1; it remains
    only because the benchmark's frozen recipe sets it.

    ``beta_lr_scale`` multiplies the learning rate for the margin weights
    beta only. The dynamic penalty's prior gives beta a finite optimum
    (``losses.dynamic_penalty_loss``), so the scale sets only how fast beta
    tracks it. The prior's curvature in beta_k is at most
    ``losses.BETA_PRIOR * |m_k|``, so steps stay stable while
    ``learning_rate * beta_lr_scale * BETA_PRIOR * |m_in|`` is below 2
    (m_in from ``losses.margins``); the default 1.0 gives beta the
    weights' step.

    ``seed`` keys the stream ``train`` draws from when it is given no
    ``rng``: RngStream(seed, STREAM_TRAIN). A run config sets it to its
    top-level seed.
    """

    learning_rate: float = 0.05
    epochs: int = 10
    seed: int = 0
    loss_mode: str = "abstain+static"
    scenes_per_batch: int = 1
    hidden_sizes: tuple[int, ...] = (64, 64)
    beta_lr_scale: float = 1.0
    # Initial bias of the outlier logit. p^o = sigmoid(ohat + alpha) and the
    # abstain term's gradient on ohat shrinks with p^o, so the head learns
    # only if p^o on outliers stays well above 0 once the margins have
    # placed alpha. With margins whose squares straddle c (losses.margins)
    # alpha stays within a few units of 0 and a bias of -4 or 0 both learn;
    # at the reference margins -12 / -6 / -6 / -7 and c = 3
    # (alpha -6 to -15) p^o falls below 1e-4 and neither does.
    outlier_bias_init: float = 0.0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.scenes_per_batch != 1:
            raise ValueError("scenes_per_batch must be 1: each SGD step is one scene")
        if not self.beta_lr_scale >= 0:
            raise ValueError("beta_lr_scale must be >= 0")
        self.hidden_sizes = tuple(self.hidden_sizes)
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must all be >= 1")


@dataclass
class TrainLog:
    epoch_losses: list[float]
    beta_history: list[np.ndarray]


def train(
    scenes: list[Scene],
    space: LabelSpace,
    feature_cfg: FeatureConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    rng=None,
) -> tuple[MlpParams, np.ndarray, TrainLog]:
    """Plain SGD on the selected objective, one scene per step in a seeded
    order each epoch; beta steps too whenever the loss returns its gradient
    (abstain+dynamic). Deterministic given (scenes, configs, seed): without
    ``rng`` the draws come from RngStream(train_cfg.seed, STREAM_TRAIN),
    the stream ``oodlab train`` uses, so a train manifest's ``features``,
    ``train`` and ``loss`` reproduce its checkpoint.

    Raises ValueError on a label outside ``space`` or, in a loss mode other
    than plain "ce", on a dataset without outlier-labelled points; raises
    TrainingDiverged on a non-finite loss, or on non-finite parameters or
    beta after an epoch's last step.
    """
    if not scenes:
        raise ValueError("need at least one training scene")
    for s in scenes:
        space.validate(s.labels)
    if train_cfg.loss_mode != "ce":
        if not any(space.is_outlier(s.labels).any() for s in scenes):
            raise ValueError(
                f"loss mode {train_cfg.loss_mode!r} requires outlier labels "
                "in the training data"
            )
    gen = as_generator(rng if rng is not None else RngStream(train_cfg.seed, STREAM_TRAIN))

    feats = [extract_features(s, feature_cfg) for s in scenes]
    labels = [s.labels for s in scenes]
    dim = feats[0].shape[1]
    c = space.num_classes
    params = init_params([dim, *train_cfg.hidden_sizes, c + 1], gen)
    params.biases[-1][c] += train_cfg.outlier_bias_init
    beta = np.ones(3)
    mode = train_cfg.loss_mode
    lr = train_cfg.learning_rate
    rows = max(len(f) for f in feats)
    act_bufs = [np.empty(rows * d) for d in train_cfg.hidden_sizes]
    delta_bufs = [np.empty(rows * max(train_cfg.hidden_sizes, default=0)) for _ in range(2)]

    log = TrainLog(epoch_losses=[], beta_history=[])
    last_good: int | None = None
    for epoch in range(train_cfg.epochs):
        order = gen.permutation(len(scenes))
        epoch_values = []
        for i in order:
            # an overflow here is caught by HeadOutput's finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                logits, acts = _forward_cache(feats[i], params, act_bufs)
            try:  # the shapes are right by construction: only NaN/inf fail
                head = HeadOutput(logits)
            except ValueError:
                raise TrainingDiverged(epoch, last_good) from None
            res = total_loss(head, labels[i], space, loss_cfg, mode, beta)
            if not np.isfinite(res.value):
                raise TrainingDiverged(epoch, last_good)
            gw, gb = backward(params, acts, res.grad, delta_bufs)
            # an overflow here is caught by the finiteness check after the epoch
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(len(gw)):
                    params.weights[k] -= lr * gw[k]
                    params.biases[k] -= lr * gb[k]
                if res.grad_beta is not None:  # abstain+dynamic
                    beta = beta - lr * train_cfg.beta_lr_scale * res.grad_beta
                    if loss_cfg.clamp_beta:
                        beta = np.maximum(beta, 0.0)
            epoch_values.append(res.value)
        if not all(np.isfinite(a).all() for a in (*params.weights, *params.biases, beta)):
            raise TrainingDiverged(epoch, last_good)
        log.epoch_losses.append(float(np.mean(epoch_values)))
        log.beta_history.append(beta.copy())
        last_good = epoch
    return params, beta, log


def score_msp(probs: HeadStats) -> np.ndarray:
    """1 - max softmax probability over the inlier classes only (the inlier
    renormalization is exactly a softmax over the inlier logits)."""
    denom = np.maximum(1.0 - probs.p_o, np.finfo(np.float64).tiny)
    return 1.0 - probs.p_inlier.max(axis=1) / denom


def score_maxlogit(inlier_logits: np.ndarray) -> np.ndarray:
    """Negative max inlier logit; unlike MSP, not shift-invariant."""
    return -np.asarray(inlier_logits, dtype=np.float64).max(axis=1)


def score_outlier_prob(probs: HeadStats) -> np.ndarray:
    """The directly predicted outlier probability p^o."""
    return probs.p_o.copy()


def save_checkpoint(path, params: MlpParams, beta) -> None:
    """Write the documented binary layout (atomically, ``io.atomic_write``)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (3,):
        raise ValueError("beta must have shape (3,)")
    sizes = params.layer_sizes
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(params.weights))
    blob += struct.pack(f"<{len(sizes)}I", *sizes)
    for w, b in zip(params.weights, params.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(beta, dtype="<f8").tobytes()
    atomic_write(path, bytes(blob))


def load_checkpoint(path) -> tuple[MlpParams, np.ndarray]:
    """Read the documented layout; FormatError unless the file is exactly it
    (or if it cannot be read, as a directory cannot)."""
    data = read_bytes(path)
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated checkpoint header ({len(data)} bytes)")
    version, n_layers = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 12 + 4 * (n_layers + 1)
    if len(data) < offset:
        raise FormatError(f"{path}: truncated checkpoint header ({len(data)} bytes)")
    sizes = struct.unpack_from(f"<{n_layers + 1}I", data, 12)
    expected = offset + 8 * (sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])) + 3)
    if len(data) != expected:
        raise FormatError(f"{path}: {len(data)} bytes, layer sizes {sizes} imply {expected}")
    weights, biases = [], []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(data, dtype="<f8", count=d_in * d_out, offset=offset)
        offset += 8 * d_in * d_out
        b = np.frombuffer(data, dtype="<f8", count=d_out, offset=offset)
        offset += 8 * d_out
        weights.append(w.reshape(d_in, d_out).copy())
        biases.append(b.copy())
    beta = np.frombuffer(data, dtype="<f8", count=3, offset=offset).copy()
    try:
        return MlpParams(weights, biases), beta
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
