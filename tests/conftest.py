import numpy as np
import pytest

from oodlab.core import LabelSpace, RngStream, Scene
from oodlab.io import ObjectAsset, ScanConfig, generate_scan
from oodlab.losses import HeadOutput


class ScriptedRng:
    """Duck-typed generator returning pre-scripted values, for pinning the
    stochastic stages of the synthesis pipeline in tests."""

    def __init__(self, uniforms=(), binomials=(), integers=()):
        self._uniforms = list(uniforms)
        self._binomials = list(binomials)
        self._integers = list(integers)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        v = self._uniforms.pop(0)
        return np.full(size, v) if size is not None else v

    def binomial(self, n, p):
        return self._binomials.pop(0)

    def integers(self, lo, hi=None, size=None):
        v = self._integers.pop(0)
        return np.full(size, v) if size is not None else v


def blob_scenes(n_scenes=4, n=60, separation=6.0):
    """Two linearly separable classes along x."""
    scenes = []
    for i in range(n_scenes):
        gen = RngStream(50, i).generator()
        a = gen.normal(size=(n // 2, 3)) + [separation, 0.0, 0.0]
        b = gen.normal(size=(n // 2, 3)) - [separation, 0.0, 0.0]
        pts = np.concatenate([a, b])
        labels = np.array([1] * (n // 2) + [2] * (n // 2))
        scenes.append(Scene(points=pts, labels=labels))
    return scenes


def head_of(inlier_logits, outlier_logit):
    """A HeadOutput from inlier logits (n, c) and outlier logits (n,),
    joined into the head's (n, c+1) array."""
    return HeadOutput(np.column_stack([inlier_logits, outlier_logit]))


def grid_scene(extent=20.0, step=1.0, z=0.0, label=1):
    """A flat grid of ground points, handy as a merge target."""
    xs = np.arange(-extent, extent + step / 2, step)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)
    # drop the exact origin so spherical radii stay positive
    keep = np.linalg.norm(pts[:, :2], axis=1) > 1e-9
    return Scene(points=pts[keep], labels=np.full(keep.sum(), label))


def ball_asset(radius=0.5, count=200, seed=0, source_id="ball"):
    gen = RngStream(seed, 1 << 20).generator()
    v = gen.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return ObjectAsset(radius * v, source_id=source_id)


@pytest.fixture
def space3():
    return LabelSpace(3)


@pytest.fixture
def small_scan():
    cfg = ScanConfig(
        sensor_height=1.7,
        beam_elevations=tuple(np.deg2rad(np.linspace(-25.0, 3.0, 16))),
        azimuth_step=float(np.deg2rad(2.0)),
        max_range=40.0,
        random_obstacles=4,
    )
    return generate_scan(cfg, RngStream(123, 0))
