"""Geometric primitives, the label space, and deterministic RNG streams.

Conventions shared by every module:

* all angles are radians internally (degree-valued knobs are converted at
  the configuration boundary),
* longitude ``lon = atan2(y, x)`` lies in ``[-pi, pi)``,
* latitude ``lat = asin(z / r)`` is the elevation from the xy-plane
  (standard for automotive LiDAR), in ``[-pi/2, pi/2]``,
* the exact origin maps to ``(lon, lat, r) = (0, 0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * np.pi

# The largest count numpy takes as a draw's parameter or an array size.
INT64_MAX = int(np.iinfo(np.int64).max)

UINT64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (seed, stream id).

    Identical (seed, stream) pairs yield bitwise-identical sample sequences
    across runs and platforms; the underlying generator is numpy's
    counter-based Philox, keyed directly by the two ids.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & UINT64_MAX, self.stream & UINT64_MAX], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a numpy Generator, or any duck-typed stand-in."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class LabelSpace:
    """Reserved label values: 1..c inlier classes, c+1 resized outliers,
    c+2 synthesized (asset-based) outliers."""

    num_classes: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def resized_outlier(self) -> int:
        return self.num_classes + 1

    @property
    def synthetic_outlier(self) -> int:
        return self.num_classes + 2

    @property
    def max_label(self) -> int:
        return self.num_classes + 2

    def is_outlier(self, labels) -> np.ndarray:
        return np.asarray(labels) > self.num_classes

    def validate(self, labels) -> None:
        labels = np.asarray(labels)
        bad = (labels < 1) | (labels > self.max_label)
        if bad.any():
            raise ValueError(
                f"labels outside 1..{self.max_label}: {np.unique(labels[bad])}"
            )


@dataclass
class Scene:
    """One LiDAR sweep: per-point coordinates, labels, optional intensity.

    ``model.extract_features`` keeps the scene's density column in a private
    memo, one entry per density radius, each checked against a digest of
    ``points`` on every use, so mutating or reassigning ``points`` never
    yields stale counts. The memo takes no part in equality or ``repr``,
    and ``copy()`` starts with an empty one.
    """

    points: np.ndarray
    labels: np.ndarray
    intensity: np.ndarray | None = None
    # {density radius: (points digest, read-only density column)}
    _density_memo: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {self.points.shape}")
        n = self.points.shape[0]
        if n < 1:
            raise ValueError("scene must contain at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("scene points must be finite")
        if self.labels.shape != (n,):
            raise ValueError("labels length must match point count")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=np.float64)
            if self.intensity.shape != (n,):
                raise ValueError("intensity length must match point count")
            if not np.all(np.isfinite(self.intensity)):
                raise ValueError("intensity must be finite")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def copy(self) -> "Scene":
        return Scene(
            self.points.copy(),
            self.labels.copy(),
            None if self.intensity is None else self.intensity.copy(),
        )


def to_spherical(points) -> np.ndarray:
    """Cartesian -> (lon, lat, r) on the last axis.

    r is the Euclidean norm, lon = atan2(y, x) in [-pi, pi), lat = asin(z/r).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ValueError("expected (..., 3) input")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite input")
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    lon = np.arctan2(y, x)
    # atan2 returns +pi for (y=+-0, x<0); fold onto [-pi, pi)
    lon = np.where(lon >= np.pi, lon - TAU, lon)
    safe_r = np.where(r > 0.0, r, 1.0)
    lat = np.arcsin(np.clip(z / safe_r, -1.0, 1.0))
    lat = np.where(r > 0.0, lat, 0.0)
    return np.stack([lon, lat, r], axis=-1)


def from_spherical(sph) -> np.ndarray:
    """(lon, lat, r) -> Cartesian; exact inverse of to_spherical up to round-off."""
    s = np.asarray(sph, dtype=np.float64)
    if s.shape[-1] != 3:
        raise ValueError("expected (..., 3) input")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite input")
    lon, lat, r = s[..., 0], s[..., 1], s[..., 2]
    if (r < 0.0).any():
        raise ValueError("radius must be >= 0")
    cl = np.cos(lat)
    return np.stack([r * cl * np.cos(lon), r * cl * np.sin(lon), r * np.sin(lat)], axis=-1)


def sample_object_count(rng, trials: int = 20, prob: float = 0.3) -> int:
    """Number of objects to inject, drawn Binomial(trials, prob); zero is possible."""
    return int(as_generator(rng).binomial(trials, prob))


def sample_uniform(rng, lo: float, hi: float) -> float:
    """One draw from Uniform[lo, hi)."""
    if not lo < hi:
        raise ValueError(f"invalid range: lo={lo} must be < hi={hi}")
    return float(as_generator(rng).uniform(lo, hi))
