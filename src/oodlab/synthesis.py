"""Outlier injection.

Assets arrive upright: ``io.load_asset`` turns every asset +z-up at load
time. The asset-based pipeline then runs, in order: move the asset
radially and rotate it around the sensor, gate on xy overlap, resize, snap
to the ground, then merge it into the sweep by replacing scene-point radii
inside a small angular window. Radius replacement keeps every scene
point's (lon, lat) untouched, so the sensor's sampling pattern is preserved
exactly — the property the resizing baseline (also provided here) violates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import (
    TAU,
    LabelSpace,
    Scene,
    as_generator,
    from_spherical,
    sample_object_count,
    sample_uniform,
    to_spherical,
)
from .io import ObjectAsset


class PlacementFailed(Exception):
    """No ground reference near the object's footprint; the object is skipped."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Sampling laws and thresholds of the injection pipeline.

    Defaults follow the reference recipe: object count Binomial(20, 0.3),
    radial placement Uniform(r_min, 0.8 * r_max), rotation Uniform over the
    full circle, scale Uniform(1, 7), xy-Manhattan overlap threshold 1 m,
    angular windows 0.02 (lon) and 0.2 (lat). Window units default to
    radians; the source recipe leaves the unit unstated, so both readings
    are reachable through these fields.
    """

    object_count_trials: int = 20
    object_count_prob: float = 0.3
    placement_max_frac: float = 0.8
    scale_range: tuple[float, float] = (1.0, 7.0)
    overlap_delta: float = 1.0
    window_lon: float = 0.02
    window_lat: float = 0.2
    ground_search_radius: float = 5.0
    occlusion_capped: bool = False

    def __post_init__(self):
        if self.object_count_trials < 0:
            raise ValueError("object_count_trials must be >= 0")
        if not 0.0 <= self.object_count_prob <= 1.0:
            raise ValueError("object_count_prob must lie in [0, 1]")
        if not self.overlap_delta > 0:
            raise ValueError("overlap_delta must be > 0")
        if not (self.window_lon > 0 and self.window_lat > 0):
            raise ValueError("angular windows must be > 0")
        lo, hi = self.scale_range
        if not (1.0 <= lo < hi):
            raise ValueError("scale_range must satisfy 1 <= lo < hi")
        if not 0.0 < self.placement_max_frac:
            raise ValueError("placement_max_frac must be > 0")


@dataclass
class MergeReport:
    """Audit trail of one merge: which scene points changed and how."""

    object_id: str
    indices: np.ndarray
    old_radii: np.ndarray
    new_radii: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.old_radii = np.asarray(self.old_radii, dtype=np.float64)
        self.new_radii = np.asarray(self.new_radii, dtype=np.float64)
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("merge report indices must be unique")


def place_object(points: np.ndarray, scene: Scene, cfg: SynthesisConfig, rng) -> np.ndarray:
    """Translate along +x by d ~ U(r_min, frac * r_max), then rotate about
    the sensor (the origin) in the xy-plane by a uniform angle.

    r_min / r_max are the nearest / farthest scene-point distances from the
    sensor. z is untouched.
    """
    gen = as_generator(rng)
    radii = np.linalg.norm(scene.points, axis=1)
    d_x = sample_uniform(gen, float(radii.min()), cfg.placement_max_frac * float(radii.max()))
    d_lon = sample_uniform(gen, 0.0, TAU)

    moved = np.asarray(points, dtype=np.float64) + np.array([d_x, 0.0, 0.0])
    cs, sn = np.cos(d_lon), np.sin(d_lon)
    out = np.empty_like(moved)
    out[:, 0] = cs * moved[:, 0] - sn * moved[:, 1]
    out[:, 1] = sn * moved[:, 0] + cs * moved[:, 1]
    out[:, 2] = moved[:, 2]
    return out


def check_overlap(points: np.ndarray, scene: Scene, delta: float) -> bool:
    """True iff the object's mean (u, v) is within xy-Manhattan `delta` of a
    scene point; False means the merge must be skipped."""
    u_bar = float(np.mean(points[:, 0]))
    v_bar = float(np.mean(points[:, 1]))
    dist = np.abs(scene.points[:, 0] - u_bar) + np.abs(scene.points[:, 1] - v_bar)
    return bool(dist.min() <= delta)


def resize(points: np.ndarray, k: float, min_scale: float = 1.0) -> np.ndarray:
    """Scale the point set by k about its centroid."""
    if k < min_scale:
        raise ValueError(f"scale factor {k} below minimum {min_scale}")
    centroid = points.mean(axis=0)
    return centroid + k * (points - centroid)


def snap_to_ground(points: np.ndarray, scene: Scene, search_radius: float = 5.0) -> np.ndarray:
    """Drop the object so its bottom touches the scene point nearest (in xy)
    to the object centroid.

    Raises PlacementFailed when no scene point lies within `search_radius`
    of the centroid.
    """
    centroid_xy = points[:, :2].mean(axis=0)
    d2 = np.sum((scene.points[:, :2] - centroid_xy) ** 2, axis=1)
    nearest = int(np.argmin(d2))
    if d2[nearest] > search_radius * search_radius:
        raise PlacementFailed(
            f"no scene point within {search_radius} m of the object footprint"
        )
    delta_w = points[:, 2].min() - scene.points[nearest, 2]
    out = points.copy()
    out[:, 2] -= delta_w
    return out


def window_min_radius(
    scene_sph: np.ndarray,
    obj_sph: np.ndarray,
    window_lon: float,
    window_lat: float,
) -> np.ndarray:
    """Per scene point, the smallest radius among object points falling
    strictly inside the angular window; +inf where nothing matches.

    Both inputs are (n, 3) spherical (lon, lat, r). The longitude test is
    the literal |lon_k - lon_j| < window (no 2*pi wraparound), and both
    comparisons are strict, so a difference of exactly the window size does
    not match.
    """
    n = scene_sph.shape[0]
    order = np.argsort(scene_sph[:, 0], kind="stable")
    slon = scene_sph[order, 0]
    slat = scene_sph[order, 1]

    lo = np.searchsorted(slon, obj_sph[:, 0] - window_lon, side="right")
    hi = np.searchsorted(slon, obj_sph[:, 0] + window_lon, side="left")
    counts = hi - lo
    total = int(counts.sum())
    best = np.full(n, np.inf)
    if total > 0:
        rows = np.repeat(np.arange(len(obj_sph)), counts)
        starts = np.cumsum(counts) - counts
        cand = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
        mask = np.abs(slat[cand] - obj_sph[rows, 1]) < window_lat
        sorted_best = np.full(n, np.inf)
        np.minimum.at(sorted_best, cand[mask], obj_sph[rows[mask], 2])
        best[order] = sorted_best
    return best


def merge_spherical(
    scene: Scene,
    obj_points: np.ndarray,
    space: LabelSpace,
    window_lon: float,
    window_lat: float,
    object_id: str = "",
    occlusion_capped: bool = False,
) -> tuple[Scene, MergeReport]:
    """Replace the radius of every scene point inside an object point's
    angular window with the smallest matching object radius, and relabel it
    as a synthesized outlier.

    (lon, lat) of every scene point is unchanged, so the point count and
    the angular sampling pattern are conserved. With ``occlusion_capped``
    the replacement only happens where the object is nearer than the
    existing surface.
    """
    scene_sph = to_spherical(scene.points)
    obj_sph = to_spherical(np.asarray(obj_points, dtype=np.float64))
    best = window_min_radius(scene_sph, obj_sph, window_lon, window_lat)
    changed = np.isfinite(best)
    if occlusion_capped:
        changed &= best < scene_sph[:, 2]
    idx = np.flatnonzero(changed)

    out = scene.copy()
    if idx.size:
        new_sph = scene_sph[idx].copy()
        new_sph[:, 2] = best[idx]
        out.points[idx] = from_spherical(new_sph)
        out.labels[idx] = space.synthetic_outlier
    report = MergeReport(
        object_id=object_id,
        indices=idx,
        old_radii=scene_sph[idx, 2].copy(),
        new_radii=best[idx].copy(),
    )
    return out, report


def synthesize_scene(
    scene: Scene,
    assets: list[ObjectAsset],
    space: LabelSpace,
    cfg: SynthesisConfig,
    rng,
) -> tuple[Scene, list[MergeReport]]:
    """Full asset pipeline: draw G ~ Binomial objects with replacement from
    the pool and push each through move+rotate / overlap gate / resize /
    ground snap / spherical merge.

    Objects failing the overlap gate or the ground snap contribute nothing.
    Merges apply sequentially, so later objects see earlier ones.
    """
    if not assets:
        raise ValueError("asset pool must be nonempty")
    gen = as_generator(rng)
    count = sample_object_count(gen, cfg.object_count_trials, cfg.object_count_prob)
    out = scene
    reports: list[MergeReport] = []
    for g in range(count):
        asset = assets[int(gen.integers(len(assets)))]
        pts = place_object(asset.points, out, cfg, gen)
        if not check_overlap(pts, out, cfg.overlap_delta):
            continue
        k = sample_uniform(gen, *cfg.scale_range)
        pts = resize(pts, k, min_scale=cfg.scale_range[0])
        try:
            pts = snap_to_ground(pts, out, cfg.ground_search_radius)
        except PlacementFailed:
            continue
        out, report = merge_spherical(
            out, pts, space, cfg.window_lon, cfg.window_lat,
            object_id=f"{asset.source_id}#{g}",
            occlusion_capped=cfg.occlusion_capped,
        )
        reports.append(report)
    if out is scene:
        out = scene.copy()
    return out, reports


def resize_existing(
    scene: Scene,
    target_class: int,
    space: LabelSpace,
    k_range: tuple[float, float],
    rng,
    cluster_threshold: float = 0.5,
) -> tuple[Scene, np.ndarray]:
    """Resizing baseline: pick one instance of `target_class` (single-linkage
    components under `cluster_threshold`), scale it about its centroid by
    k ~ U(k_range), and relabel it as a resized outlier.

    Enlarged instances get sparser — the sampling-pattern shortcut the
    asset pipeline exists to avoid. Returns the new scene and the indices
    of the modified points; they are empty, and the scene an unchanged
    copy, when the class is absent.
    """
    gen = as_generator(rng)
    mask = scene.labels == target_class
    out = scene.copy()
    if not mask.any():
        return out, np.array([], dtype=np.int64)

    member_idx = np.flatnonzero(mask)
    pts = scene.points[member_idx]
    m = len(pts)
    pairs = cKDTree(pts).query_pairs(cluster_threshold, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    n_comp, component = connected_components(graph, directed=False)

    chosen = int(gen.integers(n_comp))
    inst = member_idx[component == chosen]
    lo, hi = k_range
    k = sample_uniform(gen, lo, hi) if hi > lo else float(lo)
    out.points[inst] = resize(scene.points[inst], k, min_scale=lo)
    out.labels[inst] = space.resized_outlier
    return out, inst
