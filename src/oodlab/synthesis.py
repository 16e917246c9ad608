"""Outlier injection.

Assets arrive upright: ``io.load_asset`` turns every asset +z-up at load
time. The asset-based pipeline then runs, in order: move the asset
radially and rotate it around the sensor, gate on xy overlap, resize, snap
to the ground, then merge it into the sweep by replacing scene-point radii
inside a small angular window. A merge moves scene points only along
their rays and keeps the point count and each point's (lon, lat), up to
the rounding of the spherical round trip: the sensor's sampling pattern
survives, which the resizing baseline (also provided here) breaks. The
longitude window does not wrap, so an object across lon = ±pi is cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import (
    INT64_MAX,
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
    """The config's ``synthesis`` section.

    ``mode`` picks the pipelines of ``oodlab synth``: ``asset``, ``resize``
    (the baseline, ``resize_existing``) or ``both`` (resize, then assets).
    Defaults follow the reference recipe: object count Binomial(20, 0.3),
    radial placement Uniform(r_min, 0.8 * r_max), rotation Uniform over the
    full circle, scale Uniform(1, 7), xy-Manhattan overlap threshold 1 m,
    angular windows 0.02 (lon) and 0.2 (lat). Window units default to
    radians; the source recipe leaves the unit unstated, so both readings
    are reachable through these fields.
    """

    mode: str = "asset"
    object_count_trials: int = 20
    object_count_prob: float = 0.3
    placement_max_frac: float = 0.8
    scale_min: float = 1.0
    scale_max: float = 7.0
    overlap_delta: float = 1.0
    window_lon: float = 0.02
    window_lat: float = 0.2
    ground_search_radius: float = 5.0
    occlusion_capped: bool = False
    resize_target_class: int = 2
    resize_scale_min: float = 1.5
    resize_scale_max: float = 3.0
    cluster_threshold: float = 0.5
    asset_sample_count: int = 2048

    def __post_init__(self):
        if self.mode not in ("asset", "resize", "both"):
            raise ValueError("mode must be asset, resize, or both")
        if self.object_count_trials < 0:
            raise ValueError("object_count_trials must be >= 0")
        if not 0.0 <= self.object_count_prob <= 1.0:
            raise ValueError("object_count_prob must lie in [0, 1]")
        if not 1.0 <= self.scale_min:
            raise ValueError("scale_min must be >= 1")
        if not self.scale_min < self.scale_max:
            raise ValueError("scale_max must be > scale_min")
        for name in ("placement_max_frac", "overlap_delta", "window_lon", "window_lat",
                     "ground_search_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.resize_scale_min >= 1:
            raise ValueError("resize_scale_min must be >= 1")
        if not self.resize_scale_max >= self.resize_scale_min:
            raise ValueError("resize_scale_max must be >= resize_scale_min")
        if not (math.isfinite(self.cluster_threshold) and self.cluster_threshold > 0):
            raise ValueError("cluster_threshold must be finite and > 0")
        if self.asset_sample_count < 10:
            raise ValueError("asset_sample_count must be >= 10")
        for name in ("object_count_trials", "asset_sample_count"):
            if getattr(self, name) > INT64_MAX:
                raise ValueError(f"{name} must be <= 2**63 - 1")


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
    sensor. z is untouched. Raises ValueError when r_min >= frac * r_max.
    """
    gen = as_generator(rng)
    radii = np.linalg.norm(scene.points, axis=1)
    lo, hi = float(radii.min()), cfg.placement_max_frac * float(radii.max())
    if not lo < hi:
        raise ValueError(f"placement_max_frac {cfg.placement_max_frac} leaves no placement "
                         f"range: r_min {lo} >= placement_max_frac * r_max {hi}")
    d_x = sample_uniform(gen, lo, hi)
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


# Object points per latitude band in ``window_min_radius``; any value gives
# the same radii, only the time differs. Smaller bands cost more numpy calls
# per merge, larger ones more pairs tested one by one. Over the recorded
# merges of one 64-beam x 0.2 deg sweep synth (18 objects of 2048 points)
# and of the desk splits (185 objects of 500 points), the merge set took a
# median 102 / 80 / 72 / 73 / 77 ms (sweep) and 105 / 70 / 53 / 47 / 50 ms
# (desk) at 64 / 128 / 256 / 512 / 1024 points, against 1756 and 179 ms
# for every (object point, scene point) pair in the lon window (Intel Xeon,
# one thread, numpy 2.4, 5 rounds).
MERGE_BAND_POINTS = 256


def _range_min_table(values: np.ndarray) -> np.ndarray:
    """Sparse table of ``values``: row k holds min(values[i : i + 2**k])
    at each i where that slice lies inside ``values``."""
    table = np.full((len(values).bit_length(), len(values)), np.inf)
    table[0] = values
    for k in range(1, len(table)):
        half = 1 << (k - 1)
        table[k, :-half] = np.minimum(table[k - 1, :-half], table[k - 1, half:])
    return table


def window_min_radius(
    scene_sph: np.ndarray,
    obj_sph: np.ndarray,
    window_lon: float,
    window_lat: float,
) -> np.ndarray:
    """Per scene point, the smallest radius among object points falling
    strictly inside the angular window; +inf where nothing matches.

    Both inputs are (n, 3) spherical (lon, lat, r). Object point j matches
    scene point k when ``lon_j - window_lon < lon_k < lon_j + window_lon``
    and ``|lat_k - lat_j| < window_lat``, each side computed in float64 as
    written. Both tests are strict. The longitude test compares with the
    rounded bounds, not with the rounded difference ``lon_k - lon_j``, so a
    pair whose computed difference equals the window can still match: scene
    lon 0.004536172925714048 matches object lon -0.015463827074285952 at
    window 0.02. Longitude does not wrap at +-pi.
    """
    best = np.full(scene_sph.shape[0], np.inf)
    if not len(obj_sph):
        return best
    lon, lat, r = obj_sph[:, 0], obj_sph[:, 1], obj_sph[:, 2]
    slon, slat = scene_sph[:, 0], scene_sph[:, 1]
    # Only scene points inside the object's angular bounding box can match.
    cand = np.flatnonzero((lon.min() - window_lon < slon) & (slon < lon.max() + window_lon)
                          & (slat - lat.max() < window_lat) & (slat - lat.min() > -window_lat))
    clon, clat = slon[cand], slat[cand]
    cbest = np.full(len(cand), np.inf)
    # Both rounded bounds grow with lon_j, so in an object band sorted by
    # lon the matches of a scene point in lon are one contiguous range, and
    # the lat difference shrinks with lat_j, so a band's lat extremes decide
    # whether its lat window holds all of the band, part of it or none.
    by_lat = np.argsort(lat, kind="stable")
    for band in np.array_split(by_lat, math.ceil(len(lat) / MERGE_BAND_POINTS)):
        band = band[np.argsort(lon[band], kind="stable")]
        blon, blat, br = lon[band], lat[band], r[band]
        start = np.searchsorted(blon + window_lon, clon, side="right")
        stop = np.searchsorted(blon - window_lon, clon, side="left")
        d_min, d_max = clat - blat.max(), clat - blat.min()
        hit = stop > start
        inside = hit & (d_max < window_lat) & (d_min > -window_lat)
        cut = hit & ~inside & (d_min < window_lat) & (d_max > -window_lat)

        rows = np.flatnonzero(inside)
        if rows.size:
            lo, hi = start[rows], stop[rows]
            k = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exactly
            table = _range_min_table(br)
            cbest[rows] = np.minimum(
                cbest[rows], np.minimum(table[k, lo], table[k, hi - (1 << k)]))

        rows = np.flatnonzero(cut)
        if rows.size:
            counts = stop[rows] - start[rows]
            offsets = np.cumsum(counts) - counts
            pair_row = np.repeat(rows, counts)
            pair_obj = np.arange(int(counts.sum())) - np.repeat(offsets - start[rows], counts)
            radii = np.where(np.abs(clat[pair_row] - blat[pair_obj]) < window_lat,
                             br[pair_obj], np.inf)
            cbest[rows] = np.minimum(cbest[rows], np.minimum.reduceat(radii, offsets))
    best[cand] = cbest
    return best


def _spherical(scene: Scene) -> np.ndarray:
    """The scene's (lon, lat, r): the coordinates kept by the merge that made
    the scene while its points array is still the merged one, else computed.
    Only ``synthesize_scene``, which changes no scene in place between its
    merges, keeps them, and a row's coordinates are the same bits whether
    ``to_spherical`` converts it alone or with the whole scene."""
    kept = scene._spherical
    if kept is not None and kept[0] is scene.points:
        return kept[1]
    return to_spherical(scene.points)


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

    A changed point keeps its (lon, lat) up to the rounding of the
    spherical round trip, so the point count and the angular sampling
    pattern are conserved. With ``occlusion_capped``
    the replacement only happens where the object is nearer than the
    existing surface.
    """
    scene_sph = _spherical(scene)
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
    if scene._spherical is not None:  # inside synthesize_scene
        out_sph = scene_sph.copy()
        out_sph[idx] = to_spherical(out.points[idx])
        out._spherical = (out.points, out_sph)
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
    Merges apply sequentially, so later objects see earlier ones. Only the
    asset fields of ``cfg`` are read.
    """
    if not assets:
        raise ValueError("asset pool must be nonempty")
    gen = as_generator(rng)
    count = sample_object_count(gen, cfg.object_count_trials, cfg.object_count_prob)
    out = scene.copy()
    out._spherical = (out.points, to_spherical(out.points))
    reports: list[MergeReport] = []
    for g in range(count):
        asset = assets[int(gen.integers(len(assets)))]
        pts = place_object(asset.points, out, cfg, gen)
        if not check_overlap(pts, out, cfg.overlap_delta):
            continue
        k = sample_uniform(gen, cfg.scale_min, cfg.scale_max)
        pts = resize(pts, k, min_scale=cfg.scale_min)
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
    out._spherical = None
    return out, reports


# Neighbours each point lists in the first pass of ``_components``; any
# value gives the same components, only the time differs. On the box points
# of 64-beam x 0.2 deg sweep scans (10k-13k points, ~600 within 0.5 m of
# each) and of desk scans, 4 listed neighbours already join every instance
# and 3 do not; 6 keeps a margin. Per sweep scan, labelling took a median
# 0.022 s at 4, 0.026 s at 6, 0.033 s at 8 and 0.045 s at 12, against
# 0.49 s from every pair (Intel Xeon, one thread, scipy 1.17).
COMPONENT_NEIGHBOURS = 6


def _within(points: np.ndarray, i, j, threshold: float) -> np.ndarray:
    """True where points i and j are at most ``threshold`` apart, summed as
    cKDTree sums it, ``(dx*dx + dy*dy) + dz*dz <= threshold**2``, so ties at
    the threshold round as they do in ``cKDTree.query_pairs``."""
    d = points[i] - points[j]
    sq = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    return sq <= threshold * threshold


def _components(points: np.ndarray, threshold: float) -> tuple[int, np.ndarray]:
    """Single-linkage components of ``points``: the count and each point's
    component, joining every pair at most ``threshold`` apart (ties and
    duplicates included), numbered by lowest member index."""
    # Exact without listing every joining pair (millions on one sweep scan's
    # boxes). 1) Each point's K nearest points within the threshold are its
    # edges; their weak components refine the true ones. 2) A joining pair
    # that step 1 missed links two saturated points, whose K-th listed
    # neighbour is within the threshold: each endpoint listed K points at
    # least as near. So only saturated points of different components are
    # left to test. Any two components differ in some bit of their number:
    # per bit, the saturated points with the bit set look up their nearest
    # saturated point among those without it, and a hit joins the two.
    # Repeat until a pass joins nothing. cKDTree's query bound is strict
    # and query_pairs keeps ties, so the bound sits just above the
    # threshold and _within decides. scipy numbers components by lowest
    # member index, and joining them keeps that order.
    m = len(points)
    k = min(COMPONENT_NEIGHBOURS, m)
    bound = np.nextafter(threshold, np.inf)
    _, nbr = cKDTree(points, balanced_tree=False).query(
        points, k=k, distance_upper_bound=bound)
    nbr = nbr.reshape(m, k)
    own = np.arange(m)[:, None]
    listed = nbr < m
    nbr = np.where(listed, nbr, own)
    near = _within(points, nbr, own, threshold)
    saturated = np.flatnonzero(listed[:, -1] & near[:, -1])
    edges = np.where(near, nbr, own).astype(np.int32).ravel()
    indptr = np.arange(0, m * k + 1, k, dtype=np.int32)
    graph = csr_matrix((np.ones(m * k), edges, indptr), shape=(m, m))
    n_comp, label = connected_components(graph, directed=True, connection="weak")
    while True:
        _, group = np.unique(label[saturated], return_inverse=True)
        joins = [np.empty((2, 0), dtype=label.dtype)]
        for bit in range(int(group.max(initial=0)).bit_length()):
            side = (group >> bit) & 1 == 1
            off, on = saturated[~side], saturated[side]
            _, hit = cKDTree(points[off], balanced_tree=False).query(
                points[on], distance_upper_bound=bound)
            found = hit < len(off)
            p, q = on[found], off[hit[found]]
            joined = _within(points, p, q, threshold)
            joins.append(label[np.stack([p[joined], q[joined]])])
        join = np.concatenate(joins, axis=1)
        if not join.size:
            return n_comp, label
        merge = coo_matrix((np.ones(join.shape[1]), tuple(join)), shape=(n_comp, n_comp))
        n_comp, relabel = connected_components(merge, directed=False)
        label = relabel[label]


def resize_existing(
    scene: Scene,
    target_class: int,
    space: LabelSpace,
    k_range: tuple[float, float],
    rng,
    cluster_threshold: float = 0.5,
) -> tuple[Scene, np.ndarray]:
    """Resizing baseline: pick one instance of `target_class`, scale it
    about its centroid by k ~ U(k_range), and relabel it as a resized
    outlier.

    Instances are the single-linkage components of the class's points:
    points at distance <= `cluster_threshold` join, ties and duplicates
    included. Components are numbered by their lowest member index (in
    scene order) and the instance is drawn by that number. Enlarged
    instances get sparser — the sampling-pattern shortcut the asset
    pipeline exists to avoid. Returns the new scene and the indices of the
    modified points; they are empty, and the scene an unchanged copy, when
    the class is absent. Raises ValueError unless `target_class` is an
    inlier class, 1 <= k_range[0] <= k_range[1], and `cluster_threshold`
    is finite and > 0.
    """
    if not 1 <= target_class <= space.num_classes:
        raise ValueError(f"target class {target_class} is not an inlier class")
    lo, hi = k_range
    if not 1.0 <= lo <= hi:
        raise ValueError("k_range must satisfy 1 <= min <= max")
    if not (math.isfinite(cluster_threshold) and cluster_threshold > 0):
        raise ValueError("cluster_threshold must be finite and > 0")
    gen = as_generator(rng)
    mask = scene.labels == target_class
    out = scene.copy()
    if not mask.any():
        return out, np.array([], dtype=np.int64)

    member_idx = np.flatnonzero(mask)
    n_comp, component = _components(scene.points[member_idx], cluster_threshold)
    chosen = int(gen.integers(n_comp))
    inst = member_idx[component == chosen]
    k = sample_uniform(gen, lo, hi) if hi > lo else float(lo)
    out.points[inst] = resize(scene.points[inst], k, min_scale=lo)
    out.labels[inst] = space.resized_outlier
    return out, inst
