"""Scene file I/O, object-asset ingestion, and procedural LiDAR scans.

Scene files follow the KITTI odometry layout so real scans can be ingested
unchanged: points as little-endian float32 (x, y, z, intensity) records,
labels as one little-endian uint32 per point with the semantic class in the
low 16 bits.

Assets arrive either as ASCII "x y z" point lists or as OBJ-subset meshes
(v/f records only; polygon faces are fan-triangulated) which are converted
to point sets by area-weighted surface sampling. Point lists are +z-up and
meshes +y-up (the ShapeNet convention); ``load_asset`` rotates a sampled
mesh onto +z, so every loaded asset is +z-up.

``io`` holds every artifact format: scene pairs, CSV (``write_csv``) and
JSON (``write_json``), each written by ``atomic_write``, the only file
writer: a temp file is renamed over its target, so a reader never sees a
partial file and a failed write leaves the previous file intact.

A scene pair (``read_scene``), asset (``load_asset``) or checkpoint
(``model.load_checkpoint``) that does not match its format, or that cannot
be read (a directory, say: ``read_bytes``), raises ``FormatError``, whose
message begins with the file's path.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import TAU, Scene, as_generator

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
SEMANTIC_MASK = 0xFFFF

# the rotation taking a +y-up mesh's coordinates to +z-up ones
_Y_UP_TO_Z_UP = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])


class FormatError(ValueError):
    """A scene, label, or asset file does not match its declared format."""


class MeshError(ValueError):
    """A triangle mesh is unusable (e.g. every triangle degenerate)."""


@dataclass
class ObjectAsset:
    """A canonical-pose anomaly object as a point set, +z up."""

    points: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"asset points must be (n, 3), got {self.points.shape}")
        if self.points.shape[0] < 10:
            raise ValueError("asset must contain at least 10 points")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("asset points must be finite")
        extent = self.points.max(axis=0) - self.points.min(axis=0)
        if not (extent > 0.0).any():
            raise ValueError("asset bounding box is empty")


@dataclass
class TriangleMesh:
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        if self.triangles.shape[0] < 1:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle indices out of range")
        if not (self.areas() > 0.0).any():
            raise MeshError("all triangles are degenerate")

    def areas(self) -> np.ndarray:
        a, b, c = (self.vertices[self.triangles[:, k]] for k in range(3))
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def atomic_write(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` through a new
    temp file beside it and ``os.replace``. The temp file,
    ``<path>.<16 random hex digits>.tmp``, is created exclusively, with the
    mode ``open`` gives (0666 less the umask), so no file already there is
    touched; it is removed if either step fails."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "NA" if math.isnan(value) else repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """UTF-8, LF-terminated CSV of ``header`` and ``rows``: a float cell is
    ``repr(float(v))``, NaN is ``NA``, and ints and strings are as they are."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """``obj`` as JSON: indent 2, sorted keys, LF-terminated."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_bytes(path) -> bytes:
    """The contents of the file ``path``; FormatError naming it if it
    cannot be read (a directory, a missing or unreadable file)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _records(path, record_bytes: int, dtype: str, kind: str) -> np.ndarray:
    data = read_bytes(path)
    if not data or len(data) % record_bytes:
        raise FormatError(f"{path}: truncated {kind} file ({len(data)} bytes)")
    return np.frombuffer(data, dtype=dtype)


def read_scene(path_points, path_labels) -> Scene:
    """Read a point/label file pair into a Scene.

    Raises FormatError on a file that cannot be read or is not a whole
    number of records, a point/label count mismatch, or a non-finite
    coordinate or intensity.
    """
    records = _records(path_points, POINT_RECORD_BYTES, "<f4", "point").reshape(-1, 4)
    labels_raw = _records(path_labels, LABEL_RECORD_BYTES, "<u4", "label")
    if len(labels_raw) != len(records):
        raise FormatError(f"{path_labels}: {len(labels_raw)} labels for {len(records)} points")
    # casting a signalling NaN warns; Scene rejects non-finite values itself
    with np.errstate(invalid="ignore"):
        points, intensity = records[:, :3].astype(np.float64), records[:, 3].astype(np.float64)
    try:
        return Scene(points=points, labels=(labels_raw & SEMANTIC_MASK).astype(np.int64),
                     intensity=intensity)
    except ValueError as exc:
        raise FormatError(f"{path_points}: {exc}") from exc


def write_scene(scene: Scene, path_points, path_labels) -> None:
    """Write a Scene as a point/label file pair, each atomically; absent
    intensity becomes 0."""
    n = scene.num_points
    records = np.empty((n, 4), dtype="<f4")
    records[:, :3] = scene.points
    records[:, 3] = 0.0 if scene.intensity is None else scene.intensity
    atomic_write(path_points, records.tobytes())
    atomic_write(path_labels, scene.labels.astype("<u4").tobytes())


def read_xyz(path) -> ObjectAsset:
    """Parse an ASCII "x y z" per-line asset; blank lines and # comments allowed."""
    rows = []
    for lineno, line in enumerate(read_bytes(path).decode().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no points")
    return ObjectAsset(np.array(rows), source_id=Path(path).stem)


def read_obj(path) -> TriangleMesh:
    """Parse the v/f subset of OBJ; polygon faces are fan-triangulated.

    Face vertex tokens may carry /vt/vn suffixes (ignored); 1-based and
    negative (relative) indices are both accepted.
    """
    vertices: list[list[float]] = []
    triangles: list[list[int]] = []
    for lineno, line in enumerate(read_bytes(path).decode().splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise FormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([float(v) for v in parts[1:4]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
        else:
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad face index {head!r}") from exc
                idx.append(i - 1 if i > 0 else len(vertices) + i)
            if len(idx) < 3:
                raise FormatError(f"{path}:{lineno}: face needs >= 3 vertices")
            for k in range(1, len(idx) - 1):
                triangles.append([idx[0], idx[k], idx[k + 1]])
    if not triangles:
        raise FormatError(f"{path}: no faces")
    return TriangleMesh(np.array(vertices), np.array(triangles))


def sample_mesh_surface(mesh: TriangleMesh, count: int, rng) -> ObjectAsset:
    """Sample `count` points uniformly over the mesh surface.

    Triangles are selected proportionally to area; inside each, barycentric
    coordinates use the sqrt trick so the density is uniform. Zero-area
    triangles are never selected.
    """
    if count < 10:
        raise ValueError("count must be >= 10")
    areas = mesh.areas()
    live = areas > 0.0  # TriangleMesh guarantees one
    tri = mesh.triangles[live]
    cum = np.cumsum(areas[live])
    gen = as_generator(rng)
    pick = np.searchsorted(cum, gen.uniform(0.0, cum[-1], size=count), side="right")
    pick = np.minimum(pick, len(cum) - 1)
    a = mesh.vertices[tri[pick, 0]]
    b = mesh.vertices[tri[pick, 1]]
    c = mesh.vertices[tri[pick, 2]]
    s = np.sqrt(gen.uniform(size=count))[:, None]
    t = gen.uniform(size=count)[:, None]
    pts = (1.0 - s) * a + s * (1.0 - t) * b + s * t * c
    return ObjectAsset(pts)


def load_asset(path, count: int = 2048, rng=None) -> ObjectAsset:
    """Load one asset file, +z-up, sampling OBJ meshes to `count` surface
    points.

    OBJ assets follow the ShapeNet +y-up convention, so their samples are
    rotated onto +z; point-list assets are +z-up already. An asset that
    cannot be parsed or built raises FormatError.
    """
    path = Path(path)
    is_mesh = path.suffix.lower() == ".obj"
    if is_mesh and rng is None:
        raise ValueError("rng is required to sample an OBJ mesh")
    try:
        if is_mesh:
            sampled = sample_mesh_surface(read_obj(path), count, rng).points
            return ObjectAsset(sampled @ _Y_UP_TO_Z_UP.T, source_id=path.stem)
        return read_xyz(path)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def asset_paths(directory) -> list[Path]:
    """The .xyz/.txt/.obj asset files in ``directory``, sorted by name."""
    return sorted(p for p in Path(directory).iterdir()
                  if p.suffix.lower() in (".xyz", ".txt", ".obj"))


def load_asset_dir(directory, count: int = 2048, rng=None) -> list[ObjectAsset]:
    """Load every asset of ``asset_paths(directory)``, in its order."""
    return [load_asset(p, count=count, rng=rng) for p in asset_paths(directory)]


@dataclass(frozen=True)
class PrimitiveObstacle:
    """An analytic obstacle: axis-aligned-in-local-frame box or a vertical cylinder.

    ``center`` is the shape center; box ``size`` is the (sx, sy, sz) full
    extent (yaw rotates it about +z), cylinder ``size`` is (radius, height)
    with the axis along +z.
    """

    kind: str
    center: tuple[float, float, float]
    size: tuple[float, ...]
    yaw: float = 0.0
    label: int = 2

    def __post_init__(self):
        if self.kind not in ("box", "cylinder"):
            raise ValueError(f"unknown obstacle kind {self.kind!r}")
        if len(self.center) != 3:
            raise ValueError("center needs 3 components")
        need = 3 if self.kind == "box" else 2
        if len(self.size) != need:
            raise ValueError(f"{self.kind} size needs {need} components")
        if any(s <= 0 for s in self.size):
            raise ValueError("obstacle size components must be > 0")


def _default_elevations() -> tuple[float, ...]:
    return tuple(np.deg2rad(np.linspace(-25.0, 3.0, 16)))


@dataclass
class ScanConfig:
    """Desk-scale stand-in for a real sweep: beam fan + analytic world."""

    sensor_height: float = 1.7
    beam_elevations: tuple[float, ...] = field(default_factory=_default_elevations)
    azimuth_step: float = float(np.deg2rad(1.0))
    ground_z: float = 0.0
    ground_label: int = 1
    max_range: float = 40.0
    obstacles: tuple[PrimitiveObstacle, ...] = ()
    # Optional per-scene variety: boxes land on label box_label, cylinders
    # on cylinder_label, positions/sizes drawn from the ranges below.
    random_obstacles: int = 0
    box_label: int = 2
    cylinder_label: int = 3
    obstacle_distance: tuple[float, float] = (4.0, 22.0)
    obstacle_size: tuple[float, float] = (0.6, 2.8)

    def __post_init__(self):
        if len(self.beam_elevations) < 1:
            raise ValueError("at least one beam elevation required")
        if not self.azimuth_step > 0.0:
            raise ValueError("azimuth_step must be > 0")
        if not self.max_range > 0.0:
            raise ValueError("max_range must be > 0")


def _sample_obstacles(cfg: ScanConfig, gen) -> list[PrimitiveObstacle]:
    out = []
    for _ in range(cfg.random_obstacles):
        kind = "box" if gen.uniform() < 0.5 else "cylinder"
        dist = gen.uniform(*cfg.obstacle_distance)
        angle = gen.uniform(0.0, TAU)
        cx, cy = dist * math.cos(angle), dist * math.sin(angle)
        lo, hi = cfg.obstacle_size
        if kind == "box":
            sx, sy, sz = gen.uniform(lo, hi, size=3)
            out.append(PrimitiveObstacle(
                "box", (cx, cy, cfg.ground_z + sz / 2.0), (sx, sy, sz),
                yaw=gen.uniform(0.0, TAU), label=cfg.box_label,
            ))
        else:
            radius = gen.uniform(lo, hi) / 2.0
            height = gen.uniform(lo, hi)
            out.append(PrimitiveObstacle(
                "cylinder", (cx, cy, cfg.ground_z + height / 2.0), (radius, height),
                label=cfg.cylinder_label,
            ))
    return out


def _ray_grid(cfg: ScanConfig):
    n_az = int(np.floor(TAU / cfg.azimuth_step + 1e-9))
    lons = -np.pi + cfg.azimuth_step * np.arange(n_az)
    lats = np.asarray(cfg.beam_elevations, dtype=np.float64)
    lon_g, lat_g = np.meshgrid(lons, lats)
    lon_f, lat_f = lon_g.ravel(), lat_g.ravel()
    cl = np.cos(lat_f)
    dirs = np.stack([cl * np.cos(lon_f), cl * np.sin(lon_f), np.sin(lat_f)], axis=1)
    return dirs


def _hit_ground(origin, dirs, ground_z):
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ground_z - origin[2]) / dz
    return np.where((dz < 0.0) & (t > 1e-9), t, np.inf)


def _hit_box(origin, dirs, obs: PrimitiveObstacle):
    cy, sy = math.cos(obs.yaw), math.sin(obs.yaw)
    rot = np.array([[cy, sy, 0.0], [-sy, cy, 0.0], [0.0, 0.0, 1.0]])
    p = rot @ (origin - np.asarray(obs.center))
    d = dirs @ rot.T
    half = np.asarray(obs.size) / 2.0
    t_near = np.full(len(dirs), -np.inf)
    t_far = np.full(len(dirs), np.inf)
    for axis in range(3):
        da, pa, ha = d[:, axis], p[axis], half[axis]
        parallel = np.abs(da) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-ha - pa) / da
            t2 = (ha - pa) / da
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        inside = np.abs(pa) <= ha
        lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
        t_near = np.maximum(t_near, lo)
        t_far = np.minimum(t_far, hi)
    hit = (t_near <= t_far) & (t_near > 1e-9)
    return np.where(hit, t_near, np.inf)


def _hit_cylinder(origin, dirs, obs: PrimitiveObstacle):
    radius, height = obs.size
    p = origin - np.asarray(obs.center)
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    half_h = height / 2.0
    best = np.full(len(dirs), np.inf)
    # lateral surface
    a = dx * dx + dy * dy
    b = 2.0 * (p[0] * dx + p[1] * dy)
    c = p[0] * p[0] + p[1] * p[1] - radius * radius
    disc = b * b - 4.0 * a * c
    ok = (disc >= 0.0) & (a > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            t = (-b + sign * sq) / (2.0 * a)
            z = p[2] + t * dz
            valid = ok & (t > 1e-9) & (np.abs(z) <= half_h)
            best = np.where(valid & (t < best), t, best)
    # caps
    with np.errstate(divide="ignore", invalid="ignore"):
        for cap_z in (-half_h, half_h):
            t = (cap_z - p[2]) / dz
            x = p[0] + t * dx
            y = p[1] + t * dy
            valid = (np.abs(dz) > 1e-300) & (t > 1e-9) & (x * x + y * y <= radius * radius)
            best = np.where(valid & (t < best), t, best)
    return best


def generate_scan(cfg: ScanConfig, rng) -> Scene:
    """Cast one ray per (beam, azimuth); keep the nearest hit within max range.

    Rays that hit nothing are omitted, matching real sweeps where dropouts
    are absent points. Raises ValueError if no ray returns at all.
    """
    gen = as_generator(rng)
    obstacles = list(cfg.obstacles) + _sample_obstacles(cfg, gen)
    origin = np.array([0.0, 0.0, cfg.sensor_height])
    dirs = _ray_grid(cfg)

    dists = [_hit_ground(origin, dirs, cfg.ground_z)]
    labels = [cfg.ground_label]
    for obs in obstacles:
        dists.append(_hit_box(origin, dirs, obs) if obs.kind == "box"
                     else _hit_cylinder(origin, dirs, obs))
        labels.append(obs.label)
    dist = np.stack(dists, axis=0)
    winner = np.argmin(dist, axis=0)
    t = dist[winner, np.arange(len(dirs))]
    keep = np.isfinite(t) & (t <= cfg.max_range)
    if not keep.any():
        raise ValueError("scan configuration produces no returns")
    pts = origin + t[keep, None] * dirs[keep]
    lab = np.asarray(labels, dtype=np.int64)[winner[keep]]
    return Scene(points=pts, labels=lab)
