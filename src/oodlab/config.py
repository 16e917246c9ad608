"""Run configuration (strict JSON with full defaults) and run manifests.

The config file is a JSON object mirroring RunConfig's nested sections;
every field has a default, unknown keys are rejected by name, and a value
must have the JSON type of its field's default (NaN, Infinity and numbers
beyond the double range are rejected). ``load_config`` is the one
validation point: it builds every section through its constructor once,
so a bad value in any section is a ConfigError before any command runs.
``synthesis``, ``features``, ``train`` and ``loss`` are the library's
SynthesisConfig, FeatureConfig, TrainConfig and LossConfig, whose
ValueError becomes ``<section>: <key> ...``. The seed is the top-level
one, an integer in [0, 2**64 - 1] (an RngStream key is 64 bits, so no two
seeds share a stream); RunConfig copies it into ``train.seed``, the
training stream's key, so a manifest's ``features``, ``train`` and
``loss`` reproduce its checkpoint through ``model.train`` (``train.seed``,
``train.beta_lr_scale`` and ``train.scenes_per_batch`` are not keys).
Scan labels must lie in the label space, 1..num_classes + 2. The other
sections check their values in ``__post_init__``, where scan also builds
its ScanConfig and caps its ray tests at MAX_SCAN_CASTS. Angles are degrees
(``ScanSection.build`` converts them), except the merge's windows (radians).

Every command writes a RunManifest JSON, ``<command>.manifest.json``,
next to its outputs (``write_manifest``): the resolved config snapshot,
the seed, the artifact version, sha256 digests of the inputs, and the
output file list. Manifests contain no timestamps, so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import INT64_MAX, UINT64_MAX, LabelSpace
from .io import PrimitiveObstacle, ScanConfig, write_json
from .losses import LossConfig
from .model import FeatureConfig, TrainConfig
from .synthesis import SynthesisConfig

ARTIFACT_VERSION = "0.1.0"

# The most ray-surface tests one scan may ask for, rays x (1 + obstacles)
# with rays >= 1 (each obstacle is drawn even if no ray is cast): 22 times a
# 64-beam scan at 0.2 degrees among 12 obstacles (115,200 x 13), and a
# 256 MiB float64 table of hit distances in ``io.generate_scan``.
MAX_SCAN_CASTS = 2**25


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass
class ScanSection:
    sensor_height: float = 1.7
    beam_count: int = 16
    elevation_min_deg: float = -25.0
    elevation_max_deg: float = 3.0
    azimuth_step_deg: float = 1.0
    ground_z: float = 0.0
    ground_label: int = 1
    max_range: float = 40.0
    random_obstacles: int = 6
    box_label: int = 2
    cylinder_label: int = 3
    obstacle_distance: tuple[float, float] = (4.0, 22.0)
    obstacle_size: tuple[float, float] = (0.6, 2.8)
    obstacles: tuple[dict, ...] = ()

    def __post_init__(self):
        if not self.azimuth_step_deg > 0:
            raise ConfigError("scan.azimuth_step_deg: must be > 0")
        if not 1 <= self.beam_count <= 4096:  # lidars have <= 128; build() makes the fan
            raise ConfigError("scan.beam_count: must be in [1, 4096]")
        if max(abs(self.elevation_min_deg), abs(self.elevation_max_deg)) > 90:
            raise ConfigError("scan.elevation_min_deg/max_deg: must be within [-90, 90]")
        for name in ("obstacle_distance", "obstacle_size"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"scan.{name}: must hold two numbers, [min, max]")
        scan = self.build()  # the obstacle specs and ScanConfig's own checks
        rays = len(scan.beam_elevations) * scan.azimuth_count
        surfaces = 1 + len(scan.obstacles) + scan.random_obstacles
        for key, n in (("azimuth_step_deg", rays), ("random_obstacles", max(rays, 1) * surfaces)):
            if n > MAX_SCAN_CASTS:
                raise ConfigError(f"scan.{key}: {rays:.4g} rays x {surfaces} surfaces (ground "
                                  f"and obstacles) exceed MAX_SCAN_CASTS = {MAX_SCAN_CASTS}")

    def _fixed_obstacles(self) -> tuple[PrimitiveObstacle, ...]:
        fixed, keys = [], {"kind", "center", "size", "yaw_deg", "label"}
        for i, spec in enumerate(self.obstacles):
            if isinstance(spec, dict) and (unknown := sorted(spec.keys() - keys)):
                raise ConfigError(f"unknown config key: scan.obstacles[{i}].{unknown[0]}")
            try:
                fixed.append(PrimitiveObstacle(
                    kind=_typed(spec["kind"], "", "kind"),
                    center=_typed(spec["center"], (0.0,), "center"),
                    size=_typed(spec["size"], (0.0,), "size"),
                    yaw=float(np.deg2rad(_typed(spec.get("yaw_deg", 0.0), 0.0, "yaw_deg"))),
                    label=_typed(spec.get("label", 2), 0, "label"),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"scan.obstacles[{i}]: {exc}") from exc
        return tuple(fixed)

    def build(self) -> ScanConfig:
        elevations = tuple(np.deg2rad(np.linspace(
            self.elevation_min_deg, self.elevation_max_deg, self.beam_count
        )))
        return ScanConfig(
            sensor_height=self.sensor_height,
            beam_elevations=elevations,
            azimuth_step=float(np.deg2rad(self.azimuth_step_deg)),
            ground_z=self.ground_z,
            ground_label=self.ground_label,
            max_range=self.max_range,
            obstacles=self._fixed_obstacles(),
            random_obstacles=self.random_obstacles,
            box_label=self.box_label,
            cylinder_label=self.cylinder_label,
            obstacle_distance=tuple(self.obstacle_distance),
            obstacle_size=tuple(self.obstacle_size),
        )


MAX_GRID_SIZE = 10**6


@dataclass
class MetricsSection:
    """``grid_size`` target coverages for the coverage curves, at most
    MAX_GRID_SIZE so that the grid's arrays stay small: a grid point is a
    row of curves.csv and at most one AUPR sweep over tie blocks, and a grid
    finer than the eval set's n points only repeats rows. A million is far
    above the 100 every run uses and the desk eval set's 190k points."""

    grid_size: int = 100

    def __post_init__(self):
        if self.grid_size < 1:
            raise ConfigError("metrics.grid_size: must be >= 1")
        if self.grid_size > MAX_GRID_SIZE:
            raise ConfigError(f"metrics.grid_size: must be <= {MAX_GRID_SIZE}")


@dataclass
class GradcheckSection:
    instances: int = 100
    max_points: int = 64

    def __post_init__(self):
        if self.instances < 1:
            raise ConfigError("gradcheck.instances: must be >= 1")
        if self.max_points < 2:
            raise ConfigError("gradcheck.max_points: must be >= 2")
        if self.max_points > INT64_MAX:  # numpy draws the instance sizes
            raise ConfigError("gradcheck.max_points: must be <= 2**63 - 1")


@dataclass
class RunConfig:
    seed: int = 0
    num_classes: int = 3
    scan_count: int = 10
    scan_dir: str = "data/scans"
    synth_dir: str = "data/synth"
    asset_dir: str = "assets"
    out_dir: str = "out"
    train_dir: str = ""      # empty -> synth_dir
    eval_dir: str = ""       # empty -> synth_dir
    checkpoint: str = ""     # empty -> out_dir/model.ckpt
    scan: ScanSection = field(default_factory=ScanSection)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    gradcheck: GradcheckSection = field(default_factory=GradcheckSection)

    def __post_init__(self):
        if not 0 <= self.seed <= UINT64_MAX:  # RngStream keys on 64 bits
            raise ConfigError("seed: must be in [0, 2**64 - 1]")
        if self.num_classes < 1:
            raise ConfigError("num_classes: must be >= 1")
        if self.scan_count < 1:
            raise ConfigError("scan_count: must be >= 1")
        if self.scan_count > INT64_MAX:
            raise ConfigError("scan_count: must be <= 2**63 - 1")
        if not 1 <= self.synthesis.resize_target_class <= self.num_classes:
            raise ConfigError("synthesis.resize_target_class: must be an inlier class, "
                              "in [1, num_classes]")
        max_label = LabelSpace(self.num_classes).max_label
        labels = {f"scan.{key}": getattr(self.scan, key)
                  for key in ("ground_label", "box_label", "cylinder_label")}
        labels.update((f"scan.obstacles[{i}].label", obstacle.label)
                      for i, obstacle in enumerate(self.scan.build().obstacles))
        for key, label in labels.items():
            if not 1 <= label <= max_label:
                raise ConfigError(f"{key}: {label} is outside the label space "
                                  f"[1, num_classes + 2] = [1, {max_label}]")
        self.train = dataclasses.replace(self.train, seed=self.seed)

    def resolved_checkpoint(self) -> str:
        return self.checkpoint or str(Path(self.out_dir) / "model.ckpt")


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", tuple: "an array", dict: "an object"}


def _typed(value, default, key: str):
    """``value`` if it has the type of ``default``. An integer is taken
    (as a float) where a number is expected, and an array becomes a tuple
    whose elements are checked against the default's first one; a boolean
    is not a number."""
    kind = type(default)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{key}: {value} is beyond the double range") from None
    if kind is tuple and type(value) is list:
        if not default:
            return tuple(value)
        return tuple(_typed(v, default[0], f"{key}[{i}]") for i, v in enumerate(value))
    if type(value) is not kind:
        raise ConfigError(f"{key}: expected {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


# Library fields that a config file does not set, and why.
_NOT_SETTABLE = {"train.seed": "the top-level seed is the only seed a config sets",
                 "train.beta_lr_scale": "not a config setting; the CLI trains at 1.0",
                 "train.scenes_per_batch": "not a config setting; each SGD step is one scene"}


def _build(cls, data: dict, prefix: str):
    """``cls`` made by its constructor from the JSON object ``data``: keys
    are checked against its fields, values against the types of their
    defaults, and a nested section is built the same way. A ValueError of
    the constructor becomes a ConfigError naming the section."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if prefix + key in _NOT_SETTABLE:
            raise ConfigError(f"{prefix}{key}: {_NOT_SETTABLE[prefix + key]}")
        f = fields[key]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key}: expected an object")
            kwargs[key] = _build(type(default), value, prefix=f"{prefix}{key}.")
        else:
            kwargs[key] = _typed(value, default, prefix + key)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix.rstrip('.')}: {exc}") from exc


def _finite_number(text: str) -> float:
    """A JSON number; NaN, Infinity and overflowing numbers raise."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """The RunConfig of the JSON file at ``path`` (defaults alone without
    one), with the top-level keys of ``overrides`` replacing the file's.
    Raises ConfigError naming the key or section of any invalid value."""
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"),
                              parse_float=_finite_number, parse_constant=_finite_number)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # also a non-finite number or bad UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
    return _build(RunConfig, {**data, **(overrides or {})}, prefix="")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_path(directory, command: str) -> Path:
    """``directory/<command>.manifest.json``: each command has its own
    manifest, so commands sharing a directory keep each other's."""
    return Path(directory) / f"{command}.manifest.json"


def write_manifest(directory, command: str, cfg: RunConfig, inputs: dict[str, str],
                   outputs) -> None:
    """Write the ``manifest_path`` of ``command`` in ``directory``,
    recording the file names of the ``outputs`` paths."""
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "seed": cfg.seed,
        "rng": "numpy-philox",
        "config": dataclasses.asdict(cfg),
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(Path(p).name for p in outputs),
    }
    write_json(manifest_path(directory, command), payload)
