"""Run configuration (strict JSON with full defaults) and run manifests.

The config file is a JSON object mirroring RunConfig's nested sections;
every field has a default, unknown keys are rejected by name, and a value
must have the JSON type of its field's default. The ``features`` and
``loss`` sections are the library's FeatureConfig and LossConfig, checked
by their own constructors when a command uses them (``validated``). Angles
in the config are degrees (converted here, at the boundary); angular
windows for the merge follow SynthesisConfig's unit choice (radians by
default).

Every command writes a RunManifest JSON next to its outputs: the resolved
config snapshot, the seed, the artifact version, sha256 digests of the
inputs, and the output file list. Manifests contain no timestamps, so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .io import PrimitiveObstacle, ScanConfig, atomic_write
from .losses import LossConfig
from .metrics import default_grid
from .model import FeatureConfig, TrainConfig
from .synthesis import SynthesisConfig

ARTIFACT_VERSION = "0.1.0"


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

    def build(self) -> ScanConfig:
        if self.azimuth_step_deg <= 0:
            raise ConfigError("scan.azimuth_step_deg: must be > 0")
        if self.beam_count < 1:
            raise ConfigError("scan.beam_count: must be >= 1")
        if self.max_range <= 0:
            raise ConfigError("scan.max_range: must be > 0")
        fixed = []
        for i, spec in enumerate(self.obstacles):
            try:
                fixed.append(PrimitiveObstacle(
                    kind=spec["kind"],
                    center=tuple(spec["center"]),
                    size=tuple(spec["size"]),
                    yaw=float(np.deg2rad(spec.get("yaw_deg", 0.0))),
                    label=int(spec.get("label", 2)),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"scan.obstacles[{i}]: {exc}") from exc
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
            obstacles=tuple(fixed),
            random_obstacles=self.random_obstacles,
            box_label=self.box_label,
            cylinder_label=self.cylinder_label,
            obstacle_distance=tuple(self.obstacle_distance),
            obstacle_size=tuple(self.obstacle_size),
        )


@dataclass
class SynthSection:
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

    def build(self) -> SynthesisConfig:
        if self.mode not in ("asset", "resize", "both"):
            raise ConfigError("synthesis.mode: must be asset, resize, or both")
        if self.asset_sample_count < 10:
            raise ConfigError("synthesis.asset_sample_count: must be >= 10")
        try:
            return SynthesisConfig(
                object_count_trials=self.object_count_trials,
                object_count_prob=self.object_count_prob,
                placement_max_frac=self.placement_max_frac,
                scale_range=(self.scale_min, self.scale_max),
                overlap_delta=self.overlap_delta,
                window_lon=self.window_lon,
                window_lat=self.window_lat,
                ground_search_radius=self.ground_search_radius,
                occlusion_capped=self.occlusion_capped,
            )
        except ValueError as exc:
            raise ConfigError(f"synthesis: {exc}") from exc


@dataclass
class TrainSection:
    learning_rate: float = 0.05
    epochs: int = 10
    loss_mode: str = "abstain+static"
    scenes_per_batch: int = 1
    hidden_sizes: tuple[int, ...] = (64, 64)

    def build(self, seed: int) -> TrainConfig:
        try:
            return TrainConfig(
                learning_rate=self.learning_rate,
                epochs=self.epochs,
                seed=seed,
                loss_mode=self.loss_mode,
                scenes_per_batch=self.scenes_per_batch,
                hidden_sizes=tuple(self.hidden_sizes),
            )
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from exc


@dataclass
class MetricsSection:
    grid_size: int = 100

    def build_grid(self) -> np.ndarray:
        if self.grid_size < 1:
            raise ConfigError("metrics.grid_size: must be >= 1")
        return default_grid(self.grid_size)


@dataclass
class GradcheckSection:
    instances: int = 100
    max_points: int = 64


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
    synthesis: SynthSection = field(default_factory=SynthSection)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainSection = field(default_factory=TrainSection)
    loss: LossConfig = field(default_factory=LossConfig)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    gradcheck: GradcheckSection = field(default_factory=GradcheckSection)

    def resolved_checkpoint(self) -> str:
        return self.checkpoint or str(Path(self.out_dir) / "model.ckpt")


def validated(section, name: str):
    """A copy of the library config ``section`` made by its constructor,
    whose checks ``_apply`` bypasses; their ValueError becomes a
    ConfigError naming the section ``name``."""
    try:
        return dataclasses.replace(section)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", tuple: "an array", dict: "an object"}


def _typed(value, default, key: str):
    """``value`` if it has the type of ``default``. An integer is taken
    (as a float) where a number is expected, and an array becomes a tuple
    whose elements are checked against the default's first one; a boolean
    is not a number."""
    kind = type(default)
    if kind is float and type(value) is int:
        return float(value)
    if kind is tuple and type(value) is list:
        if not default:
            return tuple(value)
        return tuple(_typed(v, default[0], f"{key}[{i}]") for i, v in enumerate(value))
    if type(value) is not kind:
        raise ConfigError(f"{key}: expected {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _apply(obj, data: dict, prefix: str) -> None:
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key}: expected an object")
            _apply(current, value, prefix=f"{prefix}{key}.")
        else:
            f = fields[key]
            default = (f.default if f.default_factory is dataclasses.MISSING
                       else f.default_factory())
            setattr(obj, key, _typed(value, default, prefix + key))


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file, and overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _apply(cfg, data, prefix="")
    if overrides:
        _apply(cfg, overrides, prefix="")
    if cfg.num_classes < 1:
        raise ConfigError("num_classes: must be >= 1")
    return cfg


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, cfg: RunConfig, inputs: dict[str, str],
                   outputs: list[str]) -> None:
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "seed": cfg.seed,
        "rng": "numpy-philox",
        "config": dataclasses.asdict(cfg),
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(outputs),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
