import dataclasses
import inspect
import json
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _benchmark
from oodlab.cli import EXIT_COLLISION, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from oodlab.config import (MAX_GRID_SIZE, MAX_SCAN_CASTS, ConfigError, RunConfig, file_digest,
                           load_config)
from oodlab.core import LabelSpace, RngStream, Scene
from oodlab.io import read_scene, write_scene
from oodlab.losses import LOSS_MODES, LossConfig
from oodlab.model import (FEATURE_NAMES, FeatureConfig, MlpParams, TrainConfig,
                          save_checkpoint, train)
from oodlab.synthesis import resize_existing

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def write_config(path, **data):
    path.write_text(json.dumps(data))
    return str(path)


def tiny_scan_section(beams=4, step_deg=6.0, obstacles=2):
    return {
        "beam_count": beams,
        "elevation_min_deg": -25.0,
        "elevation_max_deg": -5.0,
        "azimuth_step_deg": step_deg,
        "random_obstacles": obstacles,
    }


def ball_xyz(path, radius=0.5, count=64, seed=0):
    gen = RngStream(seed, 1 << 16).generator()
    v = gen.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = radius * v
    path.write_text("\n".join(f"{p[0]} {p[1]} {p[2]}" for p in pts))


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", sede=1)
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert "sede" in capsys.readouterr().err

    def test_nested_unknown_key_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan={"beamz": 3})
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert "scan.beamz" in capsys.readouterr().err

    def test_invalid_azimuth_step_names_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan={"azimuth_step_deg": 0.0})
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert "azimuth_step_deg" in capsys.readouterr().err

    @pytest.mark.parametrize("data, key", [
        ({"train": {"epochs": "10"}}, "train.epochs"),
        ({"loss": {"weight_abstain": "x"}}, "loss.weight_abstain"),
        ({"seed": 1.5}, "seed"),
        ({"scan": {"beam_count": 2.5}}, "scan.beam_count"),
        ({"loss": {"clamp_beta": 1}}, "loss.clamp_beta"),
        ({"train": {"learning_rate": True}}, "train.learning_rate"),
        ({"train": {"hidden_sizes": [8, "8"]}}, "train.hidden_sizes[1]"),
    ])
    def test_wrong_json_type_names_key(self, tmp_path, monkeypatch, capsys, data, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", **data)
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert f"{key}: expected" in capsys.readouterr().err

    def test_integer_accepted_for_number(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", loss={"weight_abstain": 1},
                                       scan={"obstacle_distance": [4, 22.5]}))
        assert type(cfg.loss.weight_abstain) is float
        assert cfg.scan.obstacle_distance == (4.0, 22.5)

    @pytest.mark.parametrize("key", [
        "margin_in", "margin_out", "margin_resized", "margin_synth",
        "weight_penalty", "weight_dynamic", "weight_cce",
    ])
    def test_removed_loss_keys_rejected(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", loss={key: 1.0})
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        assert f"unknown config key: loss.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"loss": {"weight_abstain": -1.0}}, "loss: weight_abstain"),
        ({"features": {"normalizers": {"z": "x"}}}, "features: normalizers['z']"),
        ({"features": {"normalizers": {"densty": 10.0}}}, "features: normalizers['densty']"),
        ({"train": {"hidden_sizes": [0]}}, "train: hidden_sizes must all be >= 1"),
        ({"train": {"scenes_per_batch": 2}}, "train.scenes_per_batch: not a config setting"),
    ])
    def test_invalid_library_section_named(self, tmp_path, monkeypatch, capsys,
                                           data, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", **data)
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"object_count_trials": -1}, "synthesis: object_count_trials must be >= 0"),
        ({"object_count_prob": 1.5}, "synthesis: object_count_prob must lie in [0, 1]"),
        ({"object_count_prob": -0.5}, "synthesis: object_count_prob must lie in [0, 1]"),
        ({"asset_sample_count": 9}, "synthesis: asset_sample_count must be >= 10"),
        ({"object_count_trials": 10**19}, "synthesis: object_count_trials must be <= 2**63 - 1"),
        ({"asset_sample_count": 2**63}, "synthesis: asset_sample_count must be <= 2**63 - 1"),
    ])
    def test_invalid_synthesis_named(self, tmp_path, monkeypatch, capsys, data, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", synthesis=data)
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("mode", "x"),
        ("object_count_trials", -1),
        ("object_count_prob", 1.5),
        ("placement_max_frac", 0.0),
        ("scale_min", 0.5),
        ("scale_max", 1.0),
        ("overlap_delta", 0.0),
        ("window_lon", 0),
        ("window_lat", 0),
        ("ground_search_radius", 0),
        ("ground_search_radius", -5.0),
        ("occlusion_capped", 1),
        ("resize_target_class", 0),
        ("resize_scale_min", 0.5),
        ("resize_scale_max", 1.2),
        ("cluster_threshold", 0.0),
        ("asset_sample_count", 9),
    ])
    def test_rejected_synthesis_value_names_key(self, tmp_path, monkeypatch, capsys,
                                                key, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", synthesis={key: value})
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG
        assert re.search(rf"^config error: synthesis(: |\.){key}\b", capsys.readouterr().err)

    def test_scan_count_beyond_int64_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan_count=2**63)
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert "scan_count: must be <= 2**63 - 1" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_num_classes_below_one_named(self, tmp_path, monkeypatch, capsys,
                                         command, num_classes):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", num_classes=num_classes)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "num_classes: must be >= 1" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert main(["genscan", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, tmp_path, monkeypatch, capsys, number):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"scan": {"max_range": %s}}' % number)
        assert main(["genscan", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"invalid JSON: {number} is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_train_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", train={"seed": 3})
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        assert "train.seed: the top-level seed" in capsys.readouterr().err

    def test_train_seed_is_run_seed(self, tmp_path):
        path = write_config(tmp_path / "c.json", seed=5)
        assert load_config(path).train.seed == 5
        assert load_config(path, {"seed": 9}).train.seed == 9

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("given_by", ["file", "flag"])
    def test_seed_outside_64_bits_named(self, tmp_path, monkeypatch, capsys, seed, given_by):
        # RngStream keys on 64 bits: -1 and 2**64 - 1 would draw the same stream
        monkeypatch.chdir(tmp_path)
        argv = ["genscan", "--seed", str(seed)]
        if given_by == "file":
            argv = ["genscan", "--config", write_config(tmp_path / "c.json", seed=seed)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed: must be in [0, 2**64 - 1]\n"
        assert not (tmp_path / "data").exists()

    def test_largest_seed_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", seed=2**64 - 1, scan_count=1,
                           scan=tiny_scan_section())
        assert main(["genscan", "--config", cfg]) == EXIT_OK
        manifest = json.loads((tmp_path / "data/scans/genscan.manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["train"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["genscan", "--jobs", jobs])
        assert exc.value.code == EXIT_CONFIG
        assert (f"argument --jobs: must be an integer >= 1, got '{jobs}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "data").exists()

    def test_train_beta_lr_scale_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", train={"beta_lr_scale": 0.5})
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        assert "train.beta_lr_scale: not a config setting" in capsys.readouterr().err

    def test_configs_do_not_share_train(self):
        first = RunConfig(seed=1)
        second = dataclasses.replace(first, seed=2)
        third = RunConfig(seed=3, train=first.train)
        assert (first.train.seed, second.train.seed, third.train.seed) == (1, 2, 3)

    @pytest.mark.parametrize("command", ["genscan", "synth", "train", "eval", "gradcheck"])
    def test_library_scan_check_fails_every_command(self, tmp_path, monkeypatch, capsys,
                                                    command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan={"azimuth_step_deg": 5e-324})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "scan: azimuth_step must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scan, message", [
        ({"beam_count": 10**12}, "scan.beam_count: must be in [1, 4096]"),
        ({"elevation_min_deg": -1e308, "elevation_max_deg": 1e308},
         "scan.elevation_min_deg/max_deg: must be within [-90, 90]"),
    ])
    def test_scan_fan_bounded(self, tmp_path, monkeypatch, capsys, scan, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan=scan)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scan, message", [
        ({"azimuth_step_deg": 1e-6}, "scan.azimuth_step_deg: 5.76e+09 rays x 7 surfaces"),
        ({"azimuth_step_deg": 3e-322}, "scan.azimuth_step_deg: inf rays x 7 surfaces"),
        ({"random_obstacles": 10**9}, "scan.random_obstacles: 5760 rays x 1000000001 surfaces"),
        ({"obstacles": [{"kind": "box", "center": [5, 0, 1], "size": [1, 1, 1]}] * 5826},
         "scan.random_obstacles: 5760 rays x 5833 surfaces"),
        ({"azimuth_step_deg": 400.0, "random_obstacles": 2**25},
         "scan.random_obstacles: 0 rays x 33554433 surfaces"),
    ], ids=["tiny-step", "step-count-overflows", "random-obstacles", "fixed-obstacles",
            "obstacles-without-rays"])
    def test_scan_work_bounded(self, scan, message):
        # load_config only: a scan this large would not fit in memory
        assert MAX_SCAN_CASTS == 2**25
        with pytest.raises(ConfigError) as err:
            load_config(overrides={"scan": scan})
        assert str(err.value) == (f"{message} (ground and obstacles) exceed "
                                  f"MAX_SCAN_CASTS = {MAX_SCAN_CASTS}")

    def test_largest_scan_work_accepted(self):
        # 5760 rays x (ground + 5824 obstacles) = 33,552,000 <= MAX_SCAN_CASTS
        cfg = load_config(overrides={"scan": {"random_obstacles": 5824}})
        assert 5760 * (1 + cfg.scan.random_obstacles) <= MAX_SCAN_CASTS
        with pytest.raises(ConfigError, match="scan.random_obstacles"):
            load_config(overrides={"scan": {"random_obstacles": 5825}})

    @pytest.mark.parametrize("command", ["genscan", "synth", "train", "eval", "gradcheck"])
    def test_bad_section_fails_every_command(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", metrics={"grid_size": 0})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "metrics.grid_size: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_size", [2**40, 2**63 - 1])
    def test_grid_size_beyond_cap_named(self, no_work, capsys, grid_size):
        cfg = write_config(no_work / "c.json", **READS, checkpoint="m.ckpt",
                           metrics={"grid_size": grid_size})
        before = tree_state(no_work)
        assert main(["eval", "--config", cfg]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == f"config error: metrics.grid_size: must be <= {MAX_GRID_SIZE}\n")
        assert tree_state(no_work) == before

    def test_largest_grid_size_accepted(self):
        cfg = load_config(overrides={"metrics": {"grid_size": MAX_GRID_SIZE}})
        assert cfg.metrics.grid_size == MAX_GRID_SIZE

    def test_max_points_beyond_int64_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "g.json", gradcheck={"max_points": 2**63})
        assert main(["gradcheck", "--config", cfg]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == "config error: gradcheck.max_points: must be <= 2**63 - 1\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "g.json"]
        cfg = load_config(overrides={"gradcheck": {"max_points": 2**63 - 1}})
        assert cfg.gradcheck.max_points == 2**63 - 1

    @pytest.mark.parametrize("scan, message", [
        ({"obstacles": [{"kind": "box", "center": [0, 0], "size": [1, 1, 1]}]},
         "scan.obstacles[0]: center needs 3 components"),
        ({"obstacles": [{"kind": "box", "center": "abc", "size": [1, 1, 1]}]},
         'scan.obstacles[0]: center: expected an array, got "abc"'),
        ({"obstacles": [{"kind": "box", "center": [5, 0, 1], "size": [1, 1, 1], "yaw": 45}]},
         "unknown config key: scan.obstacles[0].yaw"),
        ({"obstacle_size": [1.0]}, "scan.obstacle_size: must hold two numbers"),
        ({"azimuth_step_deg": 5e-324}, "scan: azimuth_step must be > 0"),
    ])
    def test_invalid_scan_named(self, tmp_path, monkeypatch, capsys, scan, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan=scan)
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("synthesis, message", [
        ({"cluster_threshold": -1.0}, "synthesis: cluster_threshold must be finite and > 0"),
        ({"cluster_threshold": 0.0}, "synthesis: cluster_threshold must be finite and > 0"),
        ({"resize_scale_min": 0.5}, "synthesis: resize_scale_min must be >= 1"),
        ({"resize_scale_min": 3.0, "resize_scale_max": 2.0},
         "synthesis: resize_scale_max must be >= resize_scale_min"),
        ({"resize_target_class": 9}, "synthesis.resize_target_class: must be an inlier class"),
        ({"resize_target_class": 0}, "synthesis.resize_target_class: must be an inlier class"),
    ])
    def test_invalid_resize_named(self, tmp_path, monkeypatch, capsys, synthesis, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", synthesis={"mode": "resize", **synthesis})
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_normalizer_beyond_double_range_named(self, tmp_path, monkeypatch, capsys):
        # an integer divisor that does not convert to a float fails at load,
        # not in train's feature scaling
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", features={"normalizers": {"z": 10**400}})
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        assert ("config error: features: normalizers['z'] must be a nonzero finite number"
                in capsys.readouterr().err)
        assert load_config(None, {"features": {"normalizers": {"z": 10**300}}})

    @pytest.mark.parametrize("scan, key, label", [
        ({"box_label": 9}, "scan.box_label", 9),
        ({"ground_label": 0}, "scan.ground_label", 0),
        ({"cylinder_label": 6}, "scan.cylinder_label", 6),
        ({"obstacles": [{"kind": "box", "center": [5, 0, 1], "size": [1, 1, 1], "label": 0}]},
         "scan.obstacles[0].label", 0),
    ])
    def test_scan_label_outside_space_named(self, tmp_path, monkeypatch, capsys,
                                            scan, key, label):
        # labels 1..num_classes + 2, the range the label space accepts
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", num_classes=3, scan=scan)
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert (f"config error: {key}: {label} is outside the label space "
                "[1, num_classes + 2] = [1, 5]" in capsys.readouterr().err)
        assert not (tmp_path / "data").exists()

    def test_default_scan_labels_fit_one_class(self):
        cfg = load_config(None, {"num_classes": 1, "synthesis": {"resize_target_class": 1},
                                 "scan": {"obstacles": [{"kind": "box", "center": [5, 0, 1],
                                                         "size": [1, 1, 1], "label": 3}]}})
        assert (cfg.scan.ground_label, cfg.scan.box_label, cfg.scan.cylinder_label) == (1, 2, 3)

    def test_desk_example_is_the_acceptance_recipe(self):
        cfg = load_config(EXAMPLES / "desk.json")
        assert cfg.num_classes == _benchmark.SPACE.num_classes
        assert cfg.scan.build() == _benchmark.SCAN_CFG
        syn = cfg.synthesis
        assert syn == dataclasses.replace(_benchmark.SYNTH_CFG, mode="both")
        # _benchmark.synthesize_splits resizes with literal arguments and
        # resize_existing's default threshold
        threshold = inspect.signature(resize_existing).parameters["cluster_threshold"].default
        assert (syn.resize_target_class, (syn.resize_scale_min, syn.resize_scale_max),
                syn.cluster_threshold) == (2, (1.5, 3.0), threshold)
        assert cfg.features == _benchmark.FEATURES
        assert cfg.train == TrainConfig(seed=17001, loss_mode="abstain+static",
                                        **_benchmark.TRAIN_RECIPE)
        assert cfg.loss == LossConfig(**_benchmark.LOSS_RECIPE)


def _default(f: dataclasses.Field):
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
WORDS = st.sampled_from(LOSS_MODES + FEATURE_NAMES + ("asset", "resize", "both", "box",
                                                      "cylinder"))
OBSTACLE = {"kind": "box", "center": (0.0, 0.0, 1.0), "size": (1.0, 1.0, 1.0),
            "yaw_deg": 0.0, "label": 2}


def json_like(default):
    """JSON values of the type of the config default ``default``, mostly
    near its domain, or any JSON value."""
    if dataclasses.is_dataclass(default):
        typed = json_section(type(default))
    elif isinstance(default, bool):
        typed = st.booleans()
    elif isinstance(default, (int, float)):
        typed = st.integers(-3, 200) | st.integers() | st.floats(allow_nan=False,
                                                                  allow_infinity=False)
    elif isinstance(default, str):
        typed = WORDS | st.text(max_size=6)
    elif isinstance(default, dict):
        typed = st.dictionaries(WORDS, json_like(1.0), max_size=3)
    elif default:
        typed = st.lists(json_like(default[0]), max_size=4)
    else:  # scan.obstacles
        typed = st.lists(st.fixed_dictionaries(
            {}, optional={k: json_like(v) for k, v in OBSTACLE.items()}), max_size=2)
    return typed | ANY_JSON


def json_section(cls):
    """JSON objects over the keys of the config section ``cls``."""
    return st.fixed_dictionaries(
        {}, optional={f.name: json_like(_default(f)) for f in dataclasses.fields(cls)})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=json_section(RunConfig))
def test_load_config_gives_config_or_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(data))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig) and cfg.train.seed == cfg.seed


class TestGenscan:
    def test_writes_deterministic_scene_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan_count=3,
                           scan=tiny_scan_section())
        assert main(["genscan", "--config", cfg]) == EXIT_OK
        scans = tmp_path / "data" / "scans"
        for i in range(3):
            assert (scans / f"{i:06d}.bin").exists()
            assert (scans / f"{i:06d}.label").exists()
        assert (scans / "genscan.manifest.json").exists()
        first = (scans / "000000.bin").read_bytes()
        # rerun into a fresh tree gives identical bytes
        monkeypatch.chdir(tmp_path)
        cfg2 = write_config(tmp_path / "c2.json", scan_count=3,
                            scan=tiny_scan_section(), scan_dir="data/scans2")
        assert main(["genscan", "--config", cfg2]) == EXIT_OK
        assert (tmp_path / "data" / "scans2" / "000000.bin").read_bytes() == first

    def test_collision_without_force(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan_count=1, scan=tiny_scan_section())
        assert main(["genscan", "--config", cfg]) == EXIT_OK
        assert main(["genscan", "--config", cfg]) == EXIT_COLLISION
        assert main(["genscan", "--config", cfg, "--force"]) == EXIT_OK

    def test_seed_override_changes_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan_count=1, scan=tiny_scan_section())
        assert main(["genscan", "--config", cfg]) == EXIT_OK
        a = (tmp_path / "data/scans/000000.bin").read_bytes()
        assert main(["genscan", "--config", cfg, "--seed", "9", "--force"]) == EXIT_OK
        b = (tmp_path / "data/scans/000000.bin").read_bytes()
        assert a != b

    def test_scan_without_returns_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan={
            "elevation_min_deg": 10, "elevation_max_deg": 20, "random_obstacles": 0})
        assert main(["genscan", "--config", cfg]) == EXIT_CONFIG
        assert "scan: scan configuration produces no returns" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_jobs_flag_preserves_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", scan_count=4, scan=tiny_scan_section())
        assert main(["genscan", "--config", cfg]) == EXIT_OK
        serial = [(tmp_path / f"data/scans/{i:06d}.bin").read_bytes() for i in range(4)]
        cfg2 = write_config(tmp_path / "c2.json", scan_count=4,
                            scan=tiny_scan_section(), scan_dir="data/par")
        assert main(["genscan", "--config", cfg2, "--jobs", "3"]) == EXIT_OK
        parallel = [(tmp_path / f"data/par/{i:06d}.bin").read_bytes() for i in range(4)]
        assert serial == parallel


@pytest.fixture
def scan_tree(tmp_path, monkeypatch):
    """A tmp cwd with 2 generated scans and a 3-asset pool."""
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "base.json", scan_count=2,
                            scan=tiny_scan_section())
    assert main(["genscan", "--config", cfg_path]) == EXIT_OK
    assets = tmp_path / "assets"
    assets.mkdir()
    for i in range(3):
        ball_xyz(assets / f"ball{i}.xyz", seed=i)
    return tmp_path


class TestSynth:
    def test_asset_mode_deterministic(self, scan_tree):
        cfg = write_config(scan_tree / "s.json", scan_count=2,
                           scan=tiny_scan_section())
        assert main(["synth", "--config", cfg]) == EXIT_OK
        synth = scan_tree / "data" / "synth"
        assert (synth / "merge_reports.json").exists()
        a = (synth / "000000.bin").read_bytes()
        cfg2 = write_config(scan_tree / "s2.json", scan_count=2,
                            scan=tiny_scan_section(), synth_dir="data/synth2")
        assert main(["synth", "--config", cfg2]) == EXIT_OK
        assert (scan_tree / "data/synth2/000000.bin").read_bytes() == a

    def test_missing_asset_dir(self, scan_tree):
        cfg = write_config(scan_tree / "s.json", asset_dir="missing")
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG

    def test_empty_asset_dir(self, scan_tree):
        (scan_tree / "empty").mkdir()
        cfg = write_config(scan_tree / "s.json", asset_dir="empty")
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG

    def test_resize_mode_missing_class_copies_unchanged(self, scan_tree, capsys):
        # inlier class 4 never occurs in the scans; scenes must come through unchanged
        cfg = write_config(
            scan_tree / "s.json", num_classes=4,
            synthesis={"mode": "resize", "resize_target_class": 4},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", "--config", cfg]) == EXIT_OK
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {Path('data/scans') / f'{i:06d}.bin'}: target class 4 "
                       "absent; nothing resized" for i in range(2)]
        src = (scan_tree / "data/scans/000000.bin").read_bytes()
        dst = (scan_tree / "data/synth/000000.bin").read_bytes()
        assert src == dst

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_placement_range_too_small_named(self, scan_tree, capsys, jobs):
        # ground returns start ~4 m out, so 0.01 * r_max (~0.4 m) is below r_min
        cfg = write_config(scan_tree / "s.json", synthesis={
            "placement_max_frac": 0.01, "object_count_prob": 1.0})
        assert main(["synth", "--config", cfg, "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {Path('data/scans/000000.bin')}: "
                              "placement_max_frac 0.01 leaves no placement range: r_min ")
        assert not (scan_tree / "data/synth/000000.bin").exists()

    def test_jobs_flag_preserves_output(self, scan_tree, capsys):
        cfg = write_config(scan_tree / "s.json", synthesis={
            "mode": "both", "object_count_trials": 4, "object_count_prob": 1.0})
        runs = []
        for jobs in ("1", "2"):
            assert main(["synth", "--config", cfg, "--jobs", jobs, "--force"]) == EXIT_OK
            files = {p.name: p.read_bytes() for p in (scan_tree / "data/synth").iterdir()}
            runs.append((files, capsys.readouterr()))
        assert len(runs[0][0]) == 6  # two scene pairs, the merge reports, the manifest
        assert json.loads(runs[0][0]["merge_reports.json"])["000000"]
        assert runs[0] == runs[1]

    def test_both_mode_runs(self, scan_tree):
        cfg = write_config(scan_tree / "s.json", synthesis={"mode": "both"})
        assert main(["synth", "--config", cfg]) == EXIT_OK

    def test_both_mode_missing_class_still_places_assets(self, scan_tree, capsys):
        # nothing is resized, yet the asset pipeline still merges objects
        cfg = write_config(
            scan_tree / "s.json", num_classes=4,
            synthesis={"mode": "both", "resize_target_class": 4,
                       "object_count_trials": 10, "object_count_prob": 1.0},
        )
        assert main(["synth", "--config", cfg]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {Path('data/scans') / f'{i:06d}.bin'}: target class 4 "
                       "absent; nothing resized" for i in range(2)]
        reports = json.loads((scan_tree / "data/synth/merge_reports.json").read_text())
        assert all(reports[f"{i:06d}"] for i in range(2))

    def test_manifest_digests_the_assets(self, scan_tree):
        cfg = write_config(scan_tree / "s.json")
        manifest = scan_tree / "data/synth/synth.manifest.json"
        assert main(["synth", "--config", cfg]) == EXIT_OK
        before = json.loads(manifest.read_text())["inputs"]
        ball_xyz(scan_tree / "assets/ball1.xyz", seed=7)  # an edited asset
        assert main(["synth", "--config", cfg, "--force"]) == EXIT_OK
        after = json.loads(manifest.read_text())["inputs"]
        scans = sorted((scan_tree / "data/scans").glob("000*"))
        assets = sorted((scan_tree / "assets").iterdir())
        assert after == {f.name: file_digest(f) for f in scans + assets}
        assert {k for k in after if after[k] != before[k]} == {"ball1.xyz"}
        # the resizing baseline reads no assets
        cfg = write_config(scan_tree / "r.json", synthesis={"mode": "resize"})
        assert main(["synth", "--config", cfg, "--force"]) == EXIT_OK
        assert json.loads(manifest.read_text())["inputs"] == {
            f.name: file_digest(f) for f in scans}


def test_every_command_keeps_its_manifest(scan_tree):
    cfg = write_config(scan_tree / "c.json", scan_count=2, scan=tiny_scan_section(),
                       features={"features": ["z", "density"]},
                       train={"loss_mode": "ce", "epochs": 1, "hidden_sizes": [8]},
                       gradcheck={"instances": 2, "max_points": 8})
    for command in ("genscan", "synth", "train", "eval", "gradcheck"):
        assert main([command, "--config", cfg, "--force"]) == EXIT_OK
    where = {"genscan": "data/scans", "synth": "data/synth", "train": "out",
             "eval": "out", "gradcheck": "out"}
    for command, directory in where.items():
        manifest = json.loads((scan_tree / directory / f"{command}.manifest.json").read_text())
        assert manifest["command"] == command
    train = json.loads((scan_tree / "out/train.manifest.json").read_text())
    synth = scan_tree / "data/synth"
    assert train["inputs"] == {f.name: file_digest(f) for f in sorted(synth.glob("000*"))}
    assert train["outputs"] == ["model.ckpt", "train_log.csv"]
    assert not list(scan_tree.rglob("manifest.json"))


def test_manifest_outputs_are_the_files_written(scan_tree):
    cfg = write_config(scan_tree / "c.json", scan_count=2, scan=tiny_scan_section(),
                       scan_dir="run/scans", synth_dir="run/synth", out_dir="run/out",
                       checkpoint="run/ckpt/m.ckpt", features={"features": ["z", "density"]},
                       train={"loss_mode": "ce", "epochs": 1, "hidden_sizes": [8]},
                       gradcheck={"instances": 2, "max_points": 8})
    where = {"genscan": "run/scans", "synth": "run/synth", "train": "run/out",
             "eval": "run/out", "gradcheck": "run/out"}
    for command, directory in where.items():
        before = {p for p in scan_tree.rglob("*") if p.is_file()}
        assert main([command, "--config", cfg]) == EXIT_OK
        manifest = scan_tree / directory / f"{command}.manifest.json"
        written = {p for p in scan_tree.rglob("*") if p.is_file()} - before - {manifest}
        assert json.loads(manifest.read_text())["outputs"] == sorted(p.name for p in written)


def test_train_manifest_reproduces_checkpoint_through_library(scan_tree):
    cfg = write_config(scan_tree / "c.json", seed=5, scan_count=2, scan=tiny_scan_section(),
                       synthesis={"mode": "both"},
                       features={"features": ["z", "r", "density"]},
                       train={"loss_mode": "abstain+dynamic", "epochs": 2,
                              "hidden_sizes": [8]},
                       loss={"clamp_beta": True})
    for command in ("synth", "train"):
        assert main([command, "--config", cfg]) == EXIT_OK
    run = json.loads((scan_tree / "out/train.manifest.json").read_text())["config"]
    bins = sorted((scan_tree / "data/synth").glob("*.bin"))
    scenes = [read_scene(p, p.with_suffix(".label")) for p in bins]
    params, beta, _log = train(scenes, LabelSpace(run["num_classes"]),
                               FeatureConfig(**run["features"]), TrainConfig(**run["train"]),
                               LossConfig(**run["loss"]))
    save_checkpoint(scan_tree / "library.ckpt", params, beta)
    assert ((scan_tree / "library.ckpt").read_bytes()
            == (scan_tree / "out/model.ckpt").read_bytes())


def test_collision_checked_before_inputs_are_read(scan_tree, capsys):
    # each input is malformed (exit 5 once read); an existing output exits 3 first
    (scan_tree / "assets/few.xyz").write_text("0 0 0\n")
    (scan_tree / "data/synth").mkdir(parents=True)
    (scan_tree / "data/synth/000001.label").write_bytes(b"")
    (scan_tree / "data/scans/000001.bin").write_bytes(b"\0" * 3)
    ckpt = scan_tree / "bad.ckpt"
    ckpt.write_bytes(b"NOPE")
    (scan_tree / "out").mkdir()
    (scan_tree / "out/train_log.csv").write_text("")
    (scan_tree / "out/curves.csv").write_text("")
    cfg = write_config(scan_tree / "c.json", train_dir="data/scans", eval_dir="data/scans")
    assert main(["synth", "--config", cfg]) == EXIT_COLLISION
    assert main(["train", "--config", cfg]) == EXIT_COLLISION
    cfg = write_config(scan_tree / "e.json", checkpoint=str(ckpt), eval_dir="data/scans")
    assert main(["eval", "--config", cfg]) == EXIT_COLLISION
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: output exists (use --force to overwrite): {Path(p)}" for p in
                   ("data/synth/000001.label", "out/train_log.csv", "out/curves.csv")]


@pytest.fixture
def no_work(scan_tree, monkeypatch):
    """``scan_tree`` with a checkpoint file, where every command's work
    (generating, reading an input, training, checking) fails if it starts."""
    import oodlab.cli as cli_mod

    def work(*args, **kwargs):
        raise AssertionError("work started before the output check")

    for name in ("generate_scan", "read_scene", "load_asset_dir", "load_checkpoint", "train",
                 "run_gradient_checks"):
        monkeypatch.setattr(cli_mod, name, work)
    (scan_tree / "m.ckpt").write_bytes(b"NOPE")
    return scan_tree


def tree_state(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


READS = {"train_dir": "data/scans", "eval_dir": "data/scans"}

# command: (config, an output of the command)
DIRECTORY_OUTPUT = {
    "genscan": ({"scan_dir": "new"}, "new/000000.bin"),
    "synth": ({}, "data/synth/merge_reports.json"),
    "train": (READS, "out/train_log.csv"),
    "eval": ({**READS, "checkpoint": "m.ckpt"}, "out/summary.csv"),
    "gradcheck": ({}, "out/gradcheck.csv"),
}


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["", "force"])
@pytest.mark.parametrize("command", list(DIRECTORY_OUTPUT))
def test_output_that_is_a_directory(no_work, capsys, command, force):
    data, output = DIRECTORY_OUTPUT[command]
    (no_work / output).mkdir(parents=True)
    cfg = write_config(no_work / "c.json", **data)
    before = tree_state(no_work)
    assert main([command, "--config", cfg, *force]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: output is a directory: {Path(output)}\n"
    assert tree_state(no_work) == before


# command: (config placing an output under the regular file f, that output)
OUTPUT_UNDER_A_FILE = {
    "genscan": ({"scan_dir": "f/scans"}, "f/scans/000000.bin"),
    "synth": ({"synth_dir": "f"}, "f/000000.bin"),
    "train": ({**READS, "checkpoint": "f/m.ckpt"}, "f/m.ckpt"),
    "eval": ({**READS, "checkpoint": "m.ckpt", "out_dir": "f/sub"}, "f/sub/summary.csv"),
    "gradcheck": ({"out_dir": "f/sub"}, "f/sub/gradcheck.csv"),
}


@pytest.mark.parametrize("command", list(OUTPUT_UNDER_A_FILE))
def test_output_under_a_file(no_work, capsys, command):
    data, output = OUTPUT_UNDER_A_FILE[command]
    (no_work / "f").write_text("a file\n")
    cfg = write_config(no_work / "c.json", **data)
    before = tree_state(no_work)
    assert main([command, "--config", cfg, "--force"]) == EXIT_CONFIG
    assert (capsys.readouterr().err
            == f"config error: output {Path(output)}: f is not a directory\n")
    assert tree_state(no_work) == before


# command: (config, the command's manifest)
MANIFEST = {
    "genscan": ({"scan_dir": "new"}, "new/genscan.manifest.json"),
    "synth": ({}, "data/synth/synth.manifest.json"),
    "train": (READS, "out/train.manifest.json"),
    "eval": ({**READS, "checkpoint": "m.ckpt"}, "out/eval.manifest.json"),
    "gradcheck": ({}, "out/gradcheck.manifest.json"),
}


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["", "force"])
@pytest.mark.parametrize("command", list(MANIFEST))
def test_manifest_that_is_a_directory(no_work, capsys, command, force):
    data, manifest = MANIFEST[command]
    (no_work / manifest).mkdir(parents=True)
    cfg = write_config(no_work / "c.json", **data)
    before = tree_state(no_work)
    assert main([command, "--config", cfg, *force]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: output is a directory: {Path(manifest)}\n"
    assert tree_state(no_work) == before


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_output_tmp_name_left_alone(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "g.json", out_dir="o1",
                       gradcheck={"instances": 2, "max_points": 8})
    tmp = tmp_path / "o1/gradcheck.csv.tmp"
    if kind == "file":
        tmp.parent.mkdir()
        tmp.write_text("keep\n")
    else:
        tmp.mkdir(parents=True)
    assert main(["gradcheck", "--config", cfg]) == EXIT_OK
    assert tmp.is_file() == (kind == "file") and tmp.is_dir() == (kind == "directory")
    if kind == "file":
        assert tmp.read_text() == "keep\n"
    assert sorted(p.name for p in tmp.parent.iterdir()) == [
        "gradcheck.csv", "gradcheck.csv.tmp", "gradcheck.manifest.json"]


def test_import_does_not_load_scipy_stats():
    # scipy.stats is the slowest scipy import and metrics.auroc ranks with numpy
    code = ("import sys; sys.path[:0] = %r; import oodlab.cli; "
            "print('scipy.stats' in sys.modules)" % sys.path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def make_perfect_fixture(tmp_path, n_outlier=8):
    """Scenes split by z plus a hand-built checkpoint that reads z directly."""
    scenes_dir = tmp_path / "eval_scenes"
    scenes_dir.mkdir()
    gen = RngStream(5, 0).generator()
    for i in range(2):
        n1, n2 = 30, 20
        pts = np.concatenate([
            np.column_stack([gen.uniform(-10, 10, n1), gen.uniform(-10, 10, n1),
                             np.zeros(n1)]),
            np.column_stack([gen.uniform(-10, 10, n2), gen.uniform(-10, 10, n2),
                             np.full(n2, 2.0)]),
            np.column_stack([gen.uniform(-10, 10, n_outlier),
                             gen.uniform(-10, 10, n_outlier),
                             np.full(n_outlier, 5.0)]),
        ])
        labels = np.concatenate([np.full(n1, 1), np.full(n2, 2),
                                 np.full(n_outlier, 4)])
        write_scene(Scene(points=pts, labels=labels),
                    scenes_dir / f"{i:06d}.bin", scenes_dir / f"{i:06d}.label")
    weights = np.array([[-10.0, 10.0, 20.0]])
    biases = np.array([5.0, -15.0, -60.0])
    ckpt = tmp_path / "perfect.ckpt"
    save_checkpoint(ckpt, MlpParams([weights], [biases]), np.ones(3))
    return scenes_dir, ckpt


class TestEval:
    def eval_config(self, tmp_path, scenes_dir, ckpt, grid_size=20):
        return write_config(
            tmp_path / "e.json",
            num_classes=2,
            eval_dir=str(scenes_dir),
            checkpoint=str(ckpt),
            features={"features": ["z"]},
            metrics={"grid_size": grid_size},
        )

    def test_perfect_fixture_metrics(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        cfg = self.eval_config(tmp_path, scenes_dir, ckpt)
        assert main(["eval", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out/summary.csv").read_text().splitlines()
        assert rows[0] == "score,aupr,auroc,miou_old"
        p_o_row = rows[1].split(",")
        assert p_o_row[0] == "p_o"
        assert float(p_o_row[1]) == 1.0
        assert float(p_o_row[2]) == 1.0
        assert float(p_o_row[3]) == 100.0

    def test_curve_csv_row_count_and_histogram(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        cfg = self.eval_config(tmp_path, scenes_dir, ckpt, grid_size=25)
        assert main(["eval", "--config", cfg]) == EXIT_OK
        curve_lines = (tmp_path / "out/curves.csv").read_text().splitlines()
        assert len(curve_lines) == 26  # header + one row per grid point
        hist_lines = (tmp_path / "out/histogram.csv").read_text().splitlines()
        assert len(hist_lines) == 11

    def test_no_outliers_gives_na_and_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path, n_outlier=0)
        # rebuild scenes without the outlier block
        for f in scenes_dir.iterdir():
            f.unlink()
        gen = RngStream(6, 0).generator()
        pts = np.column_stack([gen.uniform(-10, 10, 40), gen.uniform(-10, 10, 40),
                               np.repeat([0.0, 2.0], 20)])
        labels = np.repeat([1, 2], 20)
        write_scene(Scene(points=pts, labels=labels),
                    scenes_dir / "000000.bin", scenes_dir / "000000.label")
        cfg = self.eval_config(tmp_path, scenes_dir, ckpt)
        assert main(["eval", "--config", cfg]) == EXIT_OK
        assert "no outlier points" in capsys.readouterr().err
        rows = (tmp_path / "out/summary.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "NA"

    def all_outlier_config(self, tmp_path):
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        for f in scenes_dir.iterdir():
            f.unlink()
        gen = RngStream(7, 0).generator()
        pts = np.column_stack([gen.uniform(-10, 10, 50), gen.uniform(-10, 10, 50),
                               np.full(50, 5.0)])
        write_scene(Scene(points=pts, labels=np.full(50, 4)),
                    scenes_dir / "000000.bin", scenes_dir / "000000.label")
        return self.eval_config(tmp_path, scenes_dir, ckpt)

    def test_no_inliers_gives_na_miou_and_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--config", self.all_outlier_config(tmp_path)]) == EXIT_OK
        assert ("warning: eval set contains no inlier points; AUROC/miou_old are NA"
                in capsys.readouterr().err)
        rows = (tmp_path / "out/summary.csv").read_text().splitlines()
        assert [row.split(",")[3] for row in rows[1:]] == ["NA"] * 3

    def test_no_inliers_summary_matches_full_coverage_curve(self, tmp_path, monkeypatch):
        # a cell is NA only when its own metric is: AUPR is 1.0 without inliers
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--config", self.all_outlier_config(tmp_path)]) == EXIT_OK
        summary = (tmp_path / "out/summary.csv").read_text().splitlines()
        curves = (tmp_path / "out/curves.csv").read_text().splitlines()
        assert curves[-1].split(",")[0] == "1.0"
        assert summary[1].split(",")[:3] == ["p_o", "1.0", "NA"]
        assert summary[1].split(",")[1:3] == curves[-1].split(",")[3:5]

    def test_jobs_flag_preserves_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        cfg = self.eval_config(tmp_path, scenes_dir, ckpt)
        runs = []
        for jobs in ("1", "2"):
            assert main(["eval", "--config", cfg, "--jobs", jobs, "--force"]) == EXIT_OK
            files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
            runs.append((files, capsys.readouterr()))
        assert sorted(runs[0][0]) == ["curves.csv", "eval.manifest.json", "histogram.csv",
                                      "summary.csv"]
        assert runs[0] == runs[1]

    def test_missing_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenes_dir, _ = make_perfect_fixture(tmp_path)
        cfg = self.eval_config(tmp_path, scenes_dir, tmp_path / "absent.ckpt")
        assert main(["eval", "--config", cfg]) == EXIT_CONFIG


class TestTrain:
    def train_config(self, tmp_path, mode="ce", epochs=2, **extra):
        return write_config(
            tmp_path / "t.json",
            num_classes=2,
            train_dir="train_scenes",
            features={"features": ["z"]},
            train={"loss_mode": mode, "epochs": epochs, "hidden_sizes": [8],
                   "learning_rate": 0.05},
            **extra,
        )

    def write_train_scenes(self, tmp_path, with_outliers):
        d = tmp_path / "train_scenes"
        d.mkdir(exist_ok=True)
        gen = RngStream(7, 0).generator()
        for i in range(2):
            pts = np.column_stack([gen.uniform(-5, 5, 40), gen.uniform(-5, 5, 40),
                                   np.repeat([0.0, 2.0], 20)])
            labels = np.repeat([1, 2], 20)
            if with_outliers:
                pts[-5:, 2] = 5.0
                labels = labels.copy()
                labels[-5:] = 4
            write_scene(Scene(points=pts, labels=labels),
                        d / f"{i:06d}.bin", d / f"{i:06d}.label")

    def test_epochs_zero_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=False)
        cfg = self.train_config(tmp_path, epochs=0)
        assert main(["train", "--config", cfg]) == EXIT_CONFIG

    def test_ce_trains_on_inlier_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=False)
        cfg = self.train_config(tmp_path, mode="ce")
        assert main(["train", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "out/model.ckpt").exists()
        log = (tmp_path / "out/train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss"
        assert len(log) == 3

    def test_abstain_dynamic_needs_outliers(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=False)
        cfg = self.train_config(tmp_path, mode="abstain+dynamic")
        assert main(["train", "--config", cfg]) == EXIT_CONFIG

    def test_checkpoint_digest_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=True)
        cfg = self.train_config(tmp_path, mode="abstain+static")
        assert main(["train", "--config", cfg]) == EXIT_OK
        a = (tmp_path / "out/model.ckpt").read_bytes()
        assert main(["train", "--config", cfg, "--force"]) == EXIT_OK
        assert (tmp_path / "out/model.ckpt").read_bytes() == a

    def test_jobs_flag_preserves_output(self, tmp_path, monkeypatch):
        # the threads count density into each scene's memo; train reads it back
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=True)
        outputs = []
        for jobs in ("1", "2"):
            cfg = write_config(
                tmp_path / f"t{jobs}.json", num_classes=2, train_dir="train_scenes",
                out_dir=f"out{jobs}",
                train={"loss_mode": "abstain+dynamic", "epochs": 2, "hidden_sizes": [8]},
            )
            assert main(["train", "--config", cfg, "--jobs", jobs]) == EXIT_OK
            outputs.append([(tmp_path / f"out{jobs}" / name).read_bytes()
                            for name in ("model.ckpt", "train_log.csv")])
        assert outputs[0] == outputs[1]

    def test_checkpoint_in_new_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=True)
        cfg = self.train_config(tmp_path, mode="abstain+static", checkpoint="nodir/m.ckpt",
                                eval_dir="train_scenes")
        assert main(["train", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "nodir/m.ckpt").is_file()
        assert main(["eval", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "out/summary.csv").is_file()

    def test_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        # true float divergence is exercised in test_model; here only the
        # CLI contract matters: TrainingDiverged -> exit 4, last good epoch
        # named on stderr
        import oodlab.cli as cli_mod
        from oodlab.model import TrainingDiverged

        monkeypatch.chdir(tmp_path)
        self.write_train_scenes(tmp_path, with_outliers=False)

        def blow_up(*args, **kwargs):
            raise TrainingDiverged(3, 2)

        monkeypatch.setattr(cli_mod, "train", blow_up)
        cfg = self.train_config(tmp_path, mode="ce")
        assert main(["train", "--config", cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "epoch 3" in err and "last good epoch: 2" in err


class TestGradcheck:
    def test_default_run_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "g.json",
                           gradcheck={"instances": 4, "max_points": 12})
        assert main(["gradcheck", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "abstain" in out and "pass" in out
        report = (tmp_path / "out/gradcheck.csv").read_text().splitlines()
        assert report[0] == "loss,max_rel_error,worst_seed,tolerance,pass"
        assert len(report) == 7

    def test_corrupted_gradient_fails(self, tmp_path, monkeypatch):
        import oodlab.losses as losses_mod

        monkeypatch.chdir(tmp_path)
        real = losses_mod.penalty_loss

        def flipped(*args, **kwargs):
            res = real(*args, **kwargs)
            res.grad[:, :-1] += 0.5
            return res

        monkeypatch.setattr(losses_mod, "penalty_loss", flipped)
        cfg = write_config(tmp_path / "g.json",
                           gradcheck={"instances": 2, "max_points": 8})
        assert main(["gradcheck", "--config", cfg]) == EXIT_NUMERIC

    @pytest.mark.parametrize("key", ["num_classes", "sigma", "step", "tolerance", "probes"])
    def test_fixed_settings_are_unknown_keys(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "g.json", gradcheck={key: 1})
        assert main(["gradcheck", "--config", cfg]) == EXIT_CONFIG
        assert f"unknown config key: gradcheck.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, message", [
        ({"instances": 0}, "gradcheck.instances: must be >= 1"),
        ({"max_points": 1}, "gradcheck.max_points: must be >= 2"),
    ])
    def test_too_small_named(self, tmp_path, monkeypatch, capsys, data, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "g.json", gradcheck=data)
        assert main(["gradcheck", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_lists_worst_seed_for_replay(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "g.json",
                           gradcheck={"instances": 3, "max_points": 8})
        assert main(["gradcheck", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out/gradcheck.csv").read_text().splitlines()[1:]
        for row in rows:
            worst = int(row.split(",")[2])
            assert 0 <= worst < 3

    def test_existing_report_exits_before_any_check(self, tmp_path, monkeypatch, capsys):
        import oodlab.cli as cli_mod

        def no_checks(**kwargs):
            raise AssertionError("a gradient check ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_mod, "run_gradient_checks", no_checks)
        (tmp_path / "out").mkdir()
        (tmp_path / "out/gradcheck.csv").write_text("kept\n")
        assert main(["gradcheck"]) == EXIT_COLLISION
        assert "output exists" in capsys.readouterr().err
        assert (tmp_path / "out/gradcheck.csv").read_text() == "kept\n"


class TestMalformedInput:
    """A malformed data file exits 5 naming the file, and a label outside
    the label space exits 2 naming the label; neither ends in a traceback
    (an exception escaping ``main``)."""

    def expect(self, capsys, argv, code, named):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def train_tree(self, tmp_path, bin_bytes=None, label_bytes=None, bad_label=None):
        """Two training scenes in train_scenes/ (c = 2, outliers present);
        the second scene's files or one of its labels replaced as given."""
        d = tmp_path / "train_scenes"
        TestTrain().write_train_scenes(tmp_path, with_outliers=True)
        if bad_label is not None:
            labels = bytearray((d / "000001.label").read_bytes())
            labels[0:4] = struct.pack("<I", bad_label)
            (d / "000001.label").write_bytes(bytes(labels))
        if bin_bytes is not None:
            (d / "000001.bin").write_bytes(bytes(bin_bytes))
            (d / "000001.label").write_bytes(bytes(label_bytes))
        return TestTrain().train_config(tmp_path, mode="abstain+static")

    def test_train_label_outside_space(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = self.train_tree(tmp_path, bad_label=9)
        self.expect(capsys, ["train", "--config", cfg], EXIT_CONFIG,
                    "train_scenes/000001.label: labels outside 1..4: [9]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bin_bytes, label_bytes, named", [
        (17, 5, "000001.bin: truncated point file (17 bytes)"),
        (3, 0, "000001.bin: truncated point file (3 bytes)"),
        (16, 5, "000001.label: truncated label file (5 bytes)"),
    ])
    def test_train_partial_records(self, tmp_path, monkeypatch, capsys,
                                   bin_bytes, label_bytes, named):
        monkeypatch.chdir(tmp_path)
        cfg = self.train_tree(tmp_path, bin_bytes=bin_bytes, label_bytes=label_bytes)
        self.expect(capsys, ["train", "--config", cfg], EXIT_DATA, named)

    def test_synth_non_finite_coordinate(self, scan_tree, capsys):
        path = scan_tree / "data/scans/000001.bin"
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<f", float("nan"))  # y of the first point
        path.write_bytes(bytes(data))
        cfg = write_config(scan_tree / "s.json")
        self.expect(capsys, ["synth", "--config", cfg], EXIT_DATA,
                    "000001.bin: scene points must be finite")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_synth_non_finite_intensity(self, scan_tree, capsys, bad):
        path = scan_tree / "data/scans/000001.bin"
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<f", bad)  # intensity of the first point
        path.write_bytes(bytes(data))
        cfg = write_config(scan_tree / "s.json")
        self.expect(capsys, ["synth", "--config", cfg], EXIT_DATA,
                    "000001.bin: intensity must be finite")

    def test_synth_asset_with_too_few_points(self, scan_tree, capsys):
        (scan_tree / "assets/few.xyz").write_text("\n".join(f"{i} 0 0" for i in range(5)))
        cfg = write_config(scan_tree / "s.json")
        self.expect(capsys, ["synth", "--config", cfg], EXIT_DATA,
                    "few.xyz: asset must contain at least 10 points")

    @pytest.mark.parametrize("corrupt, named", [
        ("cut30", "perfect.ckpt: 30 bytes, layer sizes (1, 3) imply 92"),
        ("cut8", "perfect.ckpt: truncated checkpoint header (8 bytes)"),
        ("magic", "perfect.ckpt: bad checkpoint magic"),
        ("trailing", "perfect.ckpt: 93 bytes, layer sizes (1, 3) imply 92"),
    ])
    def test_eval_malformed_checkpoint(self, tmp_path, monkeypatch, capsys, corrupt, named):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        data = ckpt.read_bytes()
        ckpt.write_bytes({"cut30": data[:30], "cut8": data[:8], "magic": b"NOPE" + data[4:],
                          "trailing": data + b"\0"}[corrupt])
        cfg = TestEval().eval_config(tmp_path, scenes_dir, ckpt)
        self.expect(capsys, ["eval", "--config", cfg], EXIT_DATA, named)

    def test_train_overflowing_last_step(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # one scene, one epoch: no forward pass follows the only update
        (tmp_path / "train_scenes").mkdir()
        pts = np.zeros((40, 3))
        pts[20:, 2] = 1000.0
        write_scene(Scene(points=pts, labels=np.repeat([2, 1], 20)),
                    tmp_path / "train_scenes/000000.bin", tmp_path / "train_scenes/000000.label")
        cfg = write_config(tmp_path / "t.json", num_classes=2, train_dir="train_scenes",
                           features={"features": ["z"]},
                           train={"loss_mode": "ce", "epochs": 1, "learning_rate": 1e308})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "error: train_scenes: non-finite loss or parameters in epoch 0\n"
        assert "Warning" not in err and not caught
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, named", [
        ({"features": {"features": ["x", "z"]}}, "input/output sizes 1/3, but the config's "
                                                 "features and num_classes need 2/3"),
        ({"num_classes": 3}, "input/output sizes 1/3, but the config's "
                             "features and num_classes need 1/4"),
    ], ids=["features", "num_classes"])
    def test_eval_checkpoint_contradicts_config(self, tmp_path, monkeypatch, capsys,
                                                section, named):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        data = json.loads(Path(TestEval().eval_config(tmp_path, scenes_dir, ckpt)).read_text())
        cfg = write_config(tmp_path / "e.json", **{**data, **section})
        self.expect(capsys, ["eval", "--config", cfg], EXIT_CONFIG, f"perfect.ckpt: {named}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_train_normalizer_overflow_named(self, tmp_path, monkeypatch, capsys, jobs):
        # z / 1e-310 overflows for z = 2: the config is at fault, not the training
        monkeypatch.chdir(tmp_path)
        TestTrain().write_train_scenes(tmp_path, with_outliers=True)
        cfg = write_config(tmp_path / "t.json", num_classes=2, train_dir="train_scenes",
                           features={"features": ["z"], "normalizers": {"z": 1e-310}},
                           train={"loss_mode": "ce", "epochs": 1, "hidden_sizes": [8]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", cfg, "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: train_scenes: features.normalizers['z']: dividing by 1e-310 "
            "scales z beyond the double range\n")
        assert not caught
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_eval_normalizer_overflow_named(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        data = json.loads(Path(TestEval().eval_config(tmp_path, scenes_dir, ckpt)).read_text())
        cfg = write_config(tmp_path / "e.json", **{
            **data, "features": {"features": ["z"], "normalizers": {"z": 1e-310}}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", cfg, "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {scenes_dir / '000000.bin'}: features.normalizers['z']: "
            "dividing by 1e-310 scales z beyond the double range\n")
        assert not caught
        assert not (tmp_path / "out").exists()

    def test_eval_label_outside_space(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        labels = bytearray((scenes_dir / "000001.label").read_bytes())
        labels[0:4] = struct.pack("<I", 9)
        (scenes_dir / "000001.label").write_bytes(bytes(labels))
        cfg = TestEval().eval_config(tmp_path, scenes_dir, ckpt)
        self.expect(capsys, ["eval", "--config", cfg], EXIT_CONFIG,
                    "eval_scenes/000001.label: labels outside 1..4: [9]")
        assert not (tmp_path / "out").exists()

    def test_synth_label_outside_space(self, scan_tree, capsys):
        path = scan_tree / "data/scans/000001.label"
        labels = bytearray(path.read_bytes())
        labels[0:4] = struct.pack("<I", 9)
        path.write_bytes(bytes(labels))
        cfg = write_config(scan_tree / "s.json", synthesis={"mode": "resize"})
        self.expect(capsys, ["synth", "--config", cfg], EXIT_CONFIG,
                    "data/scans/000001.label: labels outside 1..5: [9]")
        assert not (scan_tree / "data/synth").exists()

    def test_eval_overflowing_network(self, tmp_path, monkeypatch, capsys):
        # finite weights whose products overflow: the logits are inf
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        big = MlpParams([np.full((1, 4), 1e300), np.full((4, 3), 1e300)],
                        [np.full(4, 1e300), np.full(3, 1e300)])
        save_checkpoint(ckpt, big, np.ones(3))
        cfg = TestEval().eval_config(tmp_path, scenes_dir, ckpt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: {scenes_dir / '000000.bin'}: non-finite network output\n"
        assert not caught
        assert not (tmp_path / "out").exists()

    def test_synth_asset_that_is_a_directory(self, scan_tree, capsys):
        (scan_tree / "assets/odd.xyz").mkdir()
        cfg = write_config(scan_tree / "s.json")
        self.expect(capsys, ["synth", "--config", cfg], EXIT_DATA,
                    f"data error: {Path('assets/odd.xyz')}: cannot read: Is a directory")

    def test_eval_checkpoint_that_is_a_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenes_dir, _ckpt = make_perfect_fixture(tmp_path)
        (tmp_path / "ckpt_dir").mkdir()
        cfg = TestEval().eval_config(tmp_path, scenes_dir, tmp_path / "ckpt_dir")
        self.expect(capsys, ["eval", "--config", cfg], EXIT_DATA,
                    f"data error: {tmp_path / 'ckpt_dir'}: cannot read: Is a directory")
        assert not (tmp_path / "out").exists()

    def test_train_checkpoint_that_is_a_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        TestTrain().write_train_scenes(tmp_path, with_outliers=True)
        (tmp_path / "out/model.ckpt").mkdir(parents=True)
        cfg = TestTrain().train_config(tmp_path, mode="abstain+static")
        self.expect(capsys, ["train", "--config", cfg, "--force"], EXIT_CONFIG,
                    f"config error: output is a directory: {Path('out/model.ckpt')}")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["model.ckpt"]
