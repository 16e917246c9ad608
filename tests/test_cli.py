import dataclasses
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _benchmark
from oodlab.cli import EXIT_COLLISION, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from oodlab.config import ConfigError, RunConfig, file_digest, load_config
from oodlab.core import RngStream, Scene
from oodlab.io import write_scene
from oodlab.losses import LOSS_MODES, LossConfig
from oodlab.model import FEATURE_NAMES, MlpParams, TrainConfig, save_checkpoint

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
        ({"train": {"scenes_per_batch": 2}}, "train: scenes_per_batch must be 1"),
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
        ({"asset_sample_count": 9}, "synthesis.asset_sample_count: must be >= 10"),
    ])
    def test_invalid_synthesis_named(self, tmp_path, monkeypatch, capsys, data, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", synthesis=data)
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["genscan", "synth", "train", "eval", "gradcheck"])
    def test_bad_section_fails_every_command(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", metrics={"grid_size": 0})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "metrics.grid_size: must be >= 1" in capsys.readouterr().err

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
        ({"cluster_threshold": -1.0}, "synthesis.cluster_threshold: must be finite and > 0"),
        ({"cluster_threshold": 0.0}, "synthesis.cluster_threshold: must be finite and > 0"),
        ({"resize_scale_min": 0.5}, "synthesis.resize_scale_min: must be >= 1"),
        ({"resize_scale_min": 3.0, "resize_scale_max": 2.0},
         "synthesis.resize_scale_max: must be >= resize_scale_min"),
        ({"resize_target_class": 9}, "synthesis.resize_target_class: must be an inlier class"),
        ({"resize_target_class": 0}, "synthesis.resize_target_class: must be an inlier class"),
    ])
    def test_invalid_resize_named(self, tmp_path, monkeypatch, capsys, synthesis, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", synthesis={"mode": "resize", **synthesis})
        assert main(["synth", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_desk_example_is_the_acceptance_recipe(self):
        cfg = load_config(EXAMPLES / "desk.json")
        assert cfg.num_classes == _benchmark.SPACE.num_classes
        assert cfg.scan.build() == _benchmark.SCAN_CFG
        assert cfg.synthesis.build() == _benchmark.SYNTH_CFG
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

    def test_no_inliers_gives_na_miou_and_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenes_dir, ckpt = make_perfect_fixture(tmp_path)
        for f in scenes_dir.iterdir():
            f.unlink()
        gen = RngStream(7, 0).generator()
        pts = np.column_stack([gen.uniform(-10, 10, 50), gen.uniform(-10, 10, 50),
                               np.full(50, 5.0)])
        write_scene(Scene(points=pts, labels=np.full(50, 4)),
                    scenes_dir / "000000.bin", scenes_dir / "000000.label")
        cfg = self.eval_config(tmp_path, scenes_dir, ckpt)
        assert main(["eval", "--config", cfg]) == EXIT_OK
        assert "warning: eval set contains no inlier points" in capsys.readouterr().err
        rows = (tmp_path / "out/summary.csv").read_text().splitlines()
        assert [row.split(",")[3] for row in rows[1:]] == ["NA"] * 3

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
                    "train_scenes: labels outside 1..4: [9]")
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
