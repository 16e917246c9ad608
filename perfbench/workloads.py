"""The benchmark's three workloads and their output checks.

Each workload drives oodlab's public API or CLI on inputs generated from
the workload seed. ``setup(directory)`` builds the inputs (the caller times
it as ``setup_s``); ``iteration()`` does the timed work once. Both return
end-to-end metric values by name; ``iteration`` also returns an output
digest and the p^o AUPRs it saw. Output checks and digests run outside the
timed calls.

A program operation is a CLI command, a ``train()`` call, an eval pass or,
in the desk workloads, the library synthesis of the splits. ``Ops`` counts
them and marks one failed when it raises, exits nonzero or fails an output
check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import desk
from spans import mode_tag
from oodlab import cli, core, io, losses, metrics, model
from oodlab.core import RngStream

# (lon, lat) of a scene point may move by float32 rounding of its xyz when
# the scene goes through a scene file; 1e-5 rad is far above that and far
# below the finest beam spacing used here (0.2 degrees).
LONLAT_TOL = 1e-5


class OpFailed(Exception):
    """A program operation raised, exited nonzero or failed a check."""


class Ops:
    """Counts attempted and failed program operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name, fn, check=None):
        """(result, seconds) of ``fn()``; ``check(result)`` returns a
        problem string or None and is not timed."""
        self.attempted += 1
        try:
            t = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - t
            problem = check(out) if check is not None else None
        except Exception as exc:  # any raise from the program fails the operation
            problem = f"raised {exc!r}"
        if problem:
            self.failed += 1
            raise OpFailed(f"{name}: {problem}")
        return out, seconds


def points(scenes) -> int:
    return sum(s.num_points for s in scenes)


def read_points(path) -> np.ndarray:
    """xyz of a KITTI-layout point file, read without going through oodlab."""
    return np.fromfile(path, dtype="<f4").reshape(-1, 4)[:, :3].astype(np.float64)


def read_labels(path) -> np.ndarray:
    return (np.fromfile(path, dtype="<u4") & 0xFFFF).astype(np.int64)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- output checks; each returns a problem string or None ---------------------


def check_sampling_pattern(before, after, exempt=None):
    """Synthesis keeps each scan's point count and per-point (lon, lat)
    (acceptance criterion 4). ``before``/``after`` are lists of (n, 3)
    point arrays; ``exempt[i]`` masks points of scene i that the resizing
    baseline may have moved."""
    for i, (a, b) in enumerate(zip(before, after)):
        if len(a) != len(b):
            return f"scene {i}: {len(a)} points became {len(b)}"
        keep = slice(None) if exempt is None else ~exempt[i]
        sa, sb = core.to_spherical(a[keep]), core.to_spherical(b[keep])
        dlon = np.abs(np.angle(np.exp(1j * (sa[:, 0] - sb[:, 0]))))
        dlat = np.abs(sa[:, 1] - sb[:, 1])
        worst = float(max(dlon.max(initial=0.0), dlat.max(initial=0.0)))
        if worst > LONLAT_TOL:
            return f"scene {i}: (lon, lat) moved by {worst:.3g} rad"
    return None


def check_losses(values, epochs):
    if len(values) != epochs:
        return f"{len(values)} epoch losses for {epochs} epochs"
    if not all(math.isfinite(v) for v in values):
        return f"non-finite epoch loss in {values}"
    return None


def check_p_o(p_o):
    if not (np.all(p_o >= 0.0) and np.all(p_o <= 1.0)):
        return "p^o outside [0, 1]"
    return None


def check_eval_outputs(out_dir: Path, n_points: int, n_outliers: int):
    """The eval CSVs: p^o AUPR in [0, 1], curve coverage non-decreasing,
    risk at coverage 1 equal to 100 - mIoU (criterion 3), and histogram
    counts partitioning the eval points (criterion 9)."""
    summary = {row["score"]: row for row in _read_csv(out_dir / "summary.csv")}
    pr = float(summary["p_o"]["aupr"])
    if not 0.0 <= pr <= 1.0:
        return f"p^o AUPR {pr} outside [0, 1]"
    curves = _read_csv(out_dir / "curves.csv")
    cov = [float(row["coverage"]) for row in curves]
    if any(b < a for a, b in zip(cov, cov[1:])):
        return "curve coverage decreases"
    miou = float(summary["p_o"]["miou_old"])
    if cov[-1] != 1.0 or abs(float(curves[-1]["risk"]) - (100.0 - miou)) > 1e-9:
        return (f"risk at coverage {cov[-1]} is {curves[-1]['risk']}, "
                f"100 - mIoU is {100.0 - miou}")
    hist = _read_csv(out_dir / "histogram.csv")
    inl = sum(int(row["inlier_count"]) for row in hist)
    outl = sum(int(row["outlier_count"]) for row in hist)
    if (inl + outl, outl) != (n_points, n_outliers):
        return (f"histogram counts {inl} + {outl} do not partition "
                f"{n_points} points ({n_outliers} outliers)")
    return None


def eval_record(out_dir: Path, ckpt: Path):
    """Digest of the trained parameters plus the eval CSVs, and p^o AUPR×100."""
    h = hashlib.sha256(ckpt.read_bytes())
    for name in ("summary.csv", "curves.csv", "histogram.csv"):
        h.update((out_dir / name).read_bytes())
    row = next(r for r in _read_csv(out_dir / "summary.csv") if r["score"] == "p_o")
    return h.hexdigest(), {"aupr_p_o.abstain_static": 100.0 * float(row["aupr"])}


def write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


def feature_section(fc) -> dict:
    return {"features": list(fc.features), "density_radius": fc.density_radius,
            "normalizers": dict(fc.normalizers)}


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    n_train: int  # desk train scenes
    n_eval: int  # desk eval scenes
    train_epochs: int  # desk_train epochs per loss mode
    ckpt_epochs: int  # epochs of the desk_eval checkpoint
    sweep_scenes: int
    sweep_epochs: int
    sweep_beams: int
    sweep_step_deg: float


FULL = Sizes(n_train=40, n_eval=40, train_epochs=6, ckpt_epochs=3,
             sweep_scenes=4, sweep_epochs=2, sweep_beams=64, sweep_step_deg=0.2)
SMOKE = Sizes(n_train=3, n_eval=3, train_epochs=1, ckpt_epochs=1,
              sweep_scenes=1, sweep_epochs=1, sweep_beams=16, sweep_step_deg=2.0)


class Workload:
    def __init__(self, seed: int, sizes: Sizes, ops: Ops):
        self.seed, self.sizes, self.ops = seed, sizes, ops
        self.span = lambda name: contextlib.nullcontext()  # the traced run sets this

    def cli(self, command: str, config: str, check=None) -> float:
        """Seconds of one in-process ``oodlab <command>``."""
        def run():
            with self.span(f"cli.{command}"):
                return cli.main([command, "--config", config, "--force", "--jobs", "1"])
        return self.ops.run(
            f"cli {command}", run,
            check=lambda rc: f"exit code {rc}" if rc else (check() if check else None))[1]


class DeskWorkload(Workload):
    """Set-up shared by the desk workloads: scans and synthesized splits."""

    def build_splits(self) -> dict:
        s = self.sizes
        scans = desk.make_scans(self.seed, s.n_train, s.n_eval)
        (train_split, eval_split), synth_s = self.ops.run(
            "synthesize splits",
            lambda: desk.synthesize_splits(scans, self.seed, s.n_train),
            # the eval split is asset-only; the train split is also resized
            check=lambda out: check_sampling_pattern(
                [sc.points for sc in scans[s.n_train:]], [sc.points for sc in out[1]]))
        self.train_split, self.eval_split = train_split, eval_split
        return {"synth_points_per_s": points(train_split + eval_split) / synth_s}

    def train(self, mode: str, epochs: int):
        """One library ``train()`` with the desk recipe: params, beta, seconds."""
        cfg = model.TrainConfig(seed=self.seed, loss_mode=mode,
                                **dict(desk.TRAIN_RECIPE, epochs=epochs))
        (params, beta, _log), seconds = self.ops.run(
            f"train {mode}",
            lambda: model.train(self.train_split, desk.SPACE, desk.FEATURES, cfg,
                                losses.LossConfig(**desk.LOSS_RECIPE),
                                rng=RngStream(self.seed, desk.STREAM_TRAIN)),
            check=lambda out: check_losses(out[2].epoch_losses, epochs))
        return params, beta, seconds


class DeskTrain(DeskWorkload):
    """Library ``train()`` in all four loss modes, then p^o AUPR of each
    model on the held-out eval split."""

    def setup(self, directory: Path) -> dict:
        return self.build_splits()

    def iteration(self):
        epochs = self.sizes.train_epochs
        trained, train_s = {}, 0.0
        for mode in desk.MODES:
            params, _beta, seconds = self.train(mode, epochs)
            trained[mode] = params
            train_s += seconds

        truth = np.concatenate([s.labels for s in self.eval_split]) > desk.SPACE.num_classes
        t = time.perf_counter()
        feats = [model.extract_features(s, desk.FEATURES) for s in self.eval_split]
        eval_s = time.perf_counter() - t
        h = hashlib.sha256()
        auprs = {}
        for mode, params in trained.items():
            def score(params=params):
                p_o = np.concatenate([
                    model.score_outlier_prob(losses.softmax_head(model.forward(f, params)))
                    for f in feats])
                return p_o, metrics.aupr(p_o, truth)
            (_, pr), seconds = self.ops.run(
                f"eval {mode}", score, check=lambda out: check_p_o(out[0]))
            eval_s += seconds
            auprs[f"aupr_p_o.{mode_tag(mode)}"] = 100.0 * pr
            for w, b in zip(params.weights, params.biases):
                h.update(w.tobytes())
                h.update(b.tobytes())
            h.update(repr(pr).encode())
        n_modes = len(desk.MODES)
        return {
            "wall_s": train_s + eval_s,
            "train_points_per_s": n_modes * epochs * points(self.train_split) / train_s,
            "eval_points_per_s": n_modes * len(truth) / eval_s,
        }, h.hexdigest(), auprs


class DeskEval(DeskWorkload):
    """One ``oodlab eval`` over the desk eval scenes with a desk-recipe
    abstain+static checkpoint trained at set-up."""

    def setup(self, directory: Path) -> dict:
        out = self.build_splits()
        eval_dir, out_dir = directory / "eval", directory / "out"
        eval_dir.mkdir(parents=True)
        out_dir.mkdir()
        for i, scene in enumerate(self.eval_split):
            io.write_scene(scene, eval_dir / f"{i:06d}.bin", eval_dir / f"{i:06d}.label")
        epochs = self.sizes.ckpt_epochs
        params, beta, seconds = self.train("abstain+static", epochs)
        out["train_points_per_s"] = epochs * points(self.train_split) / seconds
        model.save_checkpoint(out_dir / "model.ckpt", params, beta)
        self.out_dir = out_dir
        self.config = write_config(directory / "config.json", {
            "seed": self.seed, "num_classes": desk.SPACE.num_classes,
            "eval_dir": str(eval_dir), "out_dir": str(out_dir),
            "features": feature_section(desk.FEATURES), "metrics": {"grid_size": 100},
        })
        labels = np.concatenate([s.labels for s in self.eval_split])
        self.n_points = len(labels)
        self.n_outliers = int(np.sum(labels > desk.SPACE.num_classes))
        return out

    def iteration(self):
        wall = self.cli("eval", self.config, check=lambda: check_eval_outputs(
            self.out_dir, self.n_points, self.n_outliers))
        digest, auprs = eval_record(self.out_dir, self.out_dir / "model.ckpt")
        return {"wall_s": wall, "eval_points_per_s": self.n_points / wall}, digest, auprs


# -- sweep_cli ----------------------------------------------------------------

SWEEP_FEATURES = {
    "features": ["x", "y", "z", "r", "lat", "lon", "density"],
    "density_radius": 1.0,
    "normalizers": {"x": 20.0, "y": 20.0, "z": 2.0, "r": 20.0, "lat": 0.5,
                    "lon": math.pi, "density": 100.0},
}
BOX_LABEL = 2  # the class the resizing baseline enlarges
STREAM_ASSETS = 1 << 34
STREAM_OBSTACLES = 1 << 35
# points of a .xyz asset: as many as synth samples from each .obj mesh
# (synthesis.asset_sample_count), so every merge costs about the same
# whichever asset is drawn. A merge's cost grows with the asset's points;
# with 10000-point posts beside 2048-point meshes, the synth stage's rate
# spread 0.33 over six seeds (quartile spread / median), against 0.12 with
# 2048-point posts.
ASSET_POINTS = 2048


def banded_obstacles(gen, count=12, distance=(4.0, 22.0), edge=1.7):
    """``count`` obstacles for the config's ``scan.obstacles``: obstacle k
    sits mid-way through the k-th of ``count`` equal distance bands, at
    bearing ``base + k * 150`` degrees for one random ``base``, so each
    obstacle has a sector of its own and near ones sit across the sensor
    from each other; boxes (even k) alternate with cylinders, every
    obstacle is ``edge`` metres across and tall, and each box turns a
    corner to the sensor.

    With genscan's random obstacles, one sweep-resolution scene's cost
    swings several-fold from seed to seed: resize_existing clusters every
    box point, so its time grows about as 1/d^4 with the distance d of the
    nearest box (0.07 s against 1.23 s for two seeds at 64 beams x 0.2
    degrees). Random bearings still left the occlusion between obstacles,
    and with it the scan, to the seed. This layout fixes the scan up to a
    rotation about the sensor, so seeds differ in that rotation, the
    assets, synthesis and training, and the near-box cost is always paid.
    genscan draws nothing else, so every scan of one seed is the same; each
    is synthesized differently.
    """
    band = (distance[1] - distance[0]) / count
    base = gen.uniform(0.0, 360.0)
    out = []
    for k in range(count):
        dist = distance[0] + band * (k + 0.5)
        bearing = base + (150.0 * k) % 360.0
        cx, cy = dist * math.cos(math.radians(bearing)), dist * math.sin(math.radians(bearing))
        if k % 2 == 0:
            out.append({"kind": "box", "center": [cx, cy, edge / 2.0],
                        "size": [edge, edge, edge], "yaw_deg": bearing + 45.0,
                        "label": BOX_LABEL})
        else:
            out.append({"kind": "cylinder", "center": [cx, cy, edge / 2.0],
                        "size": [edge / 2.0, edge], "label": 3})
    return out


def ellipsoid_obj(radii, n_lat=48, n_lon=96) -> str:
    """OBJ text of a closed UV ellipsoid mesh (+y up, the OBJ convention)."""
    rx, ry, rz = radii
    lines = [f"v 0 {ry:.6f} 0"]
    for i in range(1, n_lat):
        phi = math.pi * i / n_lat
        for j in range(n_lon):
            th = 2.0 * math.pi * j / n_lon
            lines.append(f"v {rx * math.sin(phi) * math.cos(th):.6f} "
                         f"{ry * math.cos(phi):.6f} {rz * math.sin(phi) * math.sin(th):.6f}")
    lines.append(f"v 0 {-ry:.6f} 0")
    bottom = 1 + (n_lat - 1) * n_lon + 1  # 1-based index of the lower pole

    def ring(i, j):  # 1-based vertex index on ring i (1..n_lat-1)
        return 2 + (i - 1) * n_lon + j % n_lon

    for j in range(n_lon):
        lines.append(f"f 1 {ring(1, j + 1)} {ring(1, j)}")
        lines.append(f"f {bottom} {ring(n_lat - 1, j)} {ring(n_lat - 1, j + 1)}")
        for i in range(1, n_lat - 1):
            lines.append(f"f {ring(i, j)} {ring(i, j + 1)} {ring(i + 1, j + 1)} {ring(i + 1, j)}")
    return "\n".join(lines) + "\n"


def cylinder_xyz(gen, radius, height, count=ASSET_POINTS) -> str:
    """Asset lines "x y z" of points on a cylinder's side (+z up)."""
    th = gen.uniform(0.0, 2.0 * math.pi, size=count)
    z = gen.uniform(-height / 2.0, height / 2.0, size=count)
    pts = np.stack([radius * np.cos(th), radius * np.sin(th), z], axis=1)
    return "".join(f"{x:.6f} {y:.6f} {zz:.6f}\n" for x, y, zz in pts)


class SweepCli(Workload):
    """``oodlab genscan -> synth -> train -> eval`` at real-sweep resolution."""

    def setup(self, directory: Path) -> dict:
        s = self.sizes
        gen = RngStream(self.seed, STREAM_ASSETS).generator()
        assets = directory / "assets"
        assets.mkdir(parents=True)
        # fixed sizes: synthesis cost grows with object size, so seeded sizes
        # would add seed-to-seed spread to synth_points_per_s
        for k, radii in enumerate(((0.5, 0.3, 0.4), (0.3, 0.45, 0.35))):
            (assets / f"blob{k}.obj").write_text(ellipsoid_obj(radii))
        for k, (radius, height) in enumerate(((0.15, 1.2), (0.25, 0.8))):
            (assets / f"post{k}.xyz").write_text(cylinder_xyz(gen, radius, height))
        self.dirs = {k: directory / k for k in ("scans", "synth", "out")}
        self.config = write_config(directory / "config.json", {
            "seed": self.seed, "num_classes": 3, "scan_count": s.sweep_scenes,
            "scan_dir": str(self.dirs["scans"]), "synth_dir": str(self.dirs["synth"]),
            "asset_dir": str(assets), "out_dir": str(self.dirs["out"]),
            "scan": {"beam_count": s.sweep_beams, "azimuth_step_deg": s.sweep_step_deg,
                     "random_obstacles": 0, "obstacles": banded_obstacles(
                         RngStream(self.seed, STREAM_OBSTACLES).generator())},
            # exactly the recipe's mean of 6 objects per scene, not Binomial(20,
            # 0.3): synthesis time is about proportional to the merges, and the
            # binomial count alone moved synth_points_per_s by 0.29 (quartile
            # spread over ten seeds). Objects scale by U(1, 3), not the
            # recipe's U(1, 7): a merge pulls every scene point in its angular
            # window onto the object, and a large object near the sensor packs
            # so many points within the density radius that the cKDTree
            # feature's cost followed the draw (neighbour pairs spread 0.25
            # over eight seeds at U(1, 7), 0.16 at U(1, 3)).
            "synthesis": {"mode": "both", "object_count_trials": 6, "object_count_prob": 1.0,
                          "scale_max": 3.0},
            "features": SWEEP_FEATURES,
            "train": {"epochs": s.sweep_epochs, "loss_mode": "abstain+static"},
            "metrics": {"grid_size": 100},
        })
        return {}

    def _scenes(self, key):
        bins = sorted(self.dirs[key].glob("*.bin"))
        return [read_points(p) for p in bins], [read_labels(p.with_suffix(".label")) for p in bins]

    def _check_genscan(self):
        n = len(list(self.dirs["scans"].glob("*.bin")))
        return None if n == self.sizes.sweep_scenes else f"{n} scans written"

    def _check_synth(self):
        (before, before_lab), (after, after_lab) = self._scenes("scans"), self._scenes("synth")
        if not (self.dirs["synth"] / "merge_reports.json").is_file():
            return "no merge report"
        # resized boxes move; merged points keep (lon, lat)
        exempt = [(a == BOX_LABEL) & (b > 3) for a, b in zip(before_lab, after_lab)]
        labels = np.concatenate(after_lab)
        self.n_points, self.n_outliers = len(labels), int(np.sum(labels > 3))
        return check_sampling_pattern(before, after, exempt)

    def _check_train(self):
        rows = _read_csv(self.dirs["out"] / "train_log.csv")
        return check_losses([float(r["loss"]) for r in rows], self.sizes.sweep_epochs)

    def iteration(self):
        stage = {
            "genscan": self.cli("genscan", self.config, self._check_genscan),
            "synth": self.cli("synth", self.config, self._check_synth),
            "train": self.cli("train", self.config, self._check_train),
            "eval": self.cli("eval", self.config, lambda: check_eval_outputs(
                self.dirs["out"], self.n_points, self.n_outliers)),
        }
        digest, auprs = eval_record(self.dirs["out"], self.dirs["out"] / "model.ckpt")
        n = self.n_points
        return {
            "wall_s": sum(stage.values()),
            "synth_points_per_s": n / stage["synth"],
            "train_points_per_s": self.sizes.sweep_epochs * n / stage["train"],
            "eval_points_per_s": n / stage["eval"],
        }, digest, auprs


WORKLOADS = {"desk_train": DeskTrain, "desk_eval": DeskEval, "sweep_cli": SweepCli}
