"""Command-line entry point.

Subcommands: genscan | synth | train | eval | gradcheck. Common flags:
--config PATH (JSON run config), --seed N (override), --force (overwrite
existing outputs), --jobs N (scene-level threads for genscan, synth and
eval, default 1; train and gradcheck accept it and run on one). Exit
codes: 0 success, 2 config error, 3 output collision, 4 numeric failure, 5
malformed data file (a scene, asset or checkpoint; the message names the
file).
``config.load_config`` checks the whole config before any command runs,
so a bad value in any section exits 2 for every command, as do inputs
that contradict the config and a scan section that casts no returns.

All randomness flows from the single top-level seed through per-scene
stream ids; each stage uses its own stream-id namespace so streams are
never reused across stages. Every output file is written atomically by
``io.atomic_write`` (temp file + rename), and every command records a
RunManifest as ``<command>.manifest.json`` in its output directory
(genscan: scan_dir, synth: synth_dir, the others: out_dir), so no command
overwrites another's.

``gradcheck`` sets only the instance count and size; the check itself runs
at ``run_gradient_checks``'s defaults, against ``GRADCHECK_TOLERANCE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, RunConfig
from .core import LabelSpace, RngStream
from .io import (FormatError, atomic_write, generate_scan, load_asset_dir, read_scene,
                 write_scene)
from .losses import run_gradient_checks, softmax_head
from .metrics import (
    ScoredPoints,
    UndefinedMetricError,
    aupr,
    auroc,
    coverage_curves,
    default_grid,
    miou_old,
    po_histogram,
    write_curves_csv,
    write_histogram_csv,
)
from .model import (
    TrainingDiverged,
    extract_features,
    forward,
    load_checkpoint,
    save_checkpoint,
    score_maxlogit,
    score_msp,
    score_outlier_prob,
    train,
)
from .synthesis import resize_existing, synthesize_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_NUMERIC = 4
EXIT_DATA = 5

GRADCHECK_TOLERANCE = 1e-4

# stream-id namespaces, one per stage, so (seed, stream) pairs never repeat
STREAM_SYNTH = 1 << 32
STREAM_TRAIN = 1 << 33


class OutputCollision(RuntimeError):
    pass


def _parallel(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _check_collisions(paths, force: bool):
    if not force and (existing := [p for p in paths if Path(p).exists()]):
        raise OutputCollision(f"output exists (use --force to overwrite): {existing[0]}")


def _scene_pairs(directory: Path) -> list[tuple[Path, Path]]:
    """The scene file pairs in ``directory``: none, or no directory, is a ConfigError."""
    pairs = []
    for bin_path in sorted(directory.glob("*.bin")):
        label_path = bin_path.with_suffix(".label")
        if not label_path.exists():
            raise ConfigError(f"missing label file for {bin_path}")
        pairs.append((bin_path, label_path))
    if not pairs:
        raise ConfigError(f"no scene files in {directory}")
    return pairs


def _input_digests(pairs, *paths) -> dict[str, str]:
    """{file name: sha256} of ``paths`` and the scene file ``pairs``."""
    files = [*paths, *(f for pair in pairs for f in pair)]
    return {f.name: cfgmod.file_digest(f) for f in files}


def cmd_genscan(cfg: RunConfig, force: bool, jobs: int) -> int:
    out_dir = Path(cfg.scan_dir)
    names = [f"{i:06d}" for i in range(cfg.scan_count)]
    targets = [out_dir / f"{n}{ext}" for n in names for ext in (".bin", ".label")]
    _check_collisions(targets, force)
    scan_cfg = cfg.scan.build()
    try:  # a scan that casts no returns
        scenes = _parallel(lambda i: generate_scan(scan_cfg, RngStream(cfg.seed, i)),
                           range(cfg.scan_count), jobs)
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, scene in zip(names, scenes):
        p, l = out_dir / f"{name}.bin", out_dir / f"{name}.label"
        write_scene(scene, p, l)
        outputs += [p.name, l.name]
    cfgmod.write_manifest(out_dir, "genscan", cfg, {}, outputs)
    return EXIT_OK


def cmd_synth(cfg: RunConfig, force: bool, jobs: int) -> int:
    mode = cfg.synthesis.mode
    synth_cfg = cfg.synthesis.build()
    space = LabelSpace(cfg.num_classes)
    pairs = _scene_pairs(Path(cfg.scan_dir))

    assets = []
    if mode in ("asset", "both"):
        asset_dir = Path(cfg.asset_dir)
        if asset_dir.is_dir():
            assets = load_asset_dir(asset_dir, count=cfg.synthesis.asset_sample_count,
                                    rng=RngStream(cfg.seed, STREAM_SYNTH - 1))
        if not assets:
            raise ConfigError(f"no assets in asset_dir {asset_dir}")

    out_dir = Path(cfg.synth_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = [out_dir / p.name for p, _ in pairs]
    targets += [out_dir / l.name for _, l in pairs]
    targets.append(out_dir / "merge_reports.json")
    _check_collisions(targets, force)

    def process(item):
        i, (bin_path, label_path) = item
        scene = read_scene(bin_path, label_path)
        rng = RngStream(cfg.seed, STREAM_SYNTH + i).generator()
        reports, resized = [], None
        if mode in ("resize", "both"):
            scene, resized = resize_existing(
                scene, cfg.synthesis.resize_target_class, space,
                (cfg.synthesis.resize_scale_min, cfg.synthesis.resize_scale_max),
                rng, cluster_threshold=cfg.synthesis.cluster_threshold,
            )
        if mode in ("asset", "both"):
            scene, reports = synthesize_scene(scene, assets, space, synth_cfg, rng)
        return scene, reports, resized

    results = _parallel(process, list(enumerate(pairs)), jobs)
    inputs = _input_digests(pairs)
    outputs = []
    all_reports = {}
    for (bin_path, label_path), (scene, reports, resized) in zip(pairs, results):
        if resized is not None and resized.size == 0:
            print(f"warning: {bin_path}: target class "
                  f"{cfg.synthesis.resize_target_class} absent; nothing resized",
                  file=sys.stderr)
        write_scene(scene, out_dir / bin_path.name, out_dir / label_path.name)
        outputs += [bin_path.name, label_path.name]
        all_reports[bin_path.stem] = [
            {
                "object_id": r.object_id,
                "indices": r.indices.tolist(),
                "old_radii": [repr(v) for v in r.old_radii.tolist()],
                "new_radii": [repr(v) for v in r.new_radii.tolist()],
            }
            for r in reports
        ]
    atomic_write(out_dir / "merge_reports.json",
                 json.dumps(all_reports, indent=2, sort_keys=True) + "\n")
    outputs.append("merge_reports.json")
    cfgmod.write_manifest(out_dir, "synth", cfg, inputs, outputs)
    return EXIT_OK


def cmd_train(cfg: RunConfig, force: bool, jobs: int) -> int:
    space = LabelSpace(cfg.num_classes)
    in_dir = Path(cfg.train_dir or cfg.synth_dir)
    pairs = _scene_pairs(in_dir)
    scenes = [read_scene(p, l) for p, l in pairs]

    out_dir = Path(cfg.out_dir)
    ckpt_path = Path(cfg.resolved_checkpoint())
    log_path = out_dir / "train_log.csv"
    _check_collisions([ckpt_path, log_path], force)

    try:
        params, beta, log = train(
            scenes, space, cfg.features, cfg.train, cfg.loss,
            rng=RngStream(cfg.seed, STREAM_TRAIN),
        )
    except TrainingDiverged as exc:
        print(f"error: {in_dir}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        raise ConfigError(f"{in_dir}: {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, params, beta)
    lines = ["epoch,loss"]
    lines += [f"{e},{repr(v)}" for e, v in enumerate(log.epoch_losses)]
    atomic_write(log_path, "\n".join(lines) + "\n")
    cfgmod.write_manifest(
        out_dir, "train", cfg, _input_digests(pairs),
        [ckpt_path.name, log_path.name],
    )
    return EXIT_OK


def cmd_eval(cfg: RunConfig, force: bool, jobs: int) -> int:
    space = LabelSpace(cfg.num_classes)
    ckpt_path = Path(cfg.resolved_checkpoint())
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint does not exist: {ckpt_path}")
    pairs = _scene_pairs(Path(cfg.eval_dir or cfg.synth_dir))
    params, _beta = load_checkpoint(ckpt_path)
    got = (params.layer_sizes[0], params.layer_sizes[-1])
    want = (len(cfg.features.features), space.num_classes + 1)
    if got != want:
        raise ConfigError(f"{ckpt_path}: input/output sizes {got[0]}/{got[1]}, but the "
                          f"config's features and num_classes need {want[0]}/{want[1]}")

    out_dir = Path(cfg.out_dir)
    paths = {name: out_dir / f"{name}.csv" for name in ("summary", "curves", "histogram")}
    _check_collisions(list(paths.values()), force)

    def process(pair):
        scene = read_scene(*pair)
        try:
            space.validate(scene.labels)
        except ValueError as exc:
            raise ConfigError(f"{pair[1]}: {exc}") from exc
        head = forward(extract_features(scene, cfg.features), params)
        probs = softmax_head(head)
        # argmax over [p^y, p^o]; a tie goes to the inlier class
        p_in = probs.p_inlier
        pred = np.where(probs.p_o > p_in.max(axis=1), head.num_classes + 1,
                        p_in.argmax(axis=1) + 1)
        return (
            score_outlier_prob(probs),
            score_msp(probs),
            score_maxlogit(head.inlier_logits),
            pred,
            scene.labels,
        )

    results = _parallel(process, pairs, jobs)
    p_o, msp, maxlogit, pred, truth = map(np.concatenate, zip(*results))
    is_outlier = truth > space.num_classes
    if not is_outlier.any():
        print("warning: eval set contains no outlier points; AUPR/AUROC are NA",
              file=sys.stderr)

    try:
        miou = repr(miou_old(pred, truth, space.num_classes))
    except UndefinedMetricError:
        print("warning: eval set contains no inlier points; miou_old is NA", file=sys.stderr)
        miou = "NA"
    lines = ["score,aupr,auroc,miou_old"]
    for name, scores in (("p_o", p_o), ("msp", msp), ("maxlogit", maxlogit)):
        try:
            pr = repr(aupr(scores, is_outlier))
            roc = repr(auroc(scores, is_outlier))
        except UndefinedMetricError:
            pr, roc = "NA", "NA"
        lines.append(f"{name},{pr},{roc},{miou}")
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(paths["summary"], "\n".join(lines) + "\n")

    points = ScoredPoints(p_o, is_outlier, pred, truth)
    curves = coverage_curves(points, space.num_classes,
                             grid=default_grid(cfg.metrics.grid_size))
    write_curves_csv(paths["curves"], curves)
    write_histogram_csv(paths["histogram"], po_histogram(p_o, is_outlier))

    cfgmod.write_manifest(
        out_dir, "eval", cfg, _input_digests(pairs, ckpt_path),
        [p.name for p in paths.values()],
    )
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, force: bool, jobs: int) -> int:
    results = run_gradient_checks(num_instances=cfg.gradcheck.instances,
                                  max_points=cfg.gradcheck.max_points, seed=cfg.seed)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "gradcheck.csv"
    _check_collisions([report_path], force)

    all_pass = True
    lines = ["loss,max_rel_error,worst_seed,tolerance,pass"]
    print(f"{'loss':<16} {'max rel error':>14} {'worst seed':>11} result")
    for name, (err, worst) in results.items():
        ok = err <= GRADCHECK_TOLERANCE
        all_pass &= ok
        verdict = "pass" if ok else "FAIL"
        print(f"{name:<16} {err:>14.3e} {worst:>11d} {verdict}")
        lines.append(f"{name},{repr(err)},{worst},{repr(GRADCHECK_TOLERANCE)},{verdict}")
    atomic_write(report_path, "\n".join(lines) + "\n")
    cfgmod.write_manifest(
        out_dir, "gradcheck", cfg, {}, [report_path.name]
    )
    return EXIT_OK if all_pass else EXIT_NUMERIC


COMMANDS = {
    "genscan": cmd_genscan,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodlab",
        description="Desk-scale abstaining-penalty anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel scene workers for genscan, synth and eval; "
                            "train and gradcheck ignore it")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {} if args.seed is None else {"seed": args.seed}
        cfg = cfgmod.load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args.force, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OutputCollision as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
