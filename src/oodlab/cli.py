"""Command-line entry point.

Subcommands: genscan | synth | train | eval | gradcheck. Common flags:
--config PATH (JSON run config), --seed N (override), --force (overwrite
existing outputs), --jobs N >= 1 (scene-level threads for genscan, synth,
eval and train's feature extraction, default 1; gradcheck accepts it and
runs on one). Exit codes: 0 success, 2 config or usage error (--jobs 0,
say), 3 output collision, 4 numeric failure (training diverged, or eval's
network overflowed), 5 malformed or unreadable data file (a scene, asset
or checkpoint; the message names the file).
``config.load_config`` checks the whole config before any command runs,
so a bad value in any section exits 2 for every command (an integer key
above 2**63 - 1, which numpy cannot take, or a ``metrics.grid_size``
above ``config.MAX_GRID_SIZE``, say), as do inputs that contradict the
config, a scan section that casts no returns and a
``features.normalizers`` divisor that overflows the scaled features.

All randomness flows from the top-level seed through stream ids, one
namespace per stage: genscan draws scan i from stream i, synth from
STREAM_SYNTH - 1 (mesh samples) and STREAM_SYNTH + i (scene i), and train
from ``model.STREAM_TRAIN``, the stream ``model.train`` takes without an
``rng``, so the train manifest's config reproduces the checkpoint.

Each command states its output files once. The outputs are listed in a
RunManifest, ``<command>.manifest.json`` in the command's output directory
(genscan: scan_dir, synth: synth_dir, the others: out_dir), so no command
overwrites another's. Before it reads an input file or does any work,
``_check_outputs`` rejects an output or manifest that is a directory or
lies under a file (exit 2, naming the path) and, without --force, an
output that exists (exit 3); a manifest is rewritten. The output
directories are made just before the first write, and ``io`` writes every
file atomically: to a temp file it creates beside the target, then a
rename, so no other file is touched. A scene label outside
1..num_classes + 2 exits 2, naming the .label file.

``eval`` writes summary.csv (AUPR, AUROC and ``miou_old`` of the scores
p_o, msp and maxlogit), curves.csv (p^o coverage curves) and histogram.csv
(p^o). A cell is NA exactly when its own metric is undefined: AUPR and AUROC
without outlier points, AUROC and ``miou_old`` without inliers (it warns).

``gradcheck`` sets only the instance count and size. Its 4 classes, logit
scale ``losses.GRADCHECK_SIGMA`` and step ``GRADCHECK_STEP`` are fixed, and
its tolerance is ``GRADCHECK_TOLERANCE``.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, RunConfig
from .core import LabelSpace, RngStream, Scene
from .io import (FormatError, asset_paths, generate_scan, load_asset_dir, read_scene,
                 write_csv, write_json, write_scene)
from .losses import run_gradient_checks, softmax_head
from .metrics import (ScoredPoints, aupr_auroc, coverage_curves, default_grid, miou_old,
                      po_histogram)
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

STREAM_SYNTH = 1 << 32  # synth's stream-id namespace


class OutputCollision(RuntimeError):
    pass


class NumericFailure(RuntimeError):
    """A non-finite value stopped the command; the message names the input."""


def _jobs(text: str) -> int:
    """The --jobs value: an integer >= 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _parallel(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _check_outputs(paths, force: bool, manifest: Path):
    """An output path or ``manifest`` that is a directory, or whose nearest
    existing ancestor is not one, is a ConfigError; then, without ``force``,
    an output path that exists is a collision (a manifest is rewritten)."""
    for path in map(Path, [*paths, manifest]):
        if path.is_dir():
            raise ConfigError(f"output is a directory: {path}")
        ancestor = next((a for a in path.parents if a.exists()), None)
        if ancestor is not None and not ancestor.is_dir():
            raise ConfigError(f"output {path}: {ancestor} is not a directory")
    if not force and (existing := [p for p in paths if Path(p).exists()]):
        raise OutputCollision(f"output exists (use --force to overwrite): {existing[0]}")


def _make_parents(paths):
    """Create the directories the output ``paths`` go in."""
    for parent in dict.fromkeys(Path(p).parent for p in paths):
        parent.mkdir(parents=True, exist_ok=True)


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


def _checked_scene(pair, space: LabelSpace) -> Scene:
    """The scene of a (.bin, .label) pair; a label outside ``space`` is a
    ConfigError naming the .label file."""
    scene = read_scene(*pair)
    try:
        space.validate(scene.labels)
    except ValueError as exc:
        raise ConfigError(f"{pair[1]}: {exc}") from exc
    return scene


def _input_digests(pairs, *paths) -> dict[str, str]:
    """{file name: sha256} of ``paths`` and the scene file ``pairs``."""
    files = [*paths, *(f for pair in pairs for f in pair)]
    return {f.name: cfgmod.file_digest(f) for f in files}


def cmd_genscan(cfg: RunConfig, force: bool, jobs: int) -> int:
    out_dir = Path(cfg.scan_dir)
    pairs = [(out_dir / f"{i:06d}.bin", out_dir / f"{i:06d}.label")
             for i in range(cfg.scan_count)]
    targets = [f for pair in pairs for f in pair]
    _check_outputs(targets, force, cfgmod.manifest_path(out_dir, "genscan"))
    scan_cfg = cfg.scan.build()
    try:  # a scan that casts no returns
        scenes = _parallel(lambda i: generate_scan(scan_cfg, RngStream(cfg.seed, i)),
                           range(cfg.scan_count), jobs)
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from exc
    _make_parents(targets)
    for pair, scene in zip(pairs, scenes):
        write_scene(scene, *pair)
    cfgmod.write_manifest(out_dir, "genscan", cfg, {}, targets)
    return EXIT_OK


def cmd_synth(cfg: RunConfig, force: bool, jobs: int) -> int:
    syn = cfg.synthesis
    space = LabelSpace(cfg.num_classes)
    pairs = _scene_pairs(Path(cfg.scan_dir))
    asset_dir, asset_files = Path(cfg.asset_dir), []
    if syn.mode in ("asset", "both"):
        asset_files = asset_paths(asset_dir) if asset_dir.is_dir() else []
        if not asset_files:
            raise ConfigError(f"no assets in asset_dir {asset_dir}")

    out_dir = Path(cfg.synth_dir)
    out_pairs = [(out_dir / p.name, out_dir / l.name) for p, l in pairs]
    report_path = out_dir / "merge_reports.json"
    targets = [f for pair in out_pairs for f in pair] + [report_path]
    _check_outputs(targets, force, cfgmod.manifest_path(out_dir, "synth"))

    assets = []
    if asset_files:
        assets = load_asset_dir(asset_dir, count=syn.asset_sample_count,
                                rng=RngStream(cfg.seed, STREAM_SYNTH - 1))

    def process(item):
        i, pair = item
        scene = _checked_scene(pair, space)
        rng = RngStream(cfg.seed, STREAM_SYNTH + i).generator()
        reports, resized = [], None
        if syn.mode in ("resize", "both"):
            scene, resized = resize_existing(
                scene, syn.resize_target_class, space,
                (syn.resize_scale_min, syn.resize_scale_max),
                rng, cluster_threshold=syn.cluster_threshold,
            )
        if syn.mode in ("asset", "both"):
            try:  # a scene the placement range does not fit
                scene, reports = synthesize_scene(scene, assets, space, syn, rng)
            except ValueError as exc:
                raise ConfigError(f"{pair[0]}: {exc}") from exc
        return scene, reports, resized

    results = _parallel(process, list(enumerate(pairs)), jobs)
    inputs = _input_digests(pairs, *asset_files)  # before the writes: synth_dir may be scan_dir
    _make_parents(targets)
    all_reports = {}
    for (bin_path, _), out_pair, (scene, reports, resized) in zip(pairs, out_pairs, results):
        if resized is not None and resized.size == 0:
            print(f"warning: {bin_path}: target class "
                  f"{syn.resize_target_class} absent; nothing resized",
                  file=sys.stderr)
        write_scene(scene, *out_pair)
        all_reports[bin_path.stem] = [
            {
                "object_id": r.object_id,
                "indices": r.indices.tolist(),
                "old_radii": [repr(v) for v in r.old_radii.tolist()],
                "new_radii": [repr(v) for v in r.new_radii.tolist()],
            }
            for r in reports
        ]
    write_json(report_path, all_reports)
    cfgmod.write_manifest(out_dir, "synth", cfg, inputs, targets)
    return EXIT_OK


def cmd_train(cfg: RunConfig, force: bool, jobs: int) -> int:
    space = LabelSpace(cfg.num_classes)
    in_dir = Path(cfg.train_dir or cfg.synth_dir)
    pairs = _scene_pairs(in_dir)
    out_dir = Path(cfg.out_dir)
    ckpt_path = Path(cfg.resolved_checkpoint())
    log_path = out_dir / "train_log.csv"
    targets = [ckpt_path, log_path]
    _check_outputs(targets, force, cfgmod.manifest_path(out_dir, "train"))
    scenes = [_checked_scene(pair, space) for pair in pairs]

    try:
        if jobs > 1:
            # count each scene's neighbours into its memo on the threads, so
            # train reads the counts back (model.FeatureConfig)
            _parallel(lambda s: extract_features(s, cfg.features), scenes, jobs)
        params, beta, log = train(scenes, space, cfg.features, cfg.train, cfg.loss)
    except TrainingDiverged as exc:
        raise NumericFailure(f"{in_dir}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{in_dir}: {exc}") from exc

    _make_parents(targets)
    save_checkpoint(ckpt_path, params, beta)
    write_csv(log_path, ["epoch", "loss"], enumerate(log.epoch_losses))
    cfgmod.write_manifest(out_dir, "train", cfg, _input_digests(pairs), targets)
    return EXIT_OK


def cmd_eval(cfg: RunConfig, force: bool, jobs: int) -> int:
    space = LabelSpace(cfg.num_classes)
    ckpt_path = Path(cfg.resolved_checkpoint())
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint does not exist: {ckpt_path}")
    pairs = _scene_pairs(Path(cfg.eval_dir or cfg.synth_dir))
    out_dir = Path(cfg.out_dir)
    paths = {name: out_dir / f"{name}.csv" for name in ("summary", "curves", "histogram")}
    targets = list(paths.values())
    _check_outputs(targets, force, cfgmod.manifest_path(out_dir, "eval"))

    params, _beta = load_checkpoint(ckpt_path)
    got = (params.layer_sizes[0], params.layer_sizes[-1])
    want = (len(cfg.features.features), space.num_classes + 1)
    if got != want:
        raise ConfigError(f"{ckpt_path}: input/output sizes {got[0]}/{got[1]}, but the "
                          f"config's features and num_classes need {want[0]}/{want[1]}")

    def process(pair):
        scene = _checked_scene(pair, space)
        try:  # a normalizer that overflows the scaled features
            features = extract_features(scene, cfg.features)
        except ValueError as exc:
            raise ConfigError(f"{pair[0]}: {exc}") from exc
        # an overflow here is caught by HeadOutput's finiteness check, as in training
        with np.errstate(over="ignore", invalid="ignore"):
            try:  # the sizes match (checked above): only NaN/inf fail
                head = forward(features, params)
            except ValueError:
                raise NumericFailure(
                    f"{ckpt_path}: {pair[0]}: non-finite network output") from None
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
        print("warning: eval set contains no outlier points; AUPR/AUROC are NA", file=sys.stderr)
    if is_outlier.all():
        print("warning: eval set contains no inlier points; AUROC/miou_old are NA", file=sys.stderr)
    miou = miou_old(pred, truth, space.num_classes)
    rows = [(name, *aupr_auroc(scores, is_outlier), miou)
            for name, scores in (("p_o", p_o), ("msp", msp), ("maxlogit", maxlogit))]
    _make_parents(targets)
    write_csv(paths["summary"], ["score", "aupr", "auroc", "miou_old"], rows)

    points = ScoredPoints(p_o, is_outlier, pred, truth)
    c = coverage_curves(points, space.num_classes, grid=default_grid(cfg.metrics.grid_size))
    write_csv(paths["curves"], ["coverage", "threshold", "risk", "aupr", "auroc"],
              zip(c.coverage, c.threshold, c.risk, c.aupr, c.auroc))
    h = po_histogram(p_o, is_outlier)
    write_csv(paths["histogram"], ["bin_lo", "bin_hi", "inlier_count", "outlier_count"],
              zip(h.bin_edges[:-1], h.bin_edges[1:], h.inlier_counts, h.outlier_counts))

    cfgmod.write_manifest(out_dir, "eval", cfg, _input_digests(pairs, ckpt_path), targets)
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, force: bool, jobs: int) -> int:
    out_dir = Path(cfg.out_dir)
    report_path = out_dir / "gradcheck.csv"
    _check_outputs([report_path], force, cfgmod.manifest_path(out_dir, "gradcheck"))
    results = run_gradient_checks(num_instances=cfg.gradcheck.instances,
                                  max_points=cfg.gradcheck.max_points, seed=cfg.seed)

    rows = [(name, err, worst, GRADCHECK_TOLERANCE,
             "pass" if err <= GRADCHECK_TOLERANCE else "FAIL")
            for name, (err, worst) in results.items()]
    print(f"{'loss':<16} {'max rel error':>14} {'worst seed':>11} result")
    for name, err, worst, _tolerance, verdict in rows:
        print(f"{name:<16} {err:>14.3e} {worst:>11d} {verdict}")
    _make_parents([report_path])
    write_csv(report_path, ["loss", "max_rel_error", "worst_seed", "tolerance", "pass"], rows)
    cfgmod.write_manifest(out_dir, "gradcheck", cfg, {}, [report_path])
    return EXIT_OK if all(row[-1] == "pass" for row in rows) else EXIT_NUMERIC


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
        p.add_argument("--jobs", type=_jobs, default=1,
                       help="parallel scene workers for genscan, synth, eval and "
                            "train's feature extraction; gradcheck ignores it")
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
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
