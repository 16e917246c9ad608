"""The benchmark's contract with the package.

``perfbench/`` constructs, calls and traces package names that a change
here must keep. Its tracer skips a traced name the package no longer
defines, so a deletion would drop that per-layer metric without an error;
it sees only calls made through the module attribute it patches; and its
desk workload builds ``TrainConfig`` and ``LossConfig`` from frozen
recipes. These checks catch all three without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import blob_scenes
from oodlab import cli, model
from oodlab.core import LabelSpace
from oodlab.losses import LossConfig
from oodlab.model import FeatureConfig, TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
desk = _load("desk")


@pytest.mark.parametrize("qualname", spans.TRACED)
def test_traced_name_is_callable(qualname):
    owner, attr = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"oodlab.{owner}"), attr, None))


@pytest.mark.parametrize("mode", desk.MODES)
def test_desk_train_recipe_constructs(mode):
    TrainConfig(seed=1, loss_mode=mode, **desk.TRAIN_RECIPE)


def test_desk_loss_recipe_constructs():
    LossConfig(**desk.LOSS_RECIPE)


@pytest.mark.parametrize("span", spans.CLI_SPANS)
def test_cli_argv_accepted(span):
    # the argv the CLI workload passes to ``cli.main``
    command = span.removeprefix("cli.")
    args = cli.build_parser().parse_args([command, "--config", "c.json", "--force",
                                          "--jobs", "1"])
    assert args.command in cli.COMMANDS and args.jobs == 1


def test_train_extracts_through_the_traced_name(monkeypatch):
    # the tracer wraps ``model.extract_features``; a call that bypassed the
    # module attribute would vanish from the trace
    calls = []
    original = model.extract_features

    def counting(scene, cfg):
        calls.append(scene)
        return original(scene, cfg)

    monkeypatch.setattr(model, "extract_features", counting)
    scenes = blob_scenes()
    model.train(scenes, LabelSpace(2), FeatureConfig(), TrainConfig(epochs=1, loss_mode="ce"),
                LossConfig())
    assert len(calls) == len(scenes)
