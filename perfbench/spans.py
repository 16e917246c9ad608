"""Span tracing of oodlab's public functions, from outside the package.

While a ``Tracer`` is active, each traced function is replaced, in every
oodlab module that binds it, by a wrapper that records a span (name, start,
end, parent) plus a few work counters. Spans stay in memory; ``totals``
folds them into additive per-layer quantities when a phase ends. A traced
name the package no longer defines is skipped, so its metrics are absent
rather than an error.

The tracer keeps one span stack, so it assumes the traced code runs on one
thread (every workload runs with ``--jobs 1``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

MODULES = ("core", "io", "losses", "model", "metrics", "synthesis", "config", "cli")

TRACED = (
    "losses.total_loss", "losses.abstain_loss", "losses.penalty_loss",
    "losses.dynamic_penalty_loss", "losses.cce_loss", "losses.softmax_head",
    "losses.compute_alpha",
    "model.train", "model.backward", "model.forward", "model.extract_features",
    "model.save_checkpoint", "model.load_checkpoint",
    "metrics.coverage_curves", "metrics.aupr", "metrics.auroc", "metrics.miou_old",
    "metrics.threshold_for_coverage", "metrics.po_histogram",
    "synthesis.synthesize_scene", "synthesis.merge_spherical",
    "synthesis.window_min_radius", "synthesis.resize_existing", "synthesis.place_object",
    "io.generate_scan", "io.read_scene", "io.write_scene", "io.load_asset_dir",
    "config.file_digest", "config.write_manifest",
)

# spans the benchmark itself records around each ``oodlab.cli.main`` call
CLI_SPANS = ("cli.genscan", "cli.synth", "cli.train", "cli.eval")


def _size(path) -> int:
    return os.path.getsize(path)


def _rays(cfg) -> int:
    # one ray per (beam, azimuth step), as io.generate_scan casts them
    return len(cfg.beam_elevations) * int(math.tau / cfg.azimuth_step + 1e-9)


# name -> fn(bound arguments, return value) -> {counter: amount}
COUNTERS = {
    "model.forward": lambda a, out: {"points": len(a["features"])},
    "model.extract_features": lambda a, out: {"points": a["scene"].num_points},
    "io.generate_scan": lambda a, out: {"rays": _rays(a["cfg"])},
    "io.read_scene": lambda a, out: {
        "bytes": _size(a["path_points"]) + _size(a["path_labels"])},
    "io.write_scene": lambda a, out: {
        "bytes": _size(a["path_points"]) + _size(a["path_labels"])},
    "config.file_digest": lambda a, out: {"bytes": _size(a["path"])},
    "synthesis.merge_spherical": lambda a, out: {"relabelled": out[1].indices.size},
    "synthesis.resize_existing": lambda a, out: {"relabelled": len(out[1])},
}


def mode_tag(loss_mode: str) -> str:
    """Metric-name form of a loss mode: "abstain+static" -> "abstain_static"."""
    return loss_mode.replace("+", "_")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    mode: str | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that patches the traced functions while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._mode: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.present = set(CLI_SPANS)
        self.active = False

    def __enter__(self):
        self.active = True
        modules = [importlib.import_module("oodlab")]
        modules += [importlib.import_module(f"oodlab.{m}") for m in MODULES]
        for qualname in TRACED:
            owner, attr = qualname.split(".")
            original = getattr(importlib.import_module(f"oodlab.{owner}"), attr, None)
            if original is None:
                continue
            self.present.add(qualname)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        self.active = False
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        return False

    @contextlib.contextmanager
    def span(self, name: str, mode: str | None = None):
        """Record a span around a block while the tracer is active; nested
        traced calls become its children."""
        if not self.active:
            yield None
            return
        outer = self._mode
        if mode is not None:
            self._mode = mode
        sp = Span(name, 0.0, self._stack[-1] if self._stack else None, self._mode)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._mode = outer
            if sp.parent is not None:
                self.spans[sp.parent].child_s += sp.end - sp.start

    def _wrap(self, qualname, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(qualname)
        is_train = qualname == "model.train"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is None and not is_train:
                with self.span(qualname):
                    return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            mode = None
            if is_train:
                mode = mode_tag(getattr(bound.get("train_cfg"), "loss_mode", "unknown"))
            with self.span(qualname, mode) as sp:
                out = fn(*args, **kwargs)
            if counter is not None:
                try:
                    sp.counts = counter(bound, out)
                except (KeyError, AttributeError, TypeError, IndexError):
                    pass  # the signature changed; the counter reads as absent
            return out

        return traced

    def totals(self) -> dict[str, float]:
        """Additive totals of the spans recorded so far, then forget them.

        Keys: ``<name>.s`` (busy time), ``<name>.self_s`` (busy time minus
        traced children), ``<name>.calls``, ``<name>.<counter>``,
        ``<name>.<mode>.s`` for training spans, and ``<name>.abstain_calls``
        for calls made while an abstain-mode ``train`` was running.
        """
        out: dict[str, float] = {}

        def add(key, amount):
            out[key] = out.get(key, 0.0) + amount

        for sp in self.spans:
            dt = sp.end - sp.start
            add(f"{sp.name}.s", dt)
            add(f"{sp.name}.self_s", dt - sp.child_s)
            add(f"{sp.name}.calls", 1)
            for key, amount in sp.counts.items():
                add(f"{sp.name}.{key}", amount)
            if sp.name == "model.train":
                add(f"{sp.name}.{sp.mode}.s", dt)
            if sp.mode is not None and sp.mode.startswith("abstain"):
                add(f"{sp.name}.abstain_calls", 1)
        self.spans.clear()
        return out


def layer_metrics(totals: dict[str, float], names, present) -> dict[str, float]:
    """The per-layer metrics in ``names`` that ``totals`` can give.

    Busy times, calls and counters are read directly; the ratios are
    derived from their parts. A metric of a traced function that is not in
    ``present`` (the package no longer defines it) is left out; a present
    function that ran zero times reads 0.
    """
    ratios = {
        "losses.compute_alpha.calls_per_step": (
            "losses.compute_alpha.abstain_calls", "model.backward.abstain_calls"),
        "synthesis.merge_yield": (
            "synthesis.merge_spherical.calls", "synthesis.place_object.calls"),
    }
    sums = {
        "synthesis.points_relabelled": (
            "synthesis.merge_spherical.relabelled", "synthesis.resize_existing.relabelled"),
    }

    def known(key):
        return key.rsplit(".", 1)[0] in present or key.rsplit(".", 2)[0] in present

    out = {}
    for name in names:
        parts = ratios.get(name) or sums.get(name) or (name,)
        if not all(known(p) for p in parts):
            continue
        values = [totals.get(p, 0.0) for p in parts]
        if name in ratios:
            out[name] = values[0] / values[1] if values[1] else 0.0
        else:
            out[name] = sum(values)
    return out
