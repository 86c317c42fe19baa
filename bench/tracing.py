"""Spans and counters around xmtrack's public functions, from outside the program.

Installing a ``Tracer`` rebinds each traced function wherever an xmtrack
module holds it (``from .x import f`` copies the binding into every
importer, and ``cli.COMMANDS`` holds the subcommands), and the traced
methods on their classes.  Leaving the ``installed()`` block restores every
binding.  Nothing under ``src/`` changes.

A span records name, start, end and the index of the enclosing span; the
top-level span of a chain identifies it (one suite, one CLI command, one
frame step).  Spans and counts stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute or Class.method)
SPANS = (
    ("sim.run_ablation_suite", "xmtrack.sim", "run_ablation_suite"),
    ("sim.generate", "xmtrack.sim", "generate"),
    ("sim.render_frame", "xmtrack.sim", "render_frame"),
    ("sim.stub_tracker", "xmtrack.sim", "stub_tracker"),
    ("sim.classify_sequence", "xmtrack.sim", "classify_sequence"),
    ("sim.run", "xmtrack.sim", "run"),
    ("state_switch.classify", "xmtrack.state_switch", "classify"),
    ("state_switch.is_over_exposed", "xmtrack.state_switch", "is_over_exposed"),
    ("state_switch.spatial_branch", "xmtrack.state_switch", "spatial_branch"),
    ("state_switch.spectral_branch", "xmtrack.state_switch", "spectral_branch"),
    ("state_switch.modality_weight", "xmtrack.state_switch", "modality_weight"),
    ("adapter.apply_stack", "xmtrack.adapter", "apply_stack"),
    ("ctp.step", "xmtrack.ctp", "TrackerSession.step"),
    ("ctp.ctp_update", "xmtrack.ctp", "ctp_update"),
    ("ctp.ctp_predict", "xmtrack.ctp", "ctp_predict"),
    ("metrics.tag_breakdown", "xmtrack.metrics", "tag_breakdown"),
    ("io.save_sequence", "xmtrack.io", "save_sequence"),
    ("io.load_sequence", "xmtrack.io", "load_sequence"),
    ("io.save_trackrun", "xmtrack.io", "save_trackrun"),
    ("io.load_trackrun", "xmtrack.io", "load_trackrun"),
    ("cli.simulate", "xmtrack.cli", "cmd_simulate"),
    ("cli.track", "xmtrack.cli", "cmd_track"),
    ("cli.eval", "xmtrack.cli", "cmd_eval"),
)

# Cheap enough that a span each would swamp what it measures: counted only.
COUNTERS = (
    ("ctp.inflate_Q", "xmtrack.ctp", "inflate_Q"),
    ("metrics.cle", "xmtrack.metrics", "cle"),
    ("metrics.iou", "xmtrack.metrics", "iou"),
)

# 742k schedule queries per ablation suite: even a counting wrapper adds
# ~50% to the suite, so these are counted in a separate, untimed repeat.
HOT_COUNTERS = (
    ("sim.scheduled_modality", "xmtrack.sim", "Scenario.scheduled_modality"),
    ("sim.near_switch", "xmtrack.sim", "Scenario.near_switch"),
)

# Every per-layer metric a traced run reports, with its unit.  A layer that
# does no work on a workload reports 0.  "<span>.calls", "<span>.s" (busy
# time) and "<span>.self_s" (busy time minus child spans) are read off the
# spans and counters; the rest are derived in ``unit_metrics`` or by the
# caller (harness.input_gen_s, trace.overhead).
LAYER_METRICS = (
    ("sim.run_ablation_suite.self_s", "s"),
    ("sim.generate.s", "s"),
    ("sim.render_frame.calls", "count"),
    ("sim.render_frame.s", "s"),
    ("sim.stub_tracker.s", "s"),
    ("sim.scheduled_modality.calls", "count"),
    ("sim.near_switch.calls", "count"),
    ("sim.run.s", "s"),
    ("sim.run.self_s", "s"),
    ("state_switch.classify.calls", "count"),
    ("state_switch.classify.s", "s"),
    ("state_switch.is_over_exposed.s", "s"),
    ("state_switch.spatial_branch.s", "s"),
    ("state_switch.spectral_branch.s", "s"),
    ("state_switch.modality_weight.s", "s"),
    ("state_switch.decisions.rgb", "count"),
    ("state_switch.decisions.nir", "count"),
    ("state_switch.decisions.invalid", "count"),
    ("adapter.apply_stack.calls", "count"),
    ("adapter.apply_stack.s", "s"),
    ("adapter.adapted_ratio", "ratio"),
    ("ctp.step.calls", "count"),
    ("ctp.step.s", "s"),
    ("ctp.step.self_s", "s"),
    ("ctp.ctp_update.calls", "count"),
    ("ctp.ctp_update.s", "s"),
    ("ctp.ctp_predict.s", "s"),
    ("ctp.inflate_Q.calls", "count"),
    ("metrics.cle.calls", "count"),
    ("metrics.iou.calls", "count"),
    ("metrics.tag_breakdown.s", "s"),
    ("io.save_sequence.s", "s"),
    ("io.load_sequence.s", "s"),
    ("io.sequence_bytes", "bytes"),
    ("io.save_trackrun.s", "s"),
    ("io.load_trackrun.s", "s"),
    ("cli.simulate.s", "s"),
    ("cli.track.s", "s"),
    ("cli.eval.s", "s"),
    ("harness.unit_s", "s"),
    ("harness.self_s", "s"),
    ("harness.input_gen_s", "s"),
    ("trace.overhead", "ratio"),
)


def _resolve(module: str, attr: str):
    """(owner, name, original) for a module function or a Class.method."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the given span and counter wrappers; ``Tracer()`` is the timed kind."""

    def __init__(self, spans=SPANS, counters=COUNTERS):
        self.span_targets = spans
        self.counter_targets = counters
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_classify(self, args, decision):
        self.counts[f"state_switch.decisions.{decision.state.value}"] += 1

    def _after_apply_stack(self, args, out):
        f_sr = args[0]
        if out is not f_sr and (out != f_sr).any():
            self.counts["adapter.adapted"] += 1

    def _after_save_sequence(self, args, out):
        self.counts["io.sequence_bytes"] += os.path.getsize(args[0])

    # -- installation ---------------------------------------------------

    def _rebind(self, module, attr, wrapper):
        owner, name, original = _resolve(module, attr)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._restore.append((setattr, owner, name, original))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "xmtrack" and not mod_name.startswith("xmtrack."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((setattr, mod, key, original))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
                            self._restore.append((dict.__setitem__, value, k, original))

    @contextlib.contextmanager
    def installed(self, fresh: bool = True):
        """Wrappers in place for the block; ``fresh`` starts a new unit of work."""
        if fresh:
            self.spans.clear()
            self.counts.clear()
            self._stack.clear()
        after = {
            "state_switch.classify": self._after_classify,
            "adapter.apply_stack": self._after_apply_stack,
            "io.save_sequence": self._after_save_sequence,
        }
        try:
            for name, module, attr in self.span_targets:
                original = _resolve(module, attr)[2]
                self._rebind(module, attr, self._span(name, original, after.get(name)))
            for name, module, attr in self.counter_targets:
                self._rebind(module, attr, self._counter(name, _resolve(module, attr)[2]))
            yield self
        finally:
            for setter, owner, key, original in reversed(self._restore):
                setter(owner, key, original)
            self._restore.clear()

    # -- reduction ------------------------------------------------------

    def unit_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the unit just traced (all LAYER_METRICS but the caller's)."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[i]
        out = {}
        for metric, _unit in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = float(calls[span] or self.counts[metric])
            elif kind == "s":
                out[metric] = busy[span]
            elif kind == "self_s":
                out[metric] = own[span]
            elif metric in self.counts:
                out[metric] = float(self.counts[metric])
            else:
                out[metric] = 0.0
        out["adapter.adapted_ratio"] = (
            self.counts["adapter.adapted"] / calls["adapter.apply_stack"]
            if calls["adapter.apply_stack"]
            else 0.0
        )
        out["harness.unit_s"] = wall_s
        out["harness.self_s"] = wall_s - top
        return out

    def span_records(self) -> list[list]:
        """Spans of the unit just traced, times relative to its first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(start - t0, 9), round(end - t0, 9), parent]
            for name, start, end, parent in self.spans
        ]
