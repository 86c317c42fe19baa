"""The benchmark's own tests: its output checks catch planted faults.

Run from the repository root (not part of the tier-1 suite, which collects
``tests/`` only; these take about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import startup

startup.prepare_environment()

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xmtrack import cli, ctp, sim  # noqa: E402
from xmtrack.state_switch import TriState  # noqa: E402

PLANTED_FRAME = 100


def run_once(w, tracer=None) -> run.Tally:
    tally = run.Tally()
    run.run_unit(w, 0, tally, calibrate.SpeedGauge(), tracer)
    return tally


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    w = workloads.Stream()
    w.prepare(0, tmp_path_factory.mktemp("stream"))
    return w


def test_stream_matches_reference(stream):
    tally = run_once(stream)
    assert (tally.attempted, tally.failed) == (stream.frames_per_unit, 0)
    assert len(tally.step_s) == stream.frames_per_unit


def test_flipped_decision_counts_as_one_failed_frame(stream, monkeypatch):
    planted_image = stream.frames[PLANTED_FRAME].image
    classify = ctp.classify

    def flip_one(img, *args):
        decision = classify(img, *args)
        if img is planted_image:
            flipped = TriState.NIR if decision.state == TriState.RGB else TriState.RGB
            decision = dataclasses.replace(decision, state=flipped)
        return decision

    monkeypatch.setattr(ctp, "classify", flip_one)
    tally = run_once(stream)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0  # error_rate
    assert tally.unit_s == []  # a failed pass is never reported as a speed


def test_shifted_box_counts_as_one_failed_frame(stream, monkeypatch):
    planted = stream.frames[PLANTED_FRAME]
    step = ctp.TrackerSession.step

    def shift_one(self, frame):
        box = step(self, frame)
        return dataclasses.replace(box, cx=box.cx + 0.1) if frame is planted else box

    monkeypatch.setattr(ctp.TrackerSession, "step", shift_one)
    tally = run_once(stream)
    assert tally.failed == 1
    assert "box off by 0.1" in tally.problems[0]


def test_ablate_counts_one_changed_hit(tmp_path, monkeypatch):
    w = workloads.Ablate()
    w.prepare(0, tmp_path)
    assert run_once(w).failed == 0
    suite = sim.run_ablation_suite

    def one_more_hit(seed):
        table = suite(seed)
        table["kf"]["SR"] += 100.0 / w.frames_per_unit
        return table

    monkeypatch.setattr(sim, "run_ablation_suite", one_more_hit)
    tally = run_once(w)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_pipeline_counts_bad_exit_and_bad_eval(tmp_path, monkeypatch):
    w = workloads.Pipeline()
    w.prepare(0, tmp_path)
    assert run_once(w).failed == 0

    with monkeypatch.context() as m:
        m.setitem(cli.COMMANDS, "track", lambda args: cli.EXIT_DATA)
        tally = run_once(w)
        assert tally.failed == 1 and "exit codes [0, 2, 2]" in tally.problems[0]

    summary = cli.metrics_summary
    monkeypatch.setattr(cli, "metrics_summary", lambda name, tr: summary(name + "x", tr))
    tally = run_once(w)
    assert tally.failed == 1 and "eval JSON differs" in tally.problems[0]


def test_tracer_counts_repeat_and_bindings_are_restored(stream):
    tracer = tracing.Tracer()
    step, classify = ctp.TrackerSession.step, ctp.classify
    per_unit = []
    for _ in range(2):
        wall, _ = run.run_unit(stream, 0, run.Tally(), calibrate.SpeedGauge(), tracer)
        per_unit.append(tracer.unit_metrics(wall))
    assert ctp.TrackerSession.step is step and ctp.classify is classify
    counts = [
        {k: m[k] for k, unit in tracing.LAYER_METRICS if unit == "count"} for m in per_unit
    ]
    assert counts[0] == counts[1]
    states = stream.reference["states"]
    assert counts[0]["state_switch.decisions.rgb"] == states.count("r")
    assert counts[0]["state_switch.decisions.invalid"] == states.count("i")
    assert counts[0]["ctp.inflate_Q.calls"] == states.count("i")
    assert counts[0]["sim.render_frame.calls"] == 0
    assert 0 <= per_unit[0]["harness.self_s"] < 0.1 * per_unit[0]["harness.unit_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(startup.ROOT / "bench", tmp_path / "bench")
    shutil.copy(startup.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ablate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".bench_out").exists()
