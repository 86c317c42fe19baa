"""The benchmark's three workloads and the checks of their outputs.

Each workload turns ``--seed`` into inputs in ``prepare`` (untimed; its wall
time is reported as generator time), then offers one *unit* of timed work,
as a list of stages timed one by one, and a check of the stages' outputs
against the reference stored under ``bench/reference/``:

``ablate``
    one ``sim.run_ablation_suite`` call: 3 scenarios of 150 frames, the four
    motion presets sharing one classification per frame.
``pipeline``
    one ``xmtrack simulate -> track -> eval`` round through ``cli.main``, in
    process, on one 600-frame scenario written to a work directory.
``stream``
    one pass of a live ``TrackerSession`` over a pre-rendered 1000-frame
    sequence; the session classifies every frame itself.

References exist for a fixed pool of inputs per workload; the seed picks
from the pool, so any seed has a reference.  ``make_reference.py``
rebuilds the pool through the batch API, a different path from the one
timed here wherever the program has two.

Import this module only after ``startup.prepare_environment()``.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from xmtrack import cli, ctp, sim, state_switch
from xmtrack import io as xio

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ABLATE_POOL = 128  # suite seeds 0..127
PIPELINE_POOL = 32
PIPELINE_FRAMES = 600
STREAM_POOL = 8
STREAM_FRAMES = 1000
# Boxes are stored rounded to 1e-6 px; anything within 1e-5 px of the
# reference is the same track, a shift of a tenth of a pixel is not.
BOX_TOL_PX = 1e-5
BOX_DECIMALS = 6

# The ablation suites' band/blackout mix, repeated over a long sequence:
# RGB/NIR segments of 25 frames, and two 18-frame blackouts per 150 frames.
SEGMENT = 25
BLOCK = 150
BLACKOUTS = ((55, 73), (110, 128))
SPEED = 4.0
TURN = 0.025  # rad/frame: a 160 px circle that keeps the target in frame
STATE_CODE = {"rgb": "r", "nir": "n", "invalid": "i"}


def mixed_scenario(name: str, frames: int, seed: int):
    """A turning target under the ablation suites' band-switch/blackout mix."""
    rate = TURN if seed % 2 == 0 else -TURN
    start_x = 256.0 - math.copysign(SPEED / TURN, rate)
    schedule = [
        (start, min(frames, start + SEGMENT), "rgb" if k % 2 == 0 else "nir")
        for k, start in enumerate(range(0, frames, SEGMENT))
    ]
    windows = [
        (block + s, block + e)
        for block in range(0, frames, BLOCK)
        for s, e in BLACKOUTS
        if block + e <= frames
    ]
    return sim.Scenario(
        name=name,
        frames=frames,
        initial_box=(start_x, 256.0, 34.0, 34.0),
        velocity=(0.0, -SPEED),
        turn_rate=rate,
        modality_schedule=schedule,
        invalid_windows=windows,
        sigma=2.0,
        switch_radius=2,
        switch_noise_boost=8.0,
        seed=seed,
    )


def pipeline_scenario(index: int):
    return mixed_scenario(f"pipeline-{index}", PIPELINE_FRAMES, 1000 + index)


def stream_scenario(index: int):
    return mixed_scenario(f"stream-{index}", STREAM_FRAMES, 2000 + index)


def ablate_summary(table: dict) -> dict:
    """PR/SR table of one suite plus its two ordering flags (criterion 05)."""
    sr = {preset: table[preset]["SR"] for preset in ("off", "kf", "ekf", "ctp")}
    return {
        "table": table,
        "ordered": sr["ctp"] >= sr["ekf"] >= sr["kf"] >= sr["off"],
        "strict": sr["ctp"] > sr["off"],
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Verdict:
    """Outcome of checking one unit: operations attempted and failed."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


class Ablate:
    name = "ablate"
    unit_label = "suites"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.start = (16 * seed) % ABLATE_POOL
        self.reference = load_reference("ablate")["suites"]
        self.frames_per_unit = sum(sc.frames for sc in sim.ablation_suite(self.start))

    def suite_seed(self, i: int) -> int:
        return (self.start + i) % ABLATE_POOL

    def stages(self, i: int) -> list:
        return [lambda: sim.run_ablation_suite(self.suite_seed(i))]

    def check(self, i: int, outs: list) -> Verdict:
        seed = self.suite_seed(i)
        if ablate_summary(outs[0]) != self.reference[str(seed)]:
            return Verdict(1, 1, [f"suite {seed}: table or ordering differs from reference"])
        return Verdict(1, 0)


class Pipeline:
    name = "pipeline"
    unit_label = "rounds"
    frames_per_unit = PIPELINE_FRAMES

    def prepare(self, seed: int, workdir: Path) -> None:
        index = seed % PIPELINE_POOL
        reference = load_reference("pipeline")
        if reference["frames"] != PIPELINE_FRAMES:
            raise ValueError("pipeline reference was made for another frame count")
        self.reference = reference["eval"][str(index)]
        self.scenario = workdir / "scenario.json"
        self.sequence = workdir / "sequence.jsonl"
        self.trackrun = workdir / "trackrun.json"
        self.metrics = workdir / "metrics"
        xio.save_scenario(self.scenario, pipeline_scenario(index))

    def _main(self, *argv) -> int:
        with contextlib.redirect_stdout(stdio.StringIO()):
            return cli.main([str(a) for a in argv])

    def stages(self, i: int) -> list:
        return [
            lambda: self._main("simulate", self.scenario, "--out", self.sequence),
            lambda: self._main("track", self.sequence, "--out", self.trackrun),
            lambda: self._main("eval", self.trackrun, "--out", self.metrics),
        ]

    def check(self, i: int, exit_codes: list[int]) -> Verdict:
        summary = self.metrics.with_suffix(".json")
        try:
            if exit_codes != [0, 0, 0]:
                return Verdict(1, 1, [f"round {i}: exit codes {exit_codes}"])
            if json.loads(summary.read_text(encoding="utf-8")) != self.reference:
                return Verdict(1, 1, [f"round {i}: eval JSON differs from reference"])
            return Verdict(1, 0)
        finally:
            # A stale file from this round must not pass the next round's check.
            for path in (self.sequence, self.trackrun, summary, self.metrics.with_suffix(".csv")):
                path.unlink(missing_ok=True)


@dataclass
class StreamPass:
    states: list
    boxes: list
    step_s: list[float]


class Stream:
    name = "stream"
    unit_label = "passes"
    frames_per_unit = STREAM_FRAMES - 1  # frame 0 initialises the session

    def prepare(self, seed: int, workdir: Path) -> None:
        index = seed % STREAM_POOL
        reference = load_reference("stream")
        if reference["frames"] != STREAM_FRAMES:
            raise ValueError("stream reference was made for another frame count")
        self.reference = reference["sequences"][str(index)]
        sc = stream_scenario(index)
        seq = sim.generate(sc)
        self.b0 = seq.records[0].gt
        self.size = (sc.frame_width, sc.frame_height)
        self.config = ctp.SessionConfig(
            motion=ctp.MotionModel(ctp.MotionKind.COORDINATED_TURN, turn_rate=sc.turn_rate)
        )
        self.weights = state_switch.separator_switch_weights()
        self.frames = [
            ctp.FrameInput(observed=rec.observed, s=rec.s, image=rec.image)
            for rec in seq.records[1:]
        ]

    def stages(self, i: int) -> list:
        return [self.one_pass]

    def one_pass(self) -> StreamPass:
        session = ctp.TrackerSession(
            self.b0, *self.size, self.config, switch_weights=self.weights
        )
        out = StreamPass([], [], [])
        for frame in self.frames:
            t0 = perf_counter()
            box = session.step(frame)
            out.step_s.append(perf_counter() - t0)
            out.states.append(session.last_decision.state.value)
            out.boxes.append((box.cx, box.cy, box.w, box.h))
        return out

    def check(self, i: int, outs: list) -> Verdict:
        out = outs[0]
        n = len(self.frames)
        want_states = self.reference["states"]
        got_states = "".join(STATE_CODE[s] for s in out.states)
        if len(got_states) != n or len(want_states) != n:
            return Verdict(n, n, [f"pass {i}: {len(got_states)} frames, expected {n}"])
        err = np.abs(np.asarray(out.boxes) - np.asarray(self.reference["boxes"])).max(axis=1)
        bad = sorted(
            {t for t in range(n) if got_states[t] != want_states[t]}
            | set(np.flatnonzero(~(err <= BOX_TOL_PX)).tolist())
        )
        problems = [
            f"pass {i} frame {t + 1}: state {got_states[t]} (want {want_states[t]}), "
            f"box off by {err[t]:.3g} px"
            for t in bad[:3]
        ]
        return Verdict(n, len(bad), problems)


WORKLOADS = {w.name: w for w in (Ablate, Pipeline, Stream)}
