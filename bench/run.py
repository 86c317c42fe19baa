"""xmtrack benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload {ablate,pipeline,stream} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed 0 --seconds 30

Untraced (``--trace 0``) it reports the end-to-end metrics; traced
(``--trace 1``) it reports the per-layer metrics of ``tracing.LAYER_METRICS``
and writes the spans to ``.bench_out/``.  Every unit of work is checked
against the stored reference; a unit that fails counts in ``failed`` and
never as a speed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints every metric with its
unit and sample count.

Seed 7 is held out: tune on other seeds, and make any performance claim
hold on seed 7 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import startup

SETUP_PROBES = 7
# The end-to-end metrics of BENCHMARK.json, which a result line carries.
END_TO_END = (
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
OUT_DIR = startup.ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("ablate", "pipeline", "stream", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Tally:
    """Operations attempted and failed, and timings of the units that passed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)  # scaled to reference speed
    raw_unit_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)  # stream step latencies, scaled


def run_unit(w, i: int, tally: Tally, gauge, tracer=None) -> tuple[float, float]:
    """Time unit ``i`` of workload ``w`` (traced if a tracer is given) and check it.

    The calibration kernel runs after every stage, outside the timed region,
    and each stage is scaled by its own factor.  Returns the unit's raw and
    scaled wall time.
    """
    from workloads import Verdict  # only after prepare_environment() has run

    outs, raw, scaled, error = [], 0.0, 0.0, None
    for stage in w.stages(i):
        with tracer.installed(fresh=not outs) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outs.append(stage())
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            wall = time.perf_counter() - t0
        factor = gauge.factor()
        raw += wall
        scaled += wall * factor
        if error is not None:
            break
    if error is not None:
        n = w.frames_per_unit if w.name == "stream" else 1
        verdict = Verdict(n, n, traceback.format_exception_only(error)[-1:])
    else:
        verdict = w.check(i, outs)
    tally.attempted += verdict.attempted
    tally.failed += verdict.failed
    tally.problems.extend(verdict.problems)
    if verdict.failed == 0:
        tally.raw_unit_s.append(raw)
        tally.unit_s.append(scaled)
        if w.name == "stream":
            tally.step_s.extend(s * scaled / raw for s in outs[0].step_s)
    return raw, scaled


def median(xs):
    return statistics.median(xs) if xs else 0.0


def frame_ms(w, tally: Tally) -> tuple[float, float, str]:
    """p50 and p99 of per-frame latency, and a note of the samples behind them.

    On ``stream`` every step is a sample.  Elsewhere a unit's time per frame
    is the sample, so p99 is close to the slowest unit.
    """
    import numpy as np

    if w.name == "stream":
        samples, label = [s * 1e3 for s in tally.step_s], "steps"
    else:
        samples, label = [s * 1e3 / w.frames_per_unit for s in tally.unit_s], w.unit_label
    if not samples:
        return 0.0, 0.0, "n=0"
    p50, p99 = np.percentile(samples, [50, 99])
    beyond = sum(s > p99 for s in samples)
    return float(p50), float(p99), f"n={len(samples)} {label}, {beyond} beyond p99"


def probe_setup(n: int) -> tuple[list[float], list[float]]:
    """Set-up time of ``n`` fresh interpreters (see startup.py): scaled and raw."""
    scaled, raw = [], []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(startup.__file__))],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * calibrate.REFERENCE_S / probe["kernel_s"])
    return scaled, raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_record() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (startup.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "--git-dir", str(startup.ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    blas = None
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {var: os.environ.get(var) for var in startup.THREAD_ENV},
        "git_commit": commit,
    }


def untraced(w, args, gen_s: float):
    setup, raw_setup = probe_setup(SETUP_PROBES)
    gauge = calibrate.SpeedGauge()
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        run_unit(w, i, tally, gauge)
        i += 1
        if time.perf_counter() >= deadline:
            break
    p50, p99, note = frame_ms(w, tally)
    metrics = {
        "frames_per_s": w.frames_per_unit / median(tally.unit_s) if tally.unit_s else 0.0,
        "frame_ms_p50": p50,
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = dict(END_TO_END)
    rows = [
        ("frames_per_s", f"n={len(tally.unit_s)} {w.unit_label} x {w.frames_per_unit} frames"),
        ("frame_ms_p50", note),
        ("frame_ms_p99", note + "; printed, not gated"),
        ("setup_s", f"n={len(setup)} interpreters"),
        ("peak_rss_mb", "n=1 process"),
    ]
    shown = {**metrics, "frame_ms_p99": p99}
    lines = [f"{name:14s} {shown[name]:12.4f} {units.get(name, 'ms'):9s} ({n})" for name, n in rows]
    raw_fps = w.frames_per_unit / median(tally.raw_unit_s) if tally.raw_unit_s else 0.0
    lines.append(
        f"raw wall time: {raw_fps:.4f} frames/s, setup {median(raw_setup):.4f} s; "
        f"host speed factor median {median(gauge.factors):.3f}"
    )
    extra = {
        "frame_ms_p99": p99,
        "input_gen_s": gen_s,
        "setup_s_scaled": setup,
        "setup_s_raw": raw_setup,
        "unit_s_scaled": tally.unit_s,
        "unit_s_raw": tally.raw_unit_s,
        "kernel_s": gauge.samples,
    }
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, lines, extra


def traced(w, args, gen_s: float):
    """Repeat one fixed unit untraced, traced, and counting hot calls, until time is up."""
    from tracing import HOT_COUNTERS, LAYER_METRICS, Tracer

    units = dict(LAYER_METRICS)
    tracer = Tracer()
    hot = Tracer(spans=(), counters=HOT_COUNTERS)
    gauge = calibrate.SpeedGauge()
    plain, tally, counting = Tally(), Tally(), Tally()
    per_unit, spans = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        run_unit(w, 0, plain, gauge)
        raw, scaled = run_unit(w, 0, tally, gauge, tracer)
        row = {k: v * scaled / raw if units[k] == "s" else v
               for k, v in tracer.unit_metrics(raw).items()}
        spans.append({"unit": len(spans), "wall_s": raw, "spans": tracer.span_records()})
        run_unit(w, 0, counting, gauge, hot)
        row.update({f"{name}.calls": float(hot.counts[f"{name}.calls"]) for name, _, _ in HOT_COUNTERS})
        per_unit.append(row)
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [row[name] for row in per_unit]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                tally.failed += 1
                tally.problems.append(f"{name} differs between repeats of one unit: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    metrics["harness.input_gen_s"] = gen_s
    if w.name == "stream":
        base, slowed = frame_ms(w, plain)[0], frame_ms(w, tally)[0]
    else:
        base, slowed = median(plain.unit_s), median(tally.unit_s)
    metrics["trace.overhead"] = slowed / base - 1.0 if base else 0.0
    for other in (plain, counting):
        tally.attempted += other.attempted
        tally.failed += other.failed
        tally.problems.extend(other.problems)
    lines = [f"{name:34s} {metrics[name]:14.6g} {units[name]}" for name in metrics]
    lines.append(
        f"(medians over {len(per_unit)} traced, {len(per_unit)} counting and "
        f"{len(plain.unit_s)} untraced {w.unit_label})"
    )
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, lines, {"spans": spans}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{label}-{os.getpid()}"
    workdir.mkdir()
    try:
        startup.setup(args.seed)
        w = WORKLOADS[args.workload]()
        t0 = time.perf_counter()
        w.prepare(args.seed, workdir)
        gen_s = time.perf_counter() - t0
        measure = traced if args.trace else untraced
        tally, metrics, lines, extra = measure(w, args, gen_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    record = run_record()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"input generation {gen_s:.3f} s (not in any timed metric)")
    for line in lines:
        print(line)
    print(f"error_rate     {error_rate:12.4f} fraction  ({tally.failed}/{tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    (OUT_DIR / f"run-{label}.json").write_text(
        json.dumps(
            {"record": record, "metrics": metrics, "error_rate": error_rate,
             "problems": tally.problems, **extra},
            sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("ablate", "pipeline", "stream"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        startup.prepare_environment()
    except startup.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
