"""The program API the benchmark under ``bench/`` reaches into.

``bench/test_bench.py`` checks that the benchmark's own checks catch faults;
these check the names and calls it takes from ``src/``: every function it
wraps resolves, its set-up probe runs, and its stored stream reference
rebuilds from the current code byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import make_reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRACED = tracing.SPANS + tracing.COUNTERS + tracing.HOT_COUNTERS


@pytest.mark.parametrize("target", TRACED, ids=[name for name, _, _ in TRACED])
def test_every_traced_name_resolves(target):
    _, module, attr = target
    _, _, original = tracing._resolve(module, attr)
    assert callable(original)


def test_setup_probe_runs():
    # As bench/run.py starts it: a fresh interpreter whose last line is JSON.
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "startup.py")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe["setup_s"] > 0


def test_stream_reference_rebuilds_byte_for_byte():
    stored = (workloads.REFERENCE_DIR / "stream.json").read_text(encoding="utf-8")
    rebuilt = json.dumps(make_reference.stream_reference(), sort_keys=True) + "\n"
    # Compared by offset: pytest's own diff of two texts this long takes most of a minute.
    same = len(os.path.commonprefix([rebuilt, stored]))
    assert same == len(rebuilt) == len(stored), f"the rebuilt reference differs from character {same} on"
