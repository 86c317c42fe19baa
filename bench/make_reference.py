"""Rebuild the stored reference outputs in ``bench/reference/``.

The references pin the program's behaviour on every input the benchmark can
draw.  They are computed through the batch Python API, not the timed path:

* ``ablate.json``   ``sim.run_ablation_suite`` table and ordering flags per suite seed
* ``pipeline.json`` ``metrics_summary`` of ``sim.run(sim.generate(scenario))``,
                    which the CLI round must reproduce after its file round trips
* ``stream.json``   per-frame tri-state (``classify_sequence``) and boxes
                    (``sim.run`` with precomputed decisions), which the live
                    session must reproduce frame by frame

Regenerate only when a change is meant to alter tracking output, and say so
in that change:

    python3 bench/make_reference.py [ablate] [pipeline] [stream]
"""

from __future__ import annotations

import json
import sys

import startup

startup.prepare_environment()

import workloads as wl  # noqa: E402
from xmtrack.metrics import metrics_summary  # noqa: E402
from xmtrack.sim import (  # noqa: E402
    HarnessConfig,
    classify_sequence,
    generate,
    run,
    run_ablation_suite,
)


def ablate_reference() -> dict:
    suites = {
        str(seed): wl.ablate_summary(run_ablation_suite(seed)) for seed in range(wl.ABLATE_POOL)
    }
    return {"pool": wl.ABLATE_POOL, "suites": suites}


def pipeline_reference() -> dict:
    evals = {}
    for index in range(wl.PIPELINE_POOL):
        sc = wl.pipeline_scenario(index)
        evals[str(index)] = json.loads(metrics_summary(sc.name, run(generate(sc), HarnessConfig())))
    return {"frames": wl.PIPELINE_FRAMES, "pool": wl.PIPELINE_POOL, "eval": evals}


def stream_reference() -> dict:
    sequences = {}
    for index in range(wl.STREAM_POOL):
        seq = generate(wl.stream_scenario(index))
        decisions = classify_sequence(seq)
        track = run(seq, HarnessConfig(motion="ctp"), decisions)
        sequences[str(index)] = {
            "states": "".join(wl.STATE_CODE[d.state.value] for d in decisions[1:]),
            "boxes": [
                [round(v, wl.BOX_DECIMALS) for v in (b.cx, b.cy, b.w, b.h)]
                for b in track.pred[1:]
            ],
        }
    return {
        "frames": wl.STREAM_FRAMES,
        "pool": wl.STREAM_POOL,
        "box_tol_px": wl.BOX_TOL_PX,
        "sequences": sequences,
    }


MAKERS = {
    "ablate": ablate_reference,
    "pipeline": pipeline_reference,
    "stream": stream_reference,
}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MAKERS]
    if unknown:
        print(f"unknown reference(s): {unknown}; choose from {sorted(MAKERS)}", file=sys.stderr)
        return 2
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(MAKERS):
        path = wl.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(MAKERS[name](), sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
