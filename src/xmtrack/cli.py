"""Command-line front end.

Subcommands: simulate, track, eval, ablate, gradcheck.  Exit codes are a
stable contract: 0 success, 1 usage error, 2 data error (missing/malformed
files, non-finite boxes or confidences in a sequence, or a filter config
whose innovation covariance degenerates on the data: FilterDegenerateError),
3 property-check failure (gradcheck threshold exceeded).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as xio
from .core import dump_json
from .ctp import FilterDegenerateError
from .metrics import metrics_csv, metrics_summary
from .sim import (
    HarnessConfig,
    MOTION_PRESETS,
    generate,
    preset_config,
    run,
    run_ablation_suite,
)
from .state_switch import classify_stack, separator_switch_weights
from .verify import GRAD_TOL, gradient_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPERTY = 3


class _Parser(argparse.ArgumentParser):
    # No abbreviations: an option is given by its whole name or not at all.
    # The subparsers are built from this class too.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xmtrack",
        description="Cross-modal tracking toolkit: simulate, track, evaluate, ablate.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser("simulate", help="render a scenario into a sequence file")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output sequence (.jsonl), pixels to <out>.npy")

    p_trk = sub.add_parser("track", help="run the tracking pipeline on a sequence")
    p_trk.add_argument("sequence", help="sequence file from `simulate`")
    p_trk.add_argument("--out", required=True, help="output track-run JSON")
    p_trk.add_argument("--motion", choices=MOTION_PRESETS, default="ctp", help="motion configuration")
    p_trk.add_argument("--config", default=None, help="filter config JSON overlaid on the preset")

    p_eval = sub.add_parser("eval", help="compute PR/SR metrics for a track run")
    p_eval.add_argument("trackrun", help="track-run JSON from `track`")
    p_eval.add_argument("--out", required=True, help="output prefix (writes .csv and .json)")

    p_abl = sub.add_parser("ablate", help="motion-model ablation over seeded suites")
    p_abl.add_argument("--suites", type=int, default=50, help="number of seeded suites")
    p_abl.add_argument("--seed", type=int, default=0, help="base seed of the first suite")
    p_abl.add_argument("--out", required=True, help="output table JSON")

    p_grad = sub.add_parser("gradcheck", help="central-difference check of every differentiable op")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument(
        "--inject-bug",
        action="store_true",
        help="deliberately corrupt one gradient (self-test of the checker)",
    )

    return parser


def cmd_simulate(args) -> int:
    sc = xio.load_scenario(args.scenario)
    with xio.frame_writer(args.out, sc) as write:  # the pixels go to the .npy as they render
        xio.save_sequence(args.out, generate(sc, write))
    print(f"wrote {sc.frames} frames to {args.out} and {xio.frames_path(args.out)}")
    return EXIT_OK


def cmd_track(args) -> int:
    seq = xio.load_sequence(args.sequence)
    # One filter config: the --motion preset, overlaid by the keys the --config file sets.
    session = preset_config(args.motion, seq.scenario.turn_rate)
    if args.config is not None:
        session = xio.load_session_config(args.config, session)
    weights, chunks = separator_switch_weights(), xio.frame_chunks(args.sequence, seq.scenario)
    decisions = [d for chunk in chunks for d in classify_stack(chunk, weights, session.rho)]  # chunk by chunk
    tr = run(seq, HarnessConfig(args.motion, session), decisions)
    xio.save_trackrun(args.out, seq.scenario.name, tr)
    print(f"wrote track run ({len(tr)} frames, motion={args.motion}) to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    name, tr = xio.load_trackrun(args.trackrun)
    # Appended to the prefix string: run.v1 keeps its last segment, and "out/" names out/.csv.
    csv_path, json_path = (Path(args.out + ext) for ext in (".csv", ".json"))
    csv_path.write_text(metrics_csv(name, tr), encoding="utf-8")
    json_path.write_text(metrics_summary(name, tr), encoding="utf-8")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    if args.suites <= 0:
        print("xmtrack ablate: error: need at least one suite", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("xmtrack ablate: error: --seed must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for base_seed in range(args.seed, args.seed + args.suites):
        table = run_ablation_suite(base_seed)
        rows.append({"seed": base_seed, "results": table})
    ordered = sum(
        1
        for r in rows
        if r["results"]["ctp"]["SR"]
        >= r["results"]["ekf"]["SR"]
        >= r["results"]["kf"]["SR"]
        >= r["results"]["off"]["SR"]
    )
    strict = sum(1 for r in rows if r["results"]["ctp"]["SR"] > r["results"]["off"]["SR"])
    payload = {
        "suites": rows,
        "ordering_fraction": ordered / len(rows),
        "strict_ctp_over_off_fraction": strict / len(rows),
    }
    Path(args.out).write_text(dump_json(payload) + "\n", encoding="utf-8")
    print(
        f"{args.suites} suites: ordering holds on {ordered}/{len(rows)}, "
        f"ctp beats off on {strict}/{len(rows)}; wrote {args.out}"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        print("xmtrack gradcheck: error: --seed must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    report = gradient_report(seed=args.seed, inject_bug=args.inject_bug)
    worst_name = max(report, key=report.get)
    for name, err in report.items():
        status = "ok" if err < GRAD_TOL else "FAIL"
        print(f"{name:12s} max rel err {err:.3e}  {status}")
    if report[worst_name] >= GRAD_TOL:
        print(f"gradcheck FAILED: {worst_name} at {report[worst_name]:.3e} >= {GRAD_TOL}")
        return EXIT_PROPERTY
    print(f"all {len(report)} ops below {GRAD_TOL}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "track": cmd_track,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits (usage error, or --help)
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("xmtrack: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (xio.DataError, OSError) as exc:
        print(f"xmtrack {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FilterDegenerateError as exc:
        print(f"xmtrack {args.command}: filter degenerated: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
