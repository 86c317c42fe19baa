"""Acceptance gate: eleven verifiable criteria, one test (and one printed
pass/fail line) per criterion.  Tolerances and runtime budgets are pinned
here and nowhere else; any relaxation is a contract change.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import kalman_oracle as oracle
from xmtrack.adapter import AdapterLayerWeights, adapter_pair, layer_gate, random_adapter_weights
from xmtrack.cli import main
from xmtrack.ctp import (
    BBox,
    FilterBank,
    SessionConfig,
    ctp_predict,
    ctp_update,
    inflate_Q,
    reliability,
    turn_transition,
)
from xmtrack.io import save_scenario
from xmtrack.losses import EpochSchedule, modality_pair, tracking_loss
from xmtrack.metrics import TrackRun, cle, iou, precision_rate, success_rate
from xmtrack.sim import HarnessConfig, Scenario, classify_sequence, generate, run, run_ablation_suite
from xmtrack.state_switch import Image, TriState, is_over_exposed
from xmtrack.verify import GRAD_TOL, gradient_report


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------


def test_criterion_01_kalman_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    trials = []  # (x, P, Q, R, z, r, omega) per trial, stepped as one stack below
    for _ in range(200):
        a = rng.normal(size=(8, 8))
        p = a @ a.T + np.eye(8)
        q = np.diag(rng.uniform(0.01, 1.0, size=8))
        r_mat = np.diag(rng.uniform(0.5, 8.0, size=4))
        x = rng.normal(scale=50.0, size=8)
        z = rng.normal(scale=50.0, size=4)
        rel = float(rng.uniform(1e-3, 1.0))
        omega = float(rng.uniform(-0.1, 0.1))
        trials.append((x, p, q, r_mat, z, rel, omega))
    x, p, q, r_mat, z, rel, omega = (np.array(col) for col in zip(*trials))
    f = np.stack([turn_transition(w) for w in omega.tolist()])
    got_ux, got_up = ctp_update(x, p, r_mat, rel, z)
    got_px, got_pp = ctp_predict(x, p, f, q)
    worst = 0.0
    for b in range(len(trials)):
        want_x, want_p = oracle.update(x[b], p[b], z[b], r_mat[b], rel[b])
        worst = max(worst, np.abs(got_ux[b] - want_x).max(), np.abs(got_up[b] - want_p).max())
        want_x2, want_p2 = oracle.predict(x[b], p[b], oracle.turn_matrix(omega[b]), q[b])
        worst = max(worst, np.abs(got_px[b] - want_x2).max(), np.abs(got_pp[b] - want_p2).max())
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"200 update+predict trials, max |dev| {worst:.3e} (< 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_reliability_formula_exactness():
    exact_point = reliability(0.8, 1.0) == 0.8
    grid_floor = all(
        reliability(float(s), 0.5) == 1e-3 for s in np.linspace(0.0, 1.0, 100)
    )
    _report(
        2,
        exact_point and grid_floor,
        "r(0.8, 1.0) == 0.8 exactly; r(s, 0.5) == 1e-3 on the full 100-point grid",
    )


def test_criterion_03_q_inflation_schedule():
    # A one-row bank with the default theta 1.5 and cap 10 predicts through
    # each invalid frame with the inflated Q, and through a valid one with Q_base.
    bank = FilterBank([BBox(100, 100, 30, 30)], [(512.0, 512.0)], [SessionConfig()])
    q_base = bank.Q_base
    ok = True
    for k in range(1, 12):
        expected = min(1.5**k, 10.0) * q_base
        x, p = bank.x, bank.P
        bank.step(np.array([False]), None, None)
        ok = (
            ok
            and np.array_equal(inflate_Q(1.5, 10.0, k) * q_base, expected)
            and np.array_equal(bank.P, ctp_predict(x, p, bank.F, expected)[1])
            and bank.streak == [k]
        )
    z = np.array([[100.0, 100.0, 30.0, 30.0]])
    x, p = ctp_update(bank.x, bank.P, bank.R, np.ones(1), z)
    bank.step(np.array([True]), z, np.ones(1))
    ok = ok and np.array_equal(bank.P, ctp_predict(x, p, bank.F, q_base)[1]) and bank.streak == [0]
    _report(3, ok, "Q = min(1.5^k, 10) * Q_base exactly for k=1..11, reset on valid")


def test_criterion_04_invalid_window_drift():
    t0 = time.perf_counter()
    finals = {"off": [], "ctp": []}
    for seed in range(50):
        sc = Scenario(
            name=f"drift-{seed}",
            frames=40,
            initial_box=(100.0, 256.0, 30.0, 30.0),
            velocity=(4.0, 0.0),
            sigma=2.0,
            invalid_windows=[(20, 40)],  # 20-frame blackout through the end
            seed=seed,
        )
        seq = generate(sc)
        decisions = classify_sequence(seq)
        for preset in finals:
            tr = run(seq, HarnessConfig(motion=preset), decisions)
            finals[preset].append(cle(tr.pred[-1], tr.gt[-1]))
    med_off = float(np.median(finals["off"]))
    med_ctp = float(np.median(finals["ctp"]))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        med_off >= 70.0 and med_ctp <= 8.0 and elapsed < 30.0,
        f"median final CLE: off {med_off:.1f}px (>= 70), ctp {med_ctp:.2f}px (<= 8), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_ablation_ordering():
    ordered = strict = 0
    n_suites = 50
    for seed in range(n_suites):
        res = run_ablation_suite(seed)
        sr = {k: res[k]["SR"] for k in ("off", "kf", "ekf", "ctp")}
        if sr["ctp"] >= sr["ekf"] >= sr["kf"] >= sr["off"]:
            ordered += 1
        if sr["ctp"] > sr["off"]:
            strict += 1
    _report(
        5,
        ordered >= 45 and strict >= 48,
        f"SR(ctp) >= SR(ekf) >= SR(kf) >= SR(off) on {ordered}/50 suites (need >= 45); "
        f"SR(ctp) > SR(off) on {strict}/50 (need >= 48)",
    )


def test_criterion_06_over_exposure_threshold():
    def fixture(n_white: int) -> Image:
        px = np.full(100, 128, dtype=np.uint8)
        px[:n_white] = 255
        return Image(10, 10, 1, px)

    at_40 = is_over_exposed(fixture(40), rho=0.40)
    at_41 = is_over_exposed(fixture(41), rho=0.40)
    boundary_ok = (not at_40[0]) and at_41[0] and at_40[1] == 0.40

    images = [fixture(k) for k in range(0, 101, 2)]
    previous = None
    nested_ok = True
    for rho in (0.60, 0.50, 0.40, 0.30, 0.20):
        invalid = {i for i, im in enumerate(images) if is_over_exposed(im, rho)[0]}
        if previous is not None:
            nested_ok = nested_ok and previous <= invalid
        previous = invalid
    _report(
        6,
        boundary_ok and nested_ok,
        "40 white px valid / 41 invalid at rho=0.40; invalid sets nested over "
        "rho in {20,30,40,50,60}%",
    )


def test_criterion_07_adapter_bypass_identity():
    rng = np.random.default_rng(12)
    bit_identical = True
    for _ in range(100):
        d = int(rng.integers(2, 12))
        w = random_adapter_weights(rng, d=d)
        f_sr = rng.normal(size=(int(rng.integers(1, 9)), d))
        f_dyn = rng.normal(size=(int(rng.integers(1, 5)), d))
        out = adapter_pair(f_sr, f_dyn, float(rng.random()), TriState.RGB, w).value
        bit_identical = bit_identical and out.tobytes() == f_sr.tobytes()

    d = 8
    base = random_adapter_weights(rng, d=d)
    w_open = AdapterLayerWeights(
        q_w=base.q_w, k_w=base.k_w, v_w=base.v_w,
        gate_w1=np.zeros_like(base.gate_w1), gate_b1=np.ones_like(base.gate_b1),
        gate_w2=np.zeros_like(base.gate_w2), gate_b2=np.array([40.0, -40.0]),
    )
    f_sr = rng.normal(size=(5, d))
    f_dyn = rng.normal(size=(3, d))
    gate_open = layer_gate(f_sr, w_open) == 1.0
    out = adapter_pair(f_sr, f_dyn, 0.0, TriState.NIR, w_open).value
    nir_identity = bool(np.max(np.abs(out - f_sr)) <= 1e-12)
    _report(
        7,
        bit_identical and gate_open and nir_identity,
        "RGB bypass bit-identical on 100 random cases; NIR with m=0, g=1 "
        "within 1e-12",
    )


def test_criterion_08_gradient_suite():
    t0 = time.perf_counter()
    report = gradient_report(seed=0)
    elapsed = time.perf_counter() - t0
    expected_ops = {
        "linear", "sigmoid", "softmax", "attention", "adapter",
        "l1", "siou", "bce", "cosine_loss",
    }
    worst_op = max(report, key=report.get)
    _report(
        8,
        set(report) == expected_ops
        and all(err < GRAD_TOL for err in report.values())
        and elapsed < 60.0,
        f"all {len(report)} ops < {GRAD_TOL:g} (worst {worst_op} at "
        f"{report[worst_op]:.3e}), {elapsed:.2f}s (< 60s)",
    )


def test_criterion_09_metrics_exactness(fixtures_dir: Path):
    data = json.loads((fixtures_dir / "metrics_10frames.json").read_text())
    run_ = TrackRun(
        pred=[BBox(*p) for p in data["pred"]],
        gt=[BBox(*g) for g in data["gt"]],
        tags=data["tags"],
    )
    pr = precision_rate(run_)
    sr = success_rate(run_)
    boundary_iou = iou(run_.pred[3], run_.gt[3])
    boundary_cle = cle(run_.pred[4], run_.gt[4])
    _report(
        9,
        pr == 70.0 and sr == 60.0 and boundary_iou == 0.5 and boundary_cle == 20.0,
        f"10-frame fixture: PR {pr} == 70.0, SR {sr} == 60.0; boundary frames "
        "(IoU=0.5, CLE=20) excluded by strict inequalities",
    )


def test_criterion_10_loss_coefficients():
    gt = BBox(100.0, 100.0, 30.0, 30.0)
    start = tracking_loss(gt, gt, ce_term=1.0, sched=EpochSchedule(C=0, N=40))
    end = tracking_loss(gt, gt, ce_term=1.0, sched=EpochSchedule(C=40, N=40))
    mod = float(modality_pair(1.0, 0.5).value)
    _report(
        10,
        start == 2.0 and end == 0.0 and abs(mod - 2.0 * math.log(2.0)) < 1e-12,
        f"CE weighted by exactly 2 at C=0 and 0 at C=N; modality loss at "
        f"(1, 0.5) = {mod:.12f} ~ 2 ln 2",
    )


def test_criterion_11_determinism(tmp_path: Path):
    sc = Scenario(
        name="determinism",
        frames=25,
        initial_box=(100.0, 256.0, 30.0, 30.0),
        velocity=(4.0, 0.0),
        sigma=2.0,
        modality_schedule=[(0, 12, "rgb"), (12, 25, "nir")],
        invalid_windows=[(8, 14)],
        seed=21,
    )
    scenario_path = tmp_path / "scenario.json"
    save_scenario(scenario_path, sc)
    seq_path = tmp_path / "seq.jsonl"
    assert main(["simulate", str(scenario_path), "--out", str(seq_path)]) == 0
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc = main(
            ["track", str(seq_path), "--out", str(out), "--motion", "ctp"]
        )
        assert rc == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report(11, identical, "cmd_track twice on the same sequence: byte-identical output")
