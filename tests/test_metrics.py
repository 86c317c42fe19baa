"""PR/SR metrics: hand-counted fixture, strict boundaries, invariances."""

import csv
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from xmtrack.ctp import BBox
from xmtrack.metrics import (
    MetricRow,
    TrackRun,
    cle,
    cle_array,
    hit_masks,
    iou,
    iou_array,
    metrics_csv,
    metrics_summary,
    precision_rate,
    success_rate,
    tag_breakdown,
)


def test_cle_is_euclidean_center_distance():
    assert cle(BBox(0, 0, 10, 10), BBox(3, 4, 50, 2)) == 5.0
    assert cle(BBox(7, 7, 1, 1), BBox(7, 7, 99, 99)) == 0.0


def test_iou_unit_squares_offset_half_width():
    a = BBox(0.0, 0.0, 1.0, 1.0)
    b = BBox(0.5, 0.0, 1.0, 1.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_iou_basic_identities():
    a = BBox(10, 10, 4, 6)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(100, 100, 4, 6)) == 0.0
    # contained box: intersection is the smaller area
    inner = BBox(10, 10, 2, 3)
    assert iou(a, inner) == pytest.approx((2 * 3) / (4 * 6), rel=1e-12)


def test_iou_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = BBox(*rng.uniform(1, 100, size=2), *rng.uniform(1, 40, size=2))
        b = BBox(*rng.uniform(1, 100, size=2), *rng.uniform(1, 40, size=2))
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def _load_fixture(fixtures_dir: Path) -> TrackRun:
    data = json.loads((fixtures_dir / "metrics_10frames.json").read_text())
    return TrackRun(
        pred=[BBox(*p) for p in data["pred"]],
        gt=[BBox(*g) for g in data["gt"]],
        tags=data["tags"],
    )


def test_ten_frame_fixture_hand_counts(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    assert precision_rate(run) == 70.0
    assert success_rate(run) == 60.0


def test_fixture_boundary_frames_are_exact_and_excluded(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    # frame 3: IoU is exactly 0.5 -> misses SR but its CLE of 10 hits PR
    assert iou(run.pred[3], run.gt[3]) == 0.5
    # frame 4: CLE is exactly 20 -> misses PR
    assert cle(run.pred[4], run.gt[4]) == 20.0
    single_iou = TrackRun(pred=[run.pred[3]], gt=[run.gt[3]])
    assert success_rate(single_iou) == 0.0
    assert precision_rate(single_iou) == 100.0
    single_cle = TrackRun(pred=[run.pred[4]], gt=[run.gt[4]])
    assert precision_rate(single_cle) == 0.0


def test_strictness_on_all_boundary_runs():
    # every frame exactly on the threshold counts as a miss
    pred = [BBox(112.0, 116.0, 30.0, 30.0)] * 5  # CLE 20 each
    gt = [BBox(100.0, 100.0, 30.0, 30.0)] * 5
    assert precision_rate(TrackRun(pred=pred, gt=gt)) == 0.0
    half = [BBox(10.0, 10.0, 2.0, 1.0)] * 5  # contained, IoU exactly 0.5
    full = [BBox(10.0, 10.0, 2.0, 2.0)] * 5
    assert success_rate(TrackRun(pred=half, gt=full)) == 0.0


def test_rates_invariant_under_frame_reordering(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    order = list(range(len(run.pred)))
    rnd = random.Random(7)
    for _ in range(5):
        rnd.shuffle(order)
        shuffled = TrackRun(
            pred=[run.pred[i] for i in order],
            gt=[run.gt[i] for i in order],
            tags=[run.tags[i] for i in order],
        )
        assert precision_rate(shuffled) == precision_rate(run)
        assert success_rate(shuffled) == success_rate(run)


def test_rates_live_in_percent_range(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    assert 0.0 <= precision_rate(run) <= 100.0
    assert 0.0 <= success_rate(run) <= 100.0


def test_tag_breakdown_partitions_the_all_row(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    rows = tag_breakdown(run)
    assert rows["all"].n == 10
    assert rows["rgb"].n == 5 and rows["nir"].n == 5
    # rgb offsets (0,5,8,10,boundary-20): 4 PR hits, 3 SR hits
    assert rows["rgb"].pr == 80.0 and rows["rgb"].sr == 60.0
    # nir offsets (3,6,2,40,25): 3 PR hits, 3 SR hits
    assert rows["nir"].pr == 60.0 and rows["nir"].sr == 60.0
    # exclusive tags partition the hit counts
    pr_hits = sum(rows[t].pr / 100.0 * rows[t].n for t in ("rgb", "nir"))
    assert pr_hits == rows["all"].pr / 100.0 * rows["all"].n


def test_empty_run_rejected():
    with pytest.raises(ValueError):
        precision_rate(TrackRun(pred=[], gt=[]))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        TrackRun(pred=[BBox(1, 1, 1, 1)], gt=[])


def test_frame_tag_all_rejected():
    # 'all' names the all-frames row, so a frame tagged 'all' would replace it.
    gt = [BBox(0, 0, 10, 10)] * 3
    pred = [BBox(0, 0, 10, 10), BBox(30, 0, 10, 10), BBox(0, 0, 10, 10)]
    with pytest.raises(ValueError, match="'all'"):
        TrackRun(pred=pred, gt=gt, tags=[["all"], ["rgb", "all"], ["rgb"]])


def test_metrics_csv_lists_all_first_then_tags_in_sorted_order():
    box = BBox(0, 0, 10, 10)
    run = TrackRun(pred=[box] * 3, gt=[box] * 3, tags=[["nir"], ["aaa", "zz"], ["B"]])
    rows = metrics_csv("s", run).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["all", "B", "aaa", "nir", "zz"]


def test_metrics_csv_golden(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    got = metrics_csv("fixture", run)
    expected = (
        "sequence,tag,PR,SR,N\n"
        "fixture,all,70.0000,60.0000,10\n"
        "fixture,nir,60.0000,60.0000,5\n"
        "fixture,rgb,80.0000,60.0000,5\n"
    )
    assert got == expected


@pytest.mark.parametrize("name", ["a,b\nc", 'say "hi"', "x\r\ny"])
def test_metrics_csv_quotes_a_name_that_csv_reader_splits_back(fixtures_dir, name):
    rows = list(csv.reader(io.StringIO(metrics_csv(name, _load_fixture(fixtures_dir)), newline="")))
    assert rows == [
        ["sequence", "tag", "PR", "SR", "N"],
        [name, "all", "70.0000", "60.0000", "10"],
        [name, "nir", "60.0000", "60.0000", "5"],
        [name, "rgb", "80.0000", "60.0000", "5"],
    ]


@pytest.mark.parametrize("name", ["cli-demo", "", "a b", "x-1.5"])
def test_metrics_csv_leaves_a_plain_name_unquoted(fixtures_dir, name):
    assert metrics_csv(name, _load_fixture(fixtures_dir)).splitlines()[1] == f"{name},all,70.0000,60.0000,10"


def test_metrics_summary_is_deterministic_sorted_json(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    s1 = metrics_summary("fixture", run)
    s2 = metrics_summary("fixture", run)
    assert s1 == s2
    payload = json.loads(s1)
    assert payload["sequence"] == "fixture"
    assert list(payload["tags"].keys()) == sorted(payload["tags"].keys())
    assert payload["tags"]["all"]["PR"] == 70.0


def test_metric_row_is_plain_data():
    row = MetricRow(pr=50.0, sr=25.0, n=4)
    assert (row.pr, row.sr, row.n) == (50.0, 25.0, 4)


def _oracle_boxes():
    """Seeded random pairs plus the exact boundary and degenerate cases."""
    rng = np.random.default_rng(5)
    n = 400
    pred = np.column_stack([rng.uniform(0, 60, (n, 2)), rng.uniform(0, 30, (n, 2))])
    gt = np.column_stack([rng.uniform(0, 60, (n, 2)), rng.uniform(0, 30, (n, 2))])
    edge_pred = [
        (112.0, 116.0, 30.0, 30.0),  # CLE exactly 20
        (10.0, 10.0, 2.0, 1.0),  # contained, IoU exactly 0.5
        (0.0, 0.0, 1.0, 1.0),  # shares half its area: IoU 1/3
        (5.0, 5.0, 0.0, 0.0),  # zero-area pair: IoU 0
        (5.0, 5.0, 0.0, 4.0),  # zero-width box inside a real one
        (0.0, 0.0, 4.0, 4.0),  # disjoint
        (0.0, 0.0, 4.0, 4.0),  # touching edges: zero-width overlap
        (3.0, 3.0, 4.0, 4.0),  # identical
    ]
    edge_gt = [
        (100.0, 100.0, 30.0, 30.0),
        (10.0, 10.0, 2.0, 2.0),
        (0.5, 0.0, 1.0, 1.0),
        (5.0, 5.0, 0.0, 0.0),
        (5.0, 5.0, 4.0, 4.0),
        (50.0, 50.0, 4.0, 4.0),
        (4.0, 0.0, 4.0, 4.0),
        (3.0, 3.0, 4.0, 4.0),
    ]
    return np.vstack([pred, edge_pred]), np.vstack([gt, edge_gt])


def test_array_kernels_match_the_scalar_oracle_bit_for_bit():
    pred, gt = _oracle_boxes()
    boxes = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    assert cle_array(pred, gt).tolist() == [cle(p, g) for p, g in boxes]
    assert iou_array(pred, gt).tolist() == [iou(p, g) for p, g in boxes]
    assert cle_array(pred, gt)[-8] == 20.0 and iou_array(pred, gt)[-7] == 0.5


def test_array_rates_count_the_scalar_oracle_hits():
    pred, gt = _oracle_boxes()
    pairs = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    pr_hits = sum(cle(p, g) < 20.0 for p, g in pairs)
    sr_hits = sum(iou(p, g) > 0.5 for p, g in pairs)
    assert 0 < sr_hits < pr_hits < len(pairs)
    assert np.count_nonzero(cle_array(pred, gt) < 20.0) == pr_hits
    assert np.count_nonzero(iou_array(pred, gt) > 0.5) == sr_hits
    run = TrackRun(pred=[p for p, _ in pairs], gt=[g for _, g in pairs])
    assert precision_rate(run) == 100.0 * pr_hits / len(pairs)
    assert success_rate(run) == 100.0 * sr_hits / len(pairs)
    # (rows, T, 4) tracks against one (T, 4) ground truth, as the ablation scores them
    tracks = np.stack([pred, gt, pred[::-1]])
    want = [sum(cle(BBox(*p), BBox(*g)) < 20.0 for p, g in zip(t.tolist(), gt.tolist())) for t in tracks]
    assert np.count_nonzero(cle_array(tracks, gt) < 20.0, axis=1).tolist() == want


def test_hit_masks_apply_the_strict_thresholds_of_the_scalar_oracle():
    pred, gt = _oracle_boxes()
    pairs = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    pr_hits, sr_hits = hit_masks(pred, gt)
    assert pr_hits.tolist() == [cle(p, g) < 20.0 for p, g in pairs]
    assert sr_hits.tolist() == [iou(p, g) > 0.5 for p, g in pairs]
    assert not pr_hits[-8] and not sr_hits[-7]  # the exact boundary frames
    tracks = np.stack([pred, gt, pred[::-1]])
    stacked = hit_masks(tracks, gt)
    for row, track in enumerate(tracks):
        for mask, want in zip(stacked, hit_masks(track, gt)):
            assert mask.shape == tracks.shape[:2]
            np.testing.assert_array_equal(mask[row], want)


@pytest.mark.parametrize("side", [2, 3])
def test_array_iou_rejects_negative_dimensions(side):
    pred, gt = _oracle_boxes()
    bad = gt.copy()
    bad[7, side] = -1.0
    with pytest.raises(ValueError):
        iou_array(pred, bad)
    with pytest.raises(ValueError):
        iou_array(bad, pred)
    with pytest.raises(ValueError):
        success_rate(TrackRun(pred=[BBox(*b) for b in pred.tolist()], gt=[BBox(*b) for b in bad.tolist()]))
