"""PR/SR metrics: hand-counted fixture, strict boundaries, invariances."""

import csv
import io
import json
import random
import re
from pathlib import Path

import box_oracle
import numpy as np
import pytest

from xmtrack import metrics
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
    tag_breakdown,
)


def _all(run: TrackRun) -> MetricRow:
    """PR/SR over every frame of the run."""
    return tag_breakdown(run)["all"]


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
    return TrackRun(pred_boxes=np.array(data["pred"]), gt_boxes=np.array(data["gt"]), tags=data["tags"])


def test_ten_frame_fixture_hand_counts(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    assert _all(run).pr == 70.0
    assert _all(run).sr == 60.0


def test_fixture_boundary_frames_are_exact_and_excluded(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    # frame 3: IoU is exactly 0.5 -> misses SR but its CLE of 10 hits PR
    assert iou(run.pred[3], run.gt[3]) == 0.5
    # frame 4: CLE is exactly 20 -> misses PR
    assert cle(run.pred[4], run.gt[4]) == 20.0
    single_iou = TrackRun(pred_boxes=run.pred_boxes[3:4], gt_boxes=run.gt_boxes[3:4], tags=[[]])
    assert _all(single_iou).sr == 0.0
    assert _all(single_iou).pr == 100.0
    single_cle = TrackRun(pred_boxes=run.pred_boxes[4:5], gt_boxes=run.gt_boxes[4:5], tags=[[]])
    assert _all(single_cle).pr == 0.0


def test_strictness_on_all_boundary_runs():
    # every frame exactly on the threshold counts as a miss
    pred = np.tile([112.0, 116.0, 30.0, 30.0], (5, 1))  # CLE 20 each
    gt = np.tile([100.0, 100.0, 30.0, 30.0], (5, 1))
    assert _all(TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[[]] * 5)).pr == 0.0
    half = np.tile([10.0, 10.0, 2.0, 1.0], (5, 1))  # contained, IoU exactly 0.5
    full = np.tile([10.0, 10.0, 2.0, 2.0], (5, 1))
    assert _all(TrackRun(pred_boxes=half, gt_boxes=full, tags=[[]] * 5)).sr == 0.0


def test_rates_invariant_under_frame_reordering(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    order = list(range(len(run)))
    rnd = random.Random(7)
    for _ in range(5):
        rnd.shuffle(order)
        shuffled = TrackRun(
            pred_boxes=run.pred_boxes[order],
            gt_boxes=run.gt_boxes[order],
            tags=[run.tags[i] for i in order],
        )
        assert _all(shuffled).pr == _all(run).pr
        assert _all(shuffled).sr == _all(run).sr


def test_rates_live_in_percent_range(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    assert 0.0 <= _all(run).pr <= 100.0
    assert 0.0 <= _all(run).sr <= 100.0


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
        tag_breakdown(TrackRun(pred_boxes=np.empty((0, 4)), gt_boxes=np.empty((0, 4)), tags=[]))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="1 predictions vs 0 ground truths"):
        TrackRun(pred_boxes=np.ones((1, 4)), gt_boxes=np.empty((0, 4)), tags=[[]])


@pytest.mark.parametrize(
    "tags",
    [[], [[]], [[], [], [], []], [[], "rgb", []], [[], [1], []], ([], [], [])],
    ids=["none", "one_frame_short", "one_frame_long", "a_string", "a_number", "a_tuple"],
)
def test_tags_must_be_one_list_of_strings_per_frame(tags):
    boxes = np.tile([0.0, 0.0, 10.0, 10.0], (3, 1))
    with pytest.raises(ValueError, match="one list of strings per frame"):
        TrackRun(pred_boxes=boxes, gt_boxes=boxes, tags=tags)
    with pytest.raises(TypeError):
        TrackRun(pred_boxes=boxes, gt_boxes=boxes)  # tags are required


def test_frame_tag_all_rejected():
    # 'all' names the all-frames row, so a frame tagged 'all' would replace it.
    gt = np.tile([0.0, 0.0, 10.0, 10.0], (3, 1))
    pred = np.array([[0.0, 0.0, 10.0, 10.0], [30.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
    with pytest.raises(ValueError, match="'all'"):
        TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[["all"], ["rgb", "all"], ["rgb"]])


@pytest.mark.parametrize(
    "bad",
    [np.zeros((3, 3)), np.zeros((3, 5)), np.zeros(12), np.zeros((3, 4, 1)), np.zeros(())],
    ids=["3_columns", "5_columns", "ndim_1", "ndim_3", "ndim_0"],
)
def test_trackrun_rejects_box_arrays_not_of_shape_t_by_4(bad):
    good = np.zeros((3, 4))
    for name, (pred, gt) in (("pred_boxes", (bad, good)), ("gt_boxes", (good, bad))):
        want = rf"TrackRun: {name} must be a \(T, 4\) array, not shape {re.escape(str(bad.shape))}"
        with pytest.raises(ValueError, match=want):
            TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[[]] * 3)


def test_trackrun_rejects_mismatched_lengths_by_name():
    with pytest.raises(ValueError, match="TrackRun: 3 predictions vs 2 ground truths"):
        TrackRun(pred_boxes=np.zeros((3, 4)), gt_boxes=np.zeros((2, 4)), tags=[[]] * 3)


def test_trackrun_holds_read_only_float64_copies():
    pred = np.arange(12).reshape(3, 4)  # integers: stored as float64
    gt = np.arange(12.0).reshape(3, 4)[::-1]  # a strided view
    run = TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[[]] * 3)
    for boxes, given in ((run.pred_boxes, pred), (run.gt_boxes, gt)):
        assert boxes.dtype == np.float64 and boxes.shape == (3, 4)
        assert boxes.tolist() == given.astype(np.float64).tolist()
        assert not boxes.flags.writeable and not np.shares_memory(boxes, given)
        with pytest.raises(ValueError):
            boxes[0, 0] = 5.0
    assert pred.flags.writeable and gt.flags.writeable  # the caller's arrays are untouched


def test_pred_and_gt_views_are_the_rows_as_boxes(fixtures_dir):
    run = _load_fixture(fixtures_dir)
    assert run.pred == [BBox(*r) for r in run.pred_boxes.tolist()]
    assert run.gt == [BBox(*r) for r in run.gt_boxes.tolist()]
    assert run.pred is run.pred  # built once, on first read


def test_metrics_csv_lists_all_first_then_tags_in_sorted_order():
    boxes = np.tile([0.0, 0.0, 10.0, 10.0], (3, 1))
    run = TrackRun(pred_boxes=boxes, gt_boxes=boxes, tags=[["nir"], ["aaa", "zz"], ["B"]])
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


# Boxes centred on -0.0, against boxes centred on +0.0 and on -0.0.
NEGATIVE_ZERO_PAIRS = [
    ((-0.0, -0.0, 4.0, 4.0), (0.0, 0.0, 4.0, 4.0)),
    ((-0.0, 0.0, 0.0, 0.0), (0.0, -0.0, 2.0, 2.0)),
    ((-0.0, -0.0, 2.0, 2.0), (-0.0, -0.0, 2.0, 2.0)),
    ((-0.0, 3.0, 2.0, 2.0), (4.0, -0.0, 2.0, 2.0)),
    ((0.0, -0.0, 2.0, 0.0), (-0.0, -0.0, 2.0, 2.0)),
]


def test_per_box_scores_equal_the_box_oracle_bit_for_bit():
    pred, gt = _oracle_boxes()
    pairs = [(BBox(*p), BBox(*g)) for p, g in [*zip(pred.tolist(), gt.tolist()), *NEGATIVE_ZERO_PAIRS]]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            for score in ("cle", "iou"):
                got, want = getattr(metrics, score)(x, y), getattr(box_oracle, score)(x, y)
                assert type(got) is float and got.hex() == want.hex(), (score, x, y)


def test_array_kernels_match_the_scalar_oracle_bit_for_bit():
    pred, gt = _oracle_boxes()
    boxes = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    assert cle_array(pred, gt).tolist() == [box_oracle.cle(p, g) for p, g in boxes]
    assert iou_array(pred, gt).tolist() == [box_oracle.iou(p, g) for p, g in boxes]
    assert cle_array(pred, gt)[-8] == 20.0 and iou_array(pred, gt)[-7] == 0.5


def test_array_rates_count_the_scalar_oracle_hits():
    pred, gt = _oracle_boxes()
    pairs = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    pr_hits = sum(box_oracle.cle(p, g) < 20.0 for p, g in pairs)
    sr_hits = sum(box_oracle.iou(p, g) > 0.5 for p, g in pairs)
    assert 0 < sr_hits < pr_hits < len(pairs)
    assert np.count_nonzero(cle_array(pred, gt) < 20.0) == pr_hits
    assert np.count_nonzero(iou_array(pred, gt) > 0.5) == sr_hits
    run = TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[[] for _ in pairs])
    assert _all(run).pr == 100.0 * pr_hits / len(pairs)
    assert _all(run).sr == 100.0 * sr_hits / len(pairs)
    # (rows, T, 4) tracks against one (T, 4) ground truth, as the ablation scores them
    tracks = np.stack([pred, gt, pred[::-1]])
    want = [
        sum(box_oracle.cle(BBox(*p), BBox(*g)) < 20.0 for p, g in zip(t.tolist(), gt.tolist())) for t in tracks
    ]
    assert np.count_nonzero(cle_array(tracks, gt) < 20.0, axis=1).tolist() == want


def test_hit_masks_apply_the_strict_thresholds_of_the_scalar_oracle():
    pred, gt = _oracle_boxes()
    pairs = [(BBox(*p), BBox(*g)) for p, g in zip(pred.tolist(), gt.tolist())]
    pr_hits, sr_hits = hit_masks(pred, gt)
    assert pr_hits.tolist() == [box_oracle.cle(p, g) < 20.0 for p, g in pairs]
    assert sr_hits.tolist() == [box_oracle.iou(p, g) > 0.5 for p, g in pairs]
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
    with pytest.raises(ValueError, match="^iou: negative box dimensions$"):
        iou(BBox(*pred[7]), BBox(*bad[7]))
    with pytest.raises(ValueError):
        tag_breakdown(
            TrackRun(pred_boxes=pred, gt_boxes=bad, tags=[[] for _ in bad])
        )
