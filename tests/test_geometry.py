"""Box arithmetic checked against a rasterised oracle and a quadratic NMS."""

import math
import pickle
import random

import pytest

from recollab import BBox, Detection, TokenSpanScore, geometry, iou, nms
from recollab.geometry import box_to_pixels, round_half_up

from helpers import brute_nms, grid_box, raster_iou


def random_detections(rng, n, coord_hi=100.0):
    dets = []
    for _ in range(n):
        x0, x1 = sorted(rng.uniform(0, coord_hi) for _ in range(2))
        y0, y1 = sorted(rng.uniform(0, coord_hi) for _ in range(2))
        dets.append(Detection(box=BBox(x0, y0, x1, y1), score=rng.random()))
    return dets


def test_bbox_rejects_inverted_corners():
    with pytest.raises(ValueError):
        BBox(5.0, 0.0, 4.0, 10.0)
    with pytest.raises(ValueError):
        BBox(0.0, 5.0, 10.0, 4.0)


def test_bbox_validates_every_coordinate():
    assert [type(v) for v in BBox(0, 1, 2, 3).as_list()] == [float] * 4
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            coords = [0.0, 0.0, 1.0, 1.0]
            coords[i] = bad
            with pytest.raises(ValueError, match="finite"):
                BBox(*coords)
    for bad in (True, "1", None):
        with pytest.raises(TypeError):
            BBox(0.0, 0.0, bad, 1.0)


def test_bbox_allows_degenerate():
    line = BBox(3.0, 1.0, 3.0, 9.0)
    assert (line.x1 - line.x0) * (line.y1 - line.y0) == 0.0


def test_iou_known_values():
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)
    assert iou(BBox(0, 0, 2, 2), BBox(0, 0, 2, 2)) == 1.0
    assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0
    # shared edge only: zero intersection area
    assert iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0


def test_iou_degenerate_operands():
    point = BBox(1.0, 1.0, 1.0, 1.0)
    assert iou(point, point) == 0.0
    assert iou(point, BBox(0, 0, 2, 2)) == 0.0


def test_iou_symmetry_random():
    rng = random.Random(20260818)
    for _ in range(200):
        a, b = grid_box(rng), grid_box(rng)
        assert iou(a, b) == iou(b, a)


def test_iou_matches_rasterised_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        a, b = grid_box(rng), grid_box(rng)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)


def test_nms_empty_and_single():
    assert nms([], 0.5) == []
    only = Detection(box=BBox(0, 0, 4, 4), score=0.3)
    assert nms([only], 0.5) == [only]


def test_nms_suppression_example():
    a = Detection(box=BBox(0, 0, 10, 10), score=0.9)
    b = Detection(box=BBox(0, 0, 10, 10.5), score=0.8)  # iou ~ 0.95
    c = Detection(box=BBox(20, 20, 30, 30), score=0.7)
    assert nms([a, b, c], 0.7) == [a, c]


def test_nms_threshold_one_keeps_everything_sorted():
    rng = random.Random(7)
    dets = random_detections(rng, 30)
    kept = nms(dets, 1.0)
    assert sorted(kept, key=lambda d: -d.score) == kept
    assert len(kept) == len(dets)


def test_nms_score_ties_keep_input_order():
    a = Detection(box=BBox(0, 0, 10, 10), score=0.5)
    b = Detection(box=BBox(1, 1, 11, 11), score=0.5)
    kept = nms([a, b], 0.1)
    assert kept == [a]
    kept = nms([b, a], 0.1)
    assert kept == [b]


def test_nms_matches_quadratic_reference():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(0, 50)
        dets = random_detections(rng, n, coord_hi=40.0)
        threshold = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        assert nms(dets, threshold) == brute_nms(dets, threshold)


def test_nms_limit_is_a_prefix_of_the_full_pass():
    rng = random.Random(20261018)
    assert nms([], 0.5, limit=1) == []
    for trial in range(300):
        n = rng.randint(1, 30)
        dets = random_detections(rng, n, coord_hi=40.0)
        if trial % 2:
            # few distinct scores, so many ties broken by input order
            dets = [Detection(box=d.box, score=rng.choice([0.2, 0.5, 0.8])) for d in dets]
        for threshold in (0.0, 0.5, 1.0):
            full = [id(d) for d in brute_nms(dets, threshold)]
            for k in range(1, n + 2):
                assert [id(d) for d in nms(dets, threshold, limit=k)] == full[:k]
    with pytest.raises(ValueError):
        nms(dets, 0.5, limit=0)


def test_nms_limit_stops_at_the_last_survivor(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return iou(a, b)

    # nms looks iou up by module name, so this replacement sees every call
    monkeypatch.setattr(geometry, "iou", counted)
    far = [Detection(box=BBox(10.0 * i, 0, 10.0 * i + 5, 5), score=0.9 - 0.1 * i) for i in range(5)]
    assert nms(far, 0.5, limit=1) == far[:1]
    assert calls == []
    assert nms(far, 0.5, limit=2) == far[:2]
    assert len(calls) == 1
    calls.clear()
    assert nms(far, 0.5) == far
    assert len(calls) == 10


def test_nms_output_is_subsequence_of_score_order():
    rng = random.Random(3)
    for _ in range(100):
        dets = random_detections(rng, rng.randint(1, 25))
        kept = nms(dets, 0.5)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        by_score = sorted(dets, key=lambda d: -d.score)
        it = iter(by_score)
        assert all(d in it for d in kept)


def test_nms_kept_boxes_respect_threshold():
    rng = random.Random(4)
    for _ in range(100):
        dets = random_detections(rng, rng.randint(2, 25))
        kept = nms(dets, 0.4)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i].box, kept[j].box) <= 0.4


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection(box=BBox(0, 0, 1, 1), score=-0.1)
    with pytest.raises(ValueError):
        Detection(box=BBox(0, 0, 1, 1), score=1.5)


def test_token_span_score_validation():
    ts = TokenSpanScore(start=0, end=4, score=0.5)
    assert (ts.start, ts.end, ts.score) == (0, 4, 0.5)
    assert ts == TokenSpanScore(0, 4, 0.5) and hash(ts) == hash(TokenSpanScore(0, 4, 0.5))
    assert repr(ts) == "TokenSpanScore(start=0, end=4, score=0.5)"
    assert ts.overlaps(3, 9) and not ts.overlaps(4, 9)
    with pytest.raises(AttributeError):
        ts.score = 0.9
    with pytest.raises(ValueError):
        TokenSpanScore(start=0, end=4, score=1.5)
    with pytest.raises(ValueError):
        TokenSpanScore(start=4, end=4, score=0.5)
    with pytest.raises(ValueError):
        TokenSpanScore(start=-1, end=2, score=0.5)
    # the named-tuple constructors validate as well
    assert ts._replace(score=0.7) == TokenSpanScore(0, 4, 0.7)
    assert TokenSpanScore._make((1, 3, 0.2)) == TokenSpanScore(1, 3, 0.2)
    with pytest.raises(ValueError):
        ts._replace(score=5.0)
    with pytest.raises(ValueError):
        TokenSpanScore._make((4, 2, 0.5))
    # as a tuple it equals a plain (start, end, score) tuple
    assert ts == (0, 4, 0.5)


def test_boxes_and_detections_are_immutable_validated_named_tuples():
    box = BBox(0, 0, 1, 1)
    assert [type(v) for v in box] == [float] * 4 and box == (0.0, 0.0, 1.0, 1.0)
    assert repr(box) == "BBox(x0=0.0, y0=0.0, x1=1.0, y1=1.0)"
    det = Detection(box, 0.5, [TokenSpanScore(0, 2, 0.4), TokenSpanScore(3, 5, 0.6)])
    assert type(det.token_scores) is tuple and Detection(box, 0.5).token_scores == ()
    for value, name in ((box, "x0"), (det, "score"), (det, "box")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        assert not hasattr(value, "__dict__")
    # the named-tuple constructors validate as well
    assert box._replace(x1=2) == BBox(0.0, 0.0, 2.0, 1.0) and type(box._replace(x1=2).x1) is float
    assert BBox._make([0, 1, 2, 3]) == BBox(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="negative extent"):
        box._replace(x1=-1.0)
    with pytest.raises(ValueError, match="finite"):
        BBox._make((0.0, 0.0, math.inf, 1.0))
    assert det._replace(score=0.7).score == 0.7
    assert Detection._make((box, 0.2, ())) == Detection(box, 0.2)
    with pytest.raises(ValueError, match="outside"):
        det._replace(score=1.5)
    with pytest.raises(ValueError, match="overlapping token spans"):
        det._replace(token_scores=(TokenSpanScore(0, 4, 0.4), TokenSpanScore(3, 5, 0.6)))
    with pytest.raises(ValueError, match="outside"):
        Detection._make((box, -0.1, ()))
    for value in (box, det):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(-1.5) == -1


def test_box_to_pixels():
    assert box_to_pixels(BBox(10.5, 20.4, 110.5, 219.6)) == [11, 20, 111, 220]
