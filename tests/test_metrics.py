"""Precision@k, paired Recall@k, AUROC, and report assembly."""

import random

import pytest

from recollab import (
    BBox,
    Pathway,
    Prediction,
    TaskSet,
    auroc,
    build_report,
    iou,
    pair_negatives,
    precision_at_k,
    recall_at_k,
    render_text,
)
from recollab.datamodel import (
    Difficulty,
    NegativeKind,
    NegEdit,
    NegFacet,
    NegLocus,
    Polarity,
    Split,
)
from recollab.metrics import COST_PROVENANCE, Score

from helpers import (
    brute_auroc,
    make_negative,
    make_positive,
    paired_taskset,
    rank_pair_hit,
    scored,
)

GT = BBox(10.0, 10.0, 60.0, 60.0)  # default ground truth from make_positive


def pred_for(task_id, boxes, pathway=Pathway.CRS):
    """Prediction ranking (box, confidence) pairs, best first; none is a rejection."""
    if not boxes:
        return Prediction.miss(task_id, pathway, "rejected")
    box, confidence = boxes[0]
    return Prediction(
        task_id=task_id,
        box=box,
        confidence=confidence,
        pathway=pathway,
        ranked_boxes=tuple(boxes),
    )


def box_with_iou_above(gt, hit=True):
    """A box either well above or well below the IoU bar against gt."""
    if hit:
        return BBox(gt.x0 + 2, gt.y0 + 2, gt.x1 - 2, gt.y1 - 2)
    return BBox(gt.x1 + 50, gt.y1 + 50, gt.x1 + 100, gt.y1 + 100)


def iou_box(gt, target_iou):
    """Axis-aligned shrink of gt whose IoU against gt is exactly target_iou."""
    w = (gt.x1 - gt.x0) * target_iou
    return BBox(gt.x0, gt.y0, gt.x0 + w, gt.y1)


# ------------------------------------------------- Prediction.ranked_boxes


def test_prediction_ranked_boxes_must_not_increase():
    with pytest.raises(ValueError):
        pred_for("t", [(GT, 0.5), (GT, 0.9)])
    pred = pred_for("t", [(GT, 0.9), (GT, 0.9), (GT, 0.5)])
    assert len(pred.ranked_boxes) == 3


def test_prediction_ranked_boxes_default_to_the_chosen_box():
    pred = Prediction(task_id="t", box=GT, confidence=0.7, pathway=Pathway.FAST)
    assert pred.ranked_boxes == ((GT, 0.7),)
    rejected = Prediction(task_id="t", box=None, confidence=0.0, pathway=Pathway.FAST)
    assert rejected.ranked_boxes == ()


def test_prediction_round_trip_keeps_ranked_boxes():
    pred = pred_for("t", [(GT, 0.9), (BBox(0, 0, 5, 5), 0.2)])
    again = Prediction.from_dict(pred.to_dict())
    assert again == pred
    assert Prediction.from_dict(pred_for("t", []).to_dict()).ranked_boxes == ()


# -------------------------------------------------------------- precision


def test_precision_known_example():
    tasks = [make_positive(i) for i in range(3)]
    ts = TaskSet(Split.TEST, tasks)
    preds = {
        tasks[0].id: pred_for(tasks[0].id, [(iou_box(GT, 0.6), 0.9)]),
        tasks[1].id: pred_for(tasks[1].id, [(iou_box(GT, 0.4), 0.9)]),
        tasks[2].id: pred_for(tasks[2].id, [(iou_box(GT, 0.9), 0.9)]),
    }
    assert precision_at_k(scored(preds, ts), ts, 1) == pytest.approx(2 / 3)


def test_precision_identity_and_strict_threshold():
    tasks = [make_positive(0)]
    ts = TaskSet(Split.TEST, tasks)
    exact = {tasks[0].id: pred_for(tasks[0].id, [(GT, 1.0)])}
    assert precision_at_k(scored(exact, ts), ts, 1) == 1.0
    at_bar = {tasks[0].id: pred_for(tasks[0].id, [(iou_box(GT, 0.5), 1.0)])}
    assert iou(iou_box(GT, 0.5), GT) == 0.5
    assert precision_at_k(scored(at_bar, ts), ts, 1) == 0.0  # IoU exactly 0.5 is a miss


def test_precision_k_widens_the_window():
    tasks = [make_positive(0)]
    ts = TaskSet(Split.TEST, tasks)
    ranked = [
        (box_with_iou_above(GT, hit=False), 0.9),
        (BBox(200, 200, 250, 250), 0.8),
        (box_with_iou_above(GT, hit=True), 0.7),
    ]
    preds = scored({tasks[0].id: pred_for(tasks[0].id, ranked)}, ts)
    assert precision_at_k(preds, ts, 1) == 0.0
    assert precision_at_k(preds, ts, 2) == 0.0
    assert precision_at_k(preds, ts, 3) == 1.0


def test_precision_missing_and_rejected_count_as_misses(caplog):
    tasks = [make_positive(0), make_positive(1)]
    ts = TaskSet(Split.TEST, tasks)
    preds = scored({tasks[0].id: pred_for(tasks[0].id, [])}, ts)
    with caplog.at_level("WARNING"):
        assert precision_at_k(preds, ts, 1) == 0.0
    assert any("no prediction" in m for m in caplog.messages)


def test_precision_needs_positives():
    only_empty = TaskSet(Split.TEST, [])
    with pytest.raises(ValueError):
        precision_at_k({}, only_empty, 1)


def test_precision_ignores_negatives_in_denominator():
    pos = make_positive(0)
    neg = make_negative(0, pos)
    ts = TaskSet(Split.TEST, [pos, neg])
    preds = {pos.id: pred_for(pos.id, [(GT, 0.9)]), neg.id: pred_for(neg.id, [(GT, 0.9)])}
    assert precision_at_k(scored(preds, ts), ts, 1) == 1.0


def test_the_metrics_refuse_a_prediction_that_was_not_scored():
    ts = paired_taskset(1)
    pos, neg = ts.positives()[0], ts.negatives()[0]
    pred = pred_for(pos.id, [(GT, 0.9)])
    with pytest.raises(ValueError, match=f"task {pos.id} was not scored against it"):
        build_report({pos.id: pred}, ts)
    with pytest.raises(ValueError, match=f"task {pos.id} was not scored against it"):
        precision_at_k({pos.id: pred}, ts, 1)
    rows = {**scored({pos.id: pred}, ts), neg.id: pred_for(neg.id, [])}
    with pytest.raises(ValueError, match=f"task {neg.id} was not scored against it"):
        recall_at_k(pair_negatives(ts), rows, 1)


def test_the_report_refuses_an_unscored_negative_whose_positive_has_no_row():
    # the pair is dropped before recall reads it, so only the AUROC read can refuse it
    ts = paired_taskset(1)
    neg = ts.negatives()[0]
    with pytest.raises(ValueError, match=f"task {neg.id} was not scored against it"):
        build_report({neg.id: Prediction.miss(neg.id, Pathway.FAST, "x")}, ts)
    row = scored({neg.id: Prediction.miss(neg.id, Pathway.FAST, "x")}, ts)
    report = build_report(row, ts)
    assert report["auroc"]["overall"]["denominator"] == 1
    assert report["pathways"]["counts"] == {"fast": 1}


def test_the_report_refuses_a_row_that_is_not_a_score():
    # a row for a task outside the set needs no score, but it must still be a Score
    ts = paired_taskset(1)
    with pytest.raises(ValueError, match="task zzz is not a metrics.Score"):
        build_report({"zzz": Prediction.miss("zzz", Pathway.FAST, "x")}, ts)
    report = build_report({"zzz": Score(0.0, Pathway.FAST, False)}, ts)
    assert report["pathways"]["counts"] == {"fast": 1}


# ----------------------------------------------------------------- recall


def paired_preds(pos_conf, neg_conf, *, pos_hit=True):
    ts = paired_taskset(1)
    pos, neg = ts.positives()[0], ts.negatives()[0]
    preds = {
        pos.id: pred_for(pos.id, [(box_with_iou_above(GT, hit=pos_hit), pos_conf)]),
        neg.id: pred_for(neg.id, [(box_with_iou_above(GT, hit=False), neg_conf)]),
    }
    return ts, scored(preds, ts)


def test_recall_negative_outranks_positive():
    ts, preds = paired_preds(0.6, 0.9)
    pairs = pair_negatives(ts)
    assert recall_at_k(pairs, preds, 1) == 0.0
    assert recall_at_k(pairs, preds, 2) == 1.0


def test_recall_tie_prefers_positive():
    ts, preds = paired_preds(0.7, 0.7)
    assert recall_at_k(pair_negatives(ts), preds, 1) == 1.0


def test_recall_positive_must_still_hit():
    ts, preds = paired_preds(0.9, 0.1, pos_hit=False)
    assert recall_at_k(pair_negatives(ts), preds, 5) == 0.0


def test_recall_rejected_negative_never_blocks():
    ts = paired_taskset(1)
    pos, neg = ts.positives()[0], ts.negatives()[0]
    preds = {
        pos.id: pred_for(pos.id, [(box_with_iou_above(GT), 0.4)]),
        neg.id: pred_for(neg.id, []),
    }
    assert recall_at_k(pair_negatives(ts), scored(preds, ts), 1) == 1.0


def test_recall_drops_pairs_missing_predictions(caplog):
    ts = paired_taskset(2)
    pos_ids = [t.id for t in ts.positives()]
    neg_ids = [t.id for t in ts.negatives()]
    preds = {
        pos_ids[0]: pred_for(pos_ids[0], [(box_with_iou_above(GT), 0.9)]),
        neg_ids[0]: pred_for(neg_ids[0], []),
        pos_ids[1]: pred_for(pos_ids[1], [(box_with_iou_above(GT), 0.9)]),
        # second negative has no prediction: that pair is dropped
    }
    with caplog.at_level("WARNING"):
        assert recall_at_k(pair_negatives(ts), scored(preds, ts), 1) == 1.0
    assert any("dropped" in m for m in caplog.messages)
    with pytest.raises(ValueError):
        recall_at_k(pair_negatives(ts), {}, 1)


def test_dropped_pairs_are_warned_once_by_recall_and_the_report(caplog):
    ts = paired_taskset(3)
    negatives = ts.negatives()
    preds = {t.id: pred_for(t.id, [(box_with_iou_above(GT), 0.9)]) for t in ts.positives()}
    preds[negatives[0].id] = pred_for(negatives[0].id, [])
    rows = scored(preds, ts)
    with caplog.at_level("WARNING", logger="recollab.metrics"):
        recall_at_k(pair_negatives(ts), rows, 1)
        build_report(rows, ts)
    want = f"2 pairs dropped, missing a prediction (first negative {negatives[1].id})"
    assert [m for m in caplog.messages if "dropped" in m] == [want, want]


def test_the_report_warns_once_with_the_count_of_tasks_without_a_prediction(caplog):
    ts = paired_taskset(3)
    preds = {t.id: pred_for(t.id, [(box_with_iou_above(GT), 0.9)]) for t in ts.positives()}
    preds.update({t.id: pred_for(t.id, []) for t in ts.negatives()})
    rows = scored(preds, ts)
    with caplog.at_level("WARNING", logger="recollab.metrics"):
        build_report(rows, ts)
    assert caplog.messages == []
    pos, neg = ts.positives()[1], ts.negatives()[0]
    partial = {task_id: row for task_id, row in rows.items() if task_id not in (pos.id, neg.id)}
    with caplog.at_level("WARNING", logger="recollab.metrics"):
        build_report(partial, ts)
    want = (
        f"no prediction for 2 tasks (first {neg.id}): "
        "positives count as misses, negatives score confidence 0"
    )
    assert [m for m in caplog.messages if "tasks" in m] == [want]


def random_ranked(rng, gt, conf_pool, max_boxes=4):
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        hit = rng.random() < 0.5
        base = box_with_iou_above(gt, hit=hit)
        jitter = rng.uniform(-1.0, 1.0)
        box = BBox(base.x0 + jitter, base.y0 + jitter, base.x1 + jitter, base.y1 + jitter)
        boxes.append((box, rng.choice(conf_pool)))
    boxes.sort(key=lambda item: -item[1])
    return boxes


def test_recall_matches_rank_counting_oracle():
    rng = random.Random(2026)
    conf_pool = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]  # coarse grid forces ties
    ts = paired_taskset(1)
    pos, neg = ts.positives()[0], ts.negatives()[0]
    pairs = pair_negatives(ts)
    for _ in range(500):
        pos_boxes = random_ranked(rng, GT, conf_pool)
        neg_boxes = random_ranked(rng, GT, conf_pool)
        preds = {
            pos.id: pred_for(pos.id, pos_boxes),
            neg.id: pred_for(neg.id, neg_boxes),
        }
        k = rng.randint(1, 5)
        got = recall_at_k(pairs, scored(preds, ts), k)
        want = rank_pair_hit(
            [(conf, iou(box, GT)) for box, conf in pos_boxes],
            [conf for _, conf in neg_boxes],
            k,
        )
        assert got == float(want)


def test_recall_monotone_in_k():
    rng = random.Random(31)
    ts = paired_taskset(1)
    pos, neg = ts.positives()[0], ts.negatives()[0]
    pairs = pair_negatives(ts)
    conf_pool = [0.2, 0.4, 0.6, 0.8]
    for _ in range(200):
        preds = {
            pos.id: pred_for(pos.id, random_ranked(rng, GT, conf_pool)),
            neg.id: pred_for(neg.id, random_ranked(rng, GT, conf_pool)),
        }
        preds = scored(preds, ts)
        values = [recall_at_k(pairs, preds, k) for k in (1, 2, 3, 5, 8)]
        assert values == sorted(values)


def test_recall_never_exceeds_precision():
    # pooling can only push the positive's boxes down, never up
    rng = random.Random(32)
    conf_pool = [0.25, 0.5, 0.75]
    for _ in range(100):
        ts = paired_taskset(4)
        preds = {}
        for task in ts.tasks:
            gt = task.gt_box if task.is_positive else GT
            preds[task.id] = pred_for(task.id, random_ranked(rng, gt, conf_pool))
        preds = scored(preds, ts)
        for k in (1, 3, 5):
            assert recall_at_k(pair_negatives(ts), preds, k) <= precision_at_k(preds, ts, k)


# ------------------------------------------------------------------ auroc


def test_auroc_known_values():
    assert auroc([0.9, 0.4], [0.6, 0.2]) == 0.75
    assert auroc([0.9, 0.8], [0.2, 0.1]) == 1.0
    assert auroc([0.1], [0.9]) == 0.0
    assert auroc([0.5], [0.5]) == 0.5
    assert auroc([0.5, 0.5], [0.5]) == 0.5


def test_auroc_rejects_empty():
    with pytest.raises(ValueError):
        auroc([], [0.5])
    with pytest.raises(ValueError):
        auroc([0.5], [])


def test_auroc_matches_brute_force_exactly():
    rng = random.Random(1234)
    for _ in range(500):
        pool = [round(rng.random(), 2) for _ in range(10)]  # duplicates make ties
        pos = [rng.choice(pool) for _ in range(rng.randint(1, 200))]
        neg = [rng.choice(pool) for _ in range(rng.randint(1, 200))]
        assert auroc(pos, neg) == brute_auroc(pos, neg)


def test_auroc_complement_symmetry():
    rng = random.Random(55)
    for _ in range(200):
        pos = [rng.random() for _ in range(rng.randint(1, 30))]
        neg = [rng.random() for _ in range(rng.randint(1, 30))]
        assert auroc(pos, neg) + auroc(neg, pos) == pytest.approx(1.0, abs=1e-12)


def test_auroc_invariant_under_monotone_transform():
    rng = random.Random(56)
    for _ in range(100):
        pos = [rng.choice([0.1, 0.3, 0.5, 0.7]) for _ in range(rng.randint(1, 20))]
        neg = [rng.choice([0.1, 0.3, 0.5, 0.7]) for _ in range(rng.randint(1, 20))]
        squash = lambda x: x / (1.0 + x)  # strictly increasing on [0, 1]
        assert auroc(pos, neg) == auroc([squash(x) for x in pos], [squash(x) for x in neg])


# ----------------------------------------------------------------- report


def test_cell_rendering():
    cells = [
        {"value": 0.75, "numerator": 3, "denominator": 4},
        {"value": None, "numerator": None, "denominator": 0},
        {"value": 0.5, "numerator": 7.5, "denominator": 15},
    ]
    report = build_report({}, TaskSet(Split.TEST, []), ks=(1,))
    report["precision_at_k"]["1"] = {f"g{i}": cell for i, cell in enumerate(cells)}
    lines = [line for line in render_text(report).splitlines() if line.startswith("  P@")]
    assert [line.split(maxsplit=2)[2] for line in lines] == [
        "0.7500 (3/4)",
        "absent (n=0)",
        "0.5000 (7.5/15)",
    ]


def test_pathway_arithmetic():
    rows = {
        f"t{i}": Score(0.5, Pathway.FAST if i < 40 else Pathway.SLOW, False) for i in range(100)
    }
    empty = TaskSet(Split.TEST, [])
    report = build_report(rows, empty, unit_costs={"fast": 1.0, "slow": 10.0})
    stats = report["pathways"]
    assert stats["counts"] == {"fast": 40, "slow": 60}
    assert stats["total_tasks"] == 100
    assert stats["total_cost"] == 640.0
    text = render_text(report)
    assert "  fast       tasks     40  share  40.0%  unit cost 1  cost 40\n" in text
    assert "  slow       tasks     60  share  60.0%  unit cost 10  cost 600\n" in text
    assert "  total tasks 100  total cost 640\n" in text
    assert "missing" not in text
    stats = build_report({}, empty)["pathways"]
    assert (stats["counts"], stats["total_tasks"], stats["total_cost"]) == ({}, 0, 0.0)
    assert "  total tasks 0  total cost 0\n" in render_text(build_report({}, empty))


def full_report_fixture():
    ts = paired_taskset(4)
    preds = {}
    for i, task in enumerate(ts.positives()):
        hit = i % 2 == 0
        conf = 0.9 - 0.1 * i
        preds[task.id] = pred_for(task.id, [(box_with_iou_above(GT, hit=hit), conf)], Pathway.FAST)
    for i, task in enumerate(ts.negatives()):
        if i % 2 == 0:
            preds[task.id] = pred_for(task.id, [], Pathway.SLOW)
        else:
            preds[task.id] = pred_for(task.id, [(BBox(500, 500, 600, 600), 0.3)], Pathway.SLOW)
    return ts, scored(preds, ts)


def test_build_report_structure():
    ts, preds = full_report_fixture()
    report = build_report(
        preds,
        ts,
        ks=(1, 5),
        unit_costs={"fast": 1.0, "slow": 10.0},
        metadata={"config_hash": "abc"},
    )
    precision, recall = report["precision_at_k"]["1"], report["recall_at_k"]["1"]
    assert precision["overall"]["denominator"] == 4
    assert precision["overall"]["value"] == 0.5
    assert "L1" in precision  # every positive here is L1
    assert "L2" not in precision
    assert recall["overall"]["denominator"] == 4
    assert "replace.object.L1" in recall
    assert report["auroc"]["overall"]["denominator"] == 16
    assert "negative_expression" in report["auroc"]
    assert "negative_image" not in report["auroc"]
    assert "replace.object.L1" in report["auroc"]
    assert report["pathways"]["counts"] == {"fast": 4, "slow": 4}
    assert report["pathways"]["total_cost"] == 4 * 1.0 + 4 * 10.0
    assert report["metadata"]["config_hash"] == "abc"


def test_build_report_auroc_cell_is_exact_counting():
    ts, preds = full_report_fixture()
    report = build_report(preds, ts)
    pos_scores = [preds[t.id].confidence for t in ts.positives()]
    neg_scores = [preds[t.id].confidence for t in ts.negatives()]
    cell = report["auroc"]["overall"]
    assert cell["value"] == brute_auroc(pos_scores, neg_scores)
    assert cell["numerator"] == cell["value"] * cell["denominator"]


def test_build_report_missing_predictions():
    ts = paired_taskset(2)
    pos = ts.positives()[0]
    preds = {pos.id: pred_for(pos.id, [(box_with_iou_above(GT), 0.9)], Pathway.FAST)}
    report = build_report(scored(preds, ts), ts)
    # precision denominator stays at all positives; missing ones are misses
    assert report["precision_at_k"]["1"]["overall"]["denominator"] == 2
    assert report["precision_at_k"]["1"]["overall"]["value"] == 0.5
    # recall drops pairs with missing members entirely
    assert report["recall_at_k"]["1"]["overall"]["denominator"] == 0
    assert report["recall_at_k"]["1"]["overall"]["value"] is None
    # auroc scores missing predictions as confidence 0
    assert report["auroc"]["overall"]["denominator"] == 4


def test_build_report_difficulty_breakdown():
    pos_l1 = make_positive(0, difficulty=Difficulty.L1)
    pos_l3 = make_positive(1, difficulty=Difficulty.L3)
    ts = TaskSet(Split.TEST, [pos_l1, pos_l3, make_negative(0, pos_l1)])
    preds = {
        pos_l1.id: pred_for(pos_l1.id, [(box_with_iou_above(GT), 0.9)]),
        pos_l3.id: pred_for(pos_l3.id, [(box_with_iou_above(GT, hit=False), 0.8)]),
        "neg-00000": pred_for("neg-00000", []),
    }
    report = build_report(scored(preds, ts), ts)
    assert report["precision_at_k"]["1"]["L1"]["value"] == 1.0
    assert report["precision_at_k"]["1"]["L3"]["value"] == 0.0
    assert "L2" not in report["precision_at_k"]["1"]


def test_report_dict_and_render():
    ts, preds = full_report_fixture()
    report = build_report(preds, ts, unit_costs={"fast": 1.0, "slow": 10.0})
    assert set(report["precision_at_k"]) == {"1", "5"}
    assert report["pathways"]["provenance"] == COST_PROVENANCE

    text = render_text(report)
    assert "Precision@k over positive tasks" in text
    assert "Recall@k over negative-positive pairs" in text
    assert "AUROC" in text
    assert "supplied by configuration" in text
    assert "/16)" in text  # denominators are visible


# ------------------------------------------------- report against references

# kinds a negative expression can carry; flip edits exist only on negative images
EXPRESSION_KINDS = (
    NegativeKind(edit=NegEdit.REPLACE, facet=NegFacet.OBJECT, locus=NegLocus.L1),
    NegativeKind(edit=NegEdit.SWAP, facet=NegFacet.ATTRIBUTE, locus=NegLocus.L2),
    NegativeKind(edit=NegEdit.REPLACE, facet=NegFacet.RELATION, locus=NegLocus.L2),
)
IMAGE_KINDS = EXPRESSION_KINDS[:2] + (
    NegativeKind(edit=NegEdit.FLIP, facet=NegFacet.RELATION, locus=NegLocus.L1),
)
# carried by one pair only, whose negative has no prediction: an absent cell
DROPPED_KIND = NegativeKind(edit=NegEdit.SWAP, facet=NegFacet.RELATION, locus=NegLocus.L2)


def seeded_report_fixture(seed, n_pos=40):
    """Positives of every difficulty (and none), negatives of both polarities
    and several kinds, coarse confidences that tie, missing predictions."""
    rng = random.Random(seed)
    conf_pool = [0.2, 0.4, 0.6, 0.8]
    tasks, preds = [], {}

    def predict(task):
        if rng.random() >= 0.1:
            preds[task.id] = pred_for(task.id, random_ranked(rng, GT, conf_pool))

    n_neg = 0
    for i in range(n_pos):
        pos = make_positive(i, difficulty=rng.choice([*Difficulty, None]))
        tasks.append(pos)
        predict(pos)
        for _ in range(rng.randint(0, 2)):
            polarity = rng.choice([Polarity.NEGATIVE_EXPRESSION, Polarity.NEGATIVE_IMAGE])
            kinds = IMAGE_KINDS if polarity is Polarity.NEGATIVE_IMAGE else EXPRESSION_KINDS
            neg = make_negative(n_neg, pos, polarity=polarity, kind=rng.choice(kinds))
            n_neg += 1
            tasks.append(neg)
            predict(neg)
    tasks.append(make_negative(n_neg, tasks[0], kind=DROPPED_KIND))
    return TaskSet(Split.TEST, tasks), preds


def reference_report(ts, preds, ks):
    """(numerator, denominator) per cell, by direct counting: top-k slices for
    precision, rank counting for recall, all-pairs counting for AUROC."""
    positives, negatives, pairs = ts.positives(), ts.negatives(), pair_negatives(ts)

    def top_k_hit(task, k):
        pred = preds.get(task.id)
        if pred is None:
            return False
        return any(iou(box, task.gt_box) > 0.5 for box, _ in pred.ranked_boxes[:k])

    def pair_hit(pair, k):
        pos_boxes = preds[pair.positive.id].ranked_boxes
        neg_boxes = preds[pair.negative.id].ranked_boxes
        pos_entries = [(conf, iou(box, pair.positive.gt_box)) for box, conf in pos_boxes]
        return rank_pair_hit(pos_entries, [conf for _, conf in neg_boxes], k)

    def count(hits):
        return (sum(hits), len(hits)) if hits else (None, 0)

    pos_groups = {"overall": positives}
    for level in Difficulty:
        if any(t.difficulty is level for t in positives):
            pos_groups[level.value] = [t for t in positives if t.difficulty is level]
    kinds = sorted({p.negative.negative_kind.key() for p in pairs})
    pair_groups = {"overall": pairs}
    for key in kinds:
        pair_groups[key] = [p for p in pairs if p.negative.negative_kind.key() == key]
    scorable = {
        g: [p for p in members if p.positive.id in preds and p.negative.id in preds]
        for g, members in pair_groups.items()
    }
    precision = {
        k: {g: count([top_k_hit(t, k) for t in members]) for g, members in pos_groups.items()}
        for k in ks
    }
    recall = {
        k: {g: count([pair_hit(p, k) for p in members]) for g, members in scorable.items()}
        for k in ks
    }

    def confidence(task):
        return preds[task.id].confidence if task.id in preds else 0.0

    neg_groups = {"overall": negatives}
    for polarity in (Polarity.NEGATIVE_EXPRESSION, Polarity.NEGATIVE_IMAGE):
        neg_groups[polarity.value] = [t for t in negatives if t.polarity is polarity]
    for key in kinds:
        neg_groups[key] = [t for t in negatives if t.negative_kind.key() == key]
    pos_scores = [confidence(t) for t in positives]
    aurocs = {}
    for g, members in neg_groups.items():
        scores = [confidence(t) for t in members]
        aurocs[g] = (brute_auroc(pos_scores, scores), len(pos_scores) * len(scores))
    return precision, recall, aurocs


@pytest.mark.parametrize("seed", range(8))
def test_report_cells_match_brute_force_counting(seed):
    ts, preds = seeded_report_fixture(seed)
    ks = (1, 2, 5)
    want_precision, want_recall, want_auroc = reference_report(ts, preds, ks)
    report = build_report(scored(preds, ts), ts, ks=ks)

    kinds = sorted({t.negative_kind.key() for t in ts.negatives()})
    assert DROPPED_KIND.key() in kinds and len(kinds) >= 4
    assert {t.difficulty for t in ts.positives()} >= set(Difficulty)
    assert any(t.id not in preds for t in ts.positives())
    for k in ks:
        precision, recall = report["precision_at_k"][str(k)], report["recall_at_k"][str(k)]
        assert list(precision) == ["overall", "L1", "L2", "L3"]
        assert list(recall) == ["overall", *kinds]
        cells = {g: (c["numerator"], c["denominator"]) for g, c in precision.items()}
        assert cells == want_precision[k]
        cells = {g: (c["numerator"], c["denominator"]) for g, c in recall.items()}
        assert cells == want_recall[k]
    assert report["recall_at_k"]["1"][DROPPED_KIND.key()]["value"] is None

    assert list(report["auroc"]) == ["overall", "negative_expression", "negative_image", *kinds]
    for group, cell in report["auroc"].items():
        value, denominator = want_auroc[group]
        assert (cell["value"], cell["denominator"]) == (value, denominator)
        assert cell["numerator"] == pytest.approx(value * denominator)
