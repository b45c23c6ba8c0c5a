"""Annotation schema: invariants, round-trips, counts, pairing."""

import copy
import json
import pickle

import pytest

from recollab import (
    BBox,
    DatasetError,
    EvalPair,
    NegativeKind,
    Polarity,
    RecTask,
    TaskSet,
    load_taskset,
    pair_negatives,
    save_taskset,
    render_census,
    validate_counts,
)
from recollab.datamodel import (
    COUNT_KEYS,
    Extras,
    NegEdit,
    NegFacet,
    NegLocus,
    Split,
    image_ref,
    record_to_task,
    task_to_record,
)
from recollab import datamodel
from recollab.prediction import Pathway, Prediction, RouteDecision

from helpers import make_negative, make_positive, paired_taskset


def test_positive_requires_gt_box():
    with pytest.raises(DatasetError):
        RecTask(id="t", image="i", expression="e", polarity=Polarity.POSITIVE)


def test_positive_rejects_pairing_fields():
    kind = NegativeKind(edit=NegEdit.REPLACE, facet=NegFacet.OBJECT, locus=NegLocus.L1)
    with pytest.raises(DatasetError):
        RecTask(
            id="t",
            image="i",
            expression="e",
            polarity=Polarity.POSITIVE,
            gt_box=BBox(0, 0, 1, 1),
            paired_positive="other",
        )
    with pytest.raises(DatasetError):
        RecTask(
            id="t",
            image="i",
            expression="e",
            polarity=Polarity.POSITIVE,
            gt_box=BBox(0, 0, 1, 1),
            negative_kind=kind,
        )


def test_negative_requires_pairing_and_kind():
    with pytest.raises(DatasetError):
        RecTask(id="t", image="i", expression="e", polarity=Polarity.NEGATIVE_EXPRESSION)
    with pytest.raises(DatasetError):
        RecTask(
            id="t",
            image="i",
            expression="e",
            polarity=Polarity.NEGATIVE_EXPRESSION,
            paired_positive="p",
        )


def test_negative_rejects_gt_box():
    kind = NegativeKind(edit=NegEdit.SWAP, facet=NegFacet.RELATION, locus=NegLocus.L2)
    with pytest.raises(DatasetError):
        RecTask(
            id="t",
            image="i",
            expression="e",
            polarity=Polarity.NEGATIVE_EXPRESSION,
            paired_positive="p",
            negative_kind=kind,
            gt_box=BBox(0, 0, 1, 1),
        )


def test_flip_only_on_negative_images():
    flip = NegativeKind(edit=NegEdit.FLIP, facet=NegFacet.RELATION, locus=NegLocus.L1)
    with pytest.raises(DatasetError):
        RecTask(
            id="t",
            image="i",
            expression="e",
            polarity=Polarity.NEGATIVE_EXPRESSION,
            paired_positive="p",
            negative_kind=flip,
        )
    RecTask(
        id="t",
        image="i",
        expression="e",
        polarity=Polarity.NEGATIVE_IMAGE,
        paired_positive="p",
        negative_kind=flip,
    )


def test_empty_fields_rejected():
    with pytest.raises(DatasetError):
        RecTask(id="", image="i", expression="e", polarity=Polarity.POSITIVE, gt_box=BBox(0, 0, 1, 1))
    with pytest.raises(DatasetError):
        RecTask(id="t", image="i", expression="", polarity=Polarity.POSITIVE, gt_box=BBox(0, 0, 1, 1))


def test_negative_kind_key_and_round_trip():
    kind = NegativeKind(edit=NegEdit.SWAP, facet=NegFacet.ATTRIBUTE, locus=NegLocus.L2)
    assert kind.key() == "swap.attribute.L2"
    assert NegativeKind.from_dict(kind.to_dict()) == kind
    with pytest.raises(ValueError):
        NegativeKind.from_dict({"edit": "invert", "facet": "object", "locus": "L1"})


def test_taskset_build_rejects_duplicates():
    pos = make_positive(0)
    with pytest.raises(DatasetError, match=r"^\[task 'pos-00000'\] duplicate task id$"):
        TaskSet(Split.TEST, (pos, pos))


def test_taskset_build_rejects_dangling_pair():
    neg = make_negative(0, make_positive(0))
    with pytest.raises(DatasetError):
        TaskSet(Split.TEST, [neg])


def test_taskset_build_rejects_pairing_to_negative():
    pos = make_positive(0)
    neg_a = make_negative(0, pos)
    neg_b = RecTask(
        id="neg-b",
        image="i",
        expression="e",
        polarity=Polarity.NEGATIVE_EXPRESSION,
        negative_kind=NegativeKind(edit=NegEdit.REPLACE, facet=NegFacet.OBJECT, locus=NegLocus.L1),
        paired_positive=neg_a.id,
    )
    with pytest.raises(DatasetError):
        TaskSet(Split.TEST, [pos, neg_a, neg_b])


def test_taskset_accessors():
    ts = paired_taskset(3)
    assert len(ts) == 6
    assert len(ts.positives()) == 3
    assert len(ts.negatives()) == 3
    assert ts.get("pos-00001").is_positive


def test_a_taskset_built_directly_indexes_and_checks_its_tasks():
    pos = make_positive(0)
    neg = make_negative(0, pos)
    ts = TaskSet(Split.TEST, (pos, neg))
    assert ts.get(pos.id) is pos and ts.get(neg.id) is neg and ts.get("other") is None
    assert pair_negatives(ts) == [EvalPair(positive=pos, negative=neg)]
    assert TaskSet("test", iter([pos])).split is Split.TEST


def test_record_round_trip_preserves_extras():
    task = make_positive(1, extras={"width": 640, "height": 480, "zeta": [1, 2], "alpha": "x"})
    record = task_to_record(task)
    assert record_to_task(record) == task
    # extras follow the canonical fields, sorted by key
    keys = list(record)
    assert keys[:6] == ["id", "image", "expression", "polarity", "difficulty", "gt_box"]
    assert keys[6:] == ["alpha", "height", "width", "zeta"]


def test_record_field_order_is_canonical():
    task = make_negative(2, make_positive(2))
    keys = list(task_to_record(task))
    assert keys == ["id", "image", "expression", "polarity", "difficulty", "negative_kind", "paired_positive"]


def test_save_load_byte_identical(tmp_path):
    ts = paired_taskset(10)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    save_taskset(ts, path_a)
    loaded = load_taskset(path_a, "test")
    assert loaded.tasks == ts.tasks
    save_taskset(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_save_writes_unicode_verbatim(tmp_path):
    task = make_positive(0, expression="das größte Krokodil")
    ts = TaskSet(Split.TEST, [task])
    path = tmp_path / "u.jsonl"
    save_taskset(ts, path)
    assert "das größte Krokodil" in path.read_text(encoding="utf-8")
    assert load_taskset(path, Split.TEST).tasks[0].expression == "das größte Krokodil"


def test_load_reports_line_numbers(tmp_path):
    good = json.dumps(task_to_record(make_positive(0)))
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + "{not json\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert exc_info.value.line == 2
    assert "line 2" in str(exc_info.value)


def test_load_reports_missing_field_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "image": "i", "polarity": "positive"}\n', encoding="utf-8")
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert exc_info.value.line == 1


def test_load_skips_blank_lines(tmp_path):
    record = json.dumps(task_to_record(make_positive(0)))
    path = tmp_path / "gaps.jsonl"
    path.write_text("\n" + record + "\n\n", encoding="utf-8")
    assert len(load_taskset(path, "test")) == 1


@pytest.mark.parametrize("tail", [" {}", ' {"id": "x"}', " x", "x", "]"])
def test_load_refuses_data_after_the_record(tmp_path, tail):
    good = json.dumps(task_to_record(make_positive(0)))
    path = tmp_path / "extra.jsonl"
    path.write_text(good + "\n" + good + tail + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert str(exc_info.value) == "[line 2] malformed JSON: Extra data"


@pytest.mark.parametrize("line", ["[1, 2]", "[]", '"text"', "5", "null"])
def test_load_refuses_a_record_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "array.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert str(exc_info.value) == "[line 2] record is not a JSON object"


def test_load_strips_whitespace_around_each_record(tmp_path):
    pos = make_positive(0)
    neg = make_negative(0, pos)
    lines = [json.dumps(task_to_record(task)) for task in (pos, neg)]
    path = tmp_path / "spaced.jsonl"
    path.write_text(f"  \t{lines[0]}  \r\n \n\n\t{lines[1]}\t", encoding="utf-8")
    assert load_taskset(path, "test").tasks == (pos, neg)


def test_validate_counts_census():
    ts = paired_taskset(4)
    report = validate_counts(ts)
    assert report["split"] == "test"
    assert report["total"] == 8
    assert report["by_polarity"]["positive"] == 4
    assert report["by_polarity"]["negative_expression"] == 4
    assert report["by_polarity"]["negative_image"] == 0
    assert report["by_difficulty"]["L1"] == 8
    assert report["passed"] is True  # no expected counts means nothing to fail
    assert report["checks"] == []


def test_validate_counts_pass_and_fail():
    ts = paired_taskset(4)
    expected = {
        "total": 8,
        "pairs": 4,
        "positive": 4,
        "negative_expression": 4,
        "negative_image": 0,
        "difficulty.L1": 8,
    }
    report = validate_counts(ts, expected)
    assert report["passed"] is True
    assert "PASS" in render_census(report)

    bad = validate_counts(ts, {"positive": 5})
    assert bad["passed"] is False
    assert any(c["delta"] == -1 for c in bad["checks"])
    assert "FAIL" in render_census(bad)


def test_validate_counts_returns_the_validation_json_entry():
    data = validate_counts(paired_taskset(2), {"total": 4})
    assert data["passed"] is True
    assert data["checks"][0]["key"] == "total"

    data = validate_counts(paired_taskset(2), {"total": 4, "positive": 3})
    assert data["passed"] is False
    assert data["checks"] == [
        {"key": "positive", "expected": 3, "actual": 2, "delta": -1, "ok": False},
        {"key": "total", "expected": 4, "actual": 4, "delta": 0, "ok": True},
    ]
    assert json.loads(json.dumps(data)) == data


def test_validate_counts_refuses_a_key_that_names_no_count():
    census = validate_counts(paired_taskset(2), dict.fromkeys(COUNT_KEYS, 0))
    # every census count is a key, and a checked one
    assert [check["key"] for check in census["checks"]] == sorted(COUNT_KEYS)
    with pytest.raises(KeyError, match="'difficulty.L4'"):
        validate_counts(paired_taskset(2), {"negative_images": 0, "difficulty.L4": 0, "total": 4})


def test_pair_negatives_is_total_and_ordered():
    ts = paired_taskset(5)
    pairs = pair_negatives(ts)
    assert len(pairs) == 5
    assert [p.negative.id for p in pairs] == [t.id for t in ts.negatives()]
    for pair in pairs:
        assert pair.positive.id == pair.negative.paired_positive


def test_eval_pair_validates_reference():
    pos_a, pos_b = make_positive(0), make_positive(1)
    neg = make_negative(0, pos_a)
    EvalPair(positive=pos_a, negative=neg)
    with pytest.raises(DatasetError):
        EvalPair(positive=pos_b, negative=neg)
    with pytest.raises(DatasetError):
        EvalPair(positive=neg, negative=neg)


def test_image_ref_from_extras_and_default():
    sized = make_positive(0, extras={"width": 640, "height": 480})
    ref = image_ref(sized)
    assert (ref.image_id, ref.width, ref.height) == (sized.image, 640, 480)
    bare = make_positive(1)
    assert (image_ref(bare).width, image_ref(bare).height) == (1000, 1000)


def test_image_ref_rejects_bad_size():
    from recollab.datamodel import ImageRef

    with pytest.raises(ValueError):
        ImageRef(image_id="x", width=0, height=10)
    with pytest.raises(ValueError):
        ImageRef(image_id="", width=10, height=10)


def test_difficulty_unlabeled_bucket():
    pos = make_positive(0, difficulty=None)
    report = validate_counts(TaskSet(Split.TEST, [pos]))
    assert report["by_difficulty"]["unlabeled"] == 1


# ------------------------------------------------- shared values, slotted records


def _sharing_records():
    """A positive, a negative-expression and a negative-image task on it, and a second
    positive whose negative has the first negatives' kind."""
    kind = NegativeKind(edit=NegEdit.SWAP, facet=NegFacet.OBJECT, locus=NegLocus.L1)
    pos = make_positive(0, image="img-0", extras={"width": 640, "height": 480})
    other = make_positive(1, extras={"width": 640, "height": 480})
    tasks = [
        pos,
        make_negative(0, pos, kind=kind, image="img-0", expression="the missing object"),
        make_negative(1, pos, Polarity.NEGATIVE_IMAGE, kind=kind, expression=pos.expression),
        other,
        make_negative(2, other, kind=kind),
    ]
    # each record is decoded on its own, so no two hold the same string object
    return [json.loads(json.dumps(task_to_record(task))) for task in tasks]


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_load_taskset_holds_equal_values_once(tmp_path):
    path = _write_records(tmp_path / "t.jsonl", _sharing_records())
    pos, neg_expr, neg_img, other, neg_other = load_taskset(path, "test").tasks
    assert neg_expr.image is pos.image
    assert neg_img.expression is pos.expression
    assert neg_expr.paired_positive is pos.id and neg_img.paired_positive is pos.id
    assert neg_other.paired_positive is other.id
    assert neg_expr.negative_kind is neg_img.negative_kind is neg_other.negative_kind
    assert sorted(other.extras) == ["height", "width"]
    for key, value in other.extras.items():
        assert next(k for k in pos.extras if k == key) is key
        assert pos.extras[key] is value


def test_load_taskset_equals_unshared_record_to_task(tmp_path):
    records = _sharing_records()
    path = _write_records(tmp_path / "t.jsonl", records)
    loaded = load_taskset(path, "test").tasks
    assert list(loaded) == [record_to_task(r) for r in records]


def test_a_loads_string_table_holds_strings_alone():
    # one non-string key would turn the whole table into a dict's general layout
    shared = {}
    for record in _sharing_records():
        record_to_task(record, shared=shared)
    assert set(shared) == {str, int, NegativeKind, Extras}
    assert shared[str] and all(type(key) is str for key in shared[str])
    assert sorted(shared[int]) == [480, 640]
    assert len(shared[NegativeKind]) == 1 and len(shared[Extras]) == 2


def test_the_record_types_are_slotted():
    pos = make_positive(0)
    neg = make_negative(0, pos)
    decision = RouteDecision(detection_count=1, target="widget", threshold_used=0.2)
    pred = Prediction("t", pos.gt_box, 0.5, Pathway.FAST, decision=decision)
    pair = EvalPair(positive=pos, negative=neg)
    for value in (pos, neg.negative_kind, pos.gt_box, decision, pred, pair, pos.extras):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_load_taskset_shares_extras_only_between_exact_ints_and_strings(tmp_path):
    flags = [1, True, 1.0, [1], 1, True, "1", 1.0, -0.0, 0.0, -0.0]
    records = [
        {**task_to_record(make_positive(i, extras={"flag": flag})), "width": 640}
        for i, flag in enumerate(flags)
    ]
    path = _write_records(tmp_path / "in.jsonl", records)
    tasks = load_taskset(path, "test").tasks
    save_taskset(TaskSet("test", tasks), tmp_path / "out.jsonl")
    # 1, True and 1.0 compare equal, and so do -0.0 and 0.0, but each is written back as read
    assert (tmp_path / "out.jsonl").read_bytes() == path.read_bytes()
    assert [task.extras["flag"] for task in tasks] == flags
    assert [type(task.extras["flag"]) for task in tasks] == list(map(type, flags))
    # one object per distinct extras of exact ints and strings, none for the rest
    assert tasks[4].extras is tasks[0].extras and tasks[6].extras is not tasks[0].extras
    held = {id(task.extras) for task in tasks}
    assert len(held) == len(tasks) - 1
    assert all(type(task.extras) is Extras for task in tasks)


def test_a_load_shares_a_bounded_number_of_extras_and_every_equal_int(tmp_path, monkeypatch):
    monkeypatch.setattr(datamodel, "_SHARED_EXTRAS", 4)
    heights = [1000, 1001, 1002, 1003, 1004, 1005, 1000, 1005]
    records = [
        {**task_to_record(make_positive(i)), "height": height, "width": 1000}
        for i, height in enumerate(heights)
    ]
    path = _write_records(tmp_path / "in.jsonl", records)
    tasks = load_taskset(path, "test").tasks
    save_taskset(TaskSet("test", tasks), tmp_path / "out.jsonl")
    assert (tmp_path / "out.jsonl").read_bytes() == path.read_bytes()
    # the first four distinct extras are shared; later ones are not kept for reuse
    assert tasks[6].extras is tasks[0].extras
    assert tasks[7].extras is not tasks[5].extras and tasks[7].extras == tasks[5].extras
    shared = {}
    for record in records:
        record_to_task(record, shared=shared)
    assert len(shared[Extras]) == 4
    # an equal int is one object across distinct extras, as the other loaded values are
    assert len({id(task.extras["width"]) for task in tasks}) == 1
    assert tasks[6].extras["height"] is tasks[0].extras["height"]


def test_a_tasks_extras_are_read_only(tmp_path):
    path = _write_records(tmp_path / "t.jsonl", _sharing_records())
    pos, _, _, other, _ = load_taskset(path, "test").tasks
    assert pos.extras is other.extras
    changes = [
        lambda e: e.__setitem__("width", 1),
        lambda e: e.__delitem__("width"),
        lambda e: e.update(width=1),
        lambda e: e.setdefault("depth", 1),
        lambda e: e.pop("width"),
        lambda e: e.popitem(),
        lambda e: e.clear(),
        lambda e: e.__ior__({"width": 1}),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(pos.extras)
    assert pos.extras == {"width": 640, "height": 480} == other.extras
    for clone in (pickle.loads(pickle.dumps(pos)), copy.deepcopy(pos), copy.copy(pos)):
        assert clone == pos and type(clone.extras) is Extras
        with pytest.raises(TypeError, match="read-only"):
            clone.extras["width"] = 1
    assert copy.deepcopy(pos).extras is not pos.extras
    with pytest.raises(DatasetError, match="height must be a positive integer"):
        pos._replace(extras={"height": 0})
    # a plain dict given to a task is copied once, so changing it changes no task
    given = {"width": 640}
    task = make_positive(0)._replace(extras=given)
    given["width"] = 0
    assert task.extras == {"width": 640}


def test_a_task_is_an_immutable_validated_named_tuple():
    pos = make_positive(0, extras={"width": 640, "height": 480})
    neg = make_negative(0, pos)
    for task, name in ((pos, "id"), (pos, "gt_box"), (neg, "extras"), (neg, "polarity")):
        with pytest.raises(AttributeError):
            setattr(task, name, None)
    # the named-tuple constructors check the invariants as well
    assert pos._replace(expression="the other one").expression == "the other one"
    assert RecTask._make(neg) == neg and RecTask._make(pos) == pos
    with pytest.raises(DatasetError, match="gt_box must be present exactly on positive tasks"):
        pos._replace(gt_box=None)
    with pytest.raises(DatasetError, match="height must be a positive integer"):
        pos._replace(extras={"height": 0})
    with pytest.raises(DatasetError, match="empty expression"):
        RecTask._make([*neg[:2], "", *neg[3:]])
    for task in (pos, neg):
        copy = pickle.loads(pickle.dumps(task))
        assert copy == task and type(copy) is RecTask
    # a task built without extras gets an empty dict of its own
    bare = [RecTask("a", "img", "expr", Polarity.POSITIVE, gt_box=BBox(0, 0, 1, 1)) for _ in "ab"]
    assert bare[0].extras == {} and bare[0].extras is not bare[1].extras


_BAD_VALUES = {"unknown": "bogus", "list": ["swap"], "dict": {"a": 1}}


@pytest.mark.parametrize("value_id", list(_BAD_VALUES))
@pytest.mark.parametrize(
    "field, message",
    [
        ("polarity", "[line 3] bad polarity: {} is not a valid Polarity"),
        ("difficulty", "[line 3, task 'neg-00009'] bad difficulty: {} is not a valid Difficulty"),
        ("edit", "[line 3, task 'neg-00009'] bad negative_kind: {} is not a valid NegEdit"),
        ("facet", "[line 3, task 'neg-00009'] bad negative_kind: {} is not a valid NegFacet"),
        ("locus", "[line 3, task 'neg-00009'] bad negative_kind: {} is not a valid NegLocus"),
    ],
)
def test_a_bad_enum_value_is_refused_with_its_message(tmp_path, field, message, value_id):
    # the second line loads a kind first, so the third is looked up among known ones
    records = _sharing_records()[:2]
    bad = json.loads(json.dumps(records[1]))
    bad["id"] = "neg-00009"
    value = _BAD_VALUES[value_id]
    if field in ("edit", "facet", "locus"):
        bad["negative_kind"][field] = value
    else:
        bad[field] = value
    path = _write_records(tmp_path / "bad.jsonl", [*records, bad])
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert str(exc_info.value) == message.format(repr(value))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", 5, "[line 3] id must be a string, got 5"),
        ("image", ["img-0"], "[line 3] [task 'neg-00009'] image must be a string, got ['img-0']"),
        ("expression", 7.5, "[line 3] [task 'neg-00009'] expression must be a string, got 7.5"),
        (
            "paired_positive",
            0,
            "[line 3] [task 'neg-00009'] paired_positive must be a string, got 0",
        ),
    ],
)
def test_a_non_string_id_image_expression_or_pair_is_refused(tmp_path, field, value, message):
    records = _sharing_records()[:2]
    bad = json.loads(json.dumps(records[1]))
    bad["id"] = "neg-00009"
    bad[field] = value
    path = _write_records(tmp_path / "bad.jsonl", [*records, bad])
    with pytest.raises(DatasetError) as exc_info:
        load_taskset(path, "test")
    assert str(exc_info.value) == message
