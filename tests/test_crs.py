"""Candidate generation, choice prompting, selection, and tuning export."""

import random

import pytest

from recollab import BBox, Detection, Pathway, TaskSet, iou
from recollab.backends import BackendBundle
from recollab.backends.types import BackendError, GroundingResult, SelectionResult
from recollab.crs import (
    CandidateSet,
    CrsParams,
    TuningParams,
    TuningSample,
    build_choice_prompt,
    candidate_hit,
    export_tuning,
    generate_candidates,
    load_tuning,
    match_option_label,
    option_label,
    parse_choice,
    run_crs,
    save_tuning,
)
from recollab.datamodel import Split

from helpers import (
    SLOT_BOXES,
    SlotGrounder,
    make_negative,
    make_positive,
    make_slot_positive,
    slot_gt,
)


def det(x0, y0, x1, y1, score):
    return Detection(box=BBox(x0, y0, x1, y1), score=score)


class ScriptedSelector:
    """Returns a fixed raw text; the label field resolves from the text."""

    def __init__(self, text, label=None, prob=1.0, fail=False):
        self.text = text
        self.label = label
        self.prob = prob
        self.fail = fail
        self.prompts = []

    def select(self, image, prompt, offered):
        if self.fail:
            raise BackendError("selector down")
        self.prompts.append(prompt)
        label = self.label or match_option_label(self.text, offered) or offered[0]
        return SelectionResult(
            label=label, label_prob=self.prob, raw_text=self.text, offered=tuple(offered)
        )


class ScriptedGrounder:
    def __init__(self, dets, fail=False):
        self.result = GroundingResult(
            detections=tuple(sorted(dets, key=lambda d: -d.score))
        )
        self.fail = fail

    def ground(self, image, expression):
        if self.fail:
            raise BackendError("grounder down")
        return self.result


def bundle(grounder, selector):
    return BackendBundle(grounder=grounder, selector=selector)


# ------------------------------------------------------------- candidates


def test_option_label_range():
    assert option_label(0) == "A"
    assert option_label(25) == "Z"
    with pytest.raises(ValueError):
        option_label(26)
    with pytest.raises(ValueError):
        option_label(-1)


def test_candidate_set_validation():
    a = det(0, 0, 10, 10, 0.9)
    with pytest.raises(ValueError):
        CandidateSet(candidates=(("B", a),), k=5)
    with pytest.raises(ValueError):
        CandidateSet(candidates=(("A", a), ("C", a)), k=5)
    with pytest.raises(ValueError):
        CandidateSet(candidates=(("A", a),), k=0)
    with pytest.raises(ValueError):
        CandidateSet(candidates=(("A", a), ("B", a)), k=1)


def test_generate_candidates_suppresses_then_truncates():
    dets = [
        det(0, 0, 100, 100, 0.95),
        det(2, 2, 102, 102, 0.9),  # suppressed by the first (iou > 0.7)
        det(200, 0, 300, 100, 0.85),
        det(400, 0, 500, 100, 0.8),
        det(600, 0, 700, 100, 0.75),
        det(800, 0, 900, 100, 0.7),
        det(0, 200, 100, 300, 0.65),  # seventh survivor, cut by k=5
    ]
    cs = generate_candidates(dets, k=5, nms_thr=0.7)
    assert len(cs) == 5
    assert [label for label, _ in cs.candidates] == ["A", "B", "C", "D", "E"]
    assert cs.candidates[0][1].box == BBox(0, 0, 100, 100)
    assert all(d.box != BBox(2, 2, 102, 102) for _, d in cs.candidates)


def test_generate_candidates_nms_threshold_one_is_pure_top_k():
    rng = random.Random(13)
    dets = [
        det(x, x, x + 50, x + 50, round(rng.random(), 6)) for x in range(0, 200, 10)
    ]
    cs = generate_candidates(dets, k=5, nms_thr=1.0)
    top = sorted(dets, key=lambda d: -d.score)[:5]
    assert [d for _, d in cs.candidates] == top


def test_generate_candidates_fewer_than_k():
    cs = generate_candidates([det(0, 0, 10, 10, 0.5)], k=5)
    assert [label for label, _ in cs.candidates] == ["A"]
    assert len(generate_candidates([], k=5)) == 0
    with pytest.raises(ValueError):
        generate_candidates([], k=0)


# ---------------------------------------------------------------- prompts


def test_build_choice_prompt_exact_text():
    cs = generate_candidates([det(10.5, 20.4, 110.5, 219.6, 0.9)], k=5)
    cp = build_choice_prompt("the red mug", cs)
    assert cp.text == (
        'Which option matches the expression "the red mug"?\n'
        "A. [[11, 20, 111, 220]]\n"
        "B. None\n"
        'If no suitable option exists, please select the option corresponding to "None".\n'
        "Answer with a single option letter."
    )
    assert cp.offered == ("A", "B")
    assert cp.none_label == "B"
    assert cp.option_map["A"] == BBox(10.5, 20.4, 110.5, 219.6)  # map keeps raw floats


def test_build_choice_prompt_without_none():
    cs = generate_candidates([det(0, 0, 10, 10, 0.9), det(50, 0, 60, 10, 0.8)], k=5)
    cp = build_choice_prompt("x", cs, CrsParams(include_none=False))
    assert cp.offered == ("A", "B")
    assert cp.none_label is None
    assert "None" not in cp.text
    assert cp.text.endswith("Answer with a single option letter.")


def test_build_choice_prompt_empty_candidates():
    empty = generate_candidates([], k=5)
    cp = build_choice_prompt("x", empty)
    assert cp.offered == ("A",)
    assert "A. None" in cp.text
    with pytest.raises(ValueError):
        build_choice_prompt("x", empty, CrsParams(include_none=False))


def test_build_choice_prompt_custom_templates():
    cs = generate_candidates([det(0, 0, 10, 10, 0.9)], k=5)
    params = CrsParams(
        question_template="Pick for {expression}:",
        rejection_instruction="Reject with the last letter.",
        answer_instruction="One letter only.",
    )
    cp = build_choice_prompt("x", cs, params)
    assert cp.text.splitlines()[0] == "Pick for x:"
    assert "Reject with the last letter." in cp.text
    assert cp.text.endswith("One letter only.")


def test_match_option_label_cases():
    labels = ("A", "B", "C")
    assert match_option_label("B", labels) == "B"
    assert match_option_label("  b\n", labels) == "B"
    assert match_option_label("The answer is c.", labels) == "C"
    assert match_option_label("(B)", labels) == "B"
    assert match_option_label("b) the dog", labels) == "B"
    assert match_option_label("A or B", labels) == "A"  # first standalone letter wins
    assert match_option_label("D", labels) is None
    assert match_option_label("no idea", labels) is None
    assert match_option_label("", labels) is None
    # known caveat: a lone article reads as option A
    assert match_option_label("a good match", labels) == "A"


def test_parse_choice_round_trip_every_label():
    dets = [det(120.0 * i, 0, 120.0 * i + 80, 80, 0.9 - 0.05 * i) for i in range(5)]
    cp = build_choice_prompt("x", generate_candidates(dets, k=5))
    for label in cp.offered:
        for fmt in ("{}", "{}.", "The answer is {}.", "({})", "answer: {}"):
            assert parse_choice(fmt.format(label), cp) == label
            assert parse_choice(fmt.format(label.lower()), cp) == label


def test_crs_params_validation():
    with pytest.raises(ValueError):
        CrsParams(k=0)
    with pytest.raises(ValueError):
        CrsParams(nms_threshold=1.2)
    # every candidate and the None option need a letter of A-Z
    for k, include_none in ((30, False), (26, True)):
        with pytest.raises(ValueError, match="more than the 26 of A-Z"):
            CrsParams(k=k, include_none=include_none)
    assert CrsParams(k=26, include_none=False).k == 26
    assert CrsParams(k=25).k == 25


# ---------------------------------------------------------------- run_crs


def test_run_crs_selects_box():
    grounder = ScriptedGrounder([det(0, 0, 100, 100, 0.9), det(200, 0, 300, 100, 0.8)])
    selector = ScriptedSelector("B", prob=0.85)
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.pathway is Pathway.CRS
    assert pred.box == BBox(200, 0, 300, 100)
    assert pred.confidence == 0.85
    assert pred.raw == {"text": "B", "label_prob": 0.85, "label": "B"}
    assert not pred.rejected
    # the selector saw the rendered prompt with the None tail
    assert selector.prompts[0].splitlines()[3] == "C. None"


def test_run_crs_rejection():
    grounder = ScriptedGrounder([det(0, 0, 100, 100, 0.9)])
    selector = ScriptedSelector("B")  # B is the None slot here
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.rejected
    assert pred.box is None
    assert pred.confidence == 0.0
    assert pred.note == "rejected via None option"
    assert pred.raw["label"] == "B"


def test_run_crs_free_text_resolves():
    grounder = ScriptedGrounder([det(0, 0, 100, 100, 0.9), det(200, 0, 300, 100, 0.8)])
    selector = ScriptedSelector("I would say (b) fits best", prob=0.6)
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.box == BBox(200, 0, 300, 100)


def test_run_crs_logs_the_selector_label_as_given():
    # the adapter resolves the answer text; run_crs does not parse it again
    grounder = ScriptedGrounder([det(0, 0, 100, 100, 0.9)])
    selector = ScriptedSelector("no clue here", label="A", prob=0.4)
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.box == BBox(0, 0, 100, 100)
    assert pred.confidence == 0.4
    assert pred.raw == {"text": "no clue here", "label_prob": 0.4, "label": "A"}


def test_run_crs_empty_raw_text_uses_label():
    grounder = ScriptedGrounder([det(0, 0, 100, 100, 0.9)])
    selector = ScriptedSelector("", label="A", prob=0.7)
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.box == BBox(0, 0, 100, 100)
    assert pred.confidence == 0.7


def test_run_crs_empty_candidates_with_none():
    grounder = ScriptedGrounder([])
    selector = ScriptedSelector("A")
    pred = run_crs(make_positive(0), bundle(grounder, selector))
    assert pred.rejected
    assert pred.note == "rejected via None option"


def test_run_crs_empty_candidates_without_none():
    grounder = ScriptedGrounder([])
    selector = ScriptedSelector("A")
    pred = run_crs(make_positive(0), bundle(grounder, selector), CrsParams(include_none=False))
    assert pred.box is None
    assert pred.note == "no candidates survived"


def test_run_crs_backend_failures_are_misses():
    pred = run_crs(
        make_positive(0), bundle(ScriptedGrounder([], fail=True), ScriptedSelector("A"))
    )
    assert pred.note.startswith("backend failure")
    pred = run_crs(
        make_positive(0),
        bundle(ScriptedGrounder([det(0, 0, 1, 1, 0.5)]), ScriptedSelector("", fail=True)),
    )
    assert pred.note.startswith("backend failure")
    assert pred.confidence == 0.0


def test_run_crs_missing_backend():
    pred = run_crs(make_positive(0), BackendBundle())
    assert pred.note.startswith("backend failure")


# ----------------------------------------------------------------- export


def test_tuning_sample_validation():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        TuningSample(image="i", expression="e", options=(("A", box), ("A", None)), answer="A")
    with pytest.raises(ValueError):
        TuningSample(image="i", expression="e", options=(("A", box),), answer="B")
    sample = TuningSample(image="i", expression="e", options=(("A", box), ("B", None)), answer="B")
    assert sample.answer_box() is None


def test_tuning_sample_round_trip():
    sample = TuningSample(
        image="img-9",
        expression="the thing",
        options=(("A", BBox(0, 0, 10, 10)), ("B", BBox(5, 5, 15, 15)), ("C", None)),
        answer="A",
    )
    assert TuningSample.from_dict(sample.to_dict()) == sample


def test_candidate_hit_strict_threshold():
    # IoU exactly 0.5 must not count as a hit
    cs = generate_candidates([det(0, 0, 10, 10, 0.9)], k=5)
    gt_half = BBox(0, 0, 10, 5)
    assert iou(BBox(0, 0, 10, 10), gt_half) == 0.5
    assert not candidate_hit(cs, gt_half)
    assert candidate_hit(cs, BBox(0, 0, 10, 6))


def _slot_taskset(n_pos, n_neg, miss_every=None):
    tasks = []
    for i in range(n_pos):
        hit = miss_every is None or (i % miss_every != 0)
        tasks.append(make_slot_positive(i, hit=hit))
    for j in range(n_neg):
        pos = tasks[j % n_pos] if n_pos else make_slot_positive(10_000 + j)
        tasks.append(make_negative(j, pos))
    return TaskSet.build(Split.TRAIN, tasks)


def test_export_tuning_answers_are_correct():
    ts = _slot_taskset(40, 10)
    samples = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(40, 10), seed=3)
    assert len(samples) == 50
    by_expr = {t.expression: t for t in ts.tasks}
    for sample in samples:
        task = by_expr[sample.expression]
        labels = [label for label, _ in sample.options]
        assert labels == [option_label(i) for i in range(len(labels))]
        assert sample.options[-1] == (labels[-1], None)  # None option closes the list
        if task.is_positive:
            assert sample.answer != labels[-1]
            assert iou(sample.answer_box(), task.gt_box) > 0.5
        else:
            assert sample.answer == labels[-1]
            assert sample.answer_box() is None


def test_export_tuning_respects_eligibility():
    # every third positive's ground truth misses all candidate slots
    ts = _slot_taskset(30, 0, miss_every=3)
    samples = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(30, 0), seed=1)
    assert len(samples) == 20  # the ineligible third is not exportable
    exported = {s.expression for s in samples}
    for i in range(30):
        task_expr = f"slot object {i}"
        assert (task_expr in exported) == (i % 3 != 0)


def test_export_tuning_shortfall_warns(caplog):
    ts = _slot_taskset(5, 2)
    with caplog.at_level("WARNING"):
        samples = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(50, 2), seed=1)
    assert len(samples) == 7
    assert any("eligible" in m for m in caplog.messages)


def test_export_tuning_negatives_require_none():
    ts = _slot_taskset(5, 2)
    with pytest.raises(ValueError):
        export_tuning(
            ts, SlotGrounder(), failures=[], tuning=TuningParams(5, 2, include_none=False)
        )
    samples = export_tuning(
        ts, SlotGrounder(), failures=[], tuning=TuningParams(5, 0, include_none=False)
    )
    assert all(opt[1] is not None for s in samples for opt in s.options)


def test_export_tuning_deterministic_bytes(tmp_path):
    ts = _slot_taskset(30, 10)
    a = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(20, 5), seed=11)
    b = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(20, 5), seed=11)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_tuning(a, path_a)
    save_tuning(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert load_tuning(path_a) == a


def test_export_tuning_seed_changes_selection_and_shuffle():
    ts = _slot_taskset(40, 0)
    a = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(20, 0), seed=1)
    b = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(20, 0), seed=2)
    assert a != b


def test_export_tuning_output_follows_file_order():
    ts = _slot_taskset(20, 5)
    samples = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(20, 5), seed=4)
    order = {t.expression: i for i, t in enumerate(ts.tasks)}
    indices = [order[s.expression] for s in samples]
    assert indices == sorted(indices)


def test_export_tuning_shuffle_is_positionally_fair():
    # with one answerable slot per task, the answer letter follows the
    # per-task shuffle; positions must be uniform within 3 sigma
    n = 500
    ts = TaskSet.build(Split.TRAIN, [make_slot_positive(i) for i in range(n)])
    samples = export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(n, 0), seed=9)
    assert len(samples) == n
    counts = {label: 0 for label in "ABCDE"}
    for sample in samples:
        counts[sample.answer] += 1
    expected = n / 5
    sigma = (n * 0.2 * 0.8) ** 0.5
    for label, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (label, count)


def test_export_tuning_rejects_negative_counts():
    ts = _slot_taskset(5, 2)
    with pytest.raises(ValueError):
        export_tuning(ts, SlotGrounder(), failures=[], tuning=TuningParams(-1, 0))


def test_export_tuning_skips_and_records_failed_grounder_calls():
    class FlakyGrounder(SlotGrounder):
        def ground(self, image, expression):
            if expression == "slot object 2":
                raise BackendError("grounder down")
            return super().ground(image, expression)

    ts = _slot_taskset(6, 2)
    failures = []
    samples = export_tuning(
        ts, FlakyGrounder(), failures=failures, tuning=TuningParams(6, 2), seed=1
    )
    assert [(task_id, str(exc)) for task_id, exc in failures] == [
        (ts.tasks[2].id, "grounder down")
    ]
    assert len(samples) == 7
    assert "slot object 2" not in {s.expression for s in samples}
