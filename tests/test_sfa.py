"""Routing, focus prompting, and the two grounding pathways."""

import random

import pytest

from recollab import BBox, Detection, Pathway, TokenSpanScore
from recollab.backends.replay import (
    ROLE_DETECT,
    ROLE_EXTRACT,
    ROLE_GENERATE,
    ROLE_GROUND,
    FixtureStore,
    ReplayDetector,
    ReplayGrounder,
    ReplayMllm,
    ReplayTargetExtractor,
    write_fixture,
)
from recollab.backends.types import GroundingResult
from recollab.config import RunConfig
from recollab.datamodel import ImageRef
from recollab.runner import run_mllm_task
from recollab.sfa import (
    DEFAULT_GROUNDING_PROMPT,
    SfaParams,
    assess_route,
    build_focus_prompt,
    find_target_span,
    run_sfa,
    target_focus_select,
)

from helpers import make_positive

IMG = ImageRef(image_id="img-1", width=1000, height=1000)


class ScriptedDetector:
    """Returns a fixed score list for any query."""

    def __init__(self, scores):
        ordered = sorted(scores, reverse=True)
        self.result = tuple(
            Detection(box=BBox(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0), score=s)
            for i, s in enumerate(ordered)
        )

    def detect(self, image, class_name):
        return GroundingResult(detections=self.result, query=class_name)


def test_params_validate_threshold():
    with pytest.raises(ValueError):
        SfaParams(threshold=1.5)
    with pytest.raises(ValueError):
        SfaParams(threshold=-0.1)


def test_route_counts_zero_through_five():
    # exactly one confident detection goes fast; everything else goes slow
    for n in range(6):
        scores = [0.9 - 0.1 * i for i in range(n)]
        decision = assess_route(IMG, "dog", ScriptedDetector(scores), threshold=0.2)
        assert decision.detection_count == n
        expected = Pathway.FAST if n == 1 else Pathway.SLOW
        assert decision.level is expected
        assert decision.target == "dog"
        assert decision.threshold_used == 0.2


def test_route_threshold_is_inclusive():
    decision = assess_route(IMG, "dog", ScriptedDetector([0.2, 0.19]), threshold=0.2)
    assert decision.detection_count == 1
    assert decision.level is Pathway.FAST


def test_route_ignores_below_threshold():
    decision = assess_route(IMG, "dog", ScriptedDetector([0.1, 0.05, 0.01]), threshold=0.2)
    assert decision.detection_count == 0
    assert decision.level is Pathway.SLOW


def test_route_rejects_empty_target():
    with pytest.raises(ValueError):
        assess_route(IMG, "", ScriptedDetector([0.5]), threshold=0.2)


def test_route_depends_only_on_above_threshold_count():
    rng = random.Random(41)
    for _ in range(300):
        scores = [rng.random() for _ in range(rng.randint(0, 8))]
        threshold = rng.choice([0.1, 0.2, 0.5])
        decision = assess_route(IMG, "cat", ScriptedDetector(scores), threshold=threshold)
        count = sum(1 for s in scores if s >= threshold)
        assert decision.detection_count == count
        assert (decision.level is Pathway.FAST) == (count == 1)


def test_build_focus_prompt_default_texture():
    prompt = build_focus_prompt("the red mug", "mug")
    assert prompt == (
        "Where is the red mug? answer in [[x0, y0, x1, y1]] format."
        ", please focus on the mug"
    )


def test_build_focus_prompt_without_focus():
    params = SfaParams(focus=False)
    assert build_focus_prompt("the red mug", "", params) == (
        "Where is the red mug? answer in [[x0, y0, x1, y1]] format."
    )
    assert build_focus_prompt("x", "ignored", params) == DEFAULT_GROUNDING_PROMPT.format(
        expression="x"
    )


def test_build_focus_prompt_requires_target_when_focused():
    with pytest.raises(ValueError):
        build_focus_prompt("the red mug", "")
    with pytest.raises(ValueError):
        build_focus_prompt("", "mug")


def test_build_focus_prompt_custom_templates():
    params = SfaParams(grounding_prompt="Find {expression}.", focus_suffix=" Look for {target}!")
    assert build_focus_prompt("a cat", "cat", params) == "Find a cat. Look for cat!"


def test_find_target_span():
    assert find_target_span("the bird to the left of the cow", "bird") == (4, 8)
    assert find_target_span("The BIRD flies", "bird") == (4, 8)
    assert find_target_span("the white cow", "white cow") == (4, 13)
    assert find_target_span("a snowbird on ice", "bird") == (6, 10)  # substring fallback
    assert find_target_span("nothing here", "bird") is None
    assert find_target_span("anything", "") is None


def _det(box, score, spans):
    return Detection(
        box=box,
        score=score,
        token_scores=tuple(TokenSpanScore(start=s, end=e, score=v) for s, e, v in spans),
    )


def test_target_focus_select_prefers_target_similarity():
    # overall argmax is the cow box, but the target tokens say bird
    query = "the bird to the left of the white cow"
    span = find_target_span(query, "bird")
    cow = _det(BBox(50, 0, 90, 40), 0.8, [(4, 8, 0.2), (28, 37, 0.9)])
    bird = _det(BBox(0, 0, 30, 30), 0.7, [(4, 8, 0.9), (28, 37, 0.1)])
    result = GroundingResult(detections=(cow, bird), query=query)
    assert target_focus_select(result, span) == bird


def test_target_focus_select_falls_back_without_span():
    cow = _det(BBox(50, 0, 90, 40), 0.8, [(0, 3, 0.2)])
    bird = _det(BBox(0, 0, 30, 30), 0.7, [(0, 3, 0.9)])
    result = GroundingResult(detections=(cow, bird), query="q")
    assert target_focus_select(result, None) == cow


def test_target_focus_select_falls_back_on_missing_token_scores():
    cow = _det(BBox(50, 0, 90, 40), 0.8, [])
    bird = _det(BBox(0, 0, 30, 30), 0.7, [(0, 3, 0.9)])
    result = GroundingResult(detections=(cow, bird), query="q")
    assert target_focus_select(result, (0, 3)) == cow


def test_target_focus_select_falls_back_on_default_token_scores():
    # detections built without token scores (e.g. from a payload that
    # omits them) take the overall-argmax fallback, not a TypeError
    cow = Detection(box=BBox(50, 0, 90, 40), score=0.8)
    bird = Detection(box=BBox(0, 0, 30, 30), score=0.7)
    assert cow.token_scores == ()
    result = GroundingResult(detections=(cow, bird), query="the bird")
    assert target_focus_select(result, (4, 8)) == cow


def test_target_focus_select_empty_raises():
    with pytest.raises(ValueError):
        target_focus_select(GroundingResult(detections=()), (0, 3))


def test_target_focus_select_max_aggregate_property():
    rng = random.Random(77)
    span = (0, 4)
    for _ in range(1000):
        n = rng.randint(1, 6)
        scores = sorted((rng.random() for _ in range(n)), reverse=True)
        dets = tuple(
            _det(
                BBox(10.0 * i, 0.0, 10.0 * i + 5.0, 5.0),
                scores[i],
                [(0, 4, rng.random()), (5, 9, rng.random())],
            )
            for i in range(n)
        )
        result = GroundingResult(detections=dets, query="abcd efgh")
        chosen = target_focus_select(result, span)
        aggregates = [
            max(ts.score for ts in d.token_scores if ts.overlaps(0, 4)) for d in dets
        ]
        best = max(aggregates)
        chosen_idx = dets.index(chosen)
        assert aggregates[chosen_idx] == best
        # ties resolve to the highest-ranked proposal
        assert all(aggregates[i] < best for i in range(chosen_idx))


def test_target_focus_select_only_span_overlaps_count():
    # high token score outside the target span must not win
    a = _det(BBox(0, 0, 5, 5), 0.9, [(0, 4, 0.3), (10, 14, 0.99)])
    b = _det(BBox(10, 0, 15, 5), 0.8, [(0, 4, 0.4)])
    result = GroundingResult(detections=(a, b), query="q")
    assert target_focus_select(result, (0, 4)) == b


# ------------------------------------------------------------- end to end


def _sfa_fixtures(tmp_path, *, detect_scores, expression, target):
    """Record extract + detect fixtures shared by the pathway tests."""
    write_fixture(tmp_path, ROLE_EXTRACT, "", expression, {"text": f'{{"target": "{target}"}}'})
    dets = [
        {"box": [10 * i, 0, 10 * i + 8, 8], "score": s}
        for i, s in enumerate(sorted(detect_scores, reverse=True))
    ]
    write_fixture(tmp_path, ROLE_DETECT, "img-task", target, {"detections": dets})


def _bundle(tmp_path):
    store = FixtureStore(root=tmp_path)
    return {
        "extractor": ReplayTargetExtractor(store=store),
        "detector": ReplayDetector(store=store),
        "grounder": ReplayGrounder(store=store),
        "mllm": ReplayMllm(store=store),
    }


def _task(expression):
    return make_positive(0, expression=expression, image="img-task")


def test_run_sfa_fast_pathway(tmp_path):
    expression = "the bird to the left of the white cow"
    _sfa_fixtures(tmp_path, detect_scores=[0.9], expression=expression, target="bird")
    write_fixture(
        tmp_path,
        ROLE_GROUND,
        "img-task",
        expression,
        {
            "detections": [
                {"box": [50, 0, 90, 40], "score": 0.8, "token_scores": [{"start": 4, "end": 8, "score": 0.2}]},
                {"box": [0, 0, 30, 30], "score": 0.7, "token_scores": [{"start": 4, "end": 8, "score": 0.9}]},
            ]
        },
    )
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.pathway is Pathway.FAST
    assert pred.decision.detection_count == 1
    assert pred.box == BBox(0, 0, 30, 30)  # focus re-scoring overrides overall order
    assert pred.confidence == 0.7


def test_run_sfa_fast_without_focus_takes_top_proposal(tmp_path):
    expression = "the bird to the left of the white cow"
    _sfa_fixtures(tmp_path, detect_scores=[0.9], expression=expression, target="bird")
    write_fixture(
        tmp_path,
        ROLE_GROUND,
        "img-task",
        expression,
        {
            "detections": [
                {"box": [50, 0, 90, 40], "score": 0.8, "token_scores": [{"start": 4, "end": 8, "score": 0.2}]},
                {"box": [0, 0, 30, 30], "score": 0.7, "token_scores": [{"start": 4, "end": 8, "score": 0.9}]},
            ]
        },
    )
    pred = run_sfa(_task(expression), _bundle(tmp_path), SfaParams(focus=False))
    assert pred.box == BBox(50, 0, 90, 40)
    assert pred.confidence == 0.8


def test_run_sfa_slow_pathway(tmp_path):
    expression = "the dog behind the fence"
    _sfa_fixtures(tmp_path, detect_scores=[0.9, 0.8, 0.3], expression=expression, target="dog")
    prompt = build_focus_prompt(expression, "dog")
    write_fixture(
        tmp_path,
        ROLE_GENERATE,
        "img-task",
        prompt,
        {"text": "[[100, 100, 300, 300]]", "coordinate_token_probs": [0.25, 1.0, 1.0, 1.0]},
    )
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.pathway is Pathway.SLOW
    assert pred.decision.detection_count == 3
    assert pred.box == BBox(100, 100, 300, 300)
    assert pred.confidence == pytest.approx((0.25 * 1.0 * 1.0 * 1.0) ** 0.25)
    assert pred.raw == {"text": "[[100, 100, 300, 300]]"}


def test_run_sfa_slow_zero_detections(tmp_path):
    expression = "the invisible thing"
    _sfa_fixtures(tmp_path, detect_scores=[], expression=expression, target="thing")
    prompt = build_focus_prompt(expression, "thing")
    write_fixture(
        tmp_path,
        ROLE_GENERATE,
        "img-task",
        prompt,
        {"text": "[[1, 1, 2, 2]]", "coordinate_token_probs": [0.9] * 4},
    )
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.pathway is Pathway.SLOW
    assert pred.decision.detection_count == 0


def test_run_sfa_slow_boxless_answer(tmp_path):
    expression = "the dog behind the fence"
    _sfa_fixtures(tmp_path, detect_scores=[0.9, 0.8], expression=expression, target="dog")
    prompt = build_focus_prompt(expression, "dog")
    write_fixture(tmp_path, ROLE_GENERATE, "img-task", prompt, {"text": "I cannot find it."})
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.box is None
    assert pred.confidence == 0.0
    assert pred.note == "no coordinates in generative answer"


def test_run_sfa_slow_malformed_answer(tmp_path):
    expression = "the dog behind the fence"
    _sfa_fixtures(tmp_path, detect_scores=[0.9, 0.8], expression=expression, target="dog")
    prompt = build_focus_prompt(expression, "dog")
    write_fixture(tmp_path, ROLE_GENERATE, "img-task", prompt, {"text": "[[9, 9, 2, 2]]"})
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.box is None
    assert pred.note == "malformed coordinates in generative answer"


def test_run_sfa_fast_empty_grounding(tmp_path):
    expression = "the lone cone"
    _sfa_fixtures(tmp_path, detect_scores=[0.5], expression=expression, target="cone")
    write_fixture(tmp_path, ROLE_GROUND, "img-task", expression, {"detections": []})
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.pathway is Pathway.FAST
    assert pred.box is None
    assert pred.note == "grounder returned no detections"


def test_run_sfa_fast_zero_score_detection(tmp_path):
    expression = "the lone cone"
    _sfa_fixtures(tmp_path, detect_scores=[0.5], expression=expression, target="cone")
    write_fixture(
        tmp_path,
        ROLE_GROUND,
        "img-task",
        expression,
        {"detections": [{"box": [0, 0, 5, 5], "score": 0.0}]},
    )
    pred = run_sfa(_task(expression), _bundle(tmp_path), SfaParams(focus=False))
    assert pred.box is None
    assert pred.note == "selected detection has zero confidence"


def test_run_sfa_detector_outage_is_a_miss(tmp_path):
    expression = "the dog"
    write_fixture(tmp_path, ROLE_EXTRACT, "", expression, {"text": '{"target": "dog"}'})
    # no detect fixture recorded: the routing call fails
    pred = run_sfa(_task(expression), _bundle(tmp_path))
    assert pred.box is None
    assert pred.confidence == 0.0
    assert pred.pathway is Pathway.SLOW
    assert pred.note.startswith("backend failure")
    assert pred.decision is None


def test_run_mllm_task_skips_routing(tmp_path):
    expression = "the dog behind the fence"
    # the baseline sends the base prompt: no routing, no focus clause
    prompt = build_focus_prompt(expression, "", SfaParams(focus=False))
    write_fixture(
        tmp_path,
        ROLE_GENERATE,
        "img-task",
        prompt,
        {"text": "[[5, 5, 50, 50]]", "coordinate_token_probs": [0.5] * 4},
    )
    # neither extract nor detect fixtures exist; the baseline must not need them
    pred = run_mllm_task(_task(expression), _bundle(tmp_path), RunConfig(pipeline="mllm"))
    assert pred.pathway is Pathway.SLOW
    assert pred.decision is None
    assert pred.box == BBox(5, 5, 50, 50)
    assert pred.confidence == pytest.approx(0.5)


def test_run_mllm_task_failure_is_a_slow_miss(tmp_path):
    pred = run_mllm_task(_task("the dog"), _bundle(tmp_path), RunConfig(pipeline="mllm"))
    assert pred.box is None
    assert pred.pathway is Pathway.SLOW
    assert pred.decision is None
    assert pred.note.startswith("backend failure")


def test_run_sfa_missing_backend_raises_key_error(tmp_path):
    expression = "the dog"
    _sfa_fixtures(tmp_path, detect_scores=[0.9], expression=expression, target="dog")
    handles = {
        "extractor": ReplayTargetExtractor(store=FixtureStore(root=tmp_path)),
        "detector": ReplayDetector(store=FixtureStore(root=tmp_path)),
    }
    # routing finished (one confident detection), so the fast pathway's grounder is looked up
    with pytest.raises(KeyError, match="grounder"):
        run_sfa(_task(expression), handles)
