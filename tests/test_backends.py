"""Backend adapters: wire parsing, replay fixtures, and HTTP plumbing."""

import logging
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

import recollab
from recollab import BBox, Detection, TokenSpanScore, iou, runner
from recollab.backends import ROLES
from recollab.backends.extract import (
    HeuristicTargetExtractor,
    build_extract_prompt,
    parse_target_dict,
    resolve_target,
)
from recollab.backends.http import (
    HttpClient,
    HttpDetector,
    HttpMllm,
    HttpSelector,
    HttpTargetExtractor,
)
from recollab.backends.replay import (
    ROLE_DETECT,
    ROLE_EXTRACT,
    ROLE_GENERATE,
    ROLE_SELECT,
    FixtureStore,
    ReplayDetector,
    ReplayMllm,
    ReplaySelector,
    ReplayTargetExtractor,
    fixture_key,
    write_fixture,
)
from recollab.backends.types import (
    BackendError,
    FixtureMissError,
    GenerativeGrounding,
    GroundingResult,
    SelectionResult,
    derive_confidence,
    detections_from_payload,
    grounding_from_payload,
    parse_coordinate_box,
    scale_box,
    selection_from_payload,
)
from recollab.config import BackendSettings, ConfigError, config_from_dict
from recollab.datamodel import ImageRef

from helpers import OracleSelector, http_server, parse_prompt_options

IMG = ImageRef(image_id="img-1", width=640, height=480)


def test_each_role_adapter_defines_its_method():
    for role in ROLES.values():
        for adapter in (role.replay, role.http):
            assert role.method in vars(adapter), (adapter, role.method)
    assert [name for name, role in ROLES.items() if role.boxes] == ["detector", "grounder", "mllm"]


# ---------------------------------------------------------------- parsing


def test_parse_coordinate_box_plain():
    box, malformed = parse_coordinate_box("[[10, 20, 110, 220]]")
    assert box == BBox(10, 20, 110, 220)
    assert not malformed


def test_parse_coordinate_box_in_prose_and_floats():
    box, malformed = parse_coordinate_box(
        "The object is at [[1.5, 2.25, 30.0, 40.75]] in the image."
    )
    assert box == BBox(1.5, 2.25, 30.0, 40.75)
    assert not malformed


def test_parse_coordinate_box_takes_first_group():
    box, _ = parse_coordinate_box("[[0, 0, 5, 5]] but maybe [[9, 9, 19, 19]]")
    assert box == BBox(0, 0, 5, 5)


def test_parse_coordinate_box_inverted_is_malformed():
    box, malformed = parse_coordinate_box("[[5, 5, 3, 3]]")
    assert box is None
    assert malformed


def test_parse_coordinate_box_absent():
    box, malformed = parse_coordinate_box("I cannot find it.")
    assert box is None
    assert not malformed


def test_parse_coordinate_box_single_brackets_do_not_match():
    box, malformed = parse_coordinate_box("[1, 2, 3, 4]")
    assert box is None
    assert not malformed


def test_derive_confidence_known_values():
    assert derive_confidence([0.25, 1.0]) == pytest.approx(0.5)
    assert derive_confidence([0.7]) == pytest.approx(0.7)
    assert derive_confidence(()) is None


def test_derive_confidence_permutation_invariant():
    rng = random.Random(5)
    for _ in range(200):
        probs = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 8))]
        shuffled = probs[:]
        rng.shuffle(shuffled)
        assert derive_confidence(probs) == pytest.approx(derive_confidence(shuffled))


def test_derive_confidence_bounded_by_extremes():
    rng = random.Random(6)
    for _ in range(200):
        probs = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 8))]
        value = derive_confidence(probs)
        assert min(probs) - 1e-12 <= value <= max(probs) + 1e-12


def test_derive_confidence_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive_confidence([0.5, 0.0])
    with pytest.raises(ValueError):
        derive_confidence([1.2])


def test_scale_box_grid_to_pixels():
    box = scale_box(BBox(100, 100, 500, 900), from_size=(1000, 1000), to_size=(640, 480))
    assert box == BBox(64.0, 48.0, 320.0, 432.0)


def test_scale_box_round_trip():
    rng = random.Random(8)
    for _ in range(100):
        x0, x1 = sorted(rng.uniform(0, 1000) for _ in range(2))
        y0, y1 = sorted(rng.uniform(0, 1000) for _ in range(2))
        box = BBox(x0, y0, x1, y1)
        there = scale_box(box, from_size=(1000, 1000), to_size=(777, 333))
        back = scale_box(there, from_size=(777, 333), to_size=(1000, 1000))
        for a, b in zip(box.as_list(), back.as_list()):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_scale_box_rejects_bad_sizes():
    with pytest.raises(ValueError):
        scale_box(BBox(0, 0, 1, 1), from_size=(0, 10), to_size=(10, 10))


def test_detections_from_payload_sorts_and_keeps_tie_order():
    payload = {
        "detections": [
            {"box": [0, 0, 10, 10], "score": 0.5},
            {"box": [1, 1, 11, 11], "score": 0.9},
            {"box": [2, 2, 12, 12], "score": 0.5},
        ]
    }
    result = detections_from_payload(payload, query="dog")
    assert result.query == "dog"
    assert [d.score for d in result.detections] == [0.9, 0.5, 0.5]
    assert result.detections[1].box == BBox(0, 0, 10, 10)
    assert result.detections[2].box == BBox(2, 2, 12, 12)


def test_detections_from_payload_parses_token_scores():
    payload = {
        "detections": [
            {
                "box": [0, 0, 10, 10],
                "score": 0.5,
                "token_scores": [{"start": 0, "end": 3, "score": 0.8}],
            }
        ]
    }
    det = detections_from_payload(payload).detections[0]
    assert det.token_scores == (TokenSpanScore(start=0, end=3, score=0.8),)


def test_detections_from_payload_rejects_garbage():
    with pytest.raises(BackendError):
        detections_from_payload({})
    with pytest.raises(BackendError):
        detections_from_payload({"detections": [{"score": 0.5}]})
    with pytest.raises(BackendError):
        detections_from_payload({"detections": [{"box": [5, 0, 1, 1], "score": 0.5}]})
    with pytest.raises(BackendError, match="not an object"):
        detections_from_payload({"detections": [[0, 0, 1, 1]]})
    with pytest.raises(BackendError, match="not an object"):
        detections_from_payload(
            {"detections": [{"box": [0, 0, 1, 1], "score": 0.5, "token_scores": [[0, 1, 0.5]]}]}
        )


_BAD_ENTRIES = {
    "nan coordinate": {"box": [math.nan, 0, 1, 1], "score": 0.5},
    "inf coordinate": {"box": [0, 0, math.inf, 1], "score": 0.5},
    "-inf coordinate": {"box": [0, -math.inf, 1, 1], "score": 0.5},
    "bool coordinate": {"box": [0, 0, True, 1], "score": 0.5},
    "string coordinate": {"box": [0, "0", 1, 1], "score": 0.5},
    "inverted corners": {"box": [0.0, 5.0, 1.0, 1.0], "score": 0.5},
    "score above 1": {"box": [0, 0, 1, 1], "score": 1.5},
    "empty token span": {
        "box": [0, 0, 1, 1],
        "score": 0.5,
        "token_scores": [{"start": 3, "end": 3, "score": 0.5}],
    },
    "negative token score": {
        "box": [0, 0, 1, 1],
        "score": 0.5,
        "token_scores": [{"start": 0, "end": 2, "score": -0.1}],
    },
    "overlapping token spans": {
        "box": [0, 0, 1, 1],
        "score": 0.5,
        "token_scores": [
            {"start": 0, "end": 4, "score": 0.5},
            {"start": 6, "end": 9, "score": 0.5},
            {"start": 2, "end": 5, "score": 0.5},
        ],
    },
}


@pytest.mark.parametrize("bad", list(_BAD_ENTRIES.values()), ids=list(_BAD_ENTRIES))
def test_detections_from_payload_rejects_each_bad_value(bad):
    good = {
        "box": [0.0, 0.0, 2.0, 2.0],
        "score": 0.9,
        "token_scores": [{"start": 0, "end": 3, "score": 0.4}],
    }
    detections_from_payload({"detections": [good]})
    with pytest.raises(BackendError, match="bad detection entry"):
        detections_from_payload({"detections": [good, bad]})


def test_detections_from_payload_orders_like_a_stable_score_sort():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(0, 12)
        scores = [rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(n)]
        # x0 tags each entry with its payload index; ints and floats mix
        payload = {
            "detections": [
                {"box": [i, 0, i + 1.5, 2], "score": s} for i, s in enumerate(scores)
            ]
        }
        result = detections_from_payload(payload)
        expected = sorted(range(n), key=lambda i: (-scores[i], i))
        assert [d.box.x0 for d in result.detections] == [float(i) for i in expected]
        assert all(type(v) is float for d in result.detections for v in d.box.as_list())


def test_grounding_result_sorts_by_descending_score_keeping_ties_in_order():
    a = Detection(box=BBox(0, 0, 1, 1), score=0.2)
    b = Detection(box=BBox(0, 0, 1, 1), score=0.9)
    c = Detection(box=BBox(0, 0, 2, 2), score=0.9)
    assert GroundingResult(detections=(a, b)).detections == (b, a)
    assert GroundingResult(detections=(b, a)).detections == (b, a)
    assert GroundingResult(detections=[a, c, b]).detections == (c, b, a)
    assert GroundingResult(detections=()).detections == ()


def test_generative_grounding_invariants():
    with pytest.raises(ValueError):
        GenerativeGrounding(raw_text="x", box=BBox(0, 0, 1, 1))
    with pytest.raises(ValueError):
        GenerativeGrounding(raw_text="x", coordinate_token_probs=(1.5,))
    ok = GenerativeGrounding(raw_text="x", box=BBox(0, 0, 1, 1), coordinate_token_probs=(0.5,) * 4)
    assert ok.box is not None


def test_selection_result_invariants():
    with pytest.raises(ValueError):
        SelectionResult(label="A", label_prob=0.0)
    with pytest.raises(ValueError):
        SelectionResult(label="Z", label_prob=0.5, offered=("A", "B"))
    SelectionResult(label="B", label_prob=0.5, offered=("A", "B"))


# ------------------------------------------------------------- extraction


def test_build_extract_prompt_contents():
    prompt = build_extract_prompt("the red mug on the shelf")
    assert "Which object does the given expression refer to?" in prompt
    assert prompt.count("Answer:") == 4  # three examples plus the query
    assert '{"target": "child"}' in prompt
    assert '{"target": "dog"}' in prompt
    assert '{"target": "bird"}' in prompt
    assert 'Expression: "the red mug on the shelf"' in prompt
    assert prompt.rstrip().endswith("Answer:")


def test_parse_target_dict_variants():
    assert parse_target_dict('{"target": "mug"}') == "mug"
    assert parse_target_dict("Sure! {'target': 'red mug'} hope that helps") == "red mug"
    assert parse_target_dict('prefix {"target": " spaced "} suffix') == "spaced"
    assert parse_target_dict("no dictionary here") is None
    assert parse_target_dict('{"target": ""}') is None
    assert parse_target_dict('{"object": "mug"}') is None


def test_heuristic_extractor_examples():
    heuristic = HeuristicTargetExtractor()
    assert heuristic.extract("the child positioned to the right of the white cap") == "child"
    assert heuristic.extract("a dog") == "dog"
    assert heuristic.extract("the bird to the left of the white cow") == "bird"
    assert heuristic.extract("the tall giraffe drinking water") == "giraffe"
    assert heuristic.extract("large glass window behind the counter") == "window"
    with pytest.raises(ValueError):
        heuristic.extract("")


def test_resolve_target_falls_back(tmp_path, caplog):
    store = FixtureStore(root=tmp_path)
    write_fixture(tmp_path, ROLE_EXTRACT, "", "the small cat", {"text": "it is a cat"})
    extractor = ReplayTargetExtractor(store=store)
    with caplog.at_level("WARNING"):
        assert extractor.extract("the small cat") == "cat"
    assert any("heuristic" in message for message in caplog.messages)


def test_replay_extractor_parses_dict(tmp_path):
    store = FixtureStore(root=tmp_path)
    write_fixture(tmp_path, ROLE_EXTRACT, "", "the small cat", {"text": '{"target": "cat"}'})
    assert ReplayTargetExtractor(store=store).extract("the small cat") == "cat"


# ----------------------------------------------------------------- replay


def test_fixture_key_is_stable_and_distinct():
    key = fixture_key("detect", "img-1", "dog")
    assert key == fixture_key("detect", "img-1", "dog")
    assert len(key) == 32
    assert key != fixture_key("ground", "img-1", "dog")
    assert key != fixture_key("detect", "img-2", "dog")
    assert key != fixture_key("detect", "img-1", "cat")


@pytest.mark.parametrize(
    "triple, key",
    [
        (("detect", "img-00042", "red mug"), "779437319052949467f2cfdea9c2fa55"),
        (
            ("generate", "img-7", 'la tasse "rouge" à gauche \\ 日本'),
            "15402108205030c70f0d6267b123f1f7",
        ),
    ],
)
def test_fixture_key_is_pinned(triple, key):
    # recorded fixture directories are named by these keys: a change orphans them
    assert fixture_key(*triple) == key


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
@pytest.mark.parametrize("lines", ["header", "all"])
def test_a_fixture_with_other_line_endings_reads(tmp_path, ending, lines):
    payload = {"detections": [{"box": [0, 0, 5, 5], "score": 0.5}], "note": "ünï"}
    path = write_fixture(tmp_path, ROLE_DETECT, "img-1", "dog", payload)
    body = path.read_bytes()
    path.write_bytes(body.replace(b"\n", ending.encode(), 1 if lines == "header" else -1))
    assert FixtureStore(root=tmp_path).get(ROLE_DETECT, "img-1", "dog") == payload


@pytest.mark.parametrize(
    "body, message",
    [
        (b"recollab-fixture v1\n{}\n\xff", "is not valid UTF-8"),
        (b"recollab-fixture v1\n[1, 2]\n", "record is not a JSON object"),
        (b"recollab-fixture v1\n{\n", "is not valid JSON"),
        (b"recollab-fixture v1 \n{}\n", "unsupported header 'recollab-fixture v1 '"),
        (b"recollab-fixture v2\r\n{}\r\n", "unsupported header 'recollab-fixture v2'"),
        (b"recollab-fixture v1", "is not valid JSON"),
    ],
)
def test_a_malformed_fixture_file_is_a_backend_error(tmp_path, body, message):
    (tmp_path / f"{fixture_key(ROLE_DETECT, 'img-1', 'dog')}.json").write_bytes(body)
    with pytest.raises(BackendError, match=message):
        FixtureStore(root=tmp_path).get(ROLE_DETECT, "img-1", "dog")


def test_fixture_round_trip(tmp_path):
    payload = {"detections": [{"box": [0, 0, 5, 5], "score": 0.5}], "note": "üñíçødé"}
    path = write_fixture(tmp_path, ROLE_DETECT, "img-1", "dog", payload)
    assert path.read_text(encoding="utf-8").startswith("recollab-fixture v1\n")
    store = FixtureStore(root=tmp_path)
    assert store.get(ROLE_DETECT, "img-1", "dog") == payload


def test_fixture_miss_raises(tmp_path):
    store = FixtureStore(root=tmp_path)
    with pytest.raises(FixtureMissError):
        store.get(ROLE_DETECT, "img-1", "dog")


def test_fixture_bad_header_raises(tmp_path):
    path = write_fixture(tmp_path, ROLE_DETECT, "img-1", "dog", {"detections": []})
    body = path.read_text(encoding="utf-8")
    path.write_text(body.replace("v1", "v9", 1), encoding="utf-8")
    with pytest.raises(BackendError):
        FixtureStore(root=tmp_path).get(ROLE_DETECT, "img-1", "dog")


def test_fixture_key_mismatch_raises(tmp_path):
    path = write_fixture(tmp_path, ROLE_DETECT, "img-1", "dog", {"detections": []})
    moved = tmp_path / f"{fixture_key(ROLE_DETECT, 'img-1', 'cat')}.json"
    path.rename(moved)
    with pytest.raises(BackendError):
        FixtureStore(root=tmp_path).get(ROLE_DETECT, "img-1", "cat")


def test_fixture_reads_are_thread_safe(tmp_path):
    for i in range(20):
        write_fixture(tmp_path, ROLE_DETECT, f"img-{i}", "dog", {"idx": i})
    store = FixtureStore(root=tmp_path)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda i: store.get(ROLE_DETECT, f"img-{i % 20}", "dog"), range(200)))
    assert all(results[i] == {"idx": i % 20} for i in range(200))


def test_replay_detector_and_validation(tmp_path):
    write_fixture(
        tmp_path,
        ROLE_DETECT,
        IMG.image_id,
        "dog",
        {"detections": [{"box": [1, 1, 9, 9], "score": 0.75}]},
    )
    detector = ReplayDetector(store=FixtureStore(root=tmp_path))
    result = detector.detect(IMG, "dog")
    assert result.detections[0].score == 0.75
    with pytest.raises(ValueError):
        detector.detect(IMG, "")


def test_replay_mllm_paths(tmp_path):
    store = FixtureStore(root=tmp_path)
    write_fixture(
        tmp_path,
        ROLE_GENERATE,
        IMG.image_id,
        "p1",
        {"text": "[[10, 10, 50, 50]]", "coordinate_token_probs": [0.9, 0.8, 0.9, 0.8]},
    )
    write_fixture(tmp_path, ROLE_GENERATE, IMG.image_id, "p2", {"text": "no idea"})
    write_fixture(tmp_path, ROLE_GENERATE, IMG.image_id, "p3", {"text": "[[9, 9, 2, 2]]"})
    mllm = ReplayMllm(store=store)

    with_box = mllm.ground_generative(IMG, "p1")
    assert with_box.box == BBox(10, 10, 50, 50)
    assert with_box.coordinate_token_probs == (0.9, 0.8, 0.9, 0.8)

    boxless = mllm.ground_generative(IMG, "p2")
    assert boxless.box is None and not boxless.malformed

    malformed = mllm.ground_generative(IMG, "p3")
    assert malformed.box is None and malformed.malformed


def test_grounding_from_payload_defaults_unit_probs():
    grounding = grounding_from_payload({"text": "[[0, 0, 4, 4]]"})
    assert grounding.box is not None
    assert grounding.coordinate_token_probs == (1.0, 1.0, 1.0, 1.0)
    # a boxless reply carries no probabilities even if the payload has some
    boxless = grounding_from_payload({"text": "nope", "coordinate_token_probs": [0.5]})
    assert boxless.coordinate_token_probs == ()


def test_selection_from_payload_resolution():
    offered = ("A", "B", "C")
    assert selection_from_payload({"text": "B"}, offered).label == "B"
    assert selection_from_payload({"text": "The answer is c."}, offered).label == "C"
    assert selection_from_payload({"text": "b) looks right"}, offered).label == "B"
    result = selection_from_payload({"text": "A", "label_prob": 0.25}, offered)
    assert result.label_prob == 0.25
    # an offered label wins over text, and needs no text at all
    assert selection_from_payload({"label": "B", "label_prob": 0.8}, offered).label == "B"
    assert selection_from_payload({"label": "B", "text": "A"}, offered).label == "B"
    # a label that is not offered falls back to text
    assert selection_from_payload({"label": "Z", "text": "C"}, offered).label == "C"
    with pytest.raises(BackendError):
        selection_from_payload({"label": "Z"}, offered)
    with pytest.raises(BackendError):
        selection_from_payload({"text": "none of them"}, offered)
    with pytest.raises(ValueError):
        selection_from_payload({"text": "A"}, ())
    with pytest.raises(ValueError):
        selection_from_payload({"text": "A"}, ("A", "A"))


@pytest.mark.parametrize(
    "probs",
    [[0, 1, 1, 1], [0.5, 1.5, 0.5, 0.5], [-0.1] * 4, [math.nan] * 4, ["x"] * 4, [None] * 4,
     [[0.5]] * 4, 0.9, "0.9", {"p": 0.9}],
    ids=["zero", "above 1", "negative", "nan", "string entry", "null entry", "list entry",
         "number", "string", "object"],
)
def test_grounding_from_payload_rejects_bad_token_probabilities(probs):
    payload = {"text": "[[0, 0, 4, 4]]", "coordinate_token_probs": probs}
    with pytest.raises(BackendError, match="coordinate"):
        grounding_from_payload(payload)
    # a reply without a box keeps ignoring its probabilities
    boxless = grounding_from_payload({**payload, "text": "no box here"})
    assert boxless.box is None and boxless.coordinate_token_probs == ()


@pytest.mark.parametrize("prob", [0, 0.0, -0.5, 1.5, math.inf, math.nan, "high", None, [0.5]])
def test_selection_from_payload_rejects_a_bad_label_prob(prob):
    with pytest.raises(BackendError, match="label_prob"):
        selection_from_payload({"label": "A", "label_prob": prob}, ("A", "B"))


def test_resolve_target_without_any_target_is_a_backend_error():
    assert resolve_target('{"target": "mug"}', "42 7") == "mug"
    assert resolve_target("no dict", "the red mug") == "mug"
    with pytest.raises(BackendError, match="names no target"):
        resolve_target("no dict", "42 7")


def test_replay_selector(tmp_path):
    write_fixture(tmp_path, ROLE_SELECT, IMG.image_id, "prompt-1", {"text": "A", "label_prob": 0.6})
    selector = ReplaySelector(store=FixtureStore(root=tmp_path))
    result = selector.select(IMG, "prompt-1", ("A", "B"))
    assert result.label == "A"
    assert result.label_prob == 0.6
    assert result.offered == ("A", "B")


# ------------------------------------------------------------------- http


_ROLE_BUILDS = """
import sys
from recollab import cli, runner
from recollab.config import BackendSettings, RunConfig

STACK = ("http.client", "requests", "urllib3", "charset_normalizer")

def loaded():
    return [m for m in STACK if m in sys.modules]

print(loaded())
replay = BackendSettings(kind="replay", fixtures="fixtures")
runner.build_backends(RunConfig(pipeline="specialist", backends={"grounder": replay}))
print(loaded())
http = BackendSettings(kind="http", endpoint="http://127.0.0.1:9/ground")
runner.build_backends(RunConfig(pipeline="specialist", backends={"grounder": http}))
print(loaded())
"""


def test_the_http_stack_is_imported_only_by_building_an_http_role():
    # a fresh interpreter, since this one imported http.client for the tests below
    src = str(Path(recollab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _ROLE_BUILDS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "['http.client']"]


@pytest.fixture
def make_client():
    """``HttpClient`` built from ``BackendSettings(kind="http", **kwargs)``, each closed at
    teardown, also when the test fails."""
    clients = []

    def make(**kwargs):
        clients.append(HttpClient(BackendSettings(kind="http", **kwargs)))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


def test_http_detector_round_trip(make_client):
    payload = {
        "detections": [
            {"box": [5, 5, 50, 50], "score": 0.9},
            {"box": [8, 8, 60, 60], "score": 0.4},
        ]
    }
    with http_server(default=payload) as (server, url):
        detector = HttpDetector(client=make_client(endpoint=url, token="sekrit"))
        result = detector.detect(IMG, "dog")
    assert [d.score for d in result.detections] == [0.9, 0.4]
    assert server.seen[0]["body"] == {"image": "img-1", "query": "dog"}
    assert server.seen[0]["auth"] == "Bearer sekrit"


def test_http_client_retries_server_errors(make_client):
    ok = {"detections": []}
    with http_server(script=[(500, {"oops": 1}), (503, {}), (200, ok)]) as (server, url):
        client = make_client(endpoint=url, retries=2, backoff=0.0)
        assert client.post({"x": 1}) == ok
        assert len(server.seen) == 3


def test_http_client_exhausted_retries_raise(make_client):
    with http_server(script=[(500, {}), (500, {})]) as (server, url):
        client = make_client(endpoint=url, retries=1, backoff=0.0)
        with pytest.raises(BackendError):
            client.post({})
        assert len(server.seen) == 2


def test_http_client_client_errors_fail_fast(make_client):
    with http_server(script=[(404, {})]) as (server, url):
        client = make_client(endpoint=url, retries=3, backoff=0.0)
        with pytest.raises(BackendError):
            client.post({})
        assert len(server.seen) == 1


def test_http_client_rejects_error_payload_and_non_json(make_client):
    with http_server(script=[(200, {"error": "bad model"})]) as (_, url):
        with pytest.raises(BackendError, match="bad model"):
            make_client(endpoint=url, retries=0).post({})
    with http_server(script=[(200, b"<html>")]) as (_, url):
        with pytest.raises(BackendError):
            make_client(endpoint=url, retries=0).post({})


def test_http_client_connection_failure(make_client):
    client = make_client(endpoint="http://127.0.0.1:9/", retries=1, backoff=0.0, timeout=0.2)
    with pytest.raises(BackendError, match="unreachable"):
        client.post({})


def test_http_client_keeps_its_connection_alive(make_client):
    with http_server(default={"ok": 1}, keep_alive=True) as (server, url):
        client = make_client(endpoint=url, concurrency=2)
        for _ in range(5):
            assert client.post({}) == {"ok": 1}
        client.close()
    assert len(server.seen) == 5 and server.connections == 1


def test_http_client_keeps_no_more_idle_connections_than_its_concurrency(make_client):
    # more callers than slots, switching threads often: every call succeeds,
    # and the connections beyond the slots are closed rather than pooled
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with http_server(default={"ok": 1}, keep_alive=True) as (server, url):
            client = make_client(endpoint=url, concurrency=3, retries=0)
            with ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(lambda i: client.post({"i": i}), range(240), timeout=60))
            idle = client._idle.qsize()
            client.close()
    finally:
        sys.setswitchinterval(switch)
    assert results == [{"ok": 1}] * 240 and len(server.seen) == 240
    assert 1 <= idle <= 3


def test_http_client_close_leaves_no_idle_connection_and_a_later_call_opens_one(make_client):
    with http_server(default={"ok": 1}, keep_alive=True) as (server, url):
        client = make_client(endpoint=url, concurrency=2, retries=0)
        client.post({})
        client.close()
        assert client._idle.empty() and server.connections == 1
        assert client.post({}) == {"ok": 1}
        assert server.connections == 2 and client._idle.qsize() == 1
        client.close()
    assert len(server.seen) == 2


def test_http_client_reopens_a_connection_the_server_dropped_while_idle(caplog, make_client):
    # the server closes each connection after one reply without a Connection: close
    with http_server(default={"ok": 1}, keep_alive=True, drop_idle=True) as (server, url):
        client = make_client(endpoint=url, retries=0, concurrency=1)
        with caplog.at_level(logging.WARNING):
            for _ in range(3):
                assert client.post({}) == {"ok": 1}
        client.close()
    assert len(server.seen) == 3 and server.connections == 3
    assert caplog.records == []


def test_http_client_closes_what_the_server_closes(make_client):
    # an HTTP/1.0 server closes after every reply, so no connection is left open
    with http_server(default={"ok": 1}) as (server, url):
        client = make_client(endpoint=url, concurrency=1)
        client.post({})
        client.post({})
    assert server.connections == 2


def test_http_client_sends_json_with_the_bytes_requests_sent(make_client):
    with http_server(default={"ok": 1}) as (server, url):
        make_client(endpoint=url + "a path?x=1").post({"prompt": "caf\u00e9", "n": [1, 2.5]})
    assert server.seen[0]["path"] == "/a%20path?x=1"
    assert server.seen[0]["raw"] == b'{"prompt": "caf\\u00e9", "n": [1, 2.5]}'
    with pytest.raises(BackendError, match="not valid JSON"):
        make_client(endpoint=url).post({"score": math.nan})


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_client_sends_an_absolute_target_to_the_environment_proxy(no_proxy_env, make_client):
    with http_server(default={"via": "proxy"}) as (proxy, proxy_url):
        no_proxy_env.setenv("HTTP_PROXY", proxy_url.replace("//", "//me:p%40ss@"))
        # nothing listens on the endpoint's port: the proxy answers for it
        client = make_client(endpoint="http://127.0.0.1:9/ground", token="sekrit", retries=0)
        assert client.post({"q": 1}) == {"via": "proxy"}
    assert proxy.seen == [
        {"path": "http://127.0.0.1:9/ground", "host": "127.0.0.1:9", "auth": "Bearer sekrit",
         "proxy_auth": "Basic bWU6cEBzcw==", "body": {"q": 1}, "raw": b'{"q": 1}'}
    ]


def test_http_client_goes_direct_to_a_host_no_proxy_names(no_proxy_env, make_client):
    direct = http_server(default={"via": "direct"})
    with http_server() as (proxy, proxy_url), direct as (server, url):
        no_proxy_env.setenv("HTTP_PROXY", proxy_url)
        no_proxy_env.setenv("NO_PROXY", "example.invalid,127.0.0.1")
        assert make_client(endpoint=url, retries=0).post({}) == {"via": "direct"}
    assert proxy.seen == [] and len(server.seen) == 1


def test_an_empty_lowercase_proxy_variable_unsets_the_uppercase_one(no_proxy_env, make_client):
    direct = http_server(default={"via": "direct"})
    with http_server() as (proxy, proxy_url), direct as (server, url):
        no_proxy_env.setenv("HTTP_PROXY", proxy_url)
        no_proxy_env.setenv("http_proxy", "")
        assert make_client(endpoint=url, retries=0).post({}) == {"via": "direct"}
    assert proxy.seen == [] and len(server.seen) == 1


def test_http_client_tunnels_https_through_the_environment_proxy(no_proxy_env, make_client):
    with http_server() as (proxy, proxy_url):
        no_proxy_env.setenv("HTTPS_PROXY", proxy_url)
        client = make_client(endpoint="https://127.0.0.1:9/ground", retries=0)
        # the loopback proxy refuses the tunnel, so the call fails after asking for it
        with pytest.raises(BackendError, match="unreachable"):
            client.post({})
    assert proxy.tunnels == ["127.0.0.1:9"]


@pytest.mark.parametrize(
    "endpoint", ["gpu-box:8901/ground", "ftp://x/y", "http:///ground", "http://x:0/",
                 "http://x:99999/", "http://x:port/", "http://user:pw@x/"]
)
def test_http_client_refuses_an_endpoint_it_cannot_call(endpoint):
    # a client's endpoint comes from its settings, which refuse one it cannot call
    with pytest.raises(ConfigError, match=f"endpoint {endpoint!r}"):
        BackendSettings(kind="http", endpoint=endpoint)


def test_build_backends_gives_an_http_role_every_setting_of_its_config():
    grounder = {"kind": "http", "token": "sekrit", "retries": 3, "backoff": 0, "timeout": 7.5,
                "concurrency": 3, "coordinate_space": 1000}
    payload = {"detections": [{"box": [0, 0, 500, 1000], "score": 0.5}]}
    with http_server(script=[(503, {})] * 4, default=payload) as (server, url):
        cfg = config_from_dict({"backends": {"grounder": {**grounder, "endpoint": url}}})
        handles = runner.build_backends(cfg)
        with closing(handles["grounder"]):
            # retries + 1 attempts against a server error, none of them waiting
            with pytest.raises(BackendError, match="after 4 attempts"):
                handles["grounder"].ground(IMG, "dog")
            assert len(server.seen) == 4
            result = handles["grounder"].ground(IMG, "dog")
            client = handles["grounder"].client
            connection = client._connect()
    assert [seen["auth"] for seen in server.seen] == ["Bearer sekrit"] * 5
    # the reply's 1000 x 1000 grid is rescaled to the task's 640 x 480 pixels
    assert result.detections[0].box == BBox(0, 0, 320, 480)
    assert connection.timeout == 7.5 and connection.sock is None
    # the connection pool and the role's gate are both bounded by its concurrency
    assert client._idle.maxsize == 3 and handles["grounder"]._gate.qsize() == 3


def test_http_mllm_rescales_coordinates(make_client):
    payload = {"text": "[[100, 100, 500, 900]]", "coordinate_token_probs": [0.9] * 4}
    with http_server(default=payload) as (server, url):
        mllm = HttpMllm(client=make_client(endpoint=url, coordinate_space=1000))
        grounding = mllm.ground_generative(IMG, "where is it?")
    assert grounding.box == BBox(64.0, 48.0, 320.0, 432.0)
    assert grounding.raw_text == "[[100, 100, 500, 900]]"
    assert server.seen[0]["body"] == {"image": "img-1", "prompt": "where is it?"}


def test_http_detector_rescales_coordinates(make_client):
    payload = {"detections": [{"box": [0, 0, 1000, 1000], "score": 0.5}]}
    with http_server(default=payload) as (_, url):
        detector = HttpDetector(client=make_client(endpoint=url, coordinate_space=1000))
        result = detector.detect(IMG, "dog")
    assert result.detections[0].box == BBox(0, 0, 640, 480)


def test_http_selector_sends_labels(make_client):
    with http_server(default={"text": "B", "label_prob": 0.8}) as (server, url):
        selector = HttpSelector(client=make_client(endpoint=url))
        result = selector.select(IMG, "pick one", ("A", "B"))
    assert result.label == "B"
    assert server.seen[0]["body"]["labels"] == ["A", "B"]


def test_http_extractor_sends_prompt(make_client):
    with http_server(default={"text": '{"target": "mug"}'}) as (server, url):
        extractor = HttpTargetExtractor(client=make_client(endpoint=url))
        assert extractor.extract("the red mug") == "mug"
    assert "the red mug" in server.seen[0]["body"]["prompt"]


# ------------------------------------------- oracle (test-only, see helpers)


def test_parse_prompt_options():
    prompt = "Which option?\nA. [[0, 0, 10, 10]]\nB. [[5, 5, 25, 25]]\nC. None\n"
    options = parse_prompt_options(prompt)
    assert set(options) == {"A", "B"}
    assert options["B"] == BBox(5, 5, 25, 25)


def test_oracle_selector_picks_max_iou():
    gt = BBox(4, 4, 26, 26)
    oracle = OracleSelector(gt_by_image={"img-1": gt})
    prompt = "A. [[0, 0, 10, 10]]\nB. [[5, 5, 25, 25]]\nC. None"
    result = oracle.select(IMG, prompt, ("A", "B", "C"))
    assert result.label == "B"
    assert iou(BBox(5, 5, 25, 25), gt) > iou(BBox(0, 0, 10, 10), gt)


def test_oracle_selector_rejects_without_gt():
    oracle = OracleSelector(gt_by_image={})
    prompt = "A. [[0, 0, 10, 10]]\nB. None"
    assert oracle.select(IMG, prompt, ("A", "B")).label == "B"


def test_oracle_selector_handles_no_box_options():
    oracle = OracleSelector(gt_by_image={"img-1": BBox(0, 0, 5, 5)})
    assert oracle.select(IMG, "A. None", ("A",)).label == "A"
