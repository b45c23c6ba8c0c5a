"""Command-line behaviour: exit codes, determinism, crash resume.

End-to-end tests run the installed console entry through a subprocess so
os._exit in the crash hook cannot take the test process down with it.
"""

import gc
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from recollab import runner
from recollab.backends.http import HttpClient, HttpGrounder
from recollab.backends.replay import (
    ROLE_DETECT,
    ROLE_GENERATE,
    ROLE_GROUND,
    FixtureStore,
    fixture_key,
    write_fixture,
)
from recollab.backends.types import BackendError
from recollab.cli import main
from recollab.config import PIPELINES, BackendSettings, ConfigError, load_config
from recollab.datamodel import ImageRef, Split, TaskSet, load_taskset
from recollab.geometry import BBox, Detection
from recollab.metrics import build_report, precision_at_k
from recollab.prediction import Pathway, Prediction
from recollab.runner import (
    LOG_NAME,
    PIPELINE_SPECS,
    REPORT_JSON,
    REPORT_TEXT,
    BoundedHandle,
    build_backends,
    pathway_units,
    read_log,
    run_specialist_task,
)
from recollab.sfa import build_focus_prompt, run_sfa

from helpers import (
    build_crs_corpus,
    build_export_corpus,
    build_sfa_corpus,
    http_server,
    make_positive,
    make_slot_positive,
    scored,
    write_mllm_fixtures,
)


def run_cli(*args, env=None, cwd=None):
    merged = {k: v for k, v in os.environ.items() if k != "RECOLLAB_CRASH_AFTER"}
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "recollab", *map(str, args)],
        capture_output=True,
        text=True,
        env=merged,
        cwd=cwd,
        timeout=120,
    )


def read_records(log_path):
    lines = Path(log_path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------- read_log


def test_read_log_missing_file(tmp_path):
    meta, preds, valid = read_log(tmp_path / "absent.jsonl")
    assert meta is None
    assert preds == {}
    assert valid == 0


def _pred_line(task_id):
    return json.dumps(
        {
            "record": "prediction",
            "task_id": task_id,
            "box": [1.0, 2.0, 3.0, 4.0],
            "confidence": 0.5,
            "pathway": "fast",
            "decision": None,
            "raw": None,
            "note": None,
            "ranked_boxes": [{"box": [1.0, 2.0, 3.0, 4.0], "confidence": 0.5}],
        }
    )


def test_read_log_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "log.jsonl"
    meta_line = json.dumps({"record": "meta", "version": 1, "config_hash": "x"})
    body = meta_line + "\n" + _pred_line("t1") + "\n" + _pred_line("t2") + "\n"
    path.write_text(body + '{"record": "predi', encoding="utf-8")

    meta, preds, valid = read_log(path)
    assert meta is not None and meta["config_hash"] == "x"
    assert set(preds) == {"t1", "t2"}
    assert valid == len(body.encode("utf-8"))


def test_read_log_defaults_missing_ranked_boxes_to_the_chosen_box(tmp_path):
    task = make_positive(0)
    record = json.loads(_pred_line(task.id))
    record["box"] = task.gt_box.as_list()
    del record["ranked_boxes"]
    assert Prediction.from_dict(record).ranked_boxes == ((task.gt_box, 0.5),)
    # a line's chosen box is built once and shared with its top ranked entry
    other = Prediction.from_dict(json.loads(_pred_line("t2")))
    assert other.box is other.ranked_boxes[0][0]

    path = tmp_path / "log.jsonl"
    meta_line = json.dumps({"record": "meta", "version": 1, "config_hash": "x"})
    path.write_text(
        "\n".join((meta_line, json.dumps(record), _pred_line("t2"))) + "\n", encoding="utf-8"
    )
    ts = TaskSet(Split.TEST, [task])
    _, rows, _ = read_log(path, ts)
    assert (rows[task.id].rank, rows[task.id].rank_confidence) == (0, 0.5)
    assert precision_at_k(rows, ts, k=1) == 1.0


def test_read_log_rejects_unknown_record_kind(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"record": "mystery"}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown record kind"):
        read_log(path)


def test_read_log_rejects_corrupt_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"record": "meta"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        read_log(path)


# every line boundary of str.splitlines except "\n" and "\r"; a log leaves them raw
_OTHER_LINE_BREAKS = "\u2028\u2029\u0085\v\f\x1c\x1d\x1e"


def test_a_reply_holding_other_line_breaks_is_read_back_unchanged(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    assert main(["run", "-c", str(cfg_path)]) == 0
    log_path = tmp_path / "out" / LOG_NAME
    report = (tmp_path / "out" / REPORT_JSON).read_bytes()
    meta, *records = read_records(log_path)
    text = f"no box{_OTHER_LINE_BREAKS}here"
    records[-1]["raw"] = {"text": text}
    with open(log_path, "w", encoding="utf-8") as handle:
        for record in (meta, *records):
            runner._write_record(handle, record)

    # a line split at one of those breaks would not parse, and read_log would refuse it
    _, rows, valid_len = read_log(log_path)
    assert list(rows) == [record["task_id"] for record in records]
    assert valid_len == log_path.stat().st_size
    capsys.readouterr()
    assert main(["report", "-c", str(cfg_path)]) == 0
    assert (tmp_path / "out" / REPORT_JSON).read_bytes() == report


def _drop_confidence(record):
    del record["confidence"]


def _contradict_the_route(record):
    record["decision"].update(level="fast", detection_count=2)


def _assert_damaged_log_refused(tmp_path, capsys, replace_line_2, *messages):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    assert main(["run", "-c", str(cfg_path)]) == 0
    log_path = tmp_path / "out" / LOG_NAME
    lines = log_path.read_text(encoding="utf-8").splitlines()
    lines[1] = replace_line_2(lines[1])
    log_path.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    capsys.readouterr()
    # report reads the log; a resumed run reads it before making any call
    for command in ("report", "run"):
        assert main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        for message in messages:
            assert message in err
    assert len(log_path.read_text(encoding="utf-8").splitlines()) == 3


def _number_the_note(record):
    record["note"] = 5


def _number_the_target(record):
    record["decision"]["target"] = 5


@pytest.mark.parametrize(
    "damage, error",
    [
        (_drop_confidence, "KeyError"),
        (_contradict_the_route, "ValueError"),
        (_number_the_note, "TypeError: note must be a string, got 5"),
        (_number_the_target, "TypeError: target must be a string, got 5"),
    ],
)
def test_a_malformed_prediction_record_is_a_usage_error(tmp_path, capsys, damage, error):
    def replace(line):
        record = json.loads(line)
        damage(record)
        return json.dumps(record)

    _assert_damaged_log_refused(
        tmp_path, capsys, replace, "prediction log line 2 is not a valid prediction record", error
    )


def test_a_log_line_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    _assert_damaged_log_refused(
        tmp_path, capsys, lambda line: "[1, 2]", "prediction log line 2 is not a JSON object"
    )


# ----------------------------------------------------------- pathway units


def _cfg_with_costs(tmp_path, pipeline):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir(exist_ok=True)
    (tmp_path / "test.jsonl").write_text("", encoding="utf-8")
    replay = {"kind": "replay", "fixtures": "fixtures"}
    config = {
        "pipeline": pipeline,
        "datasets": {"test": "test.jsonl"},
        "backends": {
            "extractor": {**replay, "cost_unit": 0.0},
            "detector": {**replay, "cost_unit": 0.0},
            "grounder": {**replay, "cost_unit": 1.0},
            "mllm": {**replay, "cost_unit": 10.0},
            "selector": {**replay, "cost_unit": 2.0},
        },
    }
    path = tmp_path / f"{pipeline}.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return load_config(path)


def test_pathway_units_sum_backend_costs(tmp_path):
    assert pathway_units(_cfg_with_costs(tmp_path, "sfa")) == {"fast": 1.0, "slow": 10.0}
    assert pathway_units(_cfg_with_costs(tmp_path, "specialist")) == {"fast": 1.0}
    assert pathway_units(_cfg_with_costs(tmp_path, "mllm")) == {"slow": 10.0}
    assert pathway_units(_cfg_with_costs(tmp_path, "crs")) == {"crs": 3.0}


def test_pipeline_registry_covers_exactly_the_config_pipelines():
    assert tuple(PIPELINE_SPECS) == PIPELINES
    # a pipeline needs every role any of its pathways calls
    assert PIPELINE_SPECS["sfa"].roles == ("extractor", "detector", "grounder", "mllm")
    assert PIPELINE_SPECS["mllm"].roles == ("mllm",)
    assert PIPELINE_SPECS["specialist"].roles == ("grounder",)
    assert PIPELINE_SPECS["crs"].roles == ("grounder", "selector")


# ---------------------------------------------------------- bounded handle


class _CountingGrounder:
    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def ground(self, image, query):
        with self.lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.01)
        with self.lock:
            self.active -= 1
        return query


def test_bounded_handle_caps_in_flight_calls():
    inner = _CountingGrounder()
    handle = BoundedHandle(inner, 2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda i: handle.ground("img", f"q{i}"), range(16)))
    assert sorted(results) == sorted(f"q{i}" for i in range(16))
    assert inner.max_active <= 2
    assert inner.max_active == 2  # enough load to actually hit the cap


def test_bounded_handle_gives_back_the_slot_of_a_call_that_raises():
    class Failing:
        def ground(self, image, query):
            raise BackendError(query)

    handle = BoundedHandle(Failing(), 1)
    for i in range(3):  # a slot kept by the first failure would block the second call
        with pytest.raises(BackendError, match=f"q{i}"):
            handle.ground("img", f"q{i}")
    with pytest.raises(ValueError, match="at least 1"):
        BoundedHandle(Failing(), 0)


def test_bounded_handle_passes_plain_attributes_through():
    class Inner:
        marker = "thing"

    handle = BoundedHandle(Inner(), 1)
    assert handle.marker == "thing"


# ---------------------------------------------------------------- call memo


def _tasks_on(image, n):
    return [make_positive(i, image=image) for i in range(n)]


class _GatedDetector:
    """Detector whose calls block until ``go`` is set; the first ``fail`` calls raise."""

    def __init__(self, fail=0):
        self.lock = threading.Lock()
        self.calls = []
        self.go = threading.Event()
        self.fail = fail

    def detect(self, image, query):
        with self.lock:
            self.calls.append(query)
            failing = len(self.calls) <= self.fail
        assert self.go.wait(10)
        if failing:
            raise BackendError(f"detector down for {query}")
        return object()


def _in_threads(n, fn, spare=0):
    pool = ThreadPoolExecutor(max_workers=n + spare)
    return pool, [pool.submit(fn) for _ in range(n)]


def test_memo_makes_one_call_per_key_for_concurrent_callers():
    inner = _GatedDetector()
    handle = BoundedHandle(inner, 1, runner.CallMemo(_tasks_on("img", 8)))
    image = ImageRef("img", 640, 480)
    pool, futures = _in_threads(8, lambda: handle.detect(image, "the cat"))
    time.sleep(0.2)
    inner.go.set()
    results = [f.result(timeout=10) for f in futures]
    pool.shutdown()
    assert inner.calls == ["the cat"]
    assert all(r is results[0] for r in results)
    # the result is held while the tasks on that image are pending
    assert handle.detect(image, "the cat") is results[0]
    assert inner.calls == ["the cat"]


def test_memo_waiters_hold_no_concurrency_slot():
    inner = _GatedDetector()
    handle = BoundedHandle(inner, 2, runner.CallMemo(_tasks_on("img", 8)))
    image = ImageRef("img", 640, 480)
    pool, futures = _in_threads(4, lambda: handle.detect(image, "the cat"), spare=1)
    deadline = time.monotonic() + 10
    while not inner.calls and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.1)
    # three callers wait on the first one's call; the second slot is still free
    other = pool.submit(handle.detect, image, "the dog")
    while len(inner.calls) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert inner.calls == ["the cat", "the dog"]
    inner.go.set()
    assert len({id(f.result(timeout=10)) for f in futures}) == 1
    other.result(timeout=10)
    pool.shutdown()


def test_memo_shares_a_failure_with_waiters_only():
    inner = _GatedDetector(fail=1)
    memo = runner.CallMemo(_tasks_on("img", 8))
    handle = BoundedHandle(inner, 1, memo)
    image = ImageRef("img", 640, 480)
    pool, futures = _in_threads(6, lambda: handle.detect(image, "the cat"))
    time.sleep(0.5)  # every caller is waiting on the first one's call
    inner.go.set()
    errors = []
    for future in futures:
        with pytest.raises(BackendError, match="detector down") as caught:
            future.result(timeout=10)
        errors.append(caught.value)
    pool.shutdown()
    assert inner.calls == ["the cat"]
    assert all(e is errors[0] for e in errors)
    assert len(memo) == 0
    # the failure was not stored: the next caller reaches the backend again
    result = handle.detect(image, "the cat")
    assert inner.calls == ["the cat", "the cat"]
    assert handle.detect(image, "the cat") is result


def test_memo_keys_by_exact_arguments_and_keeps_only_what_a_task_can_reuse():
    pos = make_positive(0, image="img", expression="the cat")
    neg = make_positive(1, image="img", expression="a dog")
    alone = make_positive(2, image="solo", expression="a bird")
    memo = runner.CallMemo([pos, neg, alone])
    calls = []

    def call(*args):
        calls.append(args)
        return len(calls)

    small, large = ImageRef("img", 640, 480), ImageRef("img", 800, 600)
    assert memo.call("detect", (small, "cat"), call) == 1
    assert memo.call("detect", (large, "cat"), call) == 2  # the size is part of the key
    assert memo.call("detect", (small, "dog"), call) == 3  # so is the query
    assert memo.call("detect", (small, "cat"), call) == 1
    # one pending task per image or expression: nothing to share, nothing kept
    assert memo.call("detect", (ImageRef("solo", 640, 480), "bird"), call) == 4
    assert memo.call("extract", ("the cat",), call) == 5
    assert memo.call("extract", ("the cat",), call) == 6
    assert len(memo) == 3

    memo.release(pos)
    assert len(memo) == 3  # neg may still ask
    memo.release(neg)
    assert len(memo) == 0
    memo.release(alone)
    assert memo.call("detect", (small, "cat"), call) == 7


def test_memo_holds_detections_and_shared_targets_but_no_per_task_call():
    # pos and neg-expr share an image, pos and neg-image an expression
    pos = make_positive(0, image="img", expression="the cat")
    neg_expr = make_positive(1, image="img", expression="the black cat")
    neg_image = make_positive(2, image="other", expression="the cat")
    memo = runner.CallMemo([pos, neg_expr, neg_image])
    calls = Counter()

    class Inner:
        def extract(self, expression):
            calls["extract"] += 1
            return object()

        def detect(self, image, query):
            calls["detect"] += 1
            return object()

        def ground(self, image, query):
            calls["ground"] += 1
            return object()

        def ground_generative(self, image, prompt):
            calls["ground_generative"] += 1
            return object()

        def select(self, image, prompt, offered):
            calls["select"] += 1
            return object()

    handle = BoundedHandle(Inner(), 2, memo)
    image = ImageRef("img", 640, 480)
    for _ in range(3):
        handle.extract("the cat")
        handle.detect(image, "cat")
        handle.ground(image, "the cat")
        handle.ground_generative(image, "where is the cat?")
        handle.select(image, "pick one", ["A", "B"])
    assert calls == {"extract": 1, "detect": 1, "ground": 3, "ground_generative": 3, "select": 3}
    assert len(memo) == 2  # the target and the detection


def test_memo_under_contention_calls_each_key_once_and_ends_empty():
    images = [f"img-{i}" for i in range(8)]
    tasks = [make_positive(i, image=images[i % len(images)]) for i in range(96)]
    memo = runner.CallMemo(tasks)
    lock = threading.Lock()
    calls = Counter()

    class Detector:
        def detect(self, image, query):
            with lock:
                calls[image.image_id, query] += 1
            return object()

    handle = BoundedHandle(Detector(), 4, memo)

    def run(task):
        image = ImageRef(task.image, 640, 480)
        answers = [handle.detect(image, query) for query in ("a", "b", "c")]
        memo.release(task)
        return answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            answers = list(pool.map(run, tasks, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert calls == {(image, query): 1 for image in images for query in "abc"}
    assert len(memo) == 0
    first = {}
    for task, row in zip(tasks, answers):
        assert all(first.setdefault((task.image, i), a) is a for i, a in enumerate(row))


def _recording_memo(monkeypatch):
    memos = []

    class RecordingMemo(runner.CallMemo):
        def __init__(self, tasks):
            super().__init__(tasks)
            memos.append(self)

    monkeypatch.setattr(runner, "CallMemo", RecordingMemo)
    return memos


def _count_fixture_reads(monkeypatch):
    reads = []
    original_get = FixtureStore.get

    def recording_get(self, role, image_id, query):
        reads.append((role, image_id, query))
        return original_get(self, role, image_id, query)

    monkeypatch.setattr(FixtureStore, "get", recording_get)
    return reads


@pytest.mark.parametrize("shared_images", [False, True])
def test_run_reads_each_fixture_once(tmp_path, monkeypatch, shared_images):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=6, shared_images=shared_images)
    cfg = load_config(cfg_path)
    tasks = list(load_taskset(tmp_path / "test.jsonl", "test"))
    unshared = build_backends(cfg)
    direct = [run_sfa(task, unshared, cfg.sfa).to_dict() for task in tasks]

    reads = _count_fixture_reads(monkeypatch)
    memos = _recording_memo(monkeypatch)
    assert runner.cmd_run(cfg) == 0
    assert len(reads) == len(set(reads))
    # extract, detect, then ground or generate: 3 per task, less each shared detection
    assert len(reads) == 3 * len(tasks) - (6 if shared_images else 0)
    assert read_records(tmp_path / "out" / LOG_NAME)[1:] == [
        {"record": "prediction", **d} for d in direct
    ]
    assert len(memos) == 1 and len(memos[0]) == 0


def test_run_drops_a_result_once_the_last_task_on_its_image_is_logged(tmp_path, monkeypatch):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4, shared_images=True)
    memos = _recording_memo(monkeypatch)
    real_write = runner._write_record
    held = []

    def inspecting_write(handle, record):
        if record["record"] == "prediction":
            held.append(len(memos[0]))
        real_write(handle, record)

    monkeypatch.setattr(runner, "_write_record", inspecting_write)
    assert runner.cmd_run(load_config(cfg_path)) == 0
    # pos-i and neg-i share img-i. pos-i's detection is held while either is
    # pending, and is gone by the time pos-(i+1) is written; no grounding is held
    assert held == [1] * 8
    assert len(memos[0]) == 0


@pytest.mark.parametrize("pipeline", ["specialist", "mllm", "crs"])
def test_a_run_whose_calls_cannot_repeat_builds_no_memo(tmp_path, monkeypatch, pipeline):
    if pipeline == "crs":
        cfg_path = build_crs_corpus(tmp_path, n_pairs=4)
    else:
        cfg_path = build_sfa_corpus(tmp_path, n_pairs=4, shared_images=True)
        write_mllm_fixtures(tmp_path)
    reads = _count_fixture_reads(monkeypatch)
    memos = _recording_memo(monkeypatch)
    assert main(["run", "-c", str(cfg_path), "--pipeline", pipeline]) == 0
    # no task repeats another's call, so nothing was shared: one read per call
    assert memos == [] and len(reads) == len(set(reads)) > 0


def test_a_runs_memo_is_gone_before_the_report_is_built(tmp_path, monkeypatch):
    cfg = load_config(build_sfa_corpus(tmp_path, n_pairs=4, shared_images=True))
    refs = []

    class WatchedMemo(runner.CallMemo):
        def __init__(self, tasks):
            super().__init__(tasks)
            refs.append(weakref.ref(self))

    alive = []
    build = runner.build_report

    def watching_build(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return build(*args, **kwargs)

    monkeypatch.setattr(runner, "CallMemo", WatchedMemo)
    monkeypatch.setattr(runner, "build_report", watching_build)
    gc.disable()
    try:
        assert runner.cmd_run(cfg) == 0
    finally:
        gc.enable()
    # freed by reference count as the run's loop returns, with the collector off
    assert alive == [[False]]


def test_export_tuning_makes_every_call(tmp_path, monkeypatch):
    cfg_path = build_export_corpus(tmp_path, n_pos=4, n_neg=4, positives=4, negatives=4)
    reads = _count_fixture_reads(monkeypatch)
    memos = _recording_memo(monkeypatch)
    assert main(["export-tuning", "-c", str(cfg_path)]) == 0
    assert len(reads) == 8 and memos == []


@pytest.mark.parametrize("built_from", ["config", "client"])
def test_http_client_pools_as_many_connections_as_calls_in_flight(tmp_path, built_from):
    cfg = _cfg_with_costs(tmp_path, "specialist")
    arrived = threading.Barrier(16, timeout=10)

    def reply(body):
        arrived.wait()  # all 16 calls are in flight at once
        return {"detections": [{"box": [0, 0, 10, 10], "score": 0.5}]}

    with http_server(reply=reply, keep_alive=True) as (server, url):
        settings = BackendSettings(kind="http", endpoint=url, concurrency=16)
        if built_from == "config":
            handles = build_backends(replace(cfg, backends={"grounder": settings}))
        else:
            handles = {"grounder": HttpGrounder(HttpClient(settings))}
        image = ImageRef("img", 640, 480)
        ground = handles["grounder"].ground
        with closing(handles["grounder"].client), ThreadPoolExecutor(max_workers=16) as pool:
            for _ in range(2):
                results = list(pool.map(lambda i: ground(image, f"q{i}"), range(16)))
                assert all(len(r.detections) == 1 for r in results)
                # the second round reuses the first round's connections
                assert server.connections == 16
    assert len(server.seen) == 32


@pytest.mark.parametrize(
    "endpoint", ["gpu-box:8901/ground", "ftp://x/y", "http:///ground", "http://x:70000/ground"]
)
@pytest.mark.parametrize("set_by", ["config", "environment"])
def test_run_refuses_an_http_endpoint_it_cannot_call(
    tmp_path, capsys, monkeypatch, endpoint, set_by
):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["pipeline"] = "specialist"
    config["backends"]["grounder"] = {"kind": "http", "endpoint": "http://127.0.0.1:9/ground"}
    if set_by == "config":
        config["backends"]["grounder"]["endpoint"] = endpoint
    else:
        monkeypatch.setenv("RECOLLAB_GROUNDER_ENDPOINT", endpoint)
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["run", "-c", str(cfg_path)]) == 2
    assert f"bad backends.grounder: endpoint {endpoint!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------- specialist worker


class _StubGrounder:
    def __init__(self, detections=None, error=None):
        self.detections = detections or ()
        self.error = error

    def ground(self, image, query):
        if self.error is not None:
            raise self.error
        from recollab.backends.types import GroundingResult

        return GroundingResult(detections=tuple(self.detections), query=query)


def test_specialist_task_ranks_every_detection():
    dets = (
        Detection(box=BBox(0, 0, 10, 10), score=0.9),
        Detection(box=BBox(20, 20, 30, 30), score=0.4),
    )
    pred = run_specialist_task(make_positive(0), {"grounder": _StubGrounder(dets)})
    assert pred.box == dets[0].box
    assert pred.confidence == 0.9
    assert pred.pathway.value == "fast"
    assert pred.ranked_boxes == ((dets[0].box, 0.9), (dets[1].box, 0.4))


def test_specialist_task_empty_grounding_is_rejection():
    pred = run_specialist_task(make_positive(0), {"grounder": _StubGrounder()})
    assert pred.box is None
    assert pred.confidence == 0.0
    assert "no detections" in pred.note
    assert pred.ranked_boxes == ()


def test_specialist_task_zero_score_is_rejection():
    dets = (Detection(box=BBox(0, 0, 10, 10), score=0.0),)
    pred = run_specialist_task(make_positive(0), {"grounder": _StubGrounder(dets)})
    assert pred.box is None
    assert "zero confidence" in pred.note
    # the miss still ranks the grounder's box for P@k and R@k
    assert pred.ranked_boxes == ((dets[0].box, 0.0),)


def test_specialist_task_backend_failure_is_noted():
    stub = _StubGrounder(error=BackendError("socket closed"))
    pred = run_specialist_task(make_positive(0), {"grounder": stub})
    assert pred.note.startswith("backend failure")
    assert "socket closed" in pred.note
    assert pred.failed


# ----------------------------------------------------------- CLI: validate


def test_validate_passes_on_matching_counts(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    proc = run_cli("validate", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert "total" in proc.stdout
    summary = json.loads((tmp_path / "out" / "validation.json").read_text(encoding="utf-8"))
    assert summary["test"]["passed"] is True


def test_validate_fails_on_count_mismatch(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["expected_counts"]["test"]["total"] = 99
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    proc = run_cli("validate", "-c", cfg_path)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_validate_refuses_an_expected_count_that_names_no_count(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["expected_counts"]["test"]["negative_images"] = 0
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    assert main(["validate", "-c", str(cfg_path)]) == 2
    assert "unknown count key(s) in expected_counts.test: negative_images" in capsys.readouterr().err
    assert not (tmp_path / "out" / "validation.json").exists()


def test_validate_refuses_expected_counts_for_a_split_with_no_dataset(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    assert list(config["datasets"]) == ["test"]
    config["expected_counts"]["val"] = {"total": 999}
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    assert main(["validate", "-c", str(cfg_path)]) == 2
    assert "expected_counts.val: split 'val' has no dataset" in capsys.readouterr().err
    assert not (tmp_path / "out" / "validation.json").exists()


def test_validate_reports_malformed_dataset(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    with open(tmp_path / "test.jsonl", "a", encoding="utf-8") as handle:
        handle.write("{broken\n")

    proc = run_cli("validate", "-c", cfg_path)
    assert proc.returncode == 1
    assert "INVALID" in proc.stdout


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("width", 0, "width must be a positive integer, got 0"),
        ("width", "wide", "width must be a positive integer, got 'wide'"),
        ("image", "", "empty image"),
        ("image", ["img-00000"], "image must be a string, got ['img-00000']"),
    ],
)
def test_a_task_field_the_runner_reads_is_checked_at_load(tmp_path, capsys, field, value, message):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    data = tmp_path / "test.jsonl"
    records = [json.loads(line) for line in data.read_text(encoding="utf-8").splitlines()]
    records[2][field] = value
    data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    where = f"[line 3] [task {records[2]['id']!r}] {message}"

    assert main(["validate", "-c", str(cfg_path)]) == 1
    assert where in capsys.readouterr().out
    assert main(["run", "-c", str(cfg_path)]) == 1
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out" / LOG_NAME).exists()


def test_missing_config_file_is_usage_error(tmp_path):
    proc = run_cli("validate", "-c", tmp_path / "nope.yaml")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_missing_dataset_file_is_usage_error(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    (tmp_path / "test.jsonl").unlink()
    proc = run_cli("validate", "-c", cfg_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


# ---------------------------------------------------------------- CLI: run


def test_run_end_to_end(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr

    records = read_records(tmp_path / "out" / LOG_NAME)
    assert records[0]["record"] == "meta"
    assert records[0]["pipeline"] == "sfa"
    assert records[0]["seed"] == 7
    assert len(records[0]["config_hash"]) == 64

    preds = [r for r in records[1:] if r["record"] == "prediction"]
    assert len(preds) == 20
    # even-index positives carry one confident detection and route fast
    assert sum(1 for r in preds if r["pathway"] == "fast") == 5
    assert sum(1 for r in preds if r["pathway"] == "slow") == 15

    assert (tmp_path / "out" / REPORT_JSON).exists()
    assert (tmp_path / "out" / REPORT_TEXT).exists()
    assert "Precision" in proc.stdout

    report = json.loads((tmp_path / "out" / REPORT_JSON).read_text(encoding="utf-8"))
    # every positive resolves to the true box: fast via target re-scoring,
    # slow via the generated coordinates
    assert report["precision_at_k"]["1"]["overall"]["value"] == 1.0
    assert report["pathways"]["counts"] == {"fast": 5, "slow": 15}
    assert report["pathways"]["total_cost"] == 5 * 1.0 + 15 * 10.0


def test_run_log_order_follows_dataset_order(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=5)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    records = read_records(tmp_path / "out" / LOG_NAME)
    task_ids = [r["task_id"] for r in records if r["record"] == "prediction"]
    expected = [f"{kind}-{i:05d}" for i in range(5) for kind in ("pos", "neg")]
    assert task_ids == expected


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=6)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "out" / LOG_NAME).read_bytes()
    first_report = (tmp_path / "out" / REPORT_JSON).read_bytes()

    shutil.rmtree(tmp_path / "out")
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / LOG_NAME).read_bytes() == first
    assert (tmp_path / "out" / REPORT_JSON).read_bytes() == first_report


def test_run_resumes_after_crash(tmp_path):
    crashed = build_sfa_corpus(tmp_path / "a", n_pairs=8)
    clean = build_sfa_corpus(tmp_path / "b", n_pairs=8)

    proc = run_cli("run", "-c", crashed, env={"RECOLLAB_CRASH_AFTER": "5"})
    assert proc.returncode == 3
    partial = read_records(tmp_path / "a" / "out" / LOG_NAME)
    assert partial[0]["record"] == "meta"
    assert len(partial) == 1 + 5

    proc = run_cli("run", "-c", crashed)
    assert proc.returncode == 0, proc.stderr

    proc = run_cli("run", "-c", clean)
    assert proc.returncode == 0, proc.stderr
    resumed_bytes = (tmp_path / "a" / "out" / LOG_NAME).read_bytes()
    clean_bytes = (tmp_path / "b" / "out" / LOG_NAME).read_bytes()
    assert resumed_bytes == clean_bytes


def test_run_resume_truncates_torn_tail(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    proc = run_cli("run", "-c", cfg_path, env={"RECOLLAB_CRASH_AFTER": "3"})
    assert proc.returncode == 3
    log_path = tmp_path / "out" / LOG_NAME
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write('{"record": "predic')  # simulated mid-write power cut

    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    records = read_records(log_path)
    assert len(records) == 1 + 8
    task_ids = [r["task_id"] for r in records[1:]]
    assert len(set(task_ids)) == 8


def test_replay_only_run_executes_inline_with_the_pooled_bytes(tmp_path, monkeypatch):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=6)
    threads = []
    real_run_sfa = runner.run_sfa

    def recording_run_sfa(task, handles, params):
        threads.append(threading.current_thread())
        return real_run_sfa(task, handles, params)

    monkeypatch.setattr(runner, "run_sfa", recording_run_sfa)
    assert main(["run", "-c", str(cfg_path)]) == 0
    assert set(threads) == {threading.current_thread()}
    inline = (tmp_path / "out" / LOG_NAME).read_bytes()

    shutil.rmtree(tmp_path / "out")
    threads.clear()
    monkeypatch.setattr(runner, "_pool_size", lambda cfg, spec: 4)
    assert main(["run", "-c", str(cfg_path)]) == 0
    assert len(threads) == 12 and threading.current_thread() not in threads
    assert (tmp_path / "out" / LOG_NAME).read_bytes() == inline


def test_run_with_an_http_role_overlaps_its_calls(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=6)
    assert main(["run", "-c", str(cfg_path)]) == 0
    replayed = read_records(tmp_path / "out" / LOG_NAME)[1:]
    shutil.rmtree(tmp_path / "out")

    store = FixtureStore(tmp_path / "fixtures")
    lock = threading.Lock()
    in_flight = peak = 0

    def reply(body):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        time.sleep(0.05)
        with lock:
            in_flight -= 1
        return store.get(ROLE_GENERATE, body["image"], body["prompt"])

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    with http_server(reply=reply) as (server, url):
        config["backends"]["mllm"] = {"kind": "http", "endpoint": url, "concurrency": 4}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "-c", str(cfg_path)]) == 0
    assert len(server.seen) == 9  # the slow-routed tasks
    assert peak > 1
    assert read_records(tmp_path / "out" / LOG_NAME)[1:] == replayed


def test_pool_size_is_one_worker_per_slot_of_every_called_role(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=1)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    assert runner._pool_size(load_config(cfg_path), PIPELINE_SPECS["sfa"]) == 0

    for role, limit in (("extractor", 3), ("detector", 1), ("grounder", 1), ("mllm", 1)):
        config["backends"][role]["concurrency"] = limit
    config["backends"]["mllm"]["kind"] = "http"
    config["backends"]["mllm"]["endpoint"] = "http://127.0.0.1:9/"
    # a configured role the pipeline never calls adds no worker
    config["backends"]["selector"] = {"kind": "http", "endpoint": "http://127.0.0.1:9/"}
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    cfg = load_config(cfg_path)
    assert runner._pool_size(cfg, PIPELINE_SPECS["sfa"]) == 6
    assert runner._pool_size(cfg, PIPELINE_SPECS["mllm"]) == 1


def test_fast_tasks_are_grounded_while_every_mllm_slot_is_busy(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    assert main(["run", "-c", str(cfg_path)]) == 0
    replayed = (tmp_path / "out" / LOG_NAME).read_bytes().splitlines(keepends=True)[1:]
    shutil.rmtree(tmp_path / "out")

    store = FixtureStore(tmp_path / "fixtures")
    slots, hold_s = 2, 5.0
    state = threading.Condition()
    in_flight = peak = grounded_while_full = 0
    timed_out = []

    def hold(until, what):
        # bounded, so a pool too small to reach the condition fails instead of hanging
        if not state.wait_for(until, timeout=hold_s):
            timed_out.append(what)
            state.notify_all()

    def released():
        return grounded_while_full >= 2 or bool(timed_out)

    def reply(body):
        nonlocal in_flight, peak, grounded_while_full
        if "prompt" not in body:
            # grounder: until the MLLM replies are released, answer only while both
            # MLLM slots are taken, and count the call
            with state:
                hold(lambda: in_flight == slots or released(), "grounder call")
                if in_flight == slots:
                    grounded_while_full += 1
                state.notify_all()
            return store.get(ROLE_GROUND, body["image"], body["query"])
        # MLLM: hold each reply until the grounder has served calls while both slots were busy
        with state:
            in_flight += 1
            peak = max(peak, in_flight)
            state.notify_all()
            hold(released, "mllm reply")
            in_flight -= 1
        return store.get(ROLE_GENERATE, body["image"], body["prompt"])

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    for role in ("extractor", "detector"):
        config["backends"][role]["concurrency"] = slots
    with http_server(reply=reply) as (server, url):
        for role in ("grounder", "mllm"):
            config["backends"][role] = {"kind": "http", "endpoint": url, "concurrency": slots}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "-c", str(cfg_path)]) == 0
    assert not timed_out, f"held {timed_out[0]} timed out: the pool starved a role"
    assert grounded_while_full >= 2
    assert peak == slots
    logged = (tmp_path / "out" / LOG_NAME).read_bytes().splitlines(keepends=True)[1:]
    assert logged == replayed


@pytest.mark.parametrize("stop", ["worker_raises", "interrupt_in_write_loop"])
def test_stopped_pooled_run_abandons_queued_tasks(tmp_path, monkeypatch, stop):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=100)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    # never contacted: the stand-in worker below makes no backend call
    config["backends"]["mllm"] = {"kind": "http", "endpoint": "http://127.0.0.1:9/"}
    config["backends"]["grounder"]["concurrency"] = 3
    for role in ("extractor", "detector", "mllm"):
        config["backends"][role]["concurrency"] = 1
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    cfg = load_config(cfg_path)
    pool = runner._pool_size(cfg, PIPELINE_SPECS["sfa"])
    stop_at = 20
    failing_id = list(load_taskset(tmp_path / "test.jsonl", "test"))[stop_at].id
    lock = threading.Lock()
    stopped = threading.Event()
    started_after_stop = []

    def worker(task, handles, params):
        with lock:
            if stopped.is_set():
                started_after_stop.append(task.id)
        time.sleep(0.001)
        if stop == "worker_raises" and task.id == failing_id:
            stopped.set()
            raise RuntimeError("worker failed")
        return Prediction(task_id=task.id, box=None, confidence=0.0, pathway=Pathway.SLOW)

    monkeypatch.setattr(runner, "run_sfa", worker)
    expected: type[BaseException] = RuntimeError
    if stop == "interrupt_in_write_loop":
        expected = KeyboardInterrupt
        real_write = runner._write_record
        written = 0

        def interrupted_write(handle, record):
            nonlocal written
            if record["record"] == "prediction":
                if written == stop_at:
                    stopped.set()
                    raise KeyboardInterrupt
                written += 1
            real_write(handle, record)

        monkeypatch.setattr(runner, "_write_record", interrupted_write)

    with pytest.raises(expected):
        runner.cmd_run(cfg)
    assert stopped.is_set()
    assert len(started_after_stop) <= runner.WINDOW_PER_WORKER * pool + pool
    # every result consumed before the stop is in the log
    assert len(read_records(tmp_path / "out" / LOG_NAME)) == 1 + stop_at


@pytest.mark.parametrize("stop", ["worker_raises", "interrupt_in_write_loop"])
def test_a_stopped_run_closes_its_http_connections(tmp_path, monkeypatch, stop):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    stop_at = 5
    stop_id = list(load_taskset(tmp_path / "test.jsonl", "test"))[stop_at].id
    clients = []
    real_client, real_task, real_write = (
        runner.HttpClient, runner.run_specialist_task, runner._write_record
    )

    def recording_client(settings):
        clients.append(real_client(settings))
        return clients[-1]

    def failing_task(task, handles):
        pred = real_task(task, handles)
        if task.id == stop_id:
            raise RuntimeError("worker failed")
        return pred

    def interrupted_write(handle, record):
        if record.get("task_id") == stop_id:
            raise KeyboardInterrupt
        real_write(handle, record)

    monkeypatch.setattr(runner, "HttpClient", recording_client)
    if stop == "worker_raises":
        monkeypatch.setattr(runner, "run_specialist_task", failing_task)
    else:
        monkeypatch.setattr(runner, "_write_record", interrupted_write)
    payload = {"detections": [{"box": [0, 0, 10, 10], "score": 0.5}]}
    with http_server(default=payload, keep_alive=True) as (server, url):
        config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
        config["pipeline"] = "specialist"
        config["backends"]["grounder"] = {"kind": "http", "endpoint": url, "concurrency": 2}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        with pytest.raises(RuntimeError if stop == "worker_raises" else KeyboardInterrupt):
            runner.cmd_run(load_config(cfg_path))
        # the calls before the stop kept their connections alive for reuse
        assert len(server.seen) > stop_at and server.connections >= 1
    [client] = clients
    assert client._idle.empty()


def test_a_crs_k_beyond_the_option_letters_exits_2_before_any_call(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=1)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["crs"] = {"k": 30}
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["run", "-c", str(cfg_path), "--pipeline", "crs"]) == 2
    assert "needs 31 option letters, more than the 26 of A-Z" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, template",
    [
        ("sfa", "grounding_prompt", "Where is {expr}?"),
        ("sfa", "focus_suffix", ", please focus on the {expression}"),
        ("sfa", "grounding_prompt", "Where is {expression}? answer in [[x0, y0, x1, y1]] {format"),
        ("crs", "question_template", "Which option matches {0}?"),
        ("crs", "question_template", "Which option matches {expression}}?"),
    ],
)
def test_a_bad_prompt_template_exits_2_before_any_call(
    tmp_path, capsys, monkeypatch, section, key, template
):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config[section] = {key: template}
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    reads = _count_fixture_reads(monkeypatch)
    assert main(["run", "-c", str(cfg_path)]) == 2
    assert f"bad {section}: prompt template" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "out").exists()


def _assert_only_task_failed(proc, log_path, failed_id, n_tasks):
    """A run that exited 1 over one bad reply: no traceback, that task failed, the rest predicted."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    records = read_records(log_path)[1:]
    assert len(records) == n_tasks
    failed = [r for r in records if r["note"] and r["note"].startswith("backend failure")]
    assert [r["task_id"] for r in failed] == [failed_id]


def test_a_malformed_selector_reply_fails_its_task_not_the_run(tmp_path):
    bad = {"pos-00001": {"label": "B", "label_prob": 0}}
    cfg_path = build_crs_corpus(tmp_path, n_pairs=3, select_replies=bad)
    proc = run_cli("run", "-c", cfg_path)
    _assert_only_task_failed(proc, tmp_path / "out" / LOG_NAME, "pos-00001", 6)
    assert "label_prob out of (0, 1]" in read_records(tmp_path / "out" / LOG_NAME)[3]["note"]


def test_a_malformed_mllm_reply_fails_its_task_not_the_run(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    # pos-00001 routes slow, so its answer comes from the MLLM
    expression = "the widget near lamp 1"
    bad = {"text": "[[102, 102, 198, 198]]", "coordinate_token_probs": [0, 1, 1, 1]}
    prompt = build_focus_prompt(expression, "widget")
    write_fixture(tmp_path / "fixtures", ROLE_GENERATE, "img-00001", prompt, bad)
    proc = run_cli("run", "-c", cfg_path)
    _assert_only_task_failed(proc, tmp_path / "out" / LOG_NAME, "pos-00001", 6)
    assert "coordinate token probability" in read_records(tmp_path / "out" / LOG_NAME)[3]["note"]


@pytest.mark.parametrize(
    "tail, message",
    [(b"\xff", "is not valid UTF-8"), (None, "record is not a JSON object")],
)
def test_a_malformed_fixture_file_fails_its_task_not_the_run(tmp_path, tail, message):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    # only pos-00001 looks at img-00001
    path = tmp_path / "fixtures" / f"{fixture_key(ROLE_DETECT, 'img-00001', 'widget')}.json"
    if tail is None:
        path.write_bytes(b"recollab-fixture v1\n[1, 2]\n")
    else:
        path.write_bytes(path.read_bytes() + tail)
    proc = run_cli("run", "-c", cfg_path)
    _assert_only_task_failed(proc, tmp_path / "out" / LOG_NAME, "pos-00001", 6)
    assert message in read_records(tmp_path / "out" / LOG_NAME)[3]["note"]


def test_fixture_reads_are_counted_by_patching_the_store_after_the_backends_are_built(
    tmp_path, monkeypatch
):
    # a benchmark counts backend calls this way, so a handle must not hold
    # on to the ``FixtureStore.get`` it was built with
    cfg = load_config(build_sfa_corpus(tmp_path, n_pairs=3))
    reads = Counter()
    original_get, original_build = FixtureStore.get, runner.build_backends

    def counted_get(store, role, image_id, query):
        reads[role] += 1
        return original_get(store, role, image_id, query)

    def build_then_patch(*args, **kwargs):
        handles = original_build(*args, **kwargs)
        monkeypatch.setattr(FixtureStore, "get", counted_get)
        return handles

    monkeypatch.setattr(runner, "build_backends", build_then_patch)
    assert runner.cmd_run(cfg) == 0
    assert reads == {"extract": 6, "detect": 6, "ground": 2, "generate": 4}


def test_run_refuses_log_from_other_config(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["seed"] = 99
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 2
    assert "different config" in proc.stderr


@pytest.mark.parametrize("knob, value", [("concurrency", 2), ("retries", 5)])
def test_run_resumes_after_a_scheduling_knob_changes(tmp_path, knob, value):
    crashed = build_sfa_corpus(tmp_path / "a", n_pairs=4)
    clean = build_sfa_corpus(tmp_path / "b", n_pairs=4)
    assert run_cli("run", "-c", crashed, env={"RECOLLAB_CRASH_AFTER": "3"}).returncode == 3

    config = yaml.safe_load(crashed.read_text(encoding="utf-8"))
    for settings in config["backends"].values():
        settings[knob] = value
    crashed.write_text(yaml.safe_dump(config), encoding="utf-8")
    proc = run_cli("run", "-c", crashed)
    assert proc.returncode == 0, proc.stderr

    assert run_cli("run", "-c", clean).returncode == 0
    resumed = read_records(tmp_path / "a" / "out" / LOG_NAME)
    assert resumed[1:] == read_records(tmp_path / "b" / "out" / LOG_NAME)[1:]
    assert run_cli("report", "-c", crashed).returncode == 0


def test_report_reads_a_log_written_to_another_output_dir(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    assert main(["run", "-c", str(cfg_path), "--output-dir", "out2"]) == 0
    report = (tmp_path / "out2" / REPORT_JSON).read_bytes()

    log = tmp_path / "out2" / LOG_NAME
    assert main(["report", "-c", str(cfg_path), "--log", str(log)]) == 0
    assert (tmp_path / "out" / REPORT_JSON).read_bytes() == report


def test_log_without_identity_hash_must_match_the_full_config(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    assert main(["run", "-c", str(cfg_path)]) == 0
    log = tmp_path / "out" / LOG_NAME
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    meta = json.loads(lines[0])
    assert len(meta.pop("identity_hash")) == 64
    log.write_text(json.dumps(meta) + "\n" + "".join(lines[1:]), encoding="utf-8")
    assert main(["report", "-c", str(cfg_path)]) == 0

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["backends"]["mllm"]["retries"] = 5
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "-c", str(cfg_path)]) == 2
    assert "different config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault", ["no meta line", "version 2", "meta line after predictions", "second meta line"]
)
def test_a_log_without_its_version_1_meta_line_is_refused_and_left_as_it_is(
    tmp_path, capsys, fault
):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    assert main(["run", "-c", str(cfg_path)]) == 0
    log = tmp_path / "out" / LOG_NAME
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    meta = json.loads(lines[0])
    assert meta["record"] == "meta" and meta["version"] == 1 and len(lines) == 5
    if fault == "no meta line":
        lines, message = lines[1:3], "has predictions but no meta line"
    elif fault == "version 2":
        lines[0], message = json.dumps({**meta, "version": 2}) + "\n", "has version 2, not 1"
    elif fault == "meta line after predictions":
        # as a resume of a log with no meta line used to write it
        lines, message = lines[1:3] + lines[:1] + lines[3:], "has predictions but no meta line"
    else:
        other = json.dumps({**meta, "identity_hash": "0" * 64}) + "\n"
        lines, message = lines[:1] + [other] + lines[1:], "line 2 is a second meta line"
    log.write_text("".join(lines), encoding="utf-8")
    written = log.read_bytes()
    for command in ("run", "report"):
        capsys.readouterr()
        assert main([command, "-c", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert log.read_bytes() == written


def test_run_reports_backend_failures_in_exit_code(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3, omit_generate_for="pos-00001")
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 1
    records = read_records(tmp_path / "out" / LOG_NAME)
    failed = [r for r in records[1:] if r["note"] and r["note"].startswith("backend failure")]
    assert [r["task_id"] for r in failed] == ["pos-00001"]


def test_run_pipeline_override(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    proc = run_cli(
        "run", "-c", cfg_path, "--pipeline", "specialist", "--output-dir", "out-baseline"
    )
    assert proc.returncode == 0, proc.stderr
    records = read_records(tmp_path / "out-baseline" / LOG_NAME)
    assert records[0]["pipeline"] == "specialist"
    assert all(r["pathway"] == "fast" for r in records[1:])


def test_run_mllm_pipeline_end_to_end(tmp_path, monkeypatch):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    write_mllm_fixtures(tmp_path)
    roles_read = []
    original_get = FixtureStore.get

    def recording_get(self, role, image_id, query):
        roles_read.append(role)
        return original_get(self, role, image_id, query)

    monkeypatch.setattr(FixtureStore, "get", recording_get)
    assert main(["run", "-c", str(cfg_path), "--pipeline", "mllm"]) == 0

    records = read_records(tmp_path / "out" / LOG_NAME)
    assert records[0]["pipeline"] == "mllm"
    preds = records[1:]
    assert len(preds) == 6
    assert all(r["pathway"] == "slow" and r["decision"] is None for r in preds)
    assert all(r["box"] == [100.0, 100.0, 200.0, 200.0] for r in preds)
    assert roles_read == [ROLE_GENERATE] * 6


# sha256 of the prediction lines and of report.json that each pipeline writes
# over build_sfa_corpus(n_pairs=10); a change to either format shows here.
PINNED_DIGESTS = {
    "mllm": (
        "14f3b048725ed04fbb2750f198dcb1ec7abbb30d978852d4a60926c3d031d75c",
        "28ec75417290d0334478c5d0bfd2e1ecd8be7b8f54a13b91b10f99bef0d39c6e",
    ),
    "sfa": (
        "478ce5d09ce536a24021bba09a852a8eb8c793084c22d0fa086bde7957bbad88",
        "1205c4830da9d4ad0c6f5ac49c3bd0ba37148a312b3685bc9de1a85750a237e6",
    ),
    "specialist": (
        "bd1510a0eb6ec6d815deb1e2147224125b13bba26f2475aebc8d4007312b3651",
        "7f76fe823f5aec80386a3ed0860a081208847d0d5c2595bb55854ca5339f8ae2",
    ),
}


@pytest.mark.parametrize("pipeline", sorted(PINNED_DIGESTS))
def test_log_and_report_bytes_are_pinned(tmp_path, pipeline):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    write_mllm_fixtures(tmp_path)
    assert main(["run", "-c", str(cfg_path), "--pipeline", pipeline]) == 0
    out = tmp_path / "out"
    lines = (out / LOG_NAME).read_bytes().splitlines(keepends=True)
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (b"".join(lines[1:]), (out / REPORT_JSON).read_bytes())
    )
    assert digests == PINNED_DIGESTS[pipeline]


# sha256 of report.txt over build_sfa_corpus(n_pairs=10), which run also
# prints, for each pipeline and for one sfa run scored at k = 1, 5 and 10:
# the text orders k by number, report.json by its string keys.
PINNED_TEXT_DIGESTS = {
    ("mllm", None): "66dc734daf4a440621a203d2f678c47c5c8f3175a92d9dccb9fe7fca33b9f787",
    ("sfa", None): "4216ce8f0f9a31b4fcd966a3c7d294dddb9eaff35a9a2ec9b5ebb860944f7d3c",
    ("specialist", None): "7fa666c5ad39b9e6f2731c0eccea8cc0d875e1b1dcd97d23381177dfef59747c",
    ("sfa", (1, 5, 10)): "c1a31277547b87ffd9b8c87e2d4b599dee05fd7f65dd9e5c90ae49da0edec823",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("pipeline, ks", sorted(PINNED_TEXT_DIGESTS, key=str))
def test_report_text_and_run_stdout_are_pinned(tmp_path, capsys, pipeline, ks):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    write_mllm_fixtures(tmp_path)
    if ks is not None:
        config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
        config["metrics"] = {"ks": list(ks)}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "-c", str(cfg_path), "--pipeline", pipeline]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    text = (tmp_path / "out" / REPORT_TEXT).read_bytes()
    assert stdout == text and _sha256(text) == PINNED_TEXT_DIGESTS[pipeline, ks]
    if ks is not None:
        keys = list(json.loads((tmp_path / "out" / REPORT_JSON).read_bytes())["precision_at_k"])
        assert keys == ["1", "10", "5"]
        overall = [line.split()[0] for line in text.decode().splitlines() if "overall" in line]
        assert overall[:3] == ["P@1", "P@5", "P@10"]


# sha256 of validation.json and of validate's stdout with one passing and one
# failing expected count: the "FAIL (delta ...)" line and "result: FAIL".
PINNED_VALIDATION_DIGESTS = (
    "d5f685e42b5c587061b995f9c9d08850df8a25c67747ae6ebf559fe600c2e8ea",
    "3b553030696ff31bf6a3543089af73dcac1e284897d5abd61bce46088b505728",
)


def test_validation_json_and_stdout_are_pinned(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=10)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["expected_counts"]["test"] = {"positive": 10, "total": 21}
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", "-c", str(cfg_path)]) == 1
    stdout = capsys.readouterr().out
    assert "FAIL (delta -1)" in stdout and "result: FAIL" in stdout
    summary = (tmp_path / "out" / "validation.json").read_bytes()
    assert (_sha256(summary), _sha256(stdout.encode("utf-8"))) == PINNED_VALIDATION_DIGESTS


def test_run_seed_override_changes_config_hash(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path, "--seed", "11", "--output-dir", "out-a")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("run", "-c", cfg_path, "--seed", "12", "--output-dir", "out-b")
    assert proc.returncode == 0, proc.stderr
    hash_a = read_records(tmp_path / "out-a" / LOG_NAME)[0]["config_hash"]
    hash_b = read_records(tmp_path / "out-b" / LOG_NAME)[0]["config_hash"]
    assert hash_a != hash_b


def test_crash_env_must_be_positive_integer(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path, env={"RECOLLAB_CRASH_AFTER": "zero"})
    assert proc.returncode == 2
    proc = run_cli("run", "-c", cfg_path, env={"RECOLLAB_CRASH_AFTER": "0"})
    assert proc.returncode == 2


def test_run_requires_backends_for_pipeline(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    del config["backends"]["mllm"]
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 2
    assert "mllm" in proc.stderr


def test_run_refuses_unsized_tasks_for_a_rescaling_role(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    assert main(["run", "-c", str(cfg_path)]) == 0
    replayed = read_records(tmp_path / "out" / LOG_NAME)[1:]
    shutil.rmtree(tmp_path / "out")
    capsys.readouterr()

    store = FixtureStore(tmp_path / "fixtures")

    def reply(body):
        return store.get(ROLE_GROUND, body["image"], body["query"])

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    with http_server(reply=reply) as (server, url):
        config["backends"]["grounder"] = {"kind": "http", "endpoint": url, "coordinate_space": 1000}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "6 task(s) have no width/height" in err
        assert "grounder" in err and "(first: pos-00000)" in err
        assert server.seen == [] and not (tmp_path / "out").exists()

        # a 1000x1000 image in a 0..1000 grid: the replies come back unscaled
        dataset = tmp_path / "test.jsonl"
        records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        dataset.write_text(
            "".join(json.dumps({**r, "width": 1000, "height": 1000}) + "\n" for r in records),
            encoding="utf-8",
        )
        assert main(["run", "-c", str(cfg_path)]) == 0
    assert server.seen
    assert read_records(tmp_path / "out" / LOG_NAME)[1:] == replayed


@pytest.mark.parametrize(
    "command, build",
    [("run", build_sfa_corpus), ("run", build_crs_corpus), ("export-tuning", build_export_corpus)],
)
def test_a_missing_role_exits_2_naming_it_before_any_call(
    tmp_path, monkeypatch, capsys, command, build
):
    cfg_path = build(tmp_path)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    del config["backends"]["grounder"]
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    reads = _count_fixture_reads(monkeypatch)
    assert main([command, "-c", str(cfg_path)]) == 2
    assert "needs a 'grounder' backend" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "out").exists()


# ------------------------------------------------------------- CLI: report


def test_report_rerenders_from_log(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=4)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    report_path = tmp_path / "out" / REPORT_TEXT
    original = report_path.read_text(encoding="utf-8")
    report_path.unlink()

    proc = run_cli("report", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert report_path.read_text(encoding="utf-8") == original
    assert "Precision" in proc.stdout


def test_report_needs_no_fixture_directory(tmp_path, capsys):
    # a report calls no backend, so a finished run's fixtures may be moved away
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    assert main(["run", "-c", str(cfg_path)]) == 0
    reports = [tmp_path / "out" / name for name in (REPORT_JSON, REPORT_TEXT)]
    written = [path.read_bytes() for path in reports]
    for path in reports:
        path.unlink()
    (tmp_path / "fixtures").rename(tmp_path / "moved")
    assert main(["report", "-c", str(cfg_path)]) == 0
    assert [path.read_bytes() for path in reports] == written


def test_only_the_called_roles_fixture_directories_must_exist(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["backends"]["mllm"]["fixtures"] = "absent"
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["validate", "-c", str(cfg_path)]) == 0
    assert main(["run", "-c", str(cfg_path), "--pipeline", "specialist"]) == 0
    capsys.readouterr()
    # the sfa pipeline calls the mllm, whose directory is still missing
    assert main(["run", "-c", str(cfg_path), "--output-dir", "out2"]) == 2
    assert "fixture directory for role 'mllm' not found" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


def test_report_accepts_explicit_log_path(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    moved = tmp_path / "archived.jsonl"
    shutil.move(tmp_path / "out" / LOG_NAME, moved)

    proc = run_cli("report", "-c", cfg_path, "--log", moved)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / REPORT_JSON).exists()


def test_report_without_log_is_usage_error(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("report", "-c", cfg_path)
    assert proc.returncode == 2
    assert "no prediction log" in proc.stderr


def test_report_takes_the_flags_a_run_was_made_under(tmp_path, capsys):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    write_mllm_fixtures(tmp_path)
    flags = ["--pipeline", "mllm", "--seed", "5", "--output-dir", "out2"]
    assert main(["run", "-c", str(cfg_path), *flags]) == 0
    report = tmp_path / "out2" / REPORT_JSON
    written = report.read_bytes()
    report.unlink()

    assert main(["report", "-c", str(cfg_path), *flags]) == 0
    assert report.read_bytes() == written
    capsys.readouterr()
    assert main(["report", "-c", str(cfg_path), *flags[:3], "6", *flags[4:]]) == 2
    assert "different config" in capsys.readouterr().err


def test_report_refuses_log_from_other_config(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr

    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["seed"] = 123
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    proc = run_cli("report", "-c", cfg_path)
    assert proc.returncode == 2
    assert "different config" in proc.stderr


def _rewrite_log(log_path, ts, case):
    """Turn the log of a clean run into the log of ``case``; returns its prediction records."""
    meta, *records = read_records(log_path)
    if case == "missing":
        records = [r for r in records if r["task_id"] != ts.negatives()[0].id]
    elif case == "orphan":
        ghost = Prediction.backend_failure("ghost", Pathway.SLOW, RuntimeError("gone"))
        records.append({"record": "prediction", **ghost.to_dict()})
    with open(log_path, "w", encoding="utf-8") as handle:
        for record in (meta, *records):
            runner._write_record(handle, record)
    return records


@pytest.mark.parametrize("case", ["sfa", "crs", "failed", "missing", "orphan"])
def test_the_report_from_score_rows_equals_the_report_from_predictions(tmp_path, case):
    if case == "crs":
        cfg_path = build_crs_corpus(tmp_path, n_pairs=4)
    else:
        omit = "pos-00001" if case == "failed" else None
        cfg_path = build_sfa_corpus(tmp_path, n_pairs=4, omit_generate_for=omit)
    assert main(["run", "-c", str(cfg_path)]) == (1 if case == "failed" else 0)
    log_path = tmp_path / "out" / LOG_NAME
    ts = load_taskset(load_config(cfg_path).dataset_path("test"), "test")
    records = _rewrite_log(log_path, ts, case)
    preds = {r["task_id"]: Prediction.from_dict(r) for r in records}

    _, rows, _ = read_log(log_path, ts)
    assert list(rows) == list(preds)
    want = build_report(scored(preds, ts), ts)
    assert build_report(rows, ts) == want
    pairs = want["recall_at_k"]["1"]["overall"]["denominator"]
    assert pairs == len(ts.negatives()) - (case == "missing")
    # rows read without the task set cannot be scored against it
    with pytest.raises(ValueError, match="not scored against it"):
        build_report(read_log(log_path)[1], ts)

    failed = sum(pred.failed for pred in preds.values())
    assert failed == (case in ("failed", "orphan"))
    assert main(["report", "-c", str(cfg_path)]) == (1 if failed else 0)
    report = json.loads((tmp_path / "out" / REPORT_JSON).read_text(encoding="utf-8"))
    assert report["metadata"]["failed_tasks"] == failed
    assert report["pathways"]["counts"] == want["pathways"]["counts"]
    assert sum(report["pathways"]["counts"].values()) == len(preds)
    for key in ("precision_at_k", "recall_at_k", "auroc"):
        assert report[key] == want[key]


def test_no_more_than_one_prediction_is_alive_while_the_report_is_built(tmp_path, monkeypatch):
    cfg = load_config(build_sfa_corpus(tmp_path, n_pairs=6))

    def live_predictions():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is Prediction)

    live = []
    build = runner.build_report

    def counting_build(*args, **kwargs):
        live.append(live_predictions() - before)
        return build(*args, **kwargs)

    monkeypatch.setattr(runner, "build_report", counting_build)
    before = live_predictions()
    assert runner.cmd_run(cfg) == 0
    log_path = tmp_path / "out" / LOG_NAME
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    log_path.write_text("".join(lines[:8]), encoding="utf-8")
    assert runner.cmd_run(cfg) == 0
    assert runner.cmd_report(cfg) == 0
    # the predictions are gone once logged and scored, by a run and a report alike
    assert live == [0, 0, 0]
    assert len(lines) - 1 == len(load_taskset(cfg.dataset_path("test"), "test")) == 12


# ------------------------------------------------------ CLI: export-tuning


def test_export_tuning_writes_requested_counts(tmp_path):
    cfg_path = build_export_corpus(tmp_path, n_pos=12, n_neg=4, positives=10, negatives=3)
    proc = run_cli("export-tuning", "-c", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 13 samples (10 positive)" in proc.stdout

    out_path = tmp_path / "out" / "tuning.jsonl"
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 13
    sample = json.loads(lines[0])
    assert {"image", "expression", "options", "answer"} <= set(sample)


def test_export_tuning_is_deterministic(tmp_path):
    cfg_a = build_export_corpus(tmp_path / "a")
    cfg_b = build_export_corpus(tmp_path / "b")
    assert run_cli("export-tuning", "-c", cfg_a).returncode == 0
    assert run_cli("export-tuning", "-c", cfg_b).returncode == 0
    bytes_a = (tmp_path / "a" / "out" / "tuning.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "out" / "tuning.jsonl").read_bytes()
    assert bytes_a == bytes_b


def test_export_tuning_backend_failure_exits_1(tmp_path, capsys):
    cfg_path = build_export_corpus(tmp_path)
    for fixture in (tmp_path / "fixtures").iterdir():
        fixture.unlink()
    assert main(["export-tuning", "-c", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: no fixture for role='ground'")


def test_export_tuning_skips_a_failed_grounder_call(tmp_path, capsys, caplog):
    cfg_path = build_export_corpus(tmp_path, n_pos=12, n_neg=4, positives=10, negatives=3)
    lost = make_slot_positive(3)
    (tmp_path / "fixtures" / f"{fixture_key(ROLE_GROUND, lost.image, lost.expression)}.json").unlink()

    with caplog.at_level(logging.WARNING, logger="recollab"):
        assert main(["export-tuning", "-c", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    # 11 answerable positives remain, so the requested 10 + 3 are still met
    assert "wrote 13 samples (10 positive)" in out
    lines = (tmp_path / "out" / "tuning.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 13
    assert lost.expression not in {json.loads(line)["expression"] for line in lines}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "grounder failed on 1 of 16 task(s), first on pos-00003" in warnings[0]


def test_export_tuning_creates_the_directory_of_its_output(tmp_path):
    cfg_path = build_export_corpus(tmp_path, n_pos=12, n_neg=4, positives=10, negatives=3)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["tuning"]["output"] = "sub/tuning.jsonl"
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["export-tuning", "-c", str(cfg_path)]) == 0
    assert len(read_records(tmp_path / "out" / "sub" / "tuning.jsonl")) == 13


@pytest.mark.parametrize("output", ["../../escaped.jsonl", "absolute"])
def test_a_tuning_output_outside_output_dir_exits_2_writing_nothing(
    tmp_path, monkeypatch, capsys, output
):
    root = tmp_path / "a" / "b"
    cfg_path = build_export_corpus(root)
    if output == "absolute":
        output = str(tmp_path / "absolute.jsonl")
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["tuning"]["output"] = output
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    reads = _count_fixture_reads(monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    assert main(["export-tuning", "-c", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err == (
        f"error: cannot write {root / 'out' / output}: "
        f"it is outside output_dir {root / 'out'}\n"
    )
    assert reads == [] and out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, output",
    [
        ("export-tuning", "."),
        ("export-tuning", "sub"),
        ("run", REPORT_JSON),
        ("validate", "validation.json"),
    ],
)
def test_an_output_that_is_a_directory_exits_2_before_any_call(
    tmp_path, monkeypatch, capsys, command, output
):
    build = build_export_corpus if command == "export-tuning" else build_sfa_corpus
    cfg_path = build(tmp_path)
    if command == "export-tuning":
        config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
        config["tuning"]["output"] = output
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    if output != ".":
        (tmp_path / "out" / output).mkdir(parents=True)
    reads = _count_fixture_reads(monkeypatch)
    assert main([command, "-c", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write {tmp_path / 'out' / output}: it is a directory\n"
    assert reads == [] and out == ""


@pytest.mark.parametrize("tuning_none", [True, False])
def test_export_tuning_letters_all_26_options_or_exits_2(tmp_path, capsys, tuning_none):
    cfg_path = build_export_corpus(tmp_path, n_pos=1, n_neg=0, positives=1, negatives=0)
    task = make_slot_positive(0)
    dets = [{"box": [10.0 * i, 0.0, 10.0 * i + 8, 8.0], "score": 0.5} for i in range(25)]
    dets.append({"box": task.gt_box.as_list(), "score": 0.9})
    payload = {"detections": dets}
    write_fixture(tmp_path / "fixtures", ROLE_GROUND, task.image, task.expression, payload)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["crs"] = {"k": 26, "include_none": False}
    config["tuning"]["include_none"] = tuning_none
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out_path = tmp_path / "out" / "tuning.jsonl"
    if tuning_none:
        assert main(["export-tuning", "-c", str(cfg_path)]) == 2
        assert "needs 27 option letters, more than the 26 of A-Z" in capsys.readouterr().err
        assert not out_path.exists()
        return
    assert main(["export-tuning", "-c", str(cfg_path)]) == 0
    (sample,) = read_records(out_path)
    letters = [chr(ord("A") + i) for i in range(26)]
    assert [option["label"] for option in sample["options"]] == letters
    assert all(option["box"] is not None for option in sample["options"])


def test_export_tuning_refuses_unsized_tasks_for_a_rescaling_grounder(tmp_path, capsys):
    cfg_path = build_export_corpus(tmp_path, n_pos=3, n_neg=1, positives=3, negatives=1)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    with http_server() as (server, url):
        config["backends"]["grounder"] = {"kind": "http", "endpoint": url, "coordinate_space": 1000}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["export-tuning", "-c", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "4 task(s) have no width/height" in err and "grounder" in err
    assert server.seen == []


# ------------------------------------------------------------ CLI: parsing


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_pipeline_choice_is_usage_error(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("run", "-c", cfg_path, "--pipeline", "turbo")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def _assert_usage_error(proc, message):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, output_dir",
    [("run", "taken"), ("run", "taken/out"), ("validate", "taken"), ("export-tuning", "taken")],
)
def test_an_output_dir_that_cannot_be_a_directory_is_usage_error(tmp_path, command, output_dir):
    build = build_export_corpus if command == "export-tuning" else build_sfa_corpus
    cfg_path = build(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    if command == "run":
        proc = run_cli(command, "-c", cfg_path, "--output-dir", tmp_path / output_dir)
    else:
        config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
        config["output_dir"] = output_dir
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        proc = run_cli(command, "-c", cfg_path)
    _assert_usage_error(proc, f"{tmp_path / 'taken'} is not a directory")


def test_report_of_a_log_path_that_is_a_directory_is_usage_error(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    proc = run_cli("report", "-c", cfg_path, "--log", tmp_path)
    _assert_usage_error(proc, f"prediction log is not a file: {tmp_path}")


def test_config_with_unknown_key_is_usage_error(tmp_path):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=2)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    config["velocity"] = 9
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    proc = run_cli("validate", "-c", cfg_path)
    assert proc.returncode == 2
    assert "velocity" in proc.stderr
