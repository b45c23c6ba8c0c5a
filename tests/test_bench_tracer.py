"""The benchmark's tracer still sees every role call the pipelines make.

``bench/tracer.py`` patches the adapter classes, ``BoundedHandle.__getattr__``,
``FixtureStore.get``, ``HttpClient.post``, ``runner.read_log`` and
``metrics.build_report`` by name. These tests run it, unchanged, around
``runner.cmd_run`` and ``runner.cmd_report`` on small corpora, so a renamed
or moved seam fails here and not only in the traced benchmark run.
"""

import gc
import importlib
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml

from recollab import runner
from recollab.backends import ROLES
from recollab.backends.replay import (
    ROLE_DETECT,
    ROLE_EXTRACT,
    ROLE_GENERATE,
    ROLE_GROUND,
    ROLE_SELECT,
    FixtureStore,
)
from recollab.config import load_config
from recollab.datamodel import load_taskset

from helpers import SLOT_PAYLOAD, build_crs_corpus, build_sfa_corpus, http_server

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIXTURE_ROLE = {
    "extractor": ROLE_EXTRACT,
    "detector": ROLE_DETECT,
    "grounder": ROLE_GROUND,
    "mllm": ROLE_GENERATE,
    "selector": ROLE_SELECT,
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def _traced_run(tracing, cfg, command=runner.cmd_run):
    """``command(cfg)`` under a fresh tracer, checking its uninstall; returns (metrics, spans)."""
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patcher._undo)
    try:
        t0 = time.perf_counter()
        assert command(cfg) == 0
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    service_ms = dict.fromkeys(ROLES, 0.0)
    return tracing.per_layer_metrics(tracer, run_wall_s=wall, service_ms=service_ms), tracer.spans


def _count_fixture_reads(monkeypatch):
    reads = {}
    original_get = FixtureStore.get

    def counting_get(self, role, image_id, query):
        reads[role] = reads.get(role, 0) + 1
        return original_get(self, role, image_id, query)

    monkeypatch.setattr(FixtureStore, "get", counting_get)
    return reads


@pytest.mark.parametrize(
    "build",
    [
        lambda root: build_sfa_corpus(root, n_pairs=6, shared_images=True),
        lambda root: build_crs_corpus(root, n_pairs=6),
    ],
    ids=["sfa", "crs"],
)
def test_the_tracer_counts_every_replay_role_call(tmp_path, monkeypatch, tracing, build):
    cfg = load_config(build(tmp_path))
    getattr_before = runner.BoundedHandle.__dict__["__getattr__"]
    reads = _count_fixture_reads(monkeypatch)
    metrics, _ = _traced_run(tracing, cfg)
    assert runner.BoundedHandle.__dict__["__getattr__"] is getattr_before
    roles = runner.PIPELINE_SPECS[cfg.pipeline].roles
    calls = {role: metrics[f"backends.{role}.calls"] for role in roles}
    assert calls == {role: reads[FIXTURE_ROLE[role]] for role in roles}
    assert all(calls.values())
    if cfg.pipeline == "sfa":
        # six pairs on shared images: one detection per image, half the tasks route fast
        assert calls == {"extractor": 12, "detector": 6, "grounder": 6, "mllm": 6}
    assert metrics["replay.fixture_get.calls"] == sum(reads.values())
    assert metrics["backends.distinct_call_ratio"] == 1.0


def test_the_tracer_nests_each_http_post_in_its_role_call(tmp_path, tracing):
    cfg_path = build_sfa_corpus(tmp_path, n_pairs=3)
    config = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    with http_server(default=SLOT_PAYLOAD) as (server, url):
        config["pipeline"] = "specialist"
        config["backends"]["grounder"] = {"kind": "http", "endpoint": url, "concurrency": 2}
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        metrics, spans = _traced_run(tracing, load_config(cfg_path))
    assert metrics["backends.grounder.calls"] == len(server.seen) == 6
    assert metrics["http.post.calls"] == 6
    names = {span[0]: span[2] for span in spans}
    parents = [names[span[1]] for span in spans if span[2] == "http.post"]
    assert parents == ["backends.grounder.call"] * 6
    # collect the run's HTTP clients now, so a socket they left open warns in this test
    gc.collect()


def test_the_tracer_spans_the_report_seams(tmp_path, tracing):
    cfg = load_config(build_sfa_corpus(tmp_path, n_pairs=3))
    assert runner.cmd_run(cfg) == 0
    ts = load_taskset(cfg.dataset_path("test"), "test")
    logged = len(runner.read_log(tmp_path / "out" / runner.LOG_NAME, ts)[1])
    metrics, spans = _traced_run(tracing, cfg, runner.cmd_report)
    names = {span[0]: span[2] for span in spans}
    counts = Counter(names.values())
    assert counts["runner.read_log"] == counts["metrics.build_report"] == 1
    # every line is parsed inside the log read, not after it
    parents = [names.get(span[1]) for span in spans if span[2] == "prediction.from_dict"]
    assert logged == 6 and parents == ["runner.read_log"] * logged
    assert metrics["runner.read_log_s"] > 0 and metrics["metrics.build_report_s"] > 0
    # bench/run.py's setup_once times this call on an empty output directory
    assert runner.read_log(tmp_path / "empty" / runner.LOG_NAME) == (None, {}, 0)
