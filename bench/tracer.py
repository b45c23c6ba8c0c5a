"""Outside-in tracer for the benchmark's traced run.

The tracer replaces module and class attributes of ``recollab`` from the
outside, so each layer gets numbers without any change to ``src/``. A
function imported by name into other modules is replaced under every
name that refers to it. The seams are the public functions of each
module, ``runner._write_record`` and the per-role adapter methods; a role
call through ``BoundedHandle`` gets a span of its own, so the time spent
waiting on the role's concurrency gate is the gated span minus the
adapter span inside it.

Spans are kept in memory: (id, parent id, name, start, end, task id,
exception name). A span's parent is the innermost span open on the same
thread, and its task id is that of the enclosing ``run_sfa``/``run_crs``
call. Self time is a span's duration minus the part of it that its child
spans cover. Hot leaf functions (``geometry.iou``, ``requests.Session.post``)
are counted, not spanned.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

ROLES = ("extractor", "detector", "grounder", "mllm", "selector")
METHOD_ROLE = {
    "extract": "extractor",
    "detect": "detector",
    "ground": "grounder",
    "ground_generative": "mllm",
    "select": "selector",
}


class ThreadCounter:
    """Exact call counts per key without a lock on the hot path: one cell per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._cells: list[dict[str, int]] = []
        self._lock = threading.Lock()

    def cell(self) -> dict[str, int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._local.cell = {}
            with self._lock:
                self._cells.append(cell)
        return cell

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            for cell in self._cells:
                for key, n in cell.items():
                    out[key] += n
        return dict(out)


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function under every ``recollab`` name bound to it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "recollab" or name.startswith("recollab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper: Any = classmethod(make(raw.__func__))
        else:
            wrapper = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.notes: list[tuple] = []
        self.call_keys: set[tuple[str, str, str]] = set()
        self.counter = ThreadCounter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patcher = Patcher()

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        task_arg: bool = False,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.task = None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            outer_task = local.task
            if task_arg:
                local.task = args[0].id
            if before is not None:
                before(args)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, local.task, error))
                local.task = outer_task
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        cell = self.counter.cell

        def counted(*args: Any, **kwargs: Any) -> Any:
            c = cell()
            c[key] = c.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def span(self, name: str, **hooks: Any) -> Callable[[Callable], Callable]:
        return lambda fn: self.wrap(name, fn, **hooks)

    def install(self) -> None:
        import requests

        from recollab import crs, datamodel, geometry, metrics, runner, sfa
        from recollab.backends import http, replay, types
        from recollab.prediction import Prediction

        p, span = self._patcher, self.span
        p.function(datamodel, "load_taskset", span("datamodel.load_taskset"))
        p.function(datamodel, "pair_negatives", span("datamodel.pair_negatives"))
        p.function(runner, "build_backends", span("runner.build_backends"))
        p.function(runner, "read_log", span("runner.read_log"))
        p.function(runner, "_write_record", span("runner.write_record"))
        p.function(sfa, "run_sfa", span("sfa.run_sfa", task_arg=True, after=self._note_route))
        p.function(sfa, "target_focus_select", span("sfa.target_focus_select"))
        p.function(crs, "run_crs", span("crs.run_crs", task_arg=True, after=self._note_answer))
        p.function(crs, "generate_candidates", span("crs.generate_candidates", after=self._note_keep))
        p.function(crs, "build_choice_prompt", span("crs.build_choice_prompt"))
        p.function(geometry, "nms", span("geometry.nms"))
        p.function(geometry, "iou", lambda fn: self.count("geometry.iou", fn))
        p.function(types, "detections_from_payload", span("types.detections_from_payload"))
        p.function(metrics, "build_report", span("metrics.build_report"))
        p.function(metrics, "render_text", span("metrics.render_text"))
        p.method(Prediction, "to_dict", span("prediction.to_dict"))
        p.method(Prediction, "from_dict", span("prediction.from_dict"))
        p.method(replay.FixtureStore, "get", span("replay.fixture_get"))
        p.method(http.HttpClient, "post", span("http.post"))
        p.method(requests.Session, "post", lambda fn: self.count("http.session_post", fn))

        adapters = {
            "extractor": (replay.ReplayTargetExtractor, http.HttpTargetExtractor),
            "detector": (replay.ReplayDetector, http.HttpDetector),
            "grounder": (replay.ReplayGrounder, http.HttpGrounder),
            "mllm": (replay.ReplayMllm, http.HttpMllm),
            "selector": (replay.ReplaySelector, http.HttpSelector),
        }
        for method, role in METHOD_ROLE.items():
            for cls in adapters[role]:
                p.method(cls, method, span(f"backends.{role}.call", before=self._key_recorder(role)))

        def make_getattr(original: Callable) -> Callable:
            def traced_getattr(handle: Any, name: str) -> Any:
                attr = original(handle, name)
                role = METHOD_ROLE.get(name)
                return attr if role is None else self.wrap(f"backends.{role}.gated", attr)

            return traced_getattr

        p.method(runner.BoundedHandle, "__getattr__", make_getattr)

    def uninstall(self) -> None:
        self._patcher.restore()

    # ---- hooks recording what a layer did, at its boundary

    def _key_recorder(self, role: str) -> Callable[[tuple], None]:
        keys = self.call_keys
        if role == "extractor":
            return lambda args: keys.add((role, "", args[1]))
        return lambda args: keys.add((role, args[1].image_id, args[2]))

    def _note_route(self, args: tuple, prediction: Any) -> None:
        if prediction.decision is not None:
            self.notes.append(("route", prediction.decision.level.value == "fast"))

    def _note_answer(self, args: tuple, prediction: Any) -> None:
        answered = isinstance(prediction.raw, dict) and "label" in prediction.raw
        if answered:
            self.notes.append(("answer", prediction.box is None))

    def _note_keep(self, args: tuple, candidates: Any) -> None:
        self.notes.append(("keep", len(candidates), len(args[0])))


# ---------------------------------------------------------------- analysis


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(
    tracer: Tracer,
    *,
    run_wall_s: float,
    service_ms: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run-and-report pass; see bench/README.md."""
    spans = tracer.spans
    children: dict[int, list[tuple]] = defaultdict(list)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for sp in spans:
        children[sp[1]].append(sp)
        by_name[sp[2]].append(sp)

    def covered(sid: int, only: Callable[[str], bool] = lambda name: True) -> float:
        intervals = sorted((c[3], c[4]) for c in children.get(sid, ()) if only(c[2]))
        total, end = 0.0, -math.inf
        for t0, t1 in intervals:
            if t1 <= end:
                continue
            total += t1 - max(t0, end)
            end = t1
        return total

    def self_s(name: str, only: Callable[[str], bool] = lambda name: True) -> float:
        return sum(sp[4] - sp[3] - covered(sp[0], only) for sp in by_name.get(name, ()))

    def durations(name: str) -> list[float]:
        return [sp[4] - sp[3] for sp in by_name.get(name, ())]

    def total_s(name: str) -> float:
        return sum(durations(name))

    def is_backend(name: str) -> bool:
        return name.startswith("backends.")

    counts = tracer.counter.totals()
    m: dict[str, float] = {
        "datamodel.load_taskset_s": self_s("datamodel.load_taskset"),
        "datamodel.pair_negatives_s": self_s("datamodel.pair_negatives"),
        "runner.build_backends_s": self_s("runner.build_backends"),
        "runner.read_log_s": self_s("runner.read_log"),
        "runner.write_record.calls": len(by_name.get("runner.write_record", ())),
        "runner.write_record_s": self_s("runner.write_record"),
    }
    busy = total_s("sfa.run_sfa") + total_s("crs.run_crs")
    m["runner.worker_busy_s"] = busy
    m["runner.parallelism"] = busy / run_wall_s

    all_calls = 0
    for role in ROLES:
        calls = by_name.get(f"backends.{role}.call", [])
        all_calls += len(calls)
        lat = durations(f"backends.{role}.call")
        m[f"backends.{role}.calls"] = len(calls)
        m[f"backends.{role}.busy_s"] = sum(lat)
        m[f"backends.{role}.p50_ms"] = percentile(lat, 0.50) * 1e3
        m[f"backends.{role}.p99_ms"] = percentile(lat, 0.99) * 1e3
        m[f"backends.{role}.errors"] = sum(sp[6] is not None for sp in calls)
        m[f"backends.{role}.gate_wait_s"] = self_s(f"backends.{role}.gated")
    m["backends.distinct_call_ratio"] = len(tracer.call_keys) / all_calls if all_calls else 0.0

    gets = by_name.get("replay.fixture_get", [])
    m["replay.fixture_get.calls"] = len(gets)
    m["replay.fixture_get_s"] = total_s("replay.fixture_get")
    m["replay.fixture_get.p50_us"] = percentile(durations("replay.fixture_get"), 0.50) * 1e6
    m["replay.fixture_misses"] = sum(sp[6] == "FixtureMissError" for sp in gets)

    posts = by_name.get("http.post", [])
    post_ms = [d * 1e3 for d in durations("http.post")]
    # a post's parent is its role's adapter span, "backends.<role>.call"
    role_of = {sp[0]: sp[2].split(".")[1] for sp in spans if sp[2].endswith(".call")}
    overhead_ms = [ms - service_ms[role_of[sp[1]]] for ms, sp in zip(post_ms, posts)]
    m["http.post.calls"] = len(posts)
    m["http.post_s"] = sum(post_ms) / 1e3
    m["http.post.p50_ms"] = percentile(post_ms, 0.50)
    m["http.post.p99_ms"] = percentile(post_ms, 0.99)
    m["http.attempts_per_call"] = counts.get("http.session_post", 0) / len(posts) if posts else 0.0
    m["http.client_overhead_ms"] = percentile(overhead_ms, 0.50)

    m["types.detections_from_payload.calls"] = len(by_name.get("types.detections_from_payload", ()))
    m["types.detections_from_payload_s"] = self_s("types.detections_from_payload")

    routes = [n[1] for n in tracer.notes if n[0] == "route"]
    m["sfa.self_s"] = self_s("sfa.run_sfa", is_backend)
    m["sfa.target_focus_select_s"] = self_s("sfa.target_focus_select")
    m["sfa.fast_path_ratio"] = sum(routes) / len(routes) if routes else 0.0

    keep = [n for n in tracer.notes if n[0] == "keep"]
    answers = [n[1] for n in tracer.notes if n[0] == "answer"]
    m["crs.self_s"] = self_s("crs.run_crs", is_backend)
    m["crs.generate_candidates_s"] = self_s("crs.generate_candidates")
    m["crs.build_choice_prompt_s"] = self_s("crs.build_choice_prompt")
    proposals = sum(n[2] for n in keep)
    m["crs.candidate_keep_ratio"] = sum(n[1] for n in keep) / proposals if proposals else 0.0
    m["crs.none_answer_ratio"] = sum(answers) / len(answers) if answers else 0.0

    m["geometry.nms.calls"] = len(by_name.get("geometry.nms", ()))
    m["geometry.nms_s"] = self_s("geometry.nms")
    m["geometry.iou.calls"] = counts.get("geometry.iou", 0)

    m["metrics.build_report_s"] = self_s("metrics.build_report")
    m["metrics.render_text_s"] = self_s("metrics.render_text")
    m["prediction.to_dict_s"] = self_s("prediction.to_dict")
    m["prediction.from_dict_s"] = self_s("prediction.from_dict")
    return m


def write_spans(tracer: Tracer, path: Any) -> None:
    """Spans as tab-separated lines, times in microseconds from the first span."""
    spans = sorted(tracer.spans, key=lambda sp: sp[3])
    origin = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tparent\tname\tstart_us\tend_us\ttask\terror\n")
        for sid, parent, name, t0, t1, task, error in spans:
            handle.write(
                f"{sid}\t{parent}\t{name}\t{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}"
                f"\t{task or ''}\t{error or ''}\n"
            )
