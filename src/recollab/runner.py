"""Run orchestration.

``run``, ``report`` and ``export-tuning`` are checked by one ``_prepare``
before any backend call: it checks only the command's split and the
fixture directories of the roles it calls, and ``report`` calls none.
Every command creates its outputs through ``_output_dir``. ``run`` and
``report`` read a log only through ``_read_own_log``, which refuses one
written under another identity or version, or not opened by its one meta line.

A run whose backends all replay fixtures executes each task on the calling
thread. A run that calls any HTTP backend overlaps model calls on a worker
pool with one thread per ``concurrency`` slot of every called role, fed
through an in-order window a few tasks per worker deep; per-backend
semaphores alone bound each role's in-flight calls. Either way results are
written to an append-only prediction log in dataset order, which makes
repeat runs byte-identical and lets an interrupted run resume by skipping
already-logged task ids. A prediction, written or read back, is kept only
as its ``metrics.Score`` row, and the report is built from those rows.
Within a run, identical extractor and detector calls, the only ones paired
tasks repeat, are made once and shared: a result lives only while a
pending task can still reuse it, and a failed call is never shared with
later callers. A pipeline that calls neither role builds no memo, and the
memo, the backend handles and the pending tasks are gone before the
report is built.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from queue import SimpleQueue
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .backends import ROLES
from .backends.http import HttpClient
from .backends.replay import FixtureStore
from .backends.types import BackendError
from .config import ConfigError, RunConfig, config_hash, identity_hash
from .crs import check_option_letters, export_tuning, run_crs, save_tuning
from .datamodel import (
    DatasetError,
    RecTask,
    TaskSet,
    image_ref,
    load_taskset,
    render_census,
    validate_counts,
)
from .metrics import Score, build_report, render_text, score
from .prediction import FAILURE_NOTE_PREFIX  # noqa: F401 - bench/run.py imports it from here
from .prediction import Pathway, Prediction
from .sfa import build_grounding_prompt, ground_slow, run_sfa

logger = logging.getLogger(__name__)

LOG_NAME = "predictions.jsonl"
REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
REPORT_FILES = (REPORT_JSON, REPORT_TEXT)
LOG_VERSION = 1
CRASH_ENV = "RECOLLAB_CRASH_AFTER"
# Tasks a pooled run keeps submitted per worker thread: enough that workers
# stay busy while the head of the window waits on a slow call, few enough
# that an interrupted run abandons little work.
WINDOW_PER_WORKER = 4


class CallMemo:
    """One run's single-flight memo of extractor and detector calls, evicted by reference count.

    Only these calls repeat across distinct tasks: a negative-expression task
    reuses its positive's image (so its detection), a negative-image task its
    expression (so its extraction). Every other call's key follows from its
    task's own image and expression, so it is never memoised, and a run whose
    pipeline calls neither role builds no memo.

    A call is keyed by its method name and exact arguments. The first caller
    makes the call; concurrent callers with the same key wait for its
    outcome. A result is kept only while another unreleased task shares the
    call's image (the extractor's: its expression), and is dropped once the
    last of them is released. A call that raises is never kept: the callers
    already waiting get its exception, and a later caller calls again.
    """

    ROLES = ("extractor", "detector")

    def __init__(self, tasks: Sequence[RecTask]):
        self._lock = threading.Lock()
        # the unreleased tasks on each image and on each expression, counted by
        # the task's own string rather than by a new tuple per task
        self._users: dict[str, Counter[str]] = {
            "image": Counter(task.image for task in tasks),
            "expression": Counter(task.expression for task in tasks),
        }
        self._results: dict[tuple[str, str], dict[tuple, Future]] = {}

    @staticmethod
    def _groups(task: RecTask) -> tuple[tuple[str, str], tuple[str, str]]:
        return ("image", task.image), ("expression", task.expression)

    def __len__(self) -> int:
        """Results held, calls in flight included."""
        with self._lock:
            return sum(map(len, self._results.values()))

    def call(self, name: str, args: tuple, make_call: Callable[..., Any]) -> Any:
        """``make_call(*args)``, made once per key while its result can be reused."""
        group = ("expression", args[0]) if name == "extract" else ("image", args[0].image_id)
        key = (name, *args)
        with self._lock:
            results = self._results.get(group)
            # a stored result is looked up first: the last task on an image may still read it
            found = None if results is None else results.get(key)
            owned = None
            if found is None and self._users[group[0]][group[1]] > 1:
                if results is None:
                    results = self._results[group] = {}
                results[key] = owned = Future()
        if found is not None:
            return found.result()
        if owned is None:
            return make_call(*args)
        try:
            value = make_call(*args)
        except BaseException as exc:
            with self._lock:
                del results[key]
            owned.set_exception(exc)
            raise
        owned.set_result(value)
        return value

    def release(self, task: RecTask) -> None:
        """Drop ``task``'s claim on its image and expression, and any result no task can reuse."""
        with self._lock:
            for kind, of in self._groups(task):
                users = self._users[kind]
                users[of] -= 1
                if users[of] < 1:
                    del users[of]
                    self._results.pop((kind, of), None)


class BoundedHandle:
    """Wraps a backend handle with a gate capping in-flight calls.

    The gate is a queue holding ``limit`` tokens: a call takes one and puts
    it back, so at most ``limit`` calls run at once. With a ``memo``, an
    ``extract`` or ``detect`` call is looked up there before a token is
    taken, so a caller waiting on another's identical call holds no token.
    Other calls go straight to the gate.
    """

    _CALLS = frozenset(role.method for role in ROLES.values())
    _SHARED = tuple(ROLES[role].method for role in CallMemo.ROLES)

    def __init__(self, inner: Any, limit: int, memo: CallMemo | None = None):
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        self._inner = inner
        self._gate: SimpleQueue[None] = SimpleQueue()
        for _ in range(limit):
            self._gate.put(None)
        self._memo = memo

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if name not in self._CALLS or not callable(attr):
            return attr
        take, give_back, memo = self._gate.get, self._gate.put, self._memo

        def gated(*args: Any, **kwargs: Any) -> Any:
            take()
            try:
                return attr(*args, **kwargs)
            finally:
                give_back(None)

        if memo is None or name not in self._SHARED:
            return gated
        return lambda *args: memo.call(name, args, gated)

    def close(self) -> None:
        """Close the pooled connections of the wrapped adapter's HTTP client, if it has one."""
        if hasattr(self._inner, "client"):
            self._inner.client.close()


def build_backends(cfg: RunConfig, memo: CallMemo | None = None) -> dict[str, BoundedHandle]:
    """A handle per configured role, keyed by role, built from its settings and gated at its
    ``concurrency``; with ``memo``, extractor and detector calls go through it."""
    handles = {}
    for role, settings in cfg.backends.items():
        if settings.kind == "replay":
            assert settings.fixtures is not None
            impl = ROLES[role].replay(FixtureStore(cfg.resolve(settings.fixtures)))
        else:
            impl = ROLES[role].http(HttpClient(settings))
        handles[role] = BoundedHandle(impl, settings.concurrency, memo)
    return handles


@contextmanager
def _closing_all(handles: Mapping[str, BoundedHandle]) -> Iterator[Mapping[str, BoundedHandle]]:
    try:
        yield handles
    finally:
        for handle in handles.values():
            handle.close()


def run_specialist_task(task: RecTask, handles: Mapping[str, Any]) -> Prediction:
    """Plain grounder baseline: top confidence box wins, full list ranked."""
    try:
        grounding = handles["grounder"].ground(image_ref(task), task.expression)
    except BackendError as exc:
        return Prediction.backend_failure(task.id, Pathway.FAST, exc)
    if not grounding.detections:
        return Prediction.miss(task.id, Pathway.FAST, "grounder returned no detections")
    ranked = tuple((det.box, det.score) for det in grounding.detections)
    best = grounding.detections[0]
    if best.score <= 0.0:
        # a zero-score miss still ranks every box the grounder offered
        return Prediction(
            task_id=task.id,
            box=None,
            confidence=0.0,
            pathway=Pathway.FAST,
            note="best detection has zero confidence",
            ranked_boxes=ranked,
        )
    return Prediction(
        task_id=task.id,
        box=best.box,
        confidence=best.score,
        pathway=Pathway.FAST,
        ranked_boxes=ranked,
    )


def run_mllm_task(task: RecTask, handles: Mapping[str, Any], cfg: RunConfig) -> Prediction:
    """Vanilla generative baseline: base prompt, no routing, no focus."""
    return ground_slow(task, handles, build_grounding_prompt(task.expression, cfg.sfa))


@dataclass(frozen=True)
class PipelineSpec:
    """One pipeline: the roles each pathway calls, and a worker reading handles keyed by role."""

    pathways: Mapping[str, tuple[str, ...]]
    worker: Callable[[RecTask, Mapping[str, Any], RunConfig], Prediction]

    @property
    def roles(self) -> tuple[str, ...]:
        """Every role some pathway calls, in first-use order."""
        return tuple(dict.fromkeys(r for roles in self.pathways.values() for r in roles))


# Workers look their task function up at call time, so replacing a module
# attribute (e.g. to trace ``run_sfa``) takes effect here too.
PIPELINE_SPECS: Mapping[str, PipelineSpec] = {
    "specialist": PipelineSpec(
        {Pathway.FAST.value: ("grounder",)},
        lambda task, handles, cfg: run_specialist_task(task, handles),
    ),
    "mllm": PipelineSpec(
        {Pathway.SLOW.value: ("mllm",)},
        lambda task, handles, cfg: run_mllm_task(task, handles, cfg),
    ),
    "sfa": PipelineSpec(
        {
            Pathway.FAST.value: ("extractor", "detector", "grounder"),
            Pathway.SLOW.value: ("extractor", "detector", "mllm"),
        },
        lambda task, handles, cfg: run_sfa(task, handles, cfg.sfa),
    ),
    "crs": PipelineSpec(
        {Pathway.CRS.value: ("grounder", "selector")},
        lambda task, handles, cfg: run_crs(task, handles, cfg.crs),
    ),
}


def pathway_units(cfg: RunConfig) -> dict[str, float]:
    """Cost units per task for each pathway the configured pipeline uses.

    A pathway's unit is the sum of the cost units of every backend a task
    on that pathway calls; totals in the report are counts times units.
    """
    return {
        pathway: sum(cfg.backends[r].cost_unit for r in roles if r in cfg.backends)
        for pathway, roles in PIPELINE_SPECS[cfg.pipeline].pathways.items()
    }


# one encoder for every log line: json.dumps with an option builds a new one per call
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


def _write_record(handle, record: Mapping[str, Any]) -> None:
    handle.write(_encode_record(record) + "\n")
    handle.flush()


def read_log(
    path: Path, ts: TaskSet | None = None
) -> tuple[dict[str, Any] | None, dict[str, Score], int]:
    """Parse a prediction log; returns (meta, score rows by task id, valid byte length).

    Each prediction is checked by ``Prediction.from_dict``, scored against
    its task in ``ts`` and dropped, so no more than one is held at a time.
    Without ``ts``, or for a task outside it, a row holds only the
    confidence, pathway and failure: enough to resume a run or count its
    failures, not to score it.

    The log must open with its one meta line, which says what config wrote
    it. A torn final line (no trailing newline, from a hard crash) is
    excluded from the valid length so a resuming run can truncate it away.
    """
    if not path.exists():
        return None, {}, 0
    if not path.is_file():
        raise ConfigError(f"prediction log is not a file: {path}")
    meta: dict[str, Any] | None = None
    rows: dict[str, Score] = {}
    valid_len = 0
    # lines end at b"\n" only: a reply may hold U+2028 or \f, which the log keeps raw
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.endswith(b"\n"):
                logger.warning("prediction log ends mid-record; ignoring %d bytes", len(line))
                break
            valid_len += len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise ConfigError(f"prediction log line {line_no} is not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigError(f"prediction log line {line_no} is not a JSON object")
            kind = record.get("record")
            if kind == "meta":
                if meta is not None:
                    raise ConfigError(f"prediction log line {line_no} is a second meta line")
                meta = record
            elif kind == "prediction":
                if meta is None:
                    raise ConfigError(f"log {path} has predictions but no meta line before them")
                try:
                    pred = Prediction.from_dict(record)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"prediction log line {line_no} is not a valid prediction record: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                task = ts.get(pred.task_id) if ts is not None else None
                # keyed by the task's own id string, which the task set already holds
                rows[pred.task_id if task is None else task.id] = score(pred, task)
            else:
                raise ConfigError(f"prediction log line {line_no} has unknown record kind {kind!r}")
    return meta, rows, valid_len


def _read_own_log(
    cfg: RunConfig, path: Path, ts: TaskSet
) -> tuple[dict[str, Any] | None, dict[str, Score], int]:
    """``read_log(path, ts)``, refused if its meta line is of another version or identity
    (its ``identity_hash``, else its full ``config_hash``)."""
    meta, rows, valid_len = read_log(path, ts)
    if meta is not None and meta.get("version") != LOG_VERSION:
        raise ConfigError(f"log {path} has version {meta.get('version')!r}, not {LOG_VERSION}")
    if meta is not None and (
        meta["identity_hash"] != identity_hash(cfg)
        if "identity_hash" in meta
        else meta.get("config_hash") != config_hash(cfg)
    ):
        raise ConfigError(f"log {path} is from a different config; move it or restore that config")
    return meta, rows, valid_len


def _crash_budget() -> int | None:
    value = os.environ.get(CRASH_ENV)
    if value is None:
        return None
    try:
        budget = int(value)
    except ValueError as exc:
        raise ConfigError(f"{CRASH_ENV} must be an integer, got {value!r}") from exc
    if budget < 1:
        raise ConfigError(f"{CRASH_ENV} must be >= 1, got {budget}")
    return budget


def _write_report(
    cfg: RunConfig,
    ts: TaskSet,
    rows: Mapping[str, Score],
    meta: Mapping[str, Any],
    out_dir: Path,
) -> int:
    """Build the report from the score rows, write and print it.

    Returns 1 when backend failures were logged, else 0.
    """
    failed = sum(1 for row in rows.values() if row.failed)
    report = build_report(
        rows,
        ts,
        ks=cfg.metrics.ks,
        unit_costs=pathway_units(cfg),
        metadata={
            "config_hash": meta.get("config_hash"),
            "pipeline": meta.get("pipeline"),
            "seed": meta.get("seed"),
            "failed_tasks": failed,
        },
    )
    text = render_text(report)
    (out_dir / REPORT_JSON).write_text(
        json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (out_dir / REPORT_TEXT).write_text(text + "\n", encoding="utf-8")
    print(text)
    if failed:
        logger.warning("%d task(s) failed at the backend level", failed)
        return 1
    return 0


def _output_dir(cfg: RunConfig, outputs: Iterable[str]) -> Path:
    """The output directory, created with that of each of ``outputs``, a file under it."""
    out_dir = cfg.resolve(cfg.output_dir)
    paths = [out_dir / name for name in outputs]
    for path in paths:
        if not path.resolve().is_relative_to(out_dir.resolve()):
            raise ConfigError(f"cannot write {path}: it is outside output_dir {out_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the directory of {path}: {exc}") from exc
    return out_dir


def _prepare(
    cfg: RunConfig, split: str, roles: Iterable[str], caller: str, outputs: Iterable[str]
) -> tuple[TaskSet, Path]:
    """The tasks of ``split`` and the output directory of a command that calls ``roles``.

    ``roles`` must be configured, ``split``'s dataset and their fixture directories exist
    and, for a role with ``coordinate_space``, every task carry its ``width``/``height``.
    """
    for role in roles:
        if role not in cfg.backends:
            raise ConfigError(f"{caller} needs a {role!r} backend")
    cfg.check_paths((split,), roles)
    ts = load_taskset(cfg.dataset_path(split), split)
    scaled = [role for role in roles if cfg.backends[role].coordinate_space is not None]
    unsized = scaled and [t.id for t in ts if "width" not in t.extras or "height" not in t.extras]
    if unsized:
        raise ConfigError(
            f"{len(unsized)} task(s) have no width/height, needed to rescale the "
            f"{', '.join(scaled)} replies from coordinate_space (first: {unsized[0]})"
        )
    return ts, _output_dir(cfg, outputs)


def _pool_size(cfg: RunConfig, spec: PipelineSpec) -> int:
    """Worker threads for a run; 0 runs every task on the calling thread.

    Replay calls are Python work under the interpreter lock, so threads
    only add contention. HTTP calls wait on the network. A worker makes one
    call at a time, so the pool has one worker per ``concurrency`` slot of
    every called role: only then can every role keep all its slots busy at
    once. Each role's semaphore stays the cap on its own in-flight calls.
    """
    settings = [cfg.backends[role] for role in spec.roles]
    if all(s.kind == "replay" for s in settings):
        return 0
    return sum(s.concurrency for s in settings)


def _predict(
    work: Callable[[RecTask], Prediction], tasks: Iterable[RecTask], pool_size: int
) -> Iterator[Prediction]:
    """Yield ``work(task)`` for each task, in task order.

    With ``pool_size`` 0 each task runs on the calling thread. Otherwise
    ``pool_size`` threads run them, submitted at most
    ``WINDOW_PER_WORKER * pool_size`` ahead of the result being consumed.
    When ``work`` raises or the generator is closed early, tasks not yet
    started are cancelled and the running ones waited for.
    """
    if not pool_size:
        yield from map(work, tasks)
        return
    window: deque[Future[Prediction]] = deque()
    pool = ThreadPoolExecutor(max_workers=pool_size)
    try:
        for task in tasks:
            if len(window) == WINDOW_PER_WORKER * pool_size:
                yield window.popleft().result()
            window.append(pool.submit(work, task))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(cfg: RunConfig) -> int:
    """Evaluate the configured pipeline over the test split.

    Exit status: 0 clean, 1 when task-level backend failures were logged
    (the run still completes), ConfigError propagates for exit 2.
    """
    spec = PIPELINE_SPECS[cfg.pipeline]
    outputs = (LOG_NAME, *REPORT_FILES)
    ts, out_dir = _prepare(cfg, "test", spec.roles, f"pipeline {cfg.pipeline!r}", outputs)
    log_path = out_dir / LOG_NAME
    meta, rows, valid_len = _read_own_log(cfg, log_path, ts)
    if rows:
        logger.info("resuming: %d predictions already logged", len(rows))
    if log_path.exists() and valid_len != log_path.stat().st_size:
        with open(log_path, "rb+") as tail:
            tail.truncate(valid_len)

    meta = _predict_and_log(cfg, spec, ts, rows, meta, log_path)
    return _write_report(cfg, ts, rows, meta, out_dir)


def _predict_and_log(
    cfg: RunConfig,
    spec: PipelineSpec,
    ts: TaskSet,
    rows: dict[str, Score],
    meta: dict[str, Any] | None,
    log_path: Path,
) -> dict[str, Any]:
    """Predict every task of ``ts`` without a row, in order: log each, then add its row.

    Returns the log's meta record, written first if the log has none. The
    pending tasks, the call memo and the backend handles live only here,
    so none of them is held while the report is built.
    """
    pending = [task for task in ts if task.id not in rows]
    memo = CallMemo(pending) if set(CallMemo.ROLES).intersection(spec.roles) else None
    handles = build_backends(cfg, memo)
    crash_after = _crash_budget()
    results = _predict(
        lambda task: spec.worker(task, handles, cfg), pending, _pool_size(cfg, spec)
    )

    with _closing_all(handles), open(log_path, "a", encoding="utf-8") as log_file, closing(results):
        if meta is None:
            meta = {
                "record": "meta",
                "version": LOG_VERSION,
                "config_hash": config_hash(cfg),
                "identity_hash": identity_hash(cfg),
                "pipeline": cfg.pipeline,
                "seed": cfg.seed,
            }
            _write_record(log_file, meta)
        written = 0
        # results come in the order of pending
        for pred, task in zip(results, pending):
            _write_record(log_file, {"record": "prediction", **pred.to_dict()})
            if memo is not None:
                memo.release(task)
            rows[task.id] = score(pred, task)
            written += 1
            if crash_after is not None and written >= crash_after:
                logger.warning("crash hook: exiting after %d records", written)
                os._exit(3)
    return meta


def cmd_report(cfg: RunConfig, log_path: Path | None = None) -> int:
    """Re-render the report from an existing prediction log."""
    path = log_path if log_path is not None else cfg.resolve(cfg.output_dir) / LOG_NAME
    if not path.exists():
        raise ConfigError(f"no prediction log at {path}")
    # the tasks load first, so each log line is scored as it is read and then dropped; a
    # report calls no backend (the log's identity covers them), so it names no role
    ts, out_dir = _prepare(cfg, "test", (), "report", REPORT_FILES)
    meta, rows, _ = _read_own_log(cfg, path, ts)
    if meta is None:
        raise ConfigError(f"no prediction log at {path}")
    return _write_report(cfg, ts, rows, meta, out_dir)


def cmd_validate(cfg: RunConfig) -> int:
    """Load and census every configured dataset split; no backend is read."""
    cfg.check_paths(cfg.datasets, ())
    out_dir = _output_dir(cfg, ("validation.json",))
    status = 0
    summaries: dict[str, Any] = {}
    for split in sorted(cfg.datasets):
        try:
            ts = load_taskset(cfg.dataset_path(split), split)
        except DatasetError as exc:
            print(f"split {split}: INVALID - {exc}")
            summaries[split] = {"error": str(exc)}
            status = 1
            continue
        census = summaries[split] = validate_counts(ts, cfg.expected_counts.get(split))
        print(render_census(census))
        if not census["passed"]:
            status = 1
    (out_dir / "validation.json").write_text(
        json.dumps(summaries, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return status


def cmd_export_tuning(cfg: RunConfig) -> int:
    """Write instruction-tuning samples from the train split.

    A task whose grounder call fails is skipped: the other samples are
    still written, one warning gives the count and the first failed task,
    and the status is 1. When every call fails, nothing is written and the
    first error is raised with the count.
    """
    try:
        check_option_letters(cfg.crs.k, cfg.tuning.include_none)
    except ValueError as exc:
        raise ConfigError(f"crs.k and tuning.include_none: {exc}") from exc
    ts, out_dir = _prepare(cfg, "train", ("grounder",), "export-tuning", (cfg.tuning.output,))
    failures: list[tuple[str, BackendError]] = []
    with _closing_all(build_backends(cfg)) as handles:
        grounder = handles["grounder"]
        samples = export_tuning(ts, grounder, cfg.crs, cfg.tuning, seed=cfg.seed, failures=failures)
    if failures and len(failures) == len(ts):
        # nothing was grounded: a wrong endpoint or fixture directory, not an outage
        exc = failures[0][1]
        raise BackendError(f"{exc} (the grounder failed on all {len(ts)} tasks)") from exc
    path = out_dir / cfg.tuning.output
    save_tuning(samples, path)
    positives = sum(1 for s in samples if s.answer_box() is not None)
    print(f"wrote {len(samples)} samples ({positives} positive) to {path}")
    if failures:
        task_id, exc = failures[0]
        logger.warning(
            "grounder failed on %d of %d task(s), first on %s: %s; their samples are missing",
            len(failures),
            len(ts),
            task_id,
            exc,
        )
        return 1
    return 0
