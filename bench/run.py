"""Benchmark for recollab: FineCops-Ref-shaped workloads through ``run`` and ``report``.

    python3 bench/run.py --workload sfa-replay --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One invocation measures one workload (``all`` runs each in a child
process). It writes the seeded corpus to ``.bench_work/<workload>/``, which
later runs overwrite in place, and starts the loopback stub for
``sfa-http``. Then it drives the program's public entry points,
``runner.cmd_run`` and ``runner.cmd_report``, on the generated config:

1. set-up (``load_config``, ``check_paths``, ``load_taskset``,
   ``build_backends`` and the resume scan on an empty output directory),
   repeatedly for a sixth of ``--seconds``;
2. one pass: ``cmd_run`` into an emptied output directory, then
   ``cmd_report`` over the log it wrote;
3. set-up again for a sixth of ``--seconds``;
4. the correctness checks on that pass.

With ``--trace 1`` it makes one plain pass and one traced pass, checks
both, and reports per-layer metrics instead (see tracer.py). Every line but the
last is human-readable: one ``metric`` line per metric, one ``check`` line
per verdict. The last line is the JSON result. The exit status is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
# Set-up is short, so it is timed repeatedly for SETUP_SHARE of the run, half
# before the pass and half after it, and the median is reported. On a shared
# machine the speed drifts over seconds, and samples spread over the whole run
# weigh a slow stretch less.
SETUP_SHARE, SAMPLE_REPEATS, SAMPLE_MAX_REPEATS = 1 / 3, 3, 1000
STEP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_tasks_per_s": "tasks/s",
    "backend_calls_per_task": "calls/task",
    "task_success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("tasks_per_s"):
        return "tasks/s"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("calls", "count"),
                         ("errors", "count"), ("misses", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


@dataclass
class Checks:
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)


class Stub:
    """The loopback HTTP stub, in one child process."""

    def __init__(self, table: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--table", str(table)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def served(self) -> dict[str, int]:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_once(config_path: Path, empty_dir: Path) -> float:
    from recollab.config import load_config
    from recollab.datamodel import load_taskset
    from recollab.runner import LOG_NAME, build_backends, read_log

    t0 = time.perf_counter()
    cfg = load_config(config_path)
    cfg.check_paths()
    load_taskset(cfg.dataset_path("test"), "test")
    build_backends(cfg)
    read_log(empty_dir / LOG_NAME)
    return time.perf_counter() - t0


def sample_setup(samples: list[float], config_path: Path, empty_dir: Path, window_s: float) -> None:
    """Append set-up times for ``window_s``, at least ``SAMPLE_REPEATS`` of them."""
    until, n = time.perf_counter() + window_s, 0
    while n < SAMPLE_MAX_REPEATS and (n < SAMPLE_REPEATS or time.perf_counter() < until):
        samples.append(setup_once(config_path, empty_dir))
        n += 1


@dataclass
class Pass:
    run_s: float
    report_s: float
    run_rc: int
    report_rc: int
    calls: dict[str, int]
    report_after_run: tuple[bytes, bytes]


def read_report(out_dir: Path) -> tuple[bytes, bytes]:
    return (out_dir / "report.json").read_bytes(), (out_dir / "report.txt").read_bytes()


def one_pass(cfg: Any, out_dir: Path, calls_now: Any) -> Pass:
    """``cmd_run`` into an emptied ``out_dir``, then ``cmd_report`` over its log."""
    from recollab import runner

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    calls_before = calls_now()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        run_rc = runner.cmd_run(cfg)
    run_s = time.perf_counter() - t0
    calls_after = calls_now()
    after_run = read_report(out_dir)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        report_rc = runner.cmd_report(cfg)
    report_s = time.perf_counter() - t0
    return Pass(
        run_s=run_s,
        report_s=report_s,
        run_rc=run_rc,
        report_rc=report_rc,
        calls={k: calls_after.get(k, 0) - calls_before.get(k, 0) for k in calls_after},
        report_after_run=after_run,
    )


def within(got: dict[str, int], low: dict[str, int], high: dict[str, int]) -> bool:
    """Every role's count lies in [low, high], and no other role was called."""
    return all(low.get(r, 0) <= got.get(r, 0) <= high[r] for r in high) and set(got) <= set(high)


def check_pass(checks: Checks, label: str, p: Pass, out_dir: Path,
               expected: dict[str, Any]) -> tuple[str, int]:
    """Verdicts on the pass whose files are in ``out_dir``; returns the predictions'
    sha256 and the failed-task count."""
    from recollab.runner import FAILURE_NOTE_PREFIX

    checks.add(f"{label}.exit_codes", p.run_rc == 0 and p.report_rc == 0,
               f"run {p.run_rc}, report {p.report_rc}")
    lines = (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0]) if lines else {}
    records = [json.loads(line) for line in lines[1:]]
    ids = [r.get("task_id") for r in records]
    checks.add(f"{label}.one_prediction_per_task",
               meta.get("record") == "meta" and all(r.get("record") == "prediction" for r in records)
               and ids == expected["task_ids"],
               f"{len(records)} predictions for {expected['tasks']} tasks")
    failed = sum(1 for r in records if (r.get("note") or "").startswith(FAILURE_NOTE_PREFIX))
    checks.add(f"{label}.task_failures", failed == 0, f"{failed} tasks logged a backend failure")
    after_report = read_report(out_dir)
    checks.add(f"{label}.report_rerender", p.report_after_run == after_report,
               "report.json and report.txt from cmd_report equal cmd_run's")

    report = json.loads(after_report[0])
    got = {
        "precision_at_1": report["precision_at_k"]["1"]["overall"],
        "recall_at_1": report["recall_at_k"]["1"]["overall"],
        "auroc": report["auroc"]["overall"],
    }
    for key, cell in got.items():
        want = expected[key]
        checks.add(f"{label}.{key}", [cell["numerator"], cell["denominator"]] == want,
                   f"{cell['numerator']}/{cell['denominator']}, planned {want[0]}/{want[1]}")
    counts = report["pathways"]["counts"]
    checks.add(f"{label}.pathways", counts == expected["pathways"],
               f"{counts}, planned {expected['pathways']}")
    # a transport that serves repeated keys from memory makes fewer calls, never
    # fewer than one per distinct key
    checks.add(f"{label}.backend_calls",
               within(p.calls, expected["fixture_distinct"], expected["fixture_calls"]),
               f"{p.calls}, planned {expected['fixture_calls']}, "
               f"distinct keys {expected['fixture_distinct']}")
    # the meta line carries the config hash, which for sfa-http includes the stub's port
    sha = hashlib.sha256("\n".join(lines[1:]).encode("utf-8")).hexdigest()
    return sha, failed


def check_sha(checks: Checks, workload: str, seed: int, sha: str) -> None:
    store = OUT / "log_sha256.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}/{seed}"
    previous = known.setdefault(key, sha)
    checks.add("log_sha256.across_runs", previous == sha,
               f"{sha[:16]}, earlier runs {previous[:16]}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def measure(workload: Any, seed: int, seconds: float, trace: bool, work: Path,
            stub: Stub | None) -> tuple[dict[str, float], Checks, int, int]:
    import tracer as tracing
    from corpus import FIXTURE_ROLE, SERVICE_MS
    from recollab.config import load_config

    expected = json.loads((work / "expected.json").read_text())
    for key in ("calls", "distinct"):
        expected[f"fixture_{key}"] = {FIXTURE_ROLE[r]: n for r, n in expected[f"role_{key}"].items()}
    checks = Checks()
    config_path = work / "run.yaml"
    empty = work / "empty"
    empty.mkdir(exist_ok=True)

    patcher, counter = tracing.Patcher(), tracing.ThreadCounter()
    if stub is None:
        from recollab.backends.replay import FixtureStore

        def count_reads(fn: Any) -> Any:
            def counted(store: Any, role: str, image_id: str, query: str) -> Any:
                cell = counter.cell()
                cell[role] = cell.get(role, 0) + 1
                return fn(store, role, image_id, query)

            return counted

        patcher.method(FixtureStore, "get", count_reads)
        calls_now = counter.totals
    else:
        def calls_now() -> dict[str, int]:
            return {k: v for k, v in stub.served().items() if v}

    cfg = load_config(config_path)
    out_dir = cfg.resolve(cfg.output_dir)
    tasks = expected["tasks"]
    try:
        if not trace:
            setups: list[float] = []
            sample_setup(setups, config_path, empty, seconds * SETUP_SHARE / 2)
            plain = one_pass(cfg, out_dir, calls_now)
            sample_setup(setups, config_path, empty, seconds * SETUP_SHARE / 2)
            # before any check parses the log, so the checks cannot set the high-water mark
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            plain = one_pass(cfg, out_dir, calls_now)
            sha, failed = check_pass(checks, "plain", plain, out_dir, expected)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = one_pass(cfg, out_dir, calls_now)
            finally:
                tracer.uninstall()
    finally:
        patcher.restore()

    if not trace:
        sha, failed = check_pass(checks, "pass", plain, out_dir, expected)
        check_sha(checks, workload.name, seed, sha)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_tasks_per_s": tasks / plain.run_s,
            "backend_calls_per_task": sum(plain.calls.values()) / tasks,
            "task_success_ratio": 1.0 - failed / tasks,
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, checks, tasks, failed

    traced_sha, traced_failed = check_pass(checks, "traced", traced, out_dir, expected)
    checks.add("log_sha256.traced", traced_sha == sha, f"{traced_sha[:16]}, plain {sha[:16]}")
    check_sha(checks, workload.name, seed, sha)
    metrics = tracing.per_layer_metrics(tracer, run_wall_s=traced.run_s, service_ms=SERVICE_MS)
    metrics["runner.cmd_report.tasks_per_s"] = tasks / plain.report_s
    metrics["trace.overhead_ratio"] = plain.run_s / traced.run_s
    # adapter calls bound the calls that reach the fixtures or the stub from above;
    # they are equal unless a memoising layer sits between the two
    role_calls = {FIXTURE_ROLE[r]: int(metrics[f"backends.{r}.calls"]) for r in tracing.ROLES
                  if metrics[f"backends.{r}.calls"]}
    checks.add("trace.role_calls", within(traced.calls, expected["fixture_distinct"], role_calls)
               and within(role_calls, expected["fixture_distinct"], expected["fixture_calls"]),
               f"adapter spans {role_calls}, {'stub served' if stub else 'fixture reads'} {traced.calls}")
    if stub is None:
        gets = int(metrics["replay.fixture_get.calls"])
        checks.add("trace.fixture_get_calls", gets == sum(traced.calls.values())
                   and expected["distinct_calls"] <= gets <= expected["backend_calls"],
                   f"{gets} spans, {sum(traced.calls.values())} counted, planned "
                   f"{expected['backend_calls']}, distinct keys {expected['distinct_calls']}")
    tracing.write_spans(tracer, OUT / f"trace-{workload.name}.tsv")
    return metrics, checks, 2 * tasks, failed + traced_failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import corpus

    workload = corpus.WORKLOADS[name]
    # kept between runs: every seed writes the same fixture files in place
    work = WORK / name
    OUT.mkdir(exist_ok=True)
    stub = None
    phases = {"start": time.perf_counter()}
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", name, "--seed", str(seed),
             "--out", str(work)],
            check=True,
            timeout=STEP_TIMEOUT_S,
        )
        if workload.transport == "http":
            stub = Stub(work / "stub_table.json")
            corpus.write_config(work, workload, seed, stub.base)
        phases["prepare"] = time.perf_counter()
        metrics, checks, attempted, failed = measure(workload, seed, seconds, trace, work, stub)
        phases["measure"] = time.perf_counter()
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work / "out", ignore_errors=True)
    phases["clean"] = time.perf_counter()
    marks = list(phases.items())
    print(f"time {name} " + " ".join(f"{k}={t - marks[i][1]:.1f}s" for i, (k, t) in enumerate(marks[1:])))

    for check, ok, detail in checks.verdicts:
        print(f"check {name} {check}: {'PASS' if ok else 'FAIL'} ({detail})")
    units = {**END_TO_END_UNITS, **{k: per_layer_unit(k) for k in metrics if k not in END_TO_END_UNITS}}
    for key, value in metrics.items():
        print(f"metric {name} {key} = {value:.6g} {units[key]}")
    return {
        "correct": checks.passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload for one seed, each in its own process; metrics keyed ``<workload>.<metric>``."""
    import corpus

    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in corpus.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or child.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recollab" / "__init__.py").is_file():
        print(f"error: no recollab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # loopback traffic must never go through a proxy named in the environment
    for var in ("NO_PROXY", "no_proxy"):
        os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1", "localhost")))

    import corpus

    if args.workload == "all":
        return run_all(args)
    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(corpus.WORKLOADS)}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:  # a crash of the program under test is a failed run
        import traceback

        traceback.print_exc()
        print(f"check {args.workload} completed: FAIL ({type(exc).__name__}: {exc})")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
