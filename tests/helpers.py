"""Shared builders and independent reference implementations for the tests.

The reference functions here deliberately avoid the library's own code paths:
IoU is checked by rasterised cell counting, NMS by a quadratic scan over a
precomputed overlap matrix, AUROC by all-pairs counting, and the paired
recall rule by rank counting instead of sorting.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from recollab import (
    BBox,
    Detection,
    NegativeKind,
    Polarity,
    Prediction,
    RecTask,
    TaskSet,
    iou,
)
from recollab.backends.types import SelectionResult
from recollab.datamodel import Difficulty, ImageRef, NegEdit, NegFacet, NegLocus, Split
from recollab.metrics import Score, score

GRID_LO = 0.0
GRID_HI = 32.0
GRID_STEP = 0.25


def grid_box(rng: random.Random) -> BBox:
    """Random box whose corners sit on the reference raster grid."""
    n = int((GRID_HI - GRID_LO) / GRID_STEP)
    x0, x1 = sorted(rng.randint(0, n) for _ in range(2))
    y0, y1 = sorted(rng.randint(0, n) for _ in range(2))
    return BBox(
        GRID_LO + x0 * GRID_STEP,
        GRID_LO + y0 * GRID_STEP,
        GRID_LO + x1 * GRID_STEP,
        GRID_LO + y1 * GRID_STEP,
    )


def raster_iou(a: BBox, b: BBox) -> float:
    """IoU by counting grid cells; exact for grid-aligned boxes."""
    n = int((GRID_HI - GRID_LO) / GRID_STEP)

    def mask(box: BBox) -> np.ndarray:
        m = np.zeros((n, n), dtype=bool)
        x0 = int(round((box.x0 - GRID_LO) / GRID_STEP))
        x1 = int(round((box.x1 - GRID_LO) / GRID_STEP))
        y0 = int(round((box.y0 - GRID_LO) / GRID_STEP))
        y1 = int(round((box.y1 - GRID_LO) / GRID_STEP))
        m[y0:y1, x0:x1] = True
        return m

    ma, mb = mask(a), mask(b)
    union = int(np.logical_or(ma, mb).sum())
    if union == 0:
        return 0.0
    inter = int(np.logical_and(ma, mb).sum())
    return inter / union


def np_iou_matrix(boxes: list[BBox]) -> np.ndarray:
    """Pairwise IoU via numpy broadcasting, written independently."""
    arr = np.array([[b.x0, b.y0, b.x1, b.y1] for b in boxes], dtype=float)
    x0 = np.maximum(arr[:, None, 0], arr[None, :, 0])
    y0 = np.maximum(arr[:, None, 1], arr[None, :, 1])
    x1 = np.minimum(arr[:, None, 2], arr[None, :, 2])
    y1 = np.minimum(arr[:, None, 3], arr[None, :, 3])
    inter = np.clip(x1 - x0, 0.0, None) * np.clip(y1 - y0, 0.0, None)
    area = (arr[:, 2] - arr[:, 0]) * (arr[:, 3] - arr[:, 1])
    union = area[:, None] + area[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    return out

def brute_nms(dets: list[Detection], threshold: float) -> list[Detection]:
    """Quadratic greedy suppression over a precomputed overlap matrix."""
    if not dets:
        return []
    overlap = np_iou_matrix([d.box for d in dets])
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        if all(overlap[i, j] <= threshold for j in kept):
            kept.append(i)
    return [dets[i] for i in kept]


def brute_auroc(pos: list[float], neg: list[float]) -> float:
    """All-pairs win/tie counting with numpy."""
    p = np.array(pos, dtype=float)[:, None]
    n = np.array(neg, dtype=float)[None, :]
    wins = int((p > n).sum())
    ties = int((p == n).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def rank_pair_hit(
    pos_entries: list[tuple[float, float]],
    neg_confs: list[float],
    k: int,
    threshold: float = 0.5,
) -> bool:
    """Paired recall hit by rank counting: an entry is in the top k iff
    fewer than k entries sort ahead of it. Negative boxes never overlap
    the ground truth, so only positive entries can produce a hit.

    pos_entries are (confidence, iou) for the positive member's boxes.
    """
    entries = [(c, 0, i, v) for i, (c, v) in enumerate(pos_entries)]
    entries += [(c, 1, j, 0.0) for j, c in enumerate(neg_confs)]
    for conf, member, idx, iou_value in entries:
        if iou_value <= threshold:
            continue
        ahead = sum(
            1
            for conf2, member2, idx2, _ in entries
            if conf2 > conf
            or (conf2 == conf and (member2, idx2) < (member, idx))
        )
        if ahead < k:
            return True
    return False


def make_positive(
    i: int,
    gt_box: BBox | None = None,
    expression: str | None = None,
    image: str | None = None,
    difficulty: Difficulty | None = Difficulty.L1,
    extras: dict | None = None,
) -> RecTask:
    return RecTask(
        id=f"pos-{i:05d}",
        image=image if image is not None else f"img-{i:05d}",
        expression=expression if expression is not None else f"object number {i}",
        polarity=Polarity.POSITIVE,
        difficulty=difficulty,
        gt_box=gt_box if gt_box is not None else BBox(10.0, 10.0, 60.0, 60.0),
        extras=dict(extras) if extras else {},
    )


def make_negative(
    i: int,
    paired: RecTask,
    polarity: Polarity = Polarity.NEGATIVE_EXPRESSION,
    kind: NegativeKind | None = None,
    expression: str | None = None,
    image: str | None = None,
) -> RecTask:
    if kind is None:
        edit = NegEdit.FLIP if polarity is Polarity.NEGATIVE_IMAGE else NegEdit.REPLACE
        kind = NegativeKind(edit=edit, facet=NegFacet.OBJECT, locus=NegLocus.L1)
    return RecTask(
        id=f"neg-{i:05d}",
        image=image if image is not None else f"negimg-{i:05d}",
        expression=expression if expression is not None else f"missing object {i}",
        polarity=polarity,
        difficulty=paired.difficulty,
        negative_kind=kind,
        paired_positive=paired.id,
    )


def paired_taskset(n_pairs: int, split: Split = Split.TEST) -> TaskSet:
    """n_pairs positives, each with one negative-expression partner."""
    tasks: list[RecTask] = []
    for i in range(n_pairs):
        pos = make_positive(i)
        tasks.append(pos)
        tasks.append(make_negative(i, pos))
    return TaskSet(split, tasks)


def scored(preds: Mapping[str, Prediction], ts: TaskSet) -> dict[str, Score]:
    """The ``metrics.Score`` rows the metrics read: each prediction scored against its own
    task, which ``ts`` must hold."""
    return {task_id: score(pred, ts.get(task_id)) for task_id, pred in preds.items()}


# Five disjoint slots so NMS keeps every proposal and top-5 is the full set.
SLOT_BOXES = tuple(BBox(120.0 * i, 400.0, 120.0 * i + 80.0, 480.0) for i in range(5))
SLOT_SCORES = (0.9, 0.85, 0.8, 0.75, 0.7)


class SlotGrounder:
    """Deterministic grounder proposing the five slot boxes for any query."""

    def ground(self, image, expression):
        from recollab.backends.types import GroundingResult

        dets = tuple(
            Detection(box=box, score=score) for box, score in zip(SLOT_BOXES, SLOT_SCORES)
        )
        return GroundingResult(detections=dets, query=expression)


_OPTION_LINE = re.compile(
    r"^\s*([A-Z])\.\s*\[\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\]\s*$"
)


def parse_prompt_options(prompt: str) -> dict[str, BBox]:
    """Recover the label -> box map from rendered option lines."""
    options: dict[str, BBox] = {}
    for line in prompt.splitlines():
        match = _OPTION_LINE.match(line)
        if match:
            label = match.group(1)
            coords = [float(g) for g in match.groups()[1:]]
            options[label] = BBox(*coords)
    return options


@dataclass(frozen=True)
class OracleSelector:
    """Selector that picks the max-IoU option against a per-image ground-truth table.

    A diagnostic, not a model: running candidate selection with it scores
    exactly the fraction of tasks whose offered options contain a good
    enough box (the candidate-generation ceiling). Images without an entry
    (negatives) get the rejection label when one is offered. Images must
    map 1:1 to tasks for the answer to be exact.
    """

    gt_by_image: Mapping[str, BBox]

    def select(self, image: ImageRef, prompt: str, offered: Sequence[str]) -> SelectionResult:
        if not offered:
            raise ValueError("no option labels offered")
        options = parse_prompt_options(prompt)
        box_labels = [label for label in offered if label in options]
        none_labels = [label for label in offered if label not in options]
        gt = self.gt_by_image.get(image.image_id)
        if gt is None or not box_labels:
            label = none_labels[-1] if none_labels else offered[-1]
        else:
            label = max(box_labels, key=lambda lb: iou(options[lb], gt))
        return SelectionResult(
            label=label, label_prob=1.0, raw_text=label, offered=tuple(offered)
        )


def slot_gt(slot: int, inset: float = 5.0) -> BBox:
    """Ground truth inside a slot; inset 5 keeps IoU about 0.77, inset 12+ drops below 0.5."""
    base = SLOT_BOXES[slot]
    return BBox(base.x0 + inset, base.y0 + inset, base.x1 - inset, base.y1 - inset)


OFF_SLOT_GT = BBox(10.0, 10.0, 90.0, 90.0)  # overlaps no slot


def make_slot_positive(i: int, *, hit: bool = True, inset: float = 5.0) -> RecTask:
    gt = slot_gt(i % len(SLOT_BOXES), inset) if hit else OFF_SLOT_GT
    return make_positive(i, gt_box=gt, expression=f"slot object {i}")


SLOT_PAYLOAD = {
    "detections": [
        {"box": list(box.as_list()), "score": score}
        for box, score in zip(SLOT_BOXES, SLOT_SCORES)
    ]
}


def build_sfa_corpus(root, n_pairs=10, *, seed=7, omit_generate_for=None, shared_images=False):
    """Dataset + replay fixtures + YAML config for end-to-end runs.

    Even-index positives route fast (one confident detection), odd ones
    and all negatives route slow. Every response a run will request is
    recorded, so runs are fully offline and deterministic. Returns the
    config path; all config paths are relative to it.

    With ``shared_images`` each negative reuses its positive's image, as a
    negative-expression task does, so the pair makes one detector call
    twice and the negative routes as its positive does.
    """
    import yaml

    from recollab.backends.replay import (
        ROLE_DETECT,
        ROLE_EXTRACT,
        ROLE_GENERATE,
        ROLE_GROUND,
        write_fixture,
    )
    from recollab.datamodel import save_taskset
    from recollab.sfa import build_focus_prompt

    root = Path(root)
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    gt = BBox(100.0, 100.0, 200.0, 200.0)

    tasks = []
    for i in range(n_pairs):
        expr = f"the widget near lamp {i}"
        pos = make_positive(i, gt_box=gt, expression=expr)
        tasks.append(pos)
        write_fixture(fixtures, ROLE_EXTRACT, "", expr, {"text": '{"target": "widget"}'})
        if i % 2 == 0:
            detect = [{"box": [100, 100, 200, 200], "score": 0.9}]
        else:
            detect = [
                {"box": [100, 100, 200, 200], "score": 0.9},
                {"box": [300, 300, 400, 400], "score": 0.5},
                {"box": [500, 500, 600, 600], "score": 0.3},
            ]
        write_fixture(fixtures, ROLE_DETECT, pos.image, "widget", {"detections": detect})
        # token scores point at "widget" (chars 4-10); the decoy outranks
        # the true box on overall score but not on target similarity
        write_fixture(
            fixtures,
            ROLE_GROUND,
            pos.image,
            expr,
            {
                "detections": [
                    {
                        "box": [300, 300, 400, 400],
                        "score": 0.85,
                        "token_scores": [{"start": 4, "end": 10, "score": 0.3}],
                    },
                    {
                        "box": [102, 102, 198, 198],
                        "score": 0.8,
                        "token_scores": [{"start": 4, "end": 10, "score": 0.9}],
                    },
                ]
            },
        )
        prompt = build_focus_prompt(expr, "widget")
        if omit_generate_for != pos.id:
            write_fixture(
                fixtures,
                ROLE_GENERATE,
                pos.image,
                prompt,
                {
                    "text": "[[102, 102, 198, 198]]",
                    "coordinate_token_probs": [0.8, 0.9, 0.85, 0.95],
                },
            )

        neg_expr = f"the missing widget {i}"
        neg = make_negative(i, pos, expression=neg_expr, image=pos.image if shared_images else None)
        tasks.append(neg)
        write_fixture(fixtures, ROLE_EXTRACT, "", neg_expr, {"text": '{"target": "widget"}'})
        if not shared_images:
            write_fixture(
                fixtures,
                ROLE_DETECT,
                neg.image,
                "widget",
                {
                    "detections": [
                        {"box": [300, 300, 350, 350], "score": 0.6},
                        {"box": [10, 10, 60, 60], "score": 0.4},
                    ]
                },
            )
        write_fixture(
            fixtures,
            ROLE_GROUND,
            neg.image,
            neg_expr,
            {"detections": [{"box": [300, 300, 350, 350], "score": 0.4}]},
        )
        neg_prompt = build_focus_prompt(neg_expr, "widget")
        if i % 2 == 0:
            generate = {"text": "There is no such widget."}
        else:
            generate = {
                "text": "[[300, 300, 350, 350]]",
                "coordinate_token_probs": [0.3, 0.3, 0.3, 0.3],
            }
        if omit_generate_for != neg.id:
            write_fixture(fixtures, ROLE_GENERATE, neg.image, neg_prompt, generate)

    save_taskset(TaskSet(Split.TEST, tasks), root / "test.jsonl")

    backend = {"kind": "replay", "fixtures": "fixtures", "concurrency": 4}
    config = {
        "pipeline": "sfa",
        "seed": seed,
        "output_dir": "out",
        "datasets": {"test": "test.jsonl"},
        "backends": {
            "extractor": {**backend, "cost_unit": 0.0},
            "detector": {**backend, "cost_unit": 0.0},
            "grounder": {**backend, "cost_unit": 1.0},
            "mllm": {**backend, "cost_unit": 10.0},
        },
        "expected_counts": {
            "test": {"total": 2 * n_pairs, "positive": n_pairs, "pairs": n_pairs}
        },
    }
    config_path = root / "run.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


def write_mllm_fixtures(root) -> None:
    """Record the ``mllm`` baseline's answers for a ``build_sfa_corpus`` dataset.

    The baseline sends the base prompt without the focus clause; every
    task gets the same confident box.
    """
    from recollab.backends.replay import ROLE_GENERATE, write_fixture
    from recollab.datamodel import load_taskset
    from recollab.sfa import SfaParams, build_focus_prompt

    root = Path(root)
    base = SfaParams(focus=False)
    answer = {"text": "[[100, 100, 200, 200]]", "coordinate_token_probs": [0.9] * 4}
    for task in load_taskset(root / "test.jsonl", "test"):
        prompt = build_focus_prompt(task.expression, "", base)
        write_fixture(root / "fixtures", ROLE_GENERATE, task.image, prompt, answer)


def build_crs_corpus(root, n_pairs=4, *, select_replies=None):
    """Dataset + replay grounder and selector fixtures + YAML config for crs runs.

    Every grounder call proposes the five slot boxes. A positive's selector
    answers the letter of the slot holding its ground truth, a negative's
    the None option; ``select_replies`` maps a task id to the reply payload
    recorded instead. Returns the config path.
    """
    import yaml

    from recollab.backends.replay import ROLE_GROUND, ROLE_SELECT, write_fixture
    from recollab.backends.types import detections_from_payload
    from recollab.crs import build_choice_prompt, generate_candidates
    from recollab.datamodel import save_taskset

    root = Path(root)
    fixtures = root / "fixtures"
    slots = generate_candidates(detections_from_payload(SLOT_PAYLOAD).detections)
    tasks = []
    for i in range(n_pairs):
        pos = make_slot_positive(i)
        neg = make_negative(i, pos)
        # the slot scores descend, so the candidate letters follow the slots
        for task, label in ((pos, slots.candidates[i % len(SLOT_BOXES)][0]), (neg, None)):
            write_fixture(fixtures, ROLE_GROUND, task.image, task.expression, SLOT_PAYLOAD)
            prompt = build_choice_prompt(task.expression, slots)
            reply = {"label": label or prompt.none_label, "label_prob": 0.9}
            reply = (select_replies or {}).get(task.id, reply)
            write_fixture(fixtures, ROLE_SELECT, task.image, prompt.text, reply)
            tasks.append(task)
    save_taskset(TaskSet(Split.TEST, tasks), root / "test.jsonl")
    backend = {"kind": "replay", "fixtures": "fixtures"}
    config = {
        "pipeline": "crs",
        "output_dir": "out",
        "datasets": {"test": "test.jsonl"},
        "backends": {"grounder": backend, "selector": backend},
    }
    config_path = root / "run.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


def build_export_corpus(root, n_pos=12, n_neg=4, *, positives=10, negatives=3):
    """Train split + grounder fixtures + config for export-tuning runs."""
    import yaml

    from recollab.backends.replay import ROLE_GROUND, write_fixture
    from recollab.datamodel import save_taskset

    root = Path(root)
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    tasks = []
    for i in range(n_pos):
        pos = make_slot_positive(i)
        tasks.append(pos)
        write_fixture(fixtures, ROLE_GROUND, pos.image, pos.expression, SLOT_PAYLOAD)
    for j in range(n_neg):
        neg = make_negative(j, tasks[j])
        tasks.append(neg)
        write_fixture(fixtures, ROLE_GROUND, neg.image, neg.expression, SLOT_PAYLOAD)
    save_taskset(TaskSet(Split.TRAIN, tasks), root / "train.jsonl")
    config = {
        "pipeline": "crs",
        "seed": 3,
        "output_dir": "out",
        "datasets": {"train": "train.jsonl"},
        "backends": {"grounder": {"kind": "replay", "fixtures": "fixtures"}},
        "tuning": {"positives": positives, "negatives": negatives, "output": "tuning.jsonl"},
    }
    config_path = root / "export.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


# ------------------------------------------------------------------- http


class _Handler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
        if self.server.keep_alive:
            self.protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw) if length else {}
        self.server.seen.append(
            {
                "path": self.path,
                "host": self.headers.get("Host"),
                "auth": self.headers.get("Authorization"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "body": body,
                "raw": raw,
            }
        )
        if self.server.script:
            status, payload = self.server.script.pop(0)
        elif self.server.reply is not None:
            status, payload = 200, self.server.reply(body)
        else:
            status, payload = 200, self.server.default
        if isinstance(payload, bytes):
            data = payload
        else:
            data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.server.drop_idle:
            self.close_connection = True

    def do_CONNECT(self):
        # a proxy's tunnel request is recorded and refused
        self.server.tunnels.append(self.path)
        self.send_error(403)

    def log_message(self, *args):
        pass


@contextmanager
def http_server(script=None, default=None, reply=None, keep_alive=False, drop_idle=False):
    """A loopback JSON server on its own thread; yields (server, url).

    Each POST is answered from ``script`` (a list of (status, payload)
    consumed in order), then by ``reply(body)``, then with ``default``.
    Requests are recorded in ``server.seen``, refused CONNECT targets in
    ``server.tunnels``, and accepted connections are counted in
    ``server.connections``. The server speaks HTTP/1.0, so each reply
    closes its connection and says so; with ``keep_alive`` it speaks
    HTTP/1.1 and keeps connections open, and with ``drop_idle`` as well it
    closes each one after its first reply without saying so.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.script = list(script or [])
    server.seen = []
    server.tunnels = []
    server.default = default if default is not None else {}
    server.reply = reply
    server.keep_alive = keep_alive
    server.drop_idle = drop_idle
    server.connections = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()


# The CLI, with runner._write_record wrapped so that the process hard-exits
# with status 3 right after writing (and flushing) its N-th prediction line:
# a crash at a known point, made from outside the program.
_CRASH_AFTER = """\
import os, sys
from recollab import cli, runner

left = int(sys.argv.pop(1))
write = runner._write_record


def write_then_crash(handle, record):
    global left
    write(handle, record)
    if record["record"] == "prediction":
        left -= 1
        if not left:
            os._exit(3)


runner._write_record = write_then_crash
sys.exit(cli.main(sys.argv[1:]))
"""


def run_cli(*args, crash_after=None):
    """``recollab *args`` in a subprocess, so a hard exit cannot take the tests down.

    With ``crash_after`` N, the run exits with status 3 right after its N-th
    prediction line is written.
    """
    if crash_after is None:
        command = [sys.executable, "-m", "recollab"]
    else:
        command = [sys.executable, "-c", _CRASH_AFTER, str(crash_after)]
    return subprocess.run([*command, *map(str, args)], capture_output=True, text=True, timeout=120)
