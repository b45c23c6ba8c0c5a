"""Seeded, FineCops-Ref-shaped corpus for the benchmark workloads.

One call to :func:`generate` writes everything a workload's program run
receives: the test split (``test.jsonl``), the recorded backend replies
(replay fixtures, or a payload table for the loopback HTTP stub), the run
config (``run.yaml``) and ``expected.json``, the results the corpus was
built to produce. The program sees only the first three.

The task mix follows the FineCops-Ref census (9,605 positives, 9,814
negative expressions, 8,507 negative images). Negative-expression tasks
share their positive's image and, unless the edit replaced the target
object, its target; negative-image tasks keep the expression on an edited
image. Every reply is planned before it is written, so the overall P@1,
paired R@1, AUROC and pathway counts follow from the plan alone.

The seed draws the reply contents: boxes, scores, hits and misses, answers.
The tasks, each task's route and the crs candidates offered are the same
for every seed, so every seed names the same fixture files.

Boxes live inside the cells of a 4x3 grid over the image, so boxes in
different cells never overlap: a planned miss has IoU 0 with the ground
truth, a planned hit (a jittered copy) has IoU above 0.75, and greedy NMS
at 0.7 keeps exactly one box per cell.

Run as a script to write a corpus:

    python3 bench/corpus.py --workload sfa-replay --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any

CENSUS = {"positive": 9605, "negative_expression": 9814, "negative_image": 8507}


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    transport: str
    scale: float  # share of the FineCops-Ref census


# BENCHMARK.json records why each workload is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sfa-replay", "sfa", "replay", 1.0),
        Workload("crs-replay", "crs", "replay", 0.5),
        Workload("sfa-http", "sfa", "http", 1.0 / 24),
    )
}

ROLES_FOR = {
    "sfa": ("extractor", "detector", "grounder", "mllm"),
    "crs": ("grounder", "selector"),
}
COST_UNITS = {"extractor": 0.0, "detector": 0.0, "grounder": 1.0, "mllm": 10.0, "selector": 10.0}
# Stub service time per call, in milliseconds: the mllm costs ten grounder calls.
SERVICE_MS = {"extractor": 0.0, "detector": 0.0, "grounder": 2.0, "mllm": 20.0, "selector": 20.0}
# Adapter role -> fixture role (docs/fixture_format.md) and HTTP path.
FIXTURE_ROLE = {
    "extractor": "extract",
    "detector": "detect",
    "grounder": "ground",
    "mllm": "generate",
    "selector": "select",
}

IMAGE_SIZES = ((640, 480), (640, 427), (500, 375), (800, 600), (1024, 768), (612, 612))
GRID_COLS, GRID_ROWS = 4, 3
NOUNS = (
    "dog cat man woman child car bus truck chair table cup bottle horse bird umbrella "
    "laptop bicycle boat clock vase bench kite sheep cow zebra giraffe train pizza "
    "banana apple sandwich couch bed plant suitcase skateboard surfboard elephant "
    "motorcycle oven"
).split()
ATTRS = (
    "red blue green white black yellow brown gray small large tall short striped "
    "wooden metal plastic young old dark bright"
).split()
RELATIONS = (
    "to the left of",
    "to the right of",
    "next to",
    "behind",
    "in front of",
    "on top of",
    "under",
    "near",
)
DIFFICULTY_WEIGHTS = (("L1", 0.35), ("L2", 0.40), ("L3", 0.25))
FAST_HIT = {"L1": 0.86, "L2": 0.72, "L3": 0.58}
SLOW_HIT = {"L1": 0.80, "L2": 0.72, "L3": 0.64}
# crs hit rate once the ground-truth box is among the offered candidates
CRS_HIT = {"L1": 0.92, "L2": 0.82, "L3": 0.72}


def census(scale: float) -> dict[str, int]:
    """Task counts per polarity at a fraction of the FineCops-Ref size."""
    return {k: max(1, round(v * scale)) for k, v in CENSUS.items()}


# ---------------------------------------------------------------- geometry


def box_iou(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def cell_box(rng: random.Random, size: tuple[int, int], cell: int) -> tuple[float, ...]:
    """A box inside one grid cell, at least 10% of the cell from its edges."""
    w, h = size
    cw, ch = w / GRID_COLS, h / GRID_ROWS
    cx, cy = (cell % GRID_COLS) * cw, (cell // GRID_COLS) * ch
    bw, bh = cw * rng.uniform(0.5, 0.8), ch * rng.uniform(0.5, 0.8)
    x0 = cx + rng.uniform(0.1 * cw, 0.9 * cw - bw)
    y0 = cy + rng.uniform(0.1 * ch, 0.9 * ch - bh)
    return (round(x0, 1), round(y0, 1), round(x0 + bw, 1), round(y0 + bh, 1))


def jitter(rng: random.Random, box: tuple[float, ...], min_iou: float = 0.75) -> tuple[float, ...]:
    """A copy of ``box`` moved and resized by at most 3%; stays in its cell."""
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    out = (
        round(x0 + rng.uniform(-0.03, 0.03) * w, 1),
        round(y0 + rng.uniform(-0.03, 0.03) * h, 1),
        round(x1 + rng.uniform(-0.03, 0.03) * w, 1),
        round(y1 + rng.uniform(-0.03, 0.03) * h, 1),
    )
    if box_iou(out, box) <= min_iou:
        raise AssertionError(f"jitter left too little overlap: {box} -> {out}")
    return out


def int_box(box: tuple[float, ...]) -> tuple[int, ...]:
    return tuple(int(round(v)) for v in box)


# ---------------------------------------------------------------- tasks


@dataclass
class Task:
    id: str
    image: str
    expression: str
    polarity: str
    difficulty: str
    size: tuple[int, int]
    target: str
    gt_cell: int | None = None
    gt_box: tuple[float, ...] | None = None
    negative_kind: tuple[str, str, str] | None = None
    paired_positive: str | None = None

    @property
    def positive(self) -> bool:
        return self.polarity == "positive"

    def record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "id": self.id,
            "image": self.image,
            "expression": self.expression,
            "polarity": self.polarity,
            "difficulty": self.difficulty,
        }
        if self.negative_kind is not None:
            edit, facet, locus = self.negative_kind
            rec["negative_kind"] = {"edit": edit, "facet": facet, "locus": locus}
        if self.gt_box is not None:
            rec["gt_box"] = list(self.gt_box)
        if self.paired_positive is not None:
            rec["paired_positive"] = self.paired_positive
        rec["width"], rec["height"] = self.size
        return rec


def render(parts: dict[str, str]) -> str:
    text = f"the {parts['attr']} {parts['noun']}"
    if "rel" in parts:
        text += f" {parts['rel']} the {parts['attr2']} {parts['noun2']}"
    if "rel3" in parts:
        text += f" {parts['rel3']} the {parts['noun3']}"
    return text


def _parts(rng: random.Random, difficulty: str, noun: str) -> dict[str, str]:
    others = [n for n in NOUNS if n != noun]
    parts = {"attr": rng.choice(ATTRS), "noun": noun}
    if difficulty in ("L2", "L3"):
        parts.update(rel=rng.choice(RELATIONS), attr2=rng.choice(ATTRS), noun2=rng.choice(others))
    if difficulty == "L3":
        parts.update(rel3=rng.choice(RELATIONS), noun3=rng.choice(others))
    return parts


def _edit(rng: random.Random, parts: dict[str, str]) -> tuple[dict[str, str], tuple[str, str, str]]:
    """One edit of a positive's expression, with its negative kind."""
    edit = rng.choice(("replace", "swap"))
    context = "rel" in parts
    locus = rng.choice(("L1", "L2")) if context else "L1"
    facets = ("object", "attribute", "relation") if context else ("object", "attribute")
    facet = rng.choice(facets)
    new = dict(parts)
    if facet == "relation":
        new["rel"] = rng.choice([r for r in RELATIONS if r != parts["rel"]])
    elif facet == "attribute":
        slot = "attr" if locus == "L1" else "attr2"
        new[slot] = rng.choice([a for a in ATTRS if a != parts[slot]])
    else:
        slot = "noun" if locus == "L1" else "noun2"
        used = {parts.get(k) for k in ("noun", "noun2", "noun3")}
        new[slot] = rng.choice([n for n in NOUNS if n not in used])
    return new, (edit, facet, locus)


def build_tasks(rng: random.Random, counts: dict[str, int]) -> list[Task]:
    """Positives in dataset order, each followed by the negatives derived from it."""
    n_pos = counts["positive"]
    extra_expr = counts["negative_expression"] - n_pos
    if extra_expr >= 0:
        n_expr = [1] * n_pos
        for i in rng.sample(range(n_pos), extra_expr):
            n_expr[i] += 1
    else:
        chosen = set(rng.sample(range(n_pos), counts["negative_expression"]))
        n_expr = [1 if i in chosen else 0 for i in range(n_pos)]
    with_image = set(rng.sample(range(n_pos), counts["negative_image"]))
    levels, weights = zip(*DIFFICULTY_WEIGHTS)

    tasks: list[Task] = []
    n_ne = n_ni = 0
    for i in range(n_pos):
        difficulty = rng.choices(levels, weights)[0]
        noun = rng.choice(NOUNS)
        size = rng.choice(IMAGE_SIZES)
        cell = rng.randrange(GRID_COLS * GRID_ROWS)
        parts = _parts(rng, difficulty, noun)
        pos = Task(
            id=f"pos-{i:05d}",
            image=f"img-{i:05d}",
            expression=render(parts),
            polarity="positive",
            difficulty=difficulty,
            size=size,
            target=noun,
            gt_cell=cell,
            gt_box=cell_box(rng, size, cell),
        )
        tasks.append(pos)
        seen = {pos.expression}
        for _ in range(n_expr[i]):
            edited, kind = _edit(rng, parts)
            while render(edited) in seen:
                edited, kind = _edit(rng, parts)
            text = render(edited)
            seen.add(text)
            tasks.append(
                Task(
                    id=f"negexp-{n_ne:05d}",
                    image=pos.image,
                    expression=text,
                    polarity="negative_expression",
                    difficulty=difficulty,
                    size=size,
                    target=edited["noun"],
                    negative_kind=kind,
                    paired_positive=pos.id,
                )
            )
            n_ne += 1
        if i in with_image:
            facet = rng.choice(("object", "attribute", "relation"))
            edit = "flip" if facet == "relation" and rng.random() < 0.5 else rng.choice(
                ("replace", "swap")
            )
            tasks.append(
                Task(
                    id=f"negimg-{n_ni:05d}",
                    image=f"{pos.image}-edit",
                    expression=pos.expression,
                    polarity="negative_image",
                    difficulty=difficulty,
                    size=size,
                    target=noun,
                    negative_kind=(edit, facet, rng.choice(("L1", "L2"))),
                    paired_positive=pos.id,
                )
            )
            n_ni += 1
    return tasks


# ---------------------------------------------------------------- replies


def target_span(expression: str, target: str) -> tuple[int, int]:
    match = re.search(r"\b" + re.escape(target) + r"\b", expression, re.IGNORECASE)
    if match is None:
        raise AssertionError(f"target {target!r} not in {expression!r}")
    return match.start(), match.end()


def geometric_mean(probs: list[float]) -> float:
    """The confidence an mllm answer carries: geometric mean of its token probabilities."""
    return math.exp(math.fsum(math.log(p) for p in probs) / len(probs))


def _other_cell(rng: random.Random, avoid: int | None) -> int:
    return rng.choice([c for c in range(GRID_COLS * GRID_ROWS) if c != avoid])


def _scores(rng: random.Random, n: int, lo: int, hi: int) -> list[float]:
    """``n`` distinct scores k/100 with lo <= k <= hi, descending."""
    return [k / 100 for k in sorted(rng.sample(range(lo, hi + 1), n), reverse=True)]


@dataclass
class Outcome:
    """What the program must predict for one task."""

    box: tuple[float, ...] | None
    confidence: float
    hit: bool
    pathway: str


class Planner:
    """Plans and records every reply a run of one pipeline will request.

    ``shape`` draws what names a fixture: the route of each (image, target)
    and the crs candidates offered. It does not depend on the seed, so every
    seed requests the same fixtures. ``rng`` draws the reply contents.
    """

    def __init__(self, shape: random.Random, rng: random.Random, pipeline: str):
        self.shape = shape
        self.rng = rng
        self.pipeline = pipeline
        # (role, image, query) -> reply payload as canonical JSON text
        self.replies: dict[tuple[str, str, str], str] = {}
        self.route_fast: dict[tuple[str, str], bool] = {}
        self.calls = {role: 0 for role in ROLES_FOR[pipeline]}

    def _record(self, role: str, image: str, query: str, payload: dict[str, Any] | str) -> None:
        self.calls[role] += 1
        key = (role, image, query)
        if not isinstance(payload, str):
            payload = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        if self.replies.setdefault(key, payload) != payload:
            raise AssertionError(f"two different replies planned for {key}")

    def plan(self, task: Task) -> Outcome:
        return self._plan_sfa(task) if self.pipeline == "sfa" else self._plan_crs(task)

    # --- sfa: extract, detect, then ground (fast) or generate (slow)

    def _plan_sfa(self, task: Task) -> Outcome:
        from recollab.sfa import build_focus_prompt

        rng = self.rng
        self._record("extractor", "", task.expression, {"text": json.dumps({"target": task.target})})
        key = (task.image, task.target)
        if key not in self.route_fast:
            fast = self.shape.random() < 0.5
            self.route_fast[key] = fast
            above = 1 if fast else rng.choice((0, 0, 2, 2, 3, 4))
            below = rng.randint(0, 2)
            scores = _scores(rng, above, 21, 99) + _scores(rng, below, 2, 19)
            dets = [
                {"box": list(cell_box(rng, task.size, rng.randrange(12))), "score": s}
                for s in scores
            ]
            self._record("detector", task.image, task.target, {"detections": dets})
        else:
            self._record("detector", task.image, task.target, self.replies[("detector", *key)])
        if self.route_fast[key]:
            return self._plan_fast(task)
        prompt = build_focus_prompt(task.expression, task.target)
        return self._plan_slow(task, prompt)

    def _plan_fast(self, task: Task) -> Outcome:
        rng = self.rng
        hit = task.positive and rng.random() < FAST_HIT[task.difficulty]
        if hit:
            chosen = jitter(rng, task.gt_box)
        else:
            chosen = cell_box(rng, task.size, _other_cell(rng, task.gt_cell))
        n = rng.randint(2, 5)
        scores = _scores(rng, n, 25, 97)
        pick = rng.randrange(n)
        token = _scores(rng, n, 10, 98)
        # the chosen proposal carries the highest target-token score,
        # whatever its overall rank
        token_for = [token[0] if i == pick else token[1 + i - (i > pick)] for i in range(n)]
        span = target_span(task.expression, task.target)
        dets = []
        for i in range(n):
            box = chosen if i == pick else cell_box(rng, task.size, _other_cell(rng, task.gt_cell))
            token_scores = [{"start": span[0], "end": span[1], "score": token_for[i]}]
            if span[0] >= 4:
                token_scores.insert(0, {"start": 0, "end": 3, "score": round(token_for[i] / 2, 3)})
            dets.append({"box": list(box), "score": scores[i], "token_scores": token_scores})
        self._record("grounder", task.image, task.expression, {"detections": dets})
        return Outcome(box=chosen, confidence=scores[pick], hit=hit, pathway="fast")

    def _plan_slow(self, task: Task, prompt: str) -> Outcome:
        rng = self.rng
        roll = rng.random()
        if task.positive:
            hit = roll < SLOW_HIT[task.difficulty]
            reject = not hit and roll > 0.9
        else:
            hit, reject = False, roll < 0.45
        if reject and rng.random() < 0.1:
            x0, y0, x1, y1 = int_box(cell_box(rng, task.size, rng.randrange(12)))
            payload = {"text": f"[[{x1}, {y0}, {x0}, {y1}]]"}  # inverted: malformed
        elif reject:
            payload = {"text": f"There is no {task.target} matching the description."}
        else:
            src = task.gt_box if hit else cell_box(rng, task.size, _other_cell(rng, task.gt_cell))
            box = int_box(jitter(rng, src) if hit else src)
            lo, hi = (55, 99) if hit else (20, 85)
            probs = [rng.randint(lo, hi) / 100 for _ in range(4)]
            payload = {"text": "[[{}, {}, {}, {}]]".format(*box), "coordinate_token_probs": probs}
        self._record("mllm", task.image, prompt, payload)
        if "coordinate_token_probs" not in payload:
            return Outcome(box=None, confidence=0.0, hit=False, pathway="slow")
        box = tuple(float(v) for v in box)
        if hit and box_iou(box, task.gt_box) <= 0.75:
            raise AssertionError(f"planned hit lost its overlap: {box} vs {task.gt_box}")
        return Outcome(box=box, confidence=geometric_mean(payload["coordinate_token_probs"]),
                       hit=hit, pathway="slow")

    # --- crs: ground (tens of clustered proposals), then select

    def _plan_crs(self, task: Task) -> Outcome:
        from recollab.crs import CandidateSet, build_choice_prompt, option_label
        from recollab.geometry import BBox, Detection

        shape, rng = self.shape, self.rng
        # cluster heads in score order; their boxes make up the choice prompt
        n_clusters = shape.randint(3, 11)
        where = shape.random()
        gt_rank = None  # where the ground-truth cluster ranks, if the grounder found it
        if task.positive and where < 0.85:
            gt_rank = shape.randrange(min(5, n_clusters))
        elif task.positive and where < 0.92 and n_clusters > 5:
            gt_rank = shape.randrange(5, n_clusters)
        cells = shape.sample([c for c in range(12) if c != task.gt_cell], n_clusters)
        heads = [cell_box(shape, task.size, c) for c in cells]
        if gt_rank is not None:
            cells[gt_rank] = task.gt_cell
            heads[gt_rank] = jitter(shape, task.gt_box)
        hit = gt_rank is not None and gt_rank < 5 and rng.random() < CRS_HIT[task.difficulty]
        members = [rng.randint(1, 3) for _ in range(n_clusters)]
        scores = _scores(rng, n_clusters + sum(members), 5, 99)
        head_scores = scores[:n_clusters]  # heads outrank every member
        rest = scores[n_clusters:]
        span = target_span(task.expression, task.target)
        dets = []
        for c in range(n_clusters):
            for j in range(members[c] + 1):
                box = heads[c] if j == 0 else jitter(rng, heads[c])
                score = head_scores[c] if j == 0 else rest.pop(rng.randrange(len(rest)))
                token = round(min(0.99, score + 0.01), 2)
                dets.append({"box": list(box), "score": score,
                             "token_scores": [{"start": span[0], "end": span[1], "score": token}]})
        dets.sort(key=lambda d: -d["score"])
        self._record("grounder", task.image, task.expression, {"detections": dets})

        kept = heads[:5]
        cs = CandidateSet(
            candidates=tuple(
                (option_label(i), Detection(box=BBox(*box), score=head_scores[i]))
                for i, box in enumerate(kept)
            ),
            k=5,
        )
        prompt = build_choice_prompt(task.expression, cs).text
        none_label = option_label(len(kept))
        if hit:
            choice = gt_rank
        elif task.positive:
            wrong = [i for i in range(len(kept)) if i != gt_rank]
            choice = None if not wrong or rng.random() < 0.3 else rng.choice(wrong)
        else:
            choice = None if rng.random() < 0.55 else rng.randrange(len(kept))
        letter = none_label if choice is None else option_label(choice)
        text = rng.choice((letter, letter, letter, f"Answer: {letter}", f"Option {letter}", f"{letter}."))
        prob = rng.randint(50, 99) / 100 if hit else rng.randint(15, 90) / 100
        self._record("selector", task.image, prompt, {"text": text, "label_prob": prob})
        if choice is None:
            return Outcome(box=None, confidence=0.0, hit=False, pathway="crs")
        return Outcome(box=kept[choice], confidence=prob, hit=hit, pathway="crs")


# ---------------------------------------------------------------- expected results


def auroc_numerator(pos: list[float], neg: list[float]) -> float:
    """Wins plus half ties of positive over negative confidences."""
    ordered = sorted(neg)
    wins = ties = 0
    for score in pos:
        lo, hi = bisect_left(ordered, score), bisect_right(ordered, score)
        wins += lo
        ties += hi - lo
    return wins + 0.5 * ties


def expected_results(tasks: list[Task], outcomes: dict[str, Outcome], calls: dict[str, int],
                     distinct: dict[str, int]) -> dict[str, Any]:
    positives = [t for t in tasks if t.positive]
    negatives = [t for t in tasks if not t.positive]
    hits = sum(outcomes[t.id].hit for t in positives)
    pair_hits = 0
    for neg in negatives:
        pos, n = outcomes[neg.paired_positive], outcomes[neg.id]
        # the pooled top box is the positive's unless the negative's is more confident
        if pos.hit and (n.box is None or n.confidence <= pos.confidence):
            pair_hits += 1
    pathways: dict[str, int] = {}
    for o in outcomes.values():
        pathways[o.pathway] = pathways.get(o.pathway, 0) + 1
    pos_conf = [outcomes[t.id].confidence for t in positives]
    neg_conf = [outcomes[t.id].confidence for t in negatives]
    routed = sum(o.pathway in ("fast", "slow") for o in outcomes.values())
    return {
        "tasks": len(tasks),
        "precision_at_1": [hits, len(positives)],
        "recall_at_1": [pair_hits, len(negatives)],
        "auroc": [auroc_numerator(pos_conf, neg_conf), len(pos_conf) * len(neg_conf)],
        "pathways": dict(sorted(pathways.items())),
        "role_calls": calls,
        "backend_calls": sum(calls.values()),
        "role_distinct": distinct,
        "distinct_calls": sum(distinct.values()),
        "fast_path_ratio": pathways.get("fast", 0) / routed if routed else 0.0,
    }


# ---------------------------------------------------------------- writers


def _overwrite(path: Path, data: bytes) -> None:
    """Rewrite a file in place; far cheaper than creating it anew on ext4."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_fixtures(root: Path, replies: dict[tuple[str, str, str], str]) -> None:
    """Fixture files byte-identical to ``write_fixture``'s, written in place.

    Every seed names the same files, so after a workload's first run each
    file is overwritten rather than created; files no reply names are removed.
    """
    from recollab.backends.replay import FIXTURE_HEADER, fixture_key, write_fixture

    root.mkdir(parents=True, exist_ok=True)
    names = set()
    for (role, image, query), payload in replies.items():
        frole = FIXTURE_ROLE[role]
        # json.dumps(record, sort_keys=True) with the payload already serialized
        body = '%s\n{"image": %s, "payload": %s, "query": %s, "role": %s}\n' % (
            FIXTURE_HEADER,
            json.dumps(image, ensure_ascii=False),
            payload,
            json.dumps(query, ensure_ascii=False),
            json.dumps(frole),
        )
        name = f"{fixture_key(frole, image, query)}.json"
        names.add(name)
        _overwrite(root / name, body.encode("utf-8"))
    for stale in set(os.listdir(root)) - names:
        (root / stale).unlink()
    mine = (root / name).read_bytes()
    if write_fixture(root, frole, image, query, json.loads(payload)).read_bytes() != mine:
        raise AssertionError("fixture bytes differ from recollab's write_fixture")


def _write_stub_table(path: Path, replies: dict[tuple[str, str, str], str]) -> None:
    """Reply bodies keyed as the HTTP adapters send them: the extractor by its full prompt."""
    from recollab.backends.extract import build_extract_prompt

    rows = []
    for (role, image, query), payload in replies.items():
        if role == "extractor":
            query = build_extract_prompt(query)
        rows.append([FIXTURE_ROLE[role], image, query, payload])
    path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")


def write_config(root: Path, workload: Workload, seed: int, endpoint_base: str | None = None) -> Path:
    """The run config the program receives; HTTP workloads need the stub's base URL."""
    import yaml

    concurrency = len(os.sched_getaffinity(0))
    backends = {}
    for role in ROLES_FOR[workload.pipeline]:
        entry: dict[str, Any] = {"concurrency": concurrency, "cost_unit": COST_UNITS[role]}
        if workload.transport == "replay":
            entry.update(kind="replay", fixtures="fixtures")
        else:
            if endpoint_base is None:
                raise ValueError("an http workload needs the stub's endpoint base")
            entry.update(kind="http", endpoint=f"{endpoint_base}/{FIXTURE_ROLE[role]}", timeout=10.0)
        backends[role] = entry
    counts = census(workload.scale)
    config = {
        "pipeline": workload.pipeline,
        "seed": seed,
        "output_dir": "out",
        "datasets": {"test": "test.jsonl"},
        "backends": backends,
        "expected_counts": {
            "test": {
                "total": sum(counts.values()),
                **counts,
                "pairs": counts["negative_expression"] + counts["negative_image"],
            }
        },
    }
    path = root / "run.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


def generate(root: Path, workload: Workload, seed: int) -> dict[str, Any]:
    """Write the corpus for one workload and seed under ``root``; returns the expectations.

    An HTTP workload's config names the stub's port, so it is written later,
    with :func:`write_config`, once the stub listens.
    """
    shape = random.Random(f"{workload.name}/shape")
    tasks = build_tasks(shape, census(workload.scale))
    planner = Planner(shape, random.Random(f"{workload.name}/{seed}"), workload.pipeline)
    outcomes = {t.id: planner.plan(t) for t in tasks}

    root.mkdir(parents=True, exist_ok=True)
    with open(root / "test.jsonl", "w", encoding="utf-8") as handle:
        for task in tasks:
            handle.write(json.dumps(task.record(), ensure_ascii=False) + "\n")
    if workload.transport == "replay":
        _write_fixtures(root / "fixtures", planner.replies)
    else:
        _write_stub_table(root / "stub_table.json", planner.replies)
    if workload.transport == "replay":
        write_config(root, workload, seed)
    distinct = {role: 0 for role in planner.calls}
    for role, _, _ in planner.replies:
        distinct[role] += 1
    expected = expected_results(tasks, outcomes, planner.calls, distinct)
    expected.update(workload=workload.name, seed=seed, task_ids=[t.id for t in tasks])
    (root / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    generate(args.out, WORKLOADS[args.workload], args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
