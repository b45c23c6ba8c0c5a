"""Benchmark annotation schema: loading, validation, and negative pairing.

Annotation files are UTF-8 line-delimited JSON, one task per line. Boxes
are ``[x0, y0, x1, y1]`` pixel arrays. Unknown fields are preserved on the
task and written back on save, but are otherwise ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterator, Mapping

from .geometry import BBox

# Pixel size assumed for a task whose extras carry no width/height.
DEFAULT_IMAGE_SIZE = (1000, 1000)


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE_EXPRESSION = "negative_expression"
    NEGATIVE_IMAGE = "negative_image"


class Difficulty(str, Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


class NegEdit(str, Enum):
    REPLACE = "replace"
    SWAP = "swap"
    FLIP = "flip"


class NegFacet(str, Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"
    RELATION = "relation"


class NegLocus(str, Enum):
    L1 = "L1"
    L2 = "L2"


class DatasetError(Exception):
    """Malformed record or invariant violation, with file location context."""

    def __init__(self, message: str, *, line: int | None = None, task_id: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if task_id is not None:
            parts.append(f"task {task_id!r}")
        prefix = f"[{', '.join(parts)}] " if parts else ""
        super().__init__(prefix + message)
        self.line = line
        self.task_id = task_id


@dataclass(frozen=True)
class ImageRef:
    """Reference to an image by stable id; pixel size is needed to scale boxes."""

    image_id: str
    width: int
    height: int

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValueError("empty image id")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")


def image_ref(task: RecTask) -> ImageRef:
    """ImageRef for a task; pixel size comes from extras, else ``DEFAULT_IMAGE_SIZE``."""
    width = task.extras.get("width", DEFAULT_IMAGE_SIZE[0])
    height = task.extras.get("height", DEFAULT_IMAGE_SIZE[1])
    return ImageRef(image_id=task.image, width=int(width), height=int(height))


@dataclass(frozen=True)
class NegativeKind:
    """Taxonomy of a negative: edit kind x facet x locus.

    Locus L1 marks an edit on the target itself, L2 an edit on another
    object in the expression. Flip edits only occur on negative images.
    """

    edit: NegEdit
    facet: NegFacet
    locus: NegLocus

    def to_dict(self) -> dict[str, str]:
        return {"edit": self.edit.value, "facet": self.facet.value, "locus": self.locus.value}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> NegativeKind:
        return cls(
            edit=NegEdit(data["edit"]),
            facet=NegFacet(data["facet"]),
            locus=NegLocus(data["locus"]),
        )

    def key(self) -> str:
        return f"{self.edit.value}.{self.facet.value}.{self.locus.value}"


@dataclass(frozen=True)
class RecTask:
    """One benchmark item: an image, an expression, and its ground truth.

    Positive tasks carry ``gt_box``; negatives instead reference the id of
    the positive they were derived from.
    """

    id: str
    image: str
    expression: str
    polarity: Polarity
    difficulty: Difficulty | None = None
    negative_kind: NegativeKind | None = None
    gt_box: BBox | None = None
    paired_positive: str | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise DatasetError("empty task id")
        if not self.image:
            raise DatasetError("empty image", task_id=self.id)
        if not self.expression:
            raise DatasetError("empty expression", task_id=self.id)
        for key in ("width", "height"):
            value = self.extras.get(key)
            if key in self.extras and (type(value) is not int or value < 1):
                raise DatasetError(
                    f"{key} must be a positive integer, got {value!r}", task_id=self.id
                )
        positive = self.polarity is Polarity.POSITIVE
        if positive != (self.gt_box is not None):
            raise DatasetError(
                "gt_box must be present exactly on positive tasks", task_id=self.id
            )
        if positive == (self.paired_positive is not None):
            raise DatasetError(
                "paired_positive must be present exactly on non-positive tasks",
                task_id=self.id,
            )
        if positive == (self.negative_kind is not None):
            raise DatasetError(
                "negative_kind must be present exactly on non-positive tasks",
                task_id=self.id,
            )
        if (
            self.negative_kind is not None
            and self.negative_kind.edit is NegEdit.FLIP
            and self.polarity is not Polarity.NEGATIVE_IMAGE
        ):
            raise DatasetError("flip edits only occur on negative images", task_id=self.id)

    @property
    def is_positive(self) -> bool:
        return self.polarity is Polarity.POSITIVE


@dataclass(frozen=True)
class TaskSet:
    """An immutable, id-indexed collection of tasks for one split."""

    split: Split
    tasks: tuple[RecTask, ...]
    _by_id: Mapping[str, RecTask] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def build(cls, split: Split, tasks: list[RecTask] | tuple[RecTask, ...]) -> TaskSet:
        by_id: dict[str, RecTask] = {}
        for task in tasks:
            if task.id in by_id:
                raise DatasetError("duplicate task id", task_id=task.id)
            by_id[task.id] = task
        for task in tasks:
            if task.paired_positive is None:
                continue
            ref = by_id.get(task.paired_positive)
            if ref is None:
                raise DatasetError(
                    f"paired_positive {task.paired_positive!r} does not resolve",
                    task_id=task.id,
                )
            if not ref.is_positive:
                raise DatasetError(
                    f"paired_positive {task.paired_positive!r} is not a positive task",
                    task_id=task.id,
                )
        return cls(split=split, tasks=tuple(tasks), _by_id=by_id)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[RecTask]:
        return iter(self.tasks)

    def get(self, task_id: str) -> RecTask:
        return self._by_id[task_id]

    def positives(self) -> list[RecTask]:
        return [t for t in self.tasks if t.is_positive]

    def negatives(self) -> list[RecTask]:
        return [t for t in self.tasks if not t.is_positive]


@dataclass(frozen=True)
class EvalPair:
    """A negative task paired with the positive it was derived from."""

    positive: RecTask
    negative: RecTask

    def __post_init__(self) -> None:
        if not self.positive.is_positive:
            raise DatasetError("pair positive member is not positive", task_id=self.positive.id)
        if self.negative.paired_positive != self.positive.id:
            raise DatasetError(
                f"negative does not reference positive {self.positive.id!r}",
                task_id=self.negative.id,
            )


_FIELD_ORDER = (
    "id",
    "image",
    "expression",
    "polarity",
    "difficulty",
    "negative_kind",
    "gt_box",
    "paired_positive",
)


def task_to_record(task: RecTask) -> dict[str, Any]:
    """Canonical JSON record for a task: fixed field order, extras last."""
    record: dict[str, Any] = {
        "id": task.id,
        "image": task.image,
        "expression": task.expression,
        "polarity": task.polarity.value,
    }
    if task.difficulty is not None:
        record["difficulty"] = task.difficulty.value
    if task.negative_kind is not None:
        record["negative_kind"] = task.negative_kind.to_dict()
    if task.gt_box is not None:
        record["gt_box"] = task.gt_box.as_list()
    if task.paired_positive is not None:
        record["paired_positive"] = task.paired_positive
    for key in sorted(task.extras):
        if key not in _FIELD_ORDER:
            record[key] = task.extras[key]
    return record


def record_to_task(record: Mapping[str, Any], *, line: int | None = None) -> RecTask:
    """Parse and invariant-check one JSON record."""
    try:
        task_id = record["id"]
        image = record["image"]
        expression = record["expression"]
        polarity = Polarity(record["polarity"])
    except KeyError as exc:
        raise DatasetError(f"missing required field {exc.args[0]!r}", line=line) from exc
    except ValueError as exc:
        raise DatasetError(f"bad polarity: {exc}", line=line) from exc

    difficulty = None
    if record.get("difficulty") is not None:
        try:
            difficulty = Difficulty(record["difficulty"])
        except ValueError as exc:
            raise DatasetError(f"bad difficulty: {exc}", line=line, task_id=task_id) from exc

    negative_kind = None
    if record.get("negative_kind") is not None:
        try:
            negative_kind = NegativeKind.from_dict(record["negative_kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"bad negative_kind: {exc}", line=line, task_id=task_id) from exc

    gt_box = None
    if record.get("gt_box") is not None:
        try:
            gt_box = BBox.from_list(record["gt_box"])
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"bad gt_box: {exc}", line=line, task_id=task_id) from exc

    extras = {k: v for k, v in record.items() if k not in _FIELD_ORDER}
    try:
        return RecTask(
            id=task_id,
            image=image,
            expression=expression,
            polarity=polarity,
            difficulty=difficulty,
            negative_kind=negative_kind,
            gt_box=gt_box,
            paired_positive=record.get("paired_positive"),
            extras=extras,
        )
    except DatasetError as exc:
        if line is not None and exc.line is None:
            raise DatasetError(str(exc), line=line) from exc
        raise


def load_taskset(path: str | Path, split: Split | str) -> TaskSet:
    """Load a line-delimited annotation file into an invariant-checked TaskSet."""
    split = Split(split)
    tasks: list[RecTask] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"malformed JSON: {exc.msg}", line=line_no) from exc
            if not isinstance(record, dict):
                raise DatasetError("record is not a JSON object", line=line_no)
            tasks.append(record_to_task(record, line=line_no))
    return TaskSet.build(split, tasks)


def save_taskset(ts: TaskSet, path: str | Path) -> None:
    """Write a TaskSet in canonical form (stable across save/load cycles)."""
    with open(path, "w", encoding="utf-8") as handle:
        for task in ts.tasks:
            handle.write(json.dumps(task_to_record(task), ensure_ascii=False))
            handle.write("\n")


@dataclass(frozen=True)
class CountCheck:
    key: str
    expected: int
    actual: int

    @property
    def delta(self) -> int:
        return self.actual - self.expected

    @property
    def ok(self) -> bool:
        return self.delta == 0


@dataclass(frozen=True)
class StatsReport:
    """Dataset census with an optional pass/fail check against expected counts."""

    split: Split
    total: int
    by_polarity: Mapping[str, int]
    by_difficulty: Mapping[str, int]
    checks: tuple[CountCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "split": self.split.value,
            "total": self.total,
            "by_polarity": dict(self.by_polarity),
            "by_difficulty": dict(self.by_difficulty),
            "checks": [
                {
                    "key": c.key,
                    "expected": c.expected,
                    "actual": c.actual,
                    "delta": c.delta,
                    "ok": c.ok,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [f"split: {self.split.value}  total: {self.total}"]
        lines.append("  by polarity:")
        for key, count in self.by_polarity.items():
            lines.append(f"    {key:<22} {count:>8}")
        lines.append("  by difficulty:")
        for key, count in self.by_difficulty.items():
            lines.append(f"    {key:<22} {count:>8}")
        if self.checks:
            lines.append("  expected-count checks:")
            for c in self.checks:
                status = "ok" if c.ok else f"FAIL (delta {c.delta:+d})"
                lines.append(
                    f"    {c.key:<22} expected {c.expected:>8}  actual {c.actual:>8}  {status}"
                )
            lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate_counts(ts: TaskSet, expected: Mapping[str, int] | None = None) -> StatsReport:
    """Census the TaskSet; mismatches against ``expected`` are reported, not raised.

    ``expected`` maps count keys (polarity values, ``total``, ``pairs``,
    or ``difficulty.L1`` style keys) to expected values.
    """
    by_polarity = {p.value: 0 for p in Polarity}
    for task in ts.tasks:
        by_polarity[task.polarity.value] += 1
    by_difficulty: dict[str, int] = {d.value: 0 for d in Difficulty}
    by_difficulty["unlabeled"] = 0
    for task in ts.tasks:
        key = task.difficulty.value if task.difficulty is not None else "unlabeled"
        by_difficulty[key] += 1

    # pairing is total on non-positives, so the pair count is their count
    actuals: dict[str, int] = {"total": len(ts), "pairs": len(ts.negatives())}
    actuals.update(by_polarity)
    actuals.update({f"difficulty.{k}": v for k, v in by_difficulty.items()})

    checks = []
    if expected:
        for key in sorted(expected):
            checks.append(
                CountCheck(key=key, expected=int(expected[key]), actual=actuals.get(key, 0))
            )
    return StatsReport(
        split=ts.split,
        total=len(ts),
        by_polarity=by_polarity,
        by_difficulty=by_difficulty,
        checks=tuple(checks),
    )


def pair_negatives(ts: TaskSet) -> list[EvalPair]:
    """One pair per non-positive task, in file order."""
    return [
        EvalPair(positive=ts.get(task.paired_positive), negative=task)
        for task in ts.tasks
        if not task.is_positive
    ]
