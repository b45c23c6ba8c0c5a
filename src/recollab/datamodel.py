"""Benchmark annotation schema: loading, validation, and negative pairing.

Annotation files are UTF-8 line-delimited JSON, one task per line. Boxes
are ``[x0, y0, x1, y1]`` pixel arrays. Unknown fields are preserved on the
task and written back on save, but are otherwise ignored. A ``RecTask``
is an immutable named tuple that checks its invariants when built, also
through ``_make`` and ``_replace``: a split holds tens of thousands, and a
named tuple is built at about half the cost of a frozen dataclass. A
task's ``extras`` is a read-only ``Extras`` mapping. Tasks loaded together
share one object per equal string, extras integer and negative kind, and
one ``Extras`` per distinct extras whose values are all integers or
strings, up to ``_SHARED_EXTRAS`` of them.
A task set is built one way, ``TaskSet(split, tasks)``, which indexes and
checks its tasks. ``validate_counts`` censuses a task set as the plain
dict ``validation.json`` holds for its split, and ``render_census``
renders that dict as ``validate`` prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

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


@dataclass(frozen=True, slots=True)
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


class Extras(dict):
    """A task's extra fields: a dict that refuses every change.

    A task's extras can be one object shared by every task with equal
    extras, so none may change them. Pickling and copying make a new one.
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a task's extras are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self) -> tuple[type[Extras], tuple[dict[str, Any]]]:
        return Extras, (dict(self),)


class _RecTask(NamedTuple):
    id: str
    image: str
    expression: str
    polarity: Polarity
    difficulty: Difficulty | None
    negative_kind: NegativeKind | None
    gt_box: BBox | None
    paired_positive: str | None
    extras: Extras


class RecTask(_RecTask):
    """One benchmark item: an image, an expression, and its ground truth.

    Positive tasks carry ``gt_box``; negatives instead reference the id of
    the positive they were derived from. An immutable named tuple that
    checks these invariants when built, also through ``_make`` and
    ``_replace``. ``extras`` is held as an ``Extras``: any other mapping is
    copied into a new one, and no extras make a new empty one.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        image: str,
        expression: str,
        polarity: Polarity,
        difficulty: Difficulty | None = None,
        negative_kind: NegativeKind | None = None,
        gt_box: BBox | None = None,
        paired_positive: str | None = None,
        extras: Mapping[str, Any] | None = None,
    ) -> RecTask:
        if type(extras) is not Extras:
            extras = Extras() if extras is None else Extras(extras)
        if type(id) is not str:
            raise DatasetError(f"id must be a string, got {id!r}")
        if type(image) is not str:
            raise DatasetError(f"image must be a string, got {image!r}", task_id=id)
        if type(expression) is not str:
            raise DatasetError(f"expression must be a string, got {expression!r}", task_id=id)
        if paired_positive is not None and type(paired_positive) is not str:
            raise DatasetError(
                f"paired_positive must be a string, got {paired_positive!r}", task_id=id
            )
        if not id:
            raise DatasetError("empty task id")
        if not image:
            raise DatasetError("empty image", task_id=id)
        if not expression:
            raise DatasetError("empty expression", task_id=id)
        for key in ("width", "height"):
            value = extras.get(key, 1)  # an absent size is not checked
            if type(value) is not int or value < 1:
                raise DatasetError(f"{key} must be a positive integer, got {value!r}", task_id=id)
        positive = polarity is Polarity.POSITIVE
        if positive != (gt_box is not None):
            raise DatasetError("gt_box must be present exactly on positive tasks", task_id=id)
        if positive == (paired_positive is not None):
            raise DatasetError(
                "paired_positive must be present exactly on non-positive tasks", task_id=id
            )
        if positive == (negative_kind is not None):
            raise DatasetError(
                "negative_kind must be present exactly on non-positive tasks", task_id=id
            )
        if (
            negative_kind is not None
            and negative_kind.edit is NegEdit.FLIP
            and polarity is not Polarity.NEGATIVE_IMAGE
        ):
            raise DatasetError("flip edits only occur on negative images", task_id=id)
        return tuple.__new__(
            cls,
            (id, image, expression, polarity, difficulty, negative_kind, gt_box, paired_positive,
             extras),
        )

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> RecTask:
        return cls(*iterable)

    @property
    def is_positive(self) -> bool:
        return self.polarity is Polarity.POSITIVE


class TaskSet:
    """The tasks of one split, indexed by id.

    Building one refuses a duplicate id, and a ``paired_positive`` that
    names no positive task of the set.
    """

    def __init__(self, split: Split | str, tasks: Iterable[RecTask]) -> None:
        self.split = Split(split)
        self.tasks = tuple(tasks)
        self._by_id = by_id = {task.id: task for task in self.tasks}
        if len(by_id) != len(self.tasks):  # some id repeats: name the first repeat
            seen = set()
            for task in self.tasks:
                if task.id in seen:
                    raise DatasetError("duplicate task id", task_id=task.id)
                seen.add(task.id)
        for task in self.tasks:
            if task.paired_positive is None:
                continue
            ref = by_id.get(task.paired_positive)
            if ref is None:
                raise DatasetError(
                    f"paired_positive {task.paired_positive!r} does not resolve",
                    task_id=task.id,
                )
            if ref.polarity is not Polarity.POSITIVE:
                raise DatasetError(
                    f"paired_positive {task.paired_positive!r} is not a positive task",
                    task_id=task.id,
                )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[RecTask]:
        return iter(self.tasks)

    def get(self, task_id: str) -> RecTask | None:
        """The task with ``task_id``, or None if the split has none."""
        return self._by_id.get(task_id)

    def positives(self) -> list[RecTask]:
        return [t for t in self.tasks if t.is_positive]

    def negatives(self) -> list[RecTask]:
        return [t for t in self.tasks if not t.is_positive]


@dataclass(frozen=True, slots=True)
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


# the keys a task's own fields are read from; every other key is an extra
_FIELDS = frozenset(_RecTask._fields) - {"extras"}
# the most distinct extras one load shares: where extras seldom repeat, its table
# stays this small instead of holding a key for every task
_SHARED_EXTRAS = 1024


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
        if key not in _FIELDS:
            record[key] = task.extras[key]
    return record


def _member(enum: type[Enum], value: Any) -> Any:
    """``enum(value)``, found in its value map; a value outside it goes to ``enum`` to raise."""
    try:
        return enum._value2member_map_[value]
    except (KeyError, TypeError):
        return enum(value)


def _negative_kind(data: Any, kinds: dict) -> NegativeKind:
    """The one ``NegativeKind`` in ``kinds`` for ``data``; only a new or bad kind is parsed."""
    try:
        return kinds[data["edit"], data["facet"], data["locus"]]
    except (KeyError, TypeError):
        kind = NegativeKind.from_dict(data)
        return kinds.setdefault((kind.edit.value, kind.facet.value, kind.locus.value), kind)


def record_to_task(
    record: Mapping[str, Any], *, line: int | None = None, shared: dict | None = None
) -> RecTask:
    """Parse and invariant-check one JSON record; a value ``shared`` holds is taken from it."""
    # a table per type of value (str, int, NegativeKind, Extras): only string keys keep a
    # dict in its compact layout
    shared = {} if shared is None else shared
    share = shared.setdefault(str, {}).setdefault
    try:
        task_id = record["id"]
        image = record["image"]
        expression = record["expression"]
        polarity = _member(Polarity, record["polarity"])
    except KeyError as exc:
        raise DatasetError(f"missing required field {exc.args[0]!r}", line=line) from exc
    except ValueError as exc:
        raise DatasetError(f"bad polarity: {exc}", line=line) from exc

    difficulty = record.get("difficulty")
    if difficulty is not None:
        try:
            difficulty = _member(Difficulty, difficulty)
        except ValueError as exc:
            raise DatasetError(f"bad difficulty: {exc}", line=line, task_id=task_id) from exc

    negative_kind = record.get("negative_kind")
    if negative_kind is not None:
        try:
            negative_kind = _negative_kind(negative_kind, shared.setdefault(NegativeKind, {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"bad negative_kind: {exc}", line=line, task_id=task_id) from exc

    gt_box = record.get("gt_box")
    if gt_box is not None:
        try:
            gt_box = BBox.from_list(gt_box)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"bad gt_box: {exc}", line=line, task_id=task_id) from exc

    paired_positive = record.get("paired_positive")
    try:
        task_id, image = share(task_id, task_id), share(image, image)
        expression = share(expression, expression)
        if paired_positive is not None:
            paired_positive = share(paired_positive, paired_positive)
    except TypeError:
        pass  # an unhashable value is kept as it is, for RecTask to refuse
    share_int = shared.setdefault(int, {}).setdefault
    items = []
    exact = True  # only exact ints and strings: 1, 1.0 and True are equal, but not alike
    for key, value in record.items():
        if key not in _FIELDS:
            if type(value) is int:
                value = share_int(value, value)
            elif type(value) is not str:
                exact = False
            items.append((share(key, key), value))
    # one Extras per distinct ordered items
    items = tuple(items)
    by_items = shared.setdefault(Extras, {})
    extras = by_items.get(items) if exact else None
    if extras is None:
        extras = Extras(items)
        if exact and len(by_items) < _SHARED_EXTRAS:
            by_items[items] = extras
    try:
        return RecTask(
            task_id,
            image,
            expression,
            polarity,
            difficulty,
            negative_kind,
            gt_box,
            paired_positive,
            extras,
        )
    except DatasetError as exc:
        if line is not None and exc.line is None:
            raise DatasetError(str(exc), line=line) from exc
        raise


# one decoder for every line; ``raw_decode`` skips ``json.loads``'s type, BOM and whitespace scans
_decode = json.JSONDecoder().raw_decode


def load_taskset(path: str | Path, split: Split | str) -> TaskSet:
    """Load a line-delimited annotation file into an invariant-checked TaskSet."""
    # the tasks are read straight into the set, whose index is built after the
    # reader and its table of shared values are gone
    return TaskSet(split, _read_tasks(path))


def _read_tasks(path: str | Path) -> Iterator[RecTask]:
    """The tasks of a line-delimited annotation file, in file order."""
    shared: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _decode(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"malformed JSON: {exc.msg}", line=line_no) from exc
            if end != len(line):
                raise DatasetError("malformed JSON: Extra data", line=line_no)
            if type(record) is not dict:
                raise DatasetError("record is not a JSON object", line=line_no)
            yield record_to_task(record, line=line_no, shared=shared)


def save_taskset(ts: TaskSet, path: str | Path) -> None:
    """Write a TaskSet in canonical form (stable across save/load cycles)."""
    with open(path, "w", encoding="utf-8") as handle:
        for task in ts.tasks:
            handle.write(json.dumps(task_to_record(task), ensure_ascii=False))
            handle.write("\n")


# the counts a census takes, which an expected count must name
COUNT_KEYS = (
    "total",
    "pairs",
    *(p.value for p in Polarity),
    *(f"difficulty.{d.value}" for d in Difficulty),
    "difficulty.unlabeled",
)


def validate_counts(ts: TaskSet, expected: Mapping[str, int] | None = None) -> dict[str, Any]:
    """Census the TaskSet as its ``validation.json`` entry; mismatches are reported, not raised.

    ``expected`` maps keys of ``COUNT_KEYS`` (``total``, ``pairs``, the
    polarity values and ``difficulty.L1`` style keys) to expected values;
    any other key raises ``KeyError``. The entry holds ``split``,
    ``total``, ``by_polarity``, ``by_difficulty``, one check ``{key,
    expected, actual, delta, ok}`` per expected key in key order, and
    ``passed``, which holds when every check is ok.
    """
    by_polarity = {p.value: 0 for p in Polarity}
    by_difficulty = {**{d.value: 0 for d in Difficulty}, "unlabeled": 0}
    for task in ts.tasks:
        by_polarity[task.polarity.value] += 1
        by_difficulty[task.difficulty.value if task.difficulty is not None else "unlabeled"] += 1

    # pairing is total on non-positives, so the pair count is their count
    actuals: dict[str, int] = {"total": len(ts), "pairs": len(ts.negatives())}
    actuals.update(by_polarity)
    actuals.update({f"difficulty.{k}": v for k, v in by_difficulty.items()})

    checks = []
    for key in sorted(expected or {}):
        want, actual = int(expected[key]), actuals[key]
        delta = actual - want
        checks.append(
            {"key": key, "expected": want, "actual": actual, "delta": delta, "ok": delta == 0}
        )
    return {
        "split": ts.split.value,
        "total": len(ts),
        "by_polarity": by_polarity,
        "by_difficulty": by_difficulty,
        "checks": checks,
        "passed": all(check["ok"] for check in checks),
    }


def render_census(census: Mapping[str, Any]) -> str:
    """Human-readable text of a ``validate_counts`` entry, as ``validate`` prints it."""
    lines = [f"split: {census['split']}  total: {census['total']}"]
    for name in ("polarity", "difficulty"):
        lines.append(f"  by {name}:")
        lines.extend(f"    {key:<22} {count:>8}" for key, count in census[f"by_{name}"].items())
    if census["checks"]:
        lines.append("  expected-count checks:")
        for c in census["checks"]:
            status = "ok" if c["ok"] else f"FAIL (delta {c['delta']:+d})"
            lines.append(
                f"    {c['key']:<22} expected {c['expected']:>8}  actual {c['actual']:>8}  {status}"
            )
        lines.append(f"  result: {'PASS' if census['passed'] else 'FAIL'}")
    return "\n".join(lines)


def pair_negatives(ts: TaskSet) -> list[EvalPair]:
    """One pair per non-positive task, in file order."""
    return [
        EvalPair(positive=ts.get(task.paired_positive), negative=task)
        for task in ts.tasks
        if not task.is_positive
    ]
