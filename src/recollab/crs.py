"""Candidate region selection.

A specialist grounder proposes boxes for the full expression; after NMS
the top-k survivors become lettered options in a multiple-choice prompt,
optionally closed by a final None option for rejection. A selector model
answers with one letter. The same machinery exports instruction-tuning
samples that teach a model to pick among plausible boxes and to refuse,
under both ``CrsParams`` (the candidates) and ``TuningParams`` (the samples).
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .backends import BackendBundle
from .backends.types import BackendError, Grounder, check_prompt_template, match_option_label
from .datamodel import RecTask, TaskSet, image_ref
from .geometry import BBox, Detection, box_to_pixels, iou, nms
from .metrics import IOU_THRESHOLD
from .prediction import Pathway, Prediction

logger = logging.getLogger(__name__)

DEFAULT_K = 5
DEFAULT_NMS_THRESHOLD = 0.7
NONE_OPTION_TEXT = "None"
DEFAULT_QUESTION_TEMPLATE = 'Which option matches the expression "{expression}"?'
DEFAULT_REJECTION_INSTRUCTION = (
    'If no suitable option exists, please select the option corresponding to "None".'
)
DEFAULT_ANSWER_INSTRUCTION = "Answer with a single option letter."
# the None option is offered, at selection and in tuning samples, unless turned off
DEFAULT_INCLUDE_NONE = True
# options are lettered A to Z
MAX_OPTIONS = 26


def option_label(index: int) -> str:
    """Label for the option at ``index``: A, B, C, ..."""
    if not 0 <= index < MAX_OPTIONS:
        raise ValueError(f"option index out of range: {index}")
    return chr(ord("A") + index)


def check_option_letters(k: int, include_none: bool) -> None:
    """Refuse up to ``k`` candidates plus the None option when A-Z cannot letter them all."""
    if k + include_none > MAX_OPTIONS:
        raise ValueError(
            f"k={k} with include_none={include_none} needs "
            f"{k + include_none} option letters, more than the {MAX_OPTIONS} of A-Z"
        )


@dataclass(frozen=True)
class CandidateSet:
    """Post-NMS top-k detections, lettered in confidence order."""

    candidates: tuple[tuple[str, Detection], ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "candidates", tuple((label, det) for label, det in self.candidates)
        )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(self.candidates) > self.k:
            raise ValueError(f"{len(self.candidates)} candidates exceed k={self.k}")
        expected = [option_label(i) for i in range(len(self.candidates))]
        labels = [label for label, _ in self.candidates]
        if labels != expected:
            raise ValueError(f"labels must run consecutively from A, got {labels}")

    def __len__(self) -> int:
        return len(self.candidates)


def generate_candidates(
    dets: Sequence[Detection], k: int = DEFAULT_K, nms_thr: float = DEFAULT_NMS_THRESHOLD
) -> CandidateSet:
    """The k highest-confidence NMS survivors, lettered A, B, ... in that order.

    NMS stops at the k-th survivor: greedy suppression keeps a detection
    based only on the ones kept before it, so this equals running NMS over
    every detection and truncating to k, without ranking the rest.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kept = nms(dets, nms_thr, limit=k)
    return CandidateSet(
        candidates=tuple((option_label(i), det) for i, det in enumerate(kept)), k=k
    )


@dataclass(frozen=True)
class CrsParams:
    k: int = DEFAULT_K
    nms_threshold: float = DEFAULT_NMS_THRESHOLD
    include_none: bool = DEFAULT_INCLUDE_NONE
    question_template: str = DEFAULT_QUESTION_TEMPLATE
    rejection_instruction: str = DEFAULT_REJECTION_INSTRUCTION
    answer_instruction: str = DEFAULT_ANSWER_INSTRUCTION

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        check_option_letters(self.k, self.include_none)
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(f"nms threshold out of [0, 1]: {self.nms_threshold}")
        check_prompt_template(self.question_template, "expression")


@dataclass(frozen=True)
class TuningParams:
    """The tuning export's sample counts, its output file and whether it offers None."""

    positives: int = 10000
    negatives: int = 2500
    output: str = "tuning.jsonl"
    include_none: bool = DEFAULT_INCLUDE_NONE

    def __post_init__(self) -> None:
        if self.positives < 0 or self.negatives < 0:
            raise ValueError("tuning sample counts must be >= 0")
        if self.negatives > 0 and not self.include_none:
            raise ValueError("negative tuning samples require include_none")


@dataclass(frozen=True)
class ChoicePrompt:
    """Rendered multiple-choice prompt plus the label -> box mapping."""

    text: str
    option_map: Mapping[str, BBox]
    none_label: str | None = None

    @property
    def offered(self) -> tuple[str, ...]:
        labels = tuple(self.option_map)
        if self.none_label is not None:
            labels += (self.none_label,)
        return labels


def build_choice_prompt(
    expression: str, cs: CandidateSet, params: CrsParams = CrsParams()
) -> ChoicePrompt:
    """Render the expression and lettered box options, None always last."""
    if not cs.candidates and not params.include_none:
        raise ValueError("no options to offer: empty candidate set without a None option")
    lines = [params.question_template.format(expression=expression)]
    option_map: dict[str, BBox] = {}
    for label, det in cs.candidates:
        x0, y0, x1, y1 = box_to_pixels(det.box)
        lines.append(f"{label}. [[{x0}, {y0}, {x1}, {y1}]]")
        option_map[label] = det.box
    none_label = None
    if params.include_none:
        none_label = option_label(len(cs))
        lines.append(f"{none_label}. {NONE_OPTION_TEXT}")
        lines.append(params.rejection_instruction)
    lines.append(params.answer_instruction)
    return ChoicePrompt(text="\n".join(lines), option_map=option_map, none_label=none_label)


def parse_choice(raw: str, cp: ChoicePrompt) -> str | None:
    """Selector answer -> offered label, or None on unparseable output."""
    return match_option_label(raw, cp.offered)


def run_crs(task: RecTask, handles: BackendBundle, params: CrsParams = CrsParams()) -> Prediction:
    """Full candidate-selection pass for one task.

    Backend failures surface as miss predictions so a batch run skips the
    task and keeps going; a None answer is an explicit rejection, scored
    with confidence 0 so ranking metrics place it below every accepted box.
    """
    image = image_ref(task)
    try:
        grounding = handles.require("grounder").ground(image, task.expression)
        cs = generate_candidates(grounding.detections, k=params.k, nms_thr=params.nms_threshold)
        if not cs.candidates and not params.include_none:
            return Prediction.miss(task.id, Pathway.CRS, "no candidates survived")
        cp = build_choice_prompt(task.expression, cs, params)
        sel = handles.require("selector").select(image, cp.text, cp.offered)
    except BackendError as exc:
        return Prediction.backend_failure(task.id, Pathway.CRS, exc)

    # the selector resolved its answer against cp.offered; an unresolvable one raised
    raw = {"text": sel.raw_text, "label_prob": sel.label_prob, "label": sel.label}
    if sel.label == cp.none_label:
        return Prediction.miss(task.id, Pathway.CRS, "rejected via None option", raw=raw)
    return Prediction(
        task_id=task.id,
        box=cp.option_map[sel.label],
        confidence=sel.label_prob,
        pathway=Pathway.CRS,
        raw=raw,
    )


@dataclass(frozen=True)
class TuningSample:
    """One exported multiple-choice training record.

    Real options are pre-shuffled; the None option, when present, keeps
    the final letter. For positive-derived samples the answer letter's
    box overlaps ground truth (IoU > 0.5); negative-derived samples
    answer the None option.
    """

    image: str
    expression: str
    options: tuple[tuple[str, BBox | None], ...]
    answer: str

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.options]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate option labels: {labels}")
        if self.answer not in labels:
            raise ValueError(f"answer {self.answer!r} not among options {labels}")

    def answer_box(self) -> BBox | None:
        return dict(self.options)[self.answer]

    def to_dict(self) -> dict[str, Any]:
        return {
            "image": self.image,
            "expression": self.expression,
            "options": [
                {"label": label, "box": box.as_list() if box is not None else None}
                for label, box in self.options
            ],
            "answer": self.answer,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> TuningSample:
        options = tuple(
            (
                entry["label"],
                BBox.from_list(entry["box"]) if entry.get("box") is not None else None,
            )
            for entry in data["options"]
        )
        return cls(
            image=data["image"],
            expression=data["expression"],
            options=options,
            answer=data["answer"],
        )


def candidate_hit(cs: CandidateSet, gt: BBox) -> bool:
    """True when some candidate box beats the metrics' IoU bar against GT."""
    return any(iou(det.box, gt) > IOU_THRESHOLD for _, det in cs.candidates)


def _sample_rng(seed: int, task_id: str) -> random.Random:
    # string seeding hashes via sha512 inside Random, stable across processes
    return random.Random(f"{seed}:{task_id}")


def _build_sample(task: RecTask, cs: CandidateSet, seed: int, include_none: bool) -> TuningSample:
    boxes = [det.box for _, det in cs.candidates]
    _sample_rng(seed, task.id).shuffle(boxes)
    options: list[tuple[str, BBox | None]] = [
        (option_label(i), box) for i, box in enumerate(boxes)
    ]
    if include_none:
        options.append((option_label(len(boxes)), None))
    if task.is_positive:
        assert task.gt_box is not None
        answer = max(options[: len(boxes)], key=lambda item: iou(item[1], task.gt_box))[0]
    else:
        # negatives are exported only with the None option, which is last
        answer = options[-1][0]
    return TuningSample(
        image=task.image, expression=task.expression, options=tuple(options), answer=answer
    )


def export_tuning(
    ts: TaskSet,
    grounder: Grounder,
    params: CrsParams = CrsParams(),
    tuning: TuningParams = TuningParams(),
    *,
    seed: int = 0,
    failures: list[tuple[str, BackendError]],
) -> list[TuningSample]:
    """Export shuffled multiple-choice tuning records from a training split.

    Candidates follow ``params``, samples ``tuning``. Positives are kept
    only when some top-k candidate already overlaps the ground truth (the
    sample must be answerable); negatives teach rejection. Requested
    counts beyond the eligible pool shrink to it with a warning. Output is
    deterministic for a given seed: per-task shuffles are keyed by (seed,
    task id) and oversampling draws from file order with a seeded RNG.

    A task whose grounder call raises ``BackendError`` is skipped, and its
    id and error are appended to ``failures``.
    """
    check_option_letters(params.k, tuning.include_none)

    eligible: dict[str, tuple[RecTask, CandidateSet]] = {}
    pos_ids: list[str] = []
    neg_ids: list[str] = []
    for task in ts.tasks:
        try:
            grounding = grounder.ground(image_ref(task), task.expression)
        except BackendError as exc:
            failures.append((task.id, exc))
            continue
        cs = generate_candidates(grounding.detections, k=params.k, nms_thr=params.nms_threshold)
        if task.is_positive:
            if task.gt_box is not None and candidate_hit(cs, task.gt_box):
                eligible[task.id] = (task, cs)
                pos_ids.append(task.id)
        else:
            eligible[task.id] = (task, cs)
            neg_ids.append(task.id)

    chosen: list[str] = []
    want_pos, want_neg = tuning.positives, tuning.negatives
    for ids, want, kind in ((pos_ids, want_pos, "positive"), (neg_ids, want_neg, "negative")):
        if want > len(ids):
            logger.warning(
                "requested %d %s samples but only %d eligible; exporting all",
                want,
                kind,
                len(ids),
            )
            chosen.extend(ids)
        else:
            chosen.extend(_sample_rng(seed, f"select:{kind}").sample(ids, want))

    chosen_set = set(chosen)
    return [
        _build_sample(task, cs, seed, tuning.include_none)
        for task_id, (task, cs) in eligible.items()
        if task_id in chosen_set
    ]


def save_tuning(samples: Iterable[TuningSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample.to_dict(), ensure_ascii=False))
            handle.write("\n")


def load_tuning(path: str | Path) -> list[TuningSample]:
    samples = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                samples.append(TuningSample.from_dict(json.loads(line)))
    return samples
