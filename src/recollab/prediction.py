"""Per-task pipeline outputs: routing decisions and prediction records.

A ``Prediction`` is the one record every pipeline writes per task and
every metric reads: the chosen box (absent for a rejection or a failed
task), its confidence, the pathway, and every box the model would offer,
best first. Misses and backend failures are built here, so the note that
marks a failed task has one spelling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .geometry import BBox

logger = logging.getLogger(__name__)

# Note prefix marking a task whose backend call failed; the runner counts
# these to set the exit status.
FAILURE_NOTE_PREFIX = "backend failure"


class Pathway(str, Enum):
    FAST = "fast"
    SLOW = "slow"
    CRS = "crs"


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """Outcome of difficulty assessment for one task.

    ``detection_count`` is the number of detections at or above the
    confidence threshold; exactly one detection routes fast, anything
    else routes slow.
    """

    detection_count: int
    target: str
    threshold_used: float

    def __post_init__(self) -> None:
        if type(self.target) is not str:
            raise TypeError(f"target must be a string, got {self.target!r}")
        if self.detection_count < 0:
            raise ValueError("detection_count must be >= 0")
        if not 0.0 <= self.threshold_used <= 1.0:
            raise ValueError(f"threshold {self.threshold_used} outside [0, 1]")

    @property
    def level(self) -> Pathway:
        return Pathway.FAST if self.detection_count == 1 else Pathway.SLOW

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level.value,
            "detection_count": self.detection_count,
            "target": self.target,
            "threshold_used": self.threshold_used,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RouteDecision:
        """Inverse of ``to_dict``; a ``level`` that contradicts the count is refused."""
        decision = cls(
            detection_count=int(data["detection_count"]),
            target=data["target"],
            threshold_used=float(data["threshold_used"]),
        )
        if data["level"] != decision.level.value:
            raise ValueError(
                f"level {data['level']} inconsistent with "
                f"detection_count {decision.detection_count}"
            )
        return decision


@dataclass(frozen=True, slots=True)
class Prediction:
    """A pipeline's answer for one task.

    A missing box is a rejection (or a failed task, see ``failed``).
    Confidence 0 is reserved for exactly those cases: a present box must
    carry a nonzero confidence. ``ranked_boxes`` lists every box the model
    would offer, confidence non-increasing; it defaults to the one chosen
    box, or to none for a rejection. Box-regression baselines pass their
    full ranked list.
    """

    task_id: str
    box: BBox | None
    confidence: float
    pathway: Pathway
    decision: RouteDecision | None = None
    raw: Any = None
    note: str | None = None
    ranked_boxes: tuple[tuple[BBox, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.note is not None and type(self.note) is not str:
            raise TypeError(f"note must be a string, got {self.note!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.box is not None and self.confidence == 0.0:
            raise ValueError("a present box requires a nonzero confidence")
        if self.ranked_boxes is None:
            ranked = () if self.box is None else ((self.box, float(self.confidence)),)
        else:
            ranked = tuple((box, float(conf)) for box, conf in self.ranked_boxes)
            confs = [conf for _, conf in ranked]
            if any(a < b for a, b in zip(confs, confs[1:])):
                raise ValueError("ranked_boxes confidences must be non-increasing")
        object.__setattr__(self, "ranked_boxes", ranked)

    @classmethod
    def miss(
        cls,
        task_id: str,
        pathway: Pathway,
        note: str,
        *,
        decision: RouteDecision | None = None,
        raw: Any = None,
    ) -> Prediction:
        """A box-less answer: confidence 0, no ranked boxes, ``note`` says why."""
        return cls(task_id, None, 0.0, pathway, decision=decision, raw=raw, note=note)

    @classmethod
    def backend_failure(
        cls,
        task_id: str,
        pathway: Pathway,
        exc: Exception,
        decision: RouteDecision | None = None,
    ) -> Prediction:
        """A miss for a task whose backend call raised; logged as a warning."""
        logger.warning("backend failure on task %s (%s pathway): %s", task_id, pathway.value, exc)
        return cls.miss(task_id, pathway, f"{FAILURE_NOTE_PREFIX}: {exc}", decision=decision)

    @property
    def failed(self) -> bool:
        """True for a task whose backend call failed."""
        return (self.note or "").startswith(FAILURE_NOTE_PREFIX)

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "box": self.box.as_list() if self.box is not None else None,
            "confidence": self.confidence,
            "pathway": self.pathway.value,
            "decision": self.decision.to_dict() if self.decision else None,
            "raw": self.raw,
            "note": self.note,
            "ranked_boxes": [
                {"box": box.as_list(), "confidence": conf} for box, conf in self.ranked_boxes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Prediction:
        """Inverse of ``to_dict``. A line without a ``ranked_boxes`` key gets
        the default, the chosen box alone, as a constructed record does."""
        box = data.get("box")
        decision = data.get("decision")
        entries = data.get("ranked_boxes")
        ranked = None
        if entries is not None:
            ranked = tuple(
                (BBox.from_list(entry["box"]), float(entry["confidence"])) for entry in entries
            )
        if box is None:
            chosen = None
        elif ranked and entries[0]["box"] == box:
            # the chosen box is almost always the top ranked one: build it once
            chosen = ranked[0][0]
        else:
            chosen = BBox.from_list(box)
        return cls(
            task_id=data["task_id"],
            box=chosen,
            confidence=float(data["confidence"]),
            pathway=Pathway(data["pathway"]),
            decision=RouteDecision.from_dict(decision) if decision else None,
            raw=data.get("raw"),
            note=data.get("note"),
            ranked_boxes=ranked,
        )
