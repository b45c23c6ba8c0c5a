"""Per-task pipeline outputs: routing decisions and predictions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from .geometry import BBox

# Note prefix marking a task whose backend call failed; the runner counts
# these to set the exit status.
FAILURE_NOTE_PREFIX = "backend failure"


class Pathway(str, Enum):
    FAST = "fast"
    SLOW = "slow"
    CRS = "crs"


class RouteLevel(str, Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of difficulty assessment for one task.

    ``detection_count`` is the number of detections at or above the
    confidence threshold; exactly one detection routes fast, anything
    else routes slow.
    """

    level: RouteLevel
    detection_count: int
    target: str
    threshold_used: float

    def __post_init__(self) -> None:
        if self.detection_count < 0:
            raise ValueError("detection_count must be >= 0")
        if not 0.0 <= self.threshold_used <= 1.0:
            raise ValueError(f"threshold {self.threshold_used} outside [0, 1]")
        expected = RouteLevel.FAST if self.detection_count == 1 else RouteLevel.SLOW
        if self.level is not expected:
            raise ValueError(
                f"level {self.level.value} inconsistent with "
                f"detection_count {self.detection_count}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level.value,
            "detection_count": self.detection_count,
            "target": self.target,
            "threshold_used": self.threshold_used,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RouteDecision:
        return cls(
            level=RouteLevel(data["level"]),
            detection_count=int(data["detection_count"]),
            target=data["target"],
            threshold_used=float(data["threshold_used"]),
        )


@dataclass(frozen=True)
class Prediction:
    """A pipeline's answer for one task.

    A missing box is a rejection (or a failed task, see ``note``).
    Confidence 0 is reserved for exactly those cases: a present box must
    carry a nonzero confidence.
    """

    task_id: str
    box: BBox | None
    confidence: float
    pathway: Pathway
    decision: RouteDecision | None = None
    raw: Any = None
    note: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.box is not None and self.confidence == 0.0:
            raise ValueError("a present box requires a nonzero confidence")

    @property
    def rejected(self) -> bool:
        return self.box is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "box": self.box.as_list() if self.box is not None else None,
            "confidence": self.confidence,
            "pathway": self.pathway.value,
            "decision": self.decision.to_dict() if self.decision else None,
            "raw": self.raw,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Prediction:
        box = data.get("box")
        decision = data.get("decision")
        return cls(
            task_id=data["task_id"],
            box=BBox.from_list(box) if box is not None else None,
            confidence=float(data["confidence"]),
            pathway=Pathway(data["pathway"]),
            decision=RouteDecision.from_dict(decision) if decision else None,
            raw=data.get("raw"),
            note=data.get("note"),
        )
