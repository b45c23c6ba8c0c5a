"""Bounding-box arithmetic shared by every pipeline: IoU and greedy NMS.

Coordinates are absolute pixels, origin top-left, x to the right, y down.
Backends that speak a normalized convention convert at their own boundary
so everything in here stays in one unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle ``(x0, y0, x1, y1)`` with ``x0 <= x1, y0 <= y1``.

    Degenerate zero-area boxes are allowed; negative extent and non-finite
    coordinates are rejected at construction.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(
                f"negative extent: ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]

    @classmethod
    def from_list(cls, coords: list[float] | tuple[float, ...]) -> BBox:
        if len(coords) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(coords)}")
        return cls(*coords)


@dataclass(frozen=True)
class TokenSpanScore:
    """Similarity score for one token, as a character span into the query."""

    start: int
    end: int
    score: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad token span ({self.start}, {self.end})")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"token score {self.score} outside [0, 1]")

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


@dataclass(frozen=True)
class Detection:
    """A box with a confidence score and optional per-token match scores."""

    box: BBox
    score: float
    token_scores: tuple[TokenSpanScore, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score {self.score} outside [0, 1]")
        object.__setattr__(self, "token_scores", tuple(self.token_scores))
        spans = sorted(self.token_scores, key=lambda t: t.start)
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"overlapping token spans ({prev.start}, {prev.end}) "
                    f"and ({cur.start}, {cur.end})"
                )


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    ix0 = max(a.x0, b.x0)
    iy0 = max(a.y0, b.y0)
    ix1 = min(a.x1, b.x1)
    iy1 = min(a.y1, b.y1)
    iw = ix1 - ix0
    ih = iy1 - iy0
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression, class-agnostic.

    Detections are ranked by score descending (ties broken by input index);
    each kept detection suppresses every later one whose IoU with it exceeds
    ``iou_threshold``. The output preserves the keep order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside [0, 1]")
    ranked = sorted(enumerate(dets), key=lambda item: (-item[1].score, item[0]))
    kept: list[Detection] = []
    for _, det in ranked:
        if all(iou(det.box, survivor.box) <= iou_threshold for survivor in kept):
            kept.append(det)
    return kept


def round_half_up(value: float) -> int:
    """Round to the nearest integer, with .5 going up."""
    return math.floor(value + 0.5)


def box_to_pixels(box: BBox) -> list[int]:
    """Integer pixel corners for rendering in prompts, rounded half-up."""
    return [round_half_up(v) for v in box.as_list()]
