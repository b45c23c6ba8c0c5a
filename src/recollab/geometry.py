"""Bounding-box arithmetic shared by every pipeline: IoU and greedy NMS.

Coordinates are absolute pixels, origin top-left, x to the right, y down.
Backends that speak a normalized convention convert at their own boundary
so everything in here stays in one unit.

``BBox``, ``TokenSpanScore`` and ``Detection`` are immutable named tuples
that validate themselves when built, also through ``_make`` and
``_replace``: replies carry them by the thousand, and a named tuple is
built faster than a frozen dataclass.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Iterable, NamedTuple, Sequence

_INF = math.inf
_COORDS = ("x0", "y0", "x1", "y1")


class _Box(NamedTuple):
    x0: float
    y0: float
    x1: float
    y1: float


class BBox(_Box):
    """Axis-aligned rectangle ``(x0, y0, x1, y1)`` with ``x0 <= x1, y0 <= y1``.

    An immutable, validated named tuple of four floats: an int coordinate
    is stored as a float. Degenerate zero-area boxes are allowed; negative
    extent and non-finite coordinates are rejected at construction, and by
    ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, x0: float, y0: float, x1: float, y1: float) -> BBox:
        # Fast path: four floats, finite and ordered, checked in one pass (a
        # NaN fails every comparison). Anything else takes the loop below,
        # which converts ints and raises on bad values.
        if (
            type(x0) is float
            and type(y0) is float
            and type(x1) is float
            and type(y1) is float
            and -_INF < x0 <= x1 < _INF
            and -_INF < y0 <= y1 < _INF
        ):
            return tuple.__new__(cls, (x0, y0, x1, y1))
        coords = []
        for name, value in zip(_COORDS, (x0, y0, x1, y1)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            coords.append(float(value))
        x0, y0, x1, y1 = coords
        if x1 < x0 or y1 < y0:
            raise ValueError(f"negative extent: ({x0}, {y0}, {x1}, {y1})")
        return tuple.__new__(cls, coords)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> BBox:
        return cls(*iterable)

    def as_list(self) -> list[float]:
        return list(self)

    @classmethod
    def from_list(cls, coords: list[float] | tuple[float, ...]) -> BBox:
        if len(coords) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(coords)}")
        return cls(*coords)


class _TokenSpan(NamedTuple):
    start: int
    end: int
    score: float


class TokenSpanScore(_TokenSpan):
    """Similarity score for one token, as a character span into the query.

    An immutable, validated ``(start, end, score)`` named tuple: a grounder
    reply carries one per token per proposal, so it is built without the
    cost of a frozen dataclass. ``_make`` and ``_replace`` validate too. As
    a tuple it equals a plain ``(start, end, score)`` with the same values.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, score: float) -> TokenSpanScore:
        if start < 0 or end <= start:
            raise ValueError(f"bad token span ({start}, {end})")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"token score {score} outside [0, 1]")
        return tuple.__new__(cls, (start, end, score))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> TokenSpanScore:
        return cls(*iterable)

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


class _Detection(NamedTuple):
    box: BBox
    score: float
    token_scores: tuple[TokenSpanScore, ...]


class Detection(_Detection):
    """A box with a confidence score and optional per-token match scores.

    An immutable, validated named tuple; ``_make`` and ``_replace`` validate
    too. ``token_scores`` is stored as a tuple, of spans that do not overlap.
    """

    __slots__ = ()

    def __new__(
        cls, box: BBox, score: float, token_scores: Iterable[TokenSpanScore] = ()
    ) -> Detection:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"detection score {score} outside [0, 1]")
        if type(token_scores) is not tuple:
            token_scores = tuple(token_scores)
        if len(token_scores) > 1:
            spans = sorted(token_scores, key=attrgetter("start"))
            for prev, cur in zip(spans, spans[1:]):
                if cur.start < prev.end:
                    raise ValueError(
                        f"overlapping token spans ({prev.start}, {prev.end}) "
                        f"and ({cur.start}, {cur.end})"
                    )
        return tuple.__new__(cls, (box, score, token_scores))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Detection:
        return cls(*iterable)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = (ax1 if ax1 < bx1 else bx1) - (ax0 if ax0 > bx0 else bx0)
    ih = (ay1 if ay1 < by1 else by1) - (ay0 if ay0 > by0 else by0)
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def nms(
    dets: Sequence[Detection], iou_threshold: float, limit: int | None = None
) -> list[Detection]:
    """Greedy non-maximum suppression, class-agnostic.

    Detections are ranked by score descending (ties broken by input index);
    each kept detection suppresses every later one whose IoU with it exceeds
    ``iou_threshold``. The output preserves the keep order.

    ``limit`` stops the pass at that many survivors. Whether a detection is
    kept depends only on the detections kept before it, so the survivors
    found so far never change and ``nms(d, t, limit=k) == nms(d, t)[:k]``
    exactly; the rest of the ranking is never compared. ``None`` keeps all.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside [0, 1]")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    kept: list[Detection] = []
    # sorted() is stable, also with reverse=True: equal scores keep input order
    for det in sorted(dets, key=attrgetter("score"), reverse=True):
        box = det.box
        for survivor in kept:
            if not iou(box, survivor.box) <= iou_threshold:
                break
        else:
            kept.append(det)
            if len(kept) == limit:
                break
    return kept


def round_half_up(value: float) -> int:
    """Round to the nearest integer, with .5 going up."""
    return math.floor(value + 0.5)


def box_to_pixels(box: BBox) -> list[int]:
    """Integer pixel corners for rendering in prompts, rounded half-up."""
    return [round_half_up(v) for v in box]
