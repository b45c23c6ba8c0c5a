"""Shared backend types: results, wire parsing, and the detector and grounder protocols.

Backends fill four roles. A target extractor names the referred object in
an expression. A detector proposes boxes for a named object class. A
grounder (specialist or generative) localizes a full expression. A
selector answers a multiple-choice prompt over candidate boxes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter
from string import Formatter
from typing import Any, Mapping, Protocol, Sequence

from ..datamodel import ImageRef
from ..geometry import BBox, Detection, TokenSpanScore


class BackendError(Exception):
    """Backend call failed after retries, or returned an unusable payload."""


class FixtureMissError(BackendError):
    """Replay store has no recording for the requested (role, image, query)."""


@dataclass(frozen=True)
class GroundingResult:
    """Detector or grounder output, its detections sorted by descending score when built."""

    detections: tuple[Detection, ...]
    query: str = ""

    def __post_init__(self) -> None:
        # a stable sort: equal scores keep the order given, also with reverse=True
        ordered = sorted(self.detections, key=attrgetter("score"), reverse=True)
        object.__setattr__(self, "detections", tuple(ordered))


@dataclass(frozen=True)
class GenerativeGrounding:
    """One autoregressive localization answer.

    ``box`` is absent when the reply contains no usable coordinates;
    ``malformed`` additionally marks replies that looked like coordinates
    but failed validation. A present box always carries the per-coordinate
    token probabilities it was decoded from.
    """

    raw_text: str
    box: BBox | None = None
    coordinate_token_probs: tuple[float, ...] = ()
    malformed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coordinate_token_probs", tuple(self.coordinate_token_probs)
        )
        for p in self.coordinate_token_probs:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"token probability out of (0, 1]: {p}")
        if self.box is not None and not self.coordinate_token_probs:
            raise ValueError("a present box requires coordinate token probabilities")


@dataclass(frozen=True)
class SelectionResult:
    """Selector answer: the chosen option label and its token probability."""

    label: str
    label_prob: float
    raw_text: str = ""
    offered: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.label_prob <= 1.0:
            raise ValueError(f"selection probability out of (0, 1]: {self.label_prob}")
        if self.offered and self.label not in self.offered:
            raise ValueError(f"label {self.label!r} not among offered {self.offered}")


class Detector(Protocol):
    def detect(self, image: ImageRef, class_name: str) -> GroundingResult: ...


class Grounder(Protocol):
    def ground(self, image: ImageRef, expression: str) -> GroundingResult: ...


_COORD_BOX = re.compile(
    r"\[\[\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*,"
    r"\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*\]\]"
)


def parse_coordinate_box(text: str) -> tuple[BBox | None, bool]:
    """Extract the first ``[[x0, y0, x1, y1]]`` group from generated text.

    Returns ``(box, malformed)``. ``malformed`` is True when a coordinate
    group is present but unusable (inverted corners, non-finite values);
    text with no coordinate group at all is not malformed, just boxless.
    """
    match = _COORD_BOX.search(text)
    if match is None:
        return None, False
    values = [float(g) for g in match.groups()]
    try:
        return BBox(*values), False
    except ValueError:
        return None, True


def derive_confidence(token_probs: Sequence[float]) -> float | None:
    """Geometric mean of coordinate token probabilities.

    The geometric mean keeps confidences comparable across answers decoded
    into different token counts. Returns None when there are no tokens.
    """
    probs = list(token_probs)
    if not probs:
        return None
    for p in probs:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"token probability out of (0, 1]: {p}")
    return math.exp(math.fsum(math.log(p) for p in probs) / len(probs))


def scale_box(box: BBox, *, from_size: tuple[int, int], to_size: tuple[int, int]) -> BBox:
    """Rescale box coordinates between coordinate spaces (e.g. 0-1000 grid)."""
    fw, fh = from_size
    tw, th = to_size
    if fw <= 0 or fh <= 0 or tw <= 0 or th <= 0:
        raise ValueError("coordinate space sizes must be positive")
    sx = tw / fw
    sy = th / fh
    return BBox(box.x0 * sx, box.y0 * sy, box.x1 * sx, box.y1 * sy)


def detections_from_payload(payload: Mapping[str, object], query: str = "") -> GroundingResult:
    """Build a GroundingResult from a decoded detection JSON payload.

    Expected shape: ``{"detections": [{"box": [x0,y0,x1,y1], "score": s,
    "token_scores": [{"start": i, "end": j, "score": s}, ...]}, ...]}``.
    Detections are re-sorted by descending score; ties keep payload order.
    Every entry is validated here, token scores included, so a bad payload
    fails at the call that returned it even when no caller reads that part.
    """
    raw = payload.get("detections")
    if not isinstance(raw, list):
        raise BackendError("detection payload missing 'detections' list")
    dets: list[Detection] = []
    # BBox.from_list and the token-score parse are inlined: this loop runs for
    # every proposal of every detector and grounder reply
    for entry in raw:
        if not isinstance(entry, dict):
            raise BackendError("detection entry is not an object")
        try:
            coords = entry["box"]
            if len(coords) != 4:
                raise ValueError(f"expected 4 coordinates, got {len(coords)}")
            box = BBox(*coords)
            score = float(entry["score"])
            tokens = []
            for tok in entry.get("token_scores", ()):
                if not isinstance(tok, dict):
                    raise ValueError("token score entry is not an object")
                tokens.append(
                    TokenSpanScore(int(tok["start"]), int(tok["end"]), float(tok["score"]))
                )
            dets.append(Detection(box, score, tuple(tokens)))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"bad detection entry: {exc}") from exc
    return GroundingResult(detections=tuple(dets), query=query)


def _probability(value: object, what: str) -> float:
    """``value`` as a probability in (0, 1]; anything else is a bad reply."""
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise BackendError(f"{what} is not a number: {value!r}") from None
    if not 0.0 < p <= 1.0:
        raise BackendError(f"{what} out of (0, 1]: {value!r}")
    return p


def grounding_from_payload(payload: Mapping[str, Any]) -> GenerativeGrounding:
    """Parse a generative reply payload into a GenerativeGrounding.

    Servers that do not expose token probabilities still satisfy the
    box-implies-probs invariant: a parsed box falls back to unit
    probabilities for its four coordinates (confidence 1.0). The
    probabilities of a reply without a box are ignored.
    """
    text = str(payload.get("text", ""))
    box, malformed = parse_coordinate_box(text)
    probs: tuple[float, ...] = ()
    if box is not None:
        raw = payload.get("coordinate_token_probs")
        if raw is not None and not isinstance(raw, list):
            raise BackendError(f"coordinate_token_probs is not a list: {raw!r}")
        probs = tuple(_probability(p, "coordinate token probability") for p in raw or ())
        probs = probs or (1.0,) * 4
    return GenerativeGrounding(
        raw_text=text, box=box, coordinate_token_probs=probs, malformed=malformed
    )


def check_prompt_template(template: str, placeholder: str) -> None:
    """Refuse a prompt template ``str.format`` cannot fill from ``{placeholder}`` alone.

    Every replacement field must be exactly that placeholder (a conversion
    or format spec may follow it), and braces must balance.
    """
    try:
        names = {name for _, name, _, _ in Formatter().parse(template) if name is not None}
        others = sorted(names - {placeholder})
        if not others:
            template.format(**{placeholder: placeholder})
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"prompt template {template!r} is malformed: {exc!r}") from None
    if others:
        raise ValueError(
            f"prompt template {template!r} may use only {{{placeholder}}}, not {others}"
        )


_STANDALONE_LETTER = re.compile(r"\b([A-Za-z])\b")


def match_option_label(raw: str, labels: Sequence[str]) -> str | None:
    """Resolve raw selector output to one of the offered labels.

    An exact single-letter answer wins outright; otherwise the first
    standalone letter (case-insensitive) that names an option is taken.
    Free text without any standalone option letter fails.
    """
    stripped = raw.strip()
    for label in labels:
        if stripped == label:
            return label
    by_lower = {label.lower(): label for label in labels}
    for match in _STANDALONE_LETTER.finditer(raw):
        label = by_lower.get(match.group(1).lower())
        if label is not None:
            return label
    return None


def selection_from_payload(
    payload: Mapping[str, Any], offered: Sequence[str]
) -> SelectionResult:
    """Resolve a selector reply against the offered labels.

    An offered ``label`` wins; otherwise ``text`` goes through
    ``match_option_label`` before becoming an error.
    """
    if not offered:
        raise ValueError("no option labels offered")
    if len(set(offered)) != len(offered):
        raise ValueError(f"option labels not unique: {list(offered)}")
    text = str(payload.get("text", ""))
    label = payload.get("label")
    if label not in offered:
        label = match_option_label(text, offered)
    if label is None:
        raise BackendError(f"selector output {text!r} resolves to no offered label")
    prob = _probability(payload.get("label_prob", 1.0), "selector label_prob")
    return SelectionResult(label=label, label_prob=prob, raw_text=text, offered=tuple(offered))
