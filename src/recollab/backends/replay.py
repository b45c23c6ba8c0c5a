"""Deterministic replay backends driven by on-disk fixture files.

A fixture directory holds one file per recorded call, named by a stable
hash of (role, image id, query). Files are bit-exact: a version header
line followed by one JSON record. A missing fixture is a hard error so
that fixture drift fails loudly instead of producing silent empties.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..crs import match_option_label
from .extract import HeuristicTargetExtractor, resolve_target
from .types import (
    BackendError,
    FixtureMissError,
    GenerativeGrounding,
    GroundingResult,
    ImageRef,
    SelectionResult,
    detections_from_payload,
    parse_coordinate_box,
)

FIXTURE_HEADER = "recollab-fixture v1"

ROLE_EXTRACT = "extract"
ROLE_DETECT = "detect"
ROLE_GROUND = "ground"
ROLE_GENERATE = "generate"
ROLE_SELECT = "select"


def fixture_key(role: str, image_id: str, query: str) -> str:
    """Stable content key: hash of the canonical (role, image, query) triple."""
    canon = json.dumps([role, image_id, query], ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def write_fixture(
    root: str | Path, role: str, image_id: str, query: str, payload: Mapping[str, Any]
) -> Path:
    """Record one response; returns the file written."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    record = {"role": role, "image": image_id, "query": query, "payload": dict(payload)}
    path = root / f"{fixture_key(role, image_id, query)}.json"
    body = FIXTURE_HEADER + "\n" + json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
    path.write_text(body, encoding="utf-8")
    return path


@dataclass(frozen=True)
class FixtureStore:
    """Read-only view of a fixture directory. Lookups are pure and lock-free."""

    root: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))

    def get(self, role: str, image_id: str, query: str) -> dict[str, Any]:
        key = fixture_key(role, image_id, query)
        path = self.root / f"{key}.json"
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise FixtureMissError(
                f"no fixture for role={role!r} image={image_id!r} query={query!r} "
                f"(key {key}) under {self.root}"
            ) from None
        header, _, rest = text.partition("\n")
        if header != FIXTURE_HEADER:
            raise BackendError(f"fixture {path} has unsupported header {header!r}")
        try:
            record = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise BackendError(f"fixture {path} is not valid JSON: {exc}") from exc
        stored = (record.get("role"), record.get("image"), record.get("query"))
        if stored != (role, image_id, query):
            raise BackendError(f"fixture {path} key mismatch: stored {stored}")
        payload = record.get("payload")
        if not isinstance(payload, dict):
            raise BackendError(f"fixture {path} has no payload object")
        return payload


@dataclass(frozen=True)
class ReplayTargetExtractor:
    store: FixtureStore
    fallback: HeuristicTargetExtractor = HeuristicTargetExtractor()

    def extract(self, expression: str) -> str:
        payload = self.store.get(ROLE_EXTRACT, "", expression)
        return resolve_target(str(payload.get("text", "")), expression, self.fallback)


@dataclass(frozen=True)
class ReplayDetector:
    store: FixtureStore

    def detect(self, image: ImageRef, class_name: str) -> GroundingResult:
        if not class_name:
            raise ValueError("empty detection category")
        payload = self.store.get(ROLE_DETECT, image.image_id, class_name)
        return detections_from_payload(payload, query=class_name)


@dataclass(frozen=True)
class ReplayGrounder:
    store: FixtureStore

    def ground(self, image: ImageRef, expression: str) -> GroundingResult:
        if not expression:
            raise ValueError("empty grounding expression")
        payload = self.store.get(ROLE_GROUND, image.image_id, expression)
        return detections_from_payload(payload, query=expression)


def grounding_from_payload(payload: Mapping[str, Any]) -> GenerativeGrounding:
    """Parse a generative reply payload into a GenerativeGrounding.

    Servers that do not expose token probabilities still satisfy the
    box-implies-probs invariant: a parsed box falls back to unit
    probabilities for its four coordinates (confidence 1.0).
    """
    text = str(payload.get("text", ""))
    box, malformed = parse_coordinate_box(text)
    probs: Sequence[float] = payload.get("coordinate_token_probs") or ()
    probs = tuple(float(p) for p in probs)
    if box is not None and not probs:
        probs = (1.0,) * 4
    if box is None:
        probs = ()
    return GenerativeGrounding(
        raw_text=text, box=box, coordinate_token_probs=probs, malformed=malformed
    )


@dataclass(frozen=True)
class ReplayMllm:
    store: FixtureStore

    def ground_generative(self, image: ImageRef, prompt: str) -> GenerativeGrounding:
        if not prompt:
            raise ValueError("empty prompt")
        payload = self.store.get(ROLE_GENERATE, image.image_id, prompt)
        return grounding_from_payload(payload)


def selection_from_payload(
    payload: Mapping[str, Any], offered: Sequence[str]
) -> SelectionResult:
    """Resolve a selector reply against the offered labels.

    Exact single-letter answers resolve directly; anything else goes
    through the shared answer-parsing fallback before becoming an error.
    """
    if not offered:
        raise ValueError("no option labels offered")
    if len(set(offered)) != len(offered):
        raise ValueError(f"option labels not unique: {list(offered)}")
    text = str(payload.get("text", ""))
    label = match_option_label(text, offered)
    if label is None:
        raise BackendError(f"selector output {text!r} resolves to no offered label")
    prob = float(payload.get("label_prob", 1.0))
    return SelectionResult(label=label, label_prob=prob, raw_text=text, offered=tuple(offered))


@dataclass(frozen=True)
class ReplaySelector:
    store: FixtureStore

    def select(self, image: ImageRef, prompt: str, offered: Sequence[str]) -> SelectionResult:
        payload = self.store.get(ROLE_SELECT, image.image_id, prompt)
        return selection_from_payload(payload, offered)
