"""Deterministic replay backends driven by on-disk fixture files.

A fixture directory holds one file per recorded call, named by a stable
hash of (role, image id, query). Files are bit-exact: a version header
line followed by one JSON record. A missing fixture is a hard error so
that fixture drift fails loudly instead of producing silent empties.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .extract import resolve_target
from .types import (
    BackendError,
    FixtureMissError,
    GenerativeGrounding,
    GroundingResult,
    ImageRef,
    SelectionResult,
    detections_from_payload,
    grounding_from_payload,
    selection_from_payload,
)

FIXTURE_HEADER = "recollab-fixture v1"

ROLE_EXTRACT = "extract"
ROLE_DETECT = "detect"
ROLE_GROUND = "ground"
ROLE_GENERATE = "generate"
ROLE_SELECT = "select"


# one encoder for every key: json.dumps with these options builds a new one per call
_encode_key = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def fixture_key(role: str, image_id: str, query: str) -> str:
    """Stable content key: hash of the canonical (role, image, query) triple."""
    return hashlib.sha256(_encode_key([role, image_id, query]).encode("utf-8")).hexdigest()[:32]


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


class FixtureStore:
    """Read-only view of a fixture directory. Lookups are pure and lock-free.

    A file is read as UTF-8 bytes. Its header line may end in ``\\n``,
    ``\\r\\n`` or ``\\r``, and its record must be a JSON object. A file that
    breaks any of these rules, or whose record names another key, raises a
    ``BackendError``.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")

    def get(self, role: str, image_id: str, query: str) -> dict[str, Any]:
        key = fixture_key(role, image_id, query)
        path = f"{self._prefix}{key}.json"
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        except FileNotFoundError:
            raise FixtureMissError(
                f"no fixture for role={role!r} image={image_id!r} query={query!r} "
                f"(key {key}) under {self.root}"
            ) from None
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BackendError(f"fixture {path} is not valid UTF-8: {exc}") from None
        end = len(FIXTURE_HEADER)
        # the header line ends at the first "\n", "\r\n" or "\r"; a "\n" after a
        # "\r" is left to the record, where JSON reads it as whitespace
        if not text.startswith(FIXTURE_HEADER) or text[end : end + 1] not in ("\n", "\r", ""):
            header = text.partition("\n")[0].partition("\r")[0]
            raise BackendError(f"fixture {path} has unsupported header {header!r}")
        try:
            record = json.loads(text[end + 1 :])
        except json.JSONDecodeError as exc:
            raise BackendError(f"fixture {path} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise BackendError(f"fixture {path} record is not a JSON object")
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

    def extract(self, expression: str) -> str:
        payload = self.store.get(ROLE_EXTRACT, "", expression)
        return resolve_target(str(payload.get("text", "")), expression)


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


@dataclass(frozen=True)
class ReplayMllm:
    store: FixtureStore

    def ground_generative(self, image: ImageRef, prompt: str) -> GenerativeGrounding:
        if not prompt:
            raise ValueError("empty prompt")
        payload = self.store.get(ROLE_GENERATE, image.image_id, prompt)
        return grounding_from_payload(payload)


@dataclass(frozen=True)
class ReplaySelector:
    store: FixtureStore

    def select(self, image: ImageRef, prompt: str, offered: Sequence[str]) -> SelectionResult:
        payload = self.store.get(ROLE_SELECT, image.image_id, prompt)
        return selection_from_payload(payload, offered)
