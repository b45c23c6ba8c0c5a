"""JSON-over-HTTP backend adapters.

One POST per call, JSON in and JSON out, no streaming. A server that
speaks a normalized coordinate convention has its grid size set on its
``HttpClient``, and every box-returning adapter converts its reply to
absolute pixels before returning.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence, TypeVar

from .extract import build_extract_prompt, resolve_target
from .types import (
    BackendError,
    GenerativeGrounding,
    GroundingResult,
    ImageRef,
    SelectionResult,
    detections_from_payload,
    grounding_from_payload,
    scale_box,
    selection_from_payload,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HttpClient:
    """One server's POST plumbing: bearer auth, timeout, bounded retries.

    Transport failures, timeouts, and 5xx responses are retried with
    exponential backoff; 4xx responses and error payloads fail fast. The
    client's session pools ``concurrency`` connections, one per call the
    role may have in flight. ``coordinate_space`` is the N of the N x N
    grid the server's boxes are in, or None when it answers in pixels.
    Building the first client imports ``requests``.
    """

    endpoint: str
    token: str | None = None
    timeout: float = 60.0
    retries: int = 2
    backoff: float = 0.5
    concurrency: int = 10  # requests' own pool size
    coordinate_space: int | None = None
    session: Any = field(init=False, repr=False, compare=False)  # a requests.Session

    def __post_init__(self) -> None:
        import requests
        from requests.adapters import HTTPAdapter

        session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=self.concurrency)
        session.mount("http://", adapter)
        session.mount("https://", adapter)
        object.__setattr__(self, "session", session)

    def post(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                response = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("POST %s failed (attempt %d): %s", self.endpoint, attempt + 1, exc)
                continue
            if response.status_code >= 500:
                last_error = BackendError(
                    f"server error {response.status_code} from {self.endpoint}"
                )
                logger.warning("POST %s: HTTP %d (attempt %d)", self.endpoint, response.status_code, attempt + 1)
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"HTTP {response.status_code} from {self.endpoint}: {response.text[:200]}"
                )
            try:
                body = response.json()
            except ValueError as exc:
                raise BackendError(f"non-JSON response from {self.endpoint}") from exc
            if not isinstance(body, dict):
                raise BackendError(f"response from {self.endpoint} is not a JSON object")
            if "error" in body:
                raise BackendError(f"backend error from {self.endpoint}: {body['error']}")
            return body
        raise BackendError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}"
        ) from last_error


Reply = TypeVar("Reply", GroundingResult, GenerativeGrounding)


def _to_pixels(reply: Reply, image: ImageRef, space: int | None) -> Reply:
    """``reply`` with its boxes scaled from a ``space`` x ``space`` grid to ``image``'s pixels.

    Without a grid the reply is in pixels already and comes back as is.
    """
    if space is None:
        return reply

    def scale(box):
        return scale_box(box, from_size=(space, space), to_size=(image.width, image.height))

    if isinstance(reply, GenerativeGrounding):
        return reply if reply.box is None else replace(reply, box=scale(reply.box))
    return replace(reply, detections=tuple(replace(d, box=scale(d.box)) for d in reply.detections))


@dataclass(frozen=True)
class HttpDetector:
    client: HttpClient

    def detect(self, image: ImageRef, class_name: str) -> GroundingResult:
        if not class_name:
            raise ValueError("empty detection category")
        payload = self.client.post({"image": image.image_id, "query": class_name})
        reply = detections_from_payload(payload, query=class_name)
        return _to_pixels(reply, image, self.client.coordinate_space)


@dataclass(frozen=True)
class HttpGrounder:
    client: HttpClient

    def ground(self, image: ImageRef, expression: str) -> GroundingResult:
        if not expression:
            raise ValueError("empty grounding expression")
        payload = self.client.post({"image": image.image_id, "query": expression})
        reply = detections_from_payload(payload, query=expression)
        return _to_pixels(reply, image, self.client.coordinate_space)


@dataclass(frozen=True)
class HttpMllm:
    client: HttpClient

    def ground_generative(self, image: ImageRef, prompt: str) -> GenerativeGrounding:
        if not prompt:
            raise ValueError("empty prompt")
        payload = self.client.post({"image": image.image_id, "prompt": prompt})
        return _to_pixels(grounding_from_payload(payload), image, self.client.coordinate_space)


@dataclass(frozen=True)
class HttpSelector:
    client: HttpClient

    def select(self, image: ImageRef, prompt: str, offered: Sequence[str]) -> SelectionResult:
        payload = self.client.post(
            {"image": image.image_id, "prompt": prompt, "labels": list(offered)}
        )
        return selection_from_payload(payload, offered)


@dataclass(frozen=True)
class HttpTargetExtractor:
    client: HttpClient

    def extract(self, expression: str) -> str:
        prompt = build_extract_prompt(expression)
        payload = self.client.post({"prompt": prompt})
        return resolve_target(str(payload.get("text", "")), expression)
