"""JSON-over-HTTP backend adapters.

One POST per call, JSON in and JSON out, no streaming. Each role's
``HttpClient`` is built from its ``BackendSettings``, where a server that
speaks a normalized coordinate convention sets ``coordinate_space``; every
box-returning adapter converts its reply to absolute pixels.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import queue
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Mapping, Sequence, TypeVar
from urllib.parse import SplitResult, quote, unquote, urlsplit

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

if TYPE_CHECKING:
    from ..config import BackendSettings

logger = logging.getLogger(__name__)


# request bodies: json.dumps's default separators, ASCII only, no NaN or infinity
_encode = json.JSONEncoder(allow_nan=False).encode
# characters a request target may hold as they are; any other is percent-encoded
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"


def split_endpoint(endpoint: str) -> SplitResult:
    """``endpoint`` split into its parts.

    Raises ValueError unless it is an http or https URL with a host, a
    port (if any) from 1 to 65535, and no credentials.
    """
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"endpoint {endpoint!r} needs an http or https scheme")
    if not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} names no host")
    try:
        port = parts.port
    except ValueError as exc:  # not a number, or out of range
        raise ValueError(f"endpoint {endpoint!r} has a bad port: {exc}") from None
    if port == 0:
        raise ValueError(f"endpoint {endpoint!r} has a bad port: 0")
    if parts.username is not None:
        raise ValueError(f"endpoint {endpoint!r} holds credentials; set the token instead")
    return parts


def _proxy_for(parts: SplitResult) -> SplitResult | None:
    """The proxy the environment sets for ``parts``' scheme; None if unset or bypassed.

    The variables are read as ``urllib.request.getproxies()`` reads them
    (``http_proxy`` wins over ``HTTP_PROXY``, and an empty one unsets it;
    ``HTTP_PROXY`` is ignored in a CGI request), but only the two that can
    name this scheme's proxy: walking an environment of 80 variables took
    0.25 ms per client. ``NO_PROXY`` goes through ``proxy_bypass``.
    """
    name = f"{parts.scheme}_proxy"
    proxy = os.environ.get(name)
    if proxy is None and not (parts.scheme == "http" and "REQUEST_METHOD" in os.environ):
        proxy = os.environ.get(name.upper())
    if not proxy:
        return None
    from urllib.request import proxy_bypass

    if proxy_bypass(parts.hostname):
        return None
    split = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if split.scheme != "http" or not split.hostname:
        raise BackendError(f"proxy {proxy!r} for {parts.geturl()} is not an http:// URL")
    return split


class HttpClient:
    """One server's POST plumbing: bearer auth, timeout, bounded retries.

    Every setting comes from one role's ``BackendSettings`` (its
    ``coordinate_space`` is the N of the N x N grid the server's boxes are
    in, or None for pixels). Transport failures, timeouts, and 5xx
    responses are retried with exponential backoff; 4xx responses and
    error payloads fail fast. The client keeps up to ``concurrency`` idle
    connections alive, one per call the role may have in flight, and
    reuses the one put back last. A kept-alive connection the server
    closed while it sat idle is opened again once, which counts as no
    attempt. The endpoint is parsed and the proxy for it read from the
    environment once, when the client is built. Building the first client
    imports ``http.client``.
    """

    def __init__(self, settings: BackendSettings) -> None:
        import http.client

        self.endpoint = settings.endpoint or ""
        parts = split_endpoint(self.endpoint)
        self.retries, self.backoff = settings.retries, settings.backoff
        self.coordinate_space = settings.coordinate_space
        timeout = settings.timeout
        self._target = quote(parts.path or "/", safe=_TARGET_SAFE)
        if parts.query:
            self._target += "?" + quote(parts.query, safe=_TARGET_SAFE)
        self._headers = {"Content-Type": "application/json"}
        if settings.token:
            self._headers["Authorization"] = f"Bearer {settings.token}"
        proxy = _proxy_for(parts)
        proxy_auth = {}
        if proxy is not None and proxy.username is not None:
            login = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}".encode()
            proxy_auth["Proxy-Authorization"] = f"Basic {base64.b64encode(login).decode()}"
        address = (parts.hostname, parts.port) if proxy is None else (proxy.hostname, proxy.port)
        # a connection object opens its socket on first use, and again after a close
        if parts.scheme == "https":
            import ssl

            context = ssl.create_default_context()

            def connect() -> http.client.HTTPConnection:
                conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
                if proxy is not None:
                    conn.set_tunnel(parts.hostname, parts.port, headers=proxy_auth)
                return conn

            self._connect = connect
        else:
            if proxy is not None:
                # a plain-HTTP proxy is sent the absolute-form target
                self._target = f"http://{parts.netloc}{self._target}"
                self._headers.update(proxy_auth)
            self._connect = partial(http.client.HTTPConnection, *address, timeout=timeout)
        self._idle = queue.LifoQueue(settings.concurrency)
        self._errors = (OSError, http.client.HTTPException)

    def post(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        try:
            request = _encode(payload).encode()
        except (TypeError, ValueError) as exc:
            raise BackendError(f"request to {self.endpoint} is not valid JSON: {exc}") from exc
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                status, data = self._exchange(request)
            except self._errors as exc:
                last_error = exc
                logger.warning("POST %s failed (attempt %d): %s", self.endpoint, attempt + 1, exc)
                continue
            if status >= 500:
                last_error = BackendError(f"server error {status} from {self.endpoint}")
                logger.warning("POST %s: HTTP %d (attempt %d)", self.endpoint, status, attempt + 1)
                continue
            if status != 200:
                text = data.decode("utf-8", "replace")
                raise BackendError(f"HTTP {status} from {self.endpoint}: {text[:200]}")
            try:
                body = json.loads(data)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise BackendError(f"non-JSON response from {self.endpoint}: {exc}") from exc
            if not isinstance(body, dict):
                raise BackendError(f"response from {self.endpoint} is not a JSON object")
            if "error" in body:
                raise BackendError(f"backend error from {self.endpoint}: {body['error']}")
            return body
        raise BackendError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}"
        ) from last_error

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """One POST of ``request``: the status and the whole body.

        The call reuses the connection last put back, or opens one. After
        it, the connection is put back unless the server closed it, the
        call failed, or ``concurrency`` connections are idle already.
        """
        try:
            conn, reused = self._idle.get_nowait(), True
        except queue.Empty:
            conn, reused = self._connect(), False
        try:
            try:
                conn.request("POST", self._target, request, self._headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # the server closed this kept-alive connection while it sat idle
                conn.close()
                conn.request("POST", self._target, request, self._headers)
                response = conn.getresponse()
            status, data = response.status, response.read()
        except BaseException:
            conn.close()
            raise
        # a response that closes its connection has closed it once read
        if conn.sock is not None:
            try:
                self._idle.put_nowait(conn)
            except queue.Full:
                conn.close()
        return status, data

    def close(self) -> None:
        """Close every idle connection; a later call opens one again."""
        try:
            while True:
                self._idle.get_nowait().close()
        except queue.Empty:
            pass


Reply = TypeVar("Reply", GroundingResult, GenerativeGrounding)


def _to_pixels(reply: Reply, image: ImageRef, space: int | None) -> Reply:
    """``reply`` with its boxes scaled from a ``space`` x ``space`` grid to ``image``'s pixels.

    Without a grid the reply is in pixels already and comes back as is. A
    box that cannot be rescaled, say one that overflows, is a ``BackendError``.
    """
    if space is None:
        return reply

    def scale(box):
        try:
            return scale_box(box, from_size=(space, space), to_size=(image.width, image.height))
        except ValueError as exc:
            raise BackendError(
                f"box {list(box)} cannot be rescaled from the {space} x {space} grid "
                f"to {image.width} x {image.height} pixels: {exc}"
            ) from exc

    if isinstance(reply, GenerativeGrounding):
        return reply if reply.box is None else replace(reply, box=scale(reply.box))
    return replace(reply, detections=tuple(d._replace(box=scale(d.box)) for d in reply.detections))


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
