"""Model backends: the role table, HTTP clients, and deterministic replay.

``ROLES`` declares each of the five roles once. Import adapters and
helpers from their submodules: ``types`` (results, wire parsing, role
protocols), ``http``, ``replay`` and ``extract``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .http import HttpDetector, HttpGrounder, HttpMllm, HttpSelector, HttpTargetExtractor
from .replay import ReplayDetector, ReplayGrounder, ReplayMllm, ReplaySelector, ReplayTargetExtractor
from .types import BackendError, Detector, Grounder, MllmGrounder, Selector, TargetExtractor


@dataclass(frozen=True)
class Role:
    """One backend role: the adapter method pipelines call, its adapter per
    backend kind, and whether its replies carry boxes."""

    method: str
    replay: type
    http: type
    boxes: bool


ROLES: Mapping[str, Role] = {
    "extractor": Role("extract", ReplayTargetExtractor, HttpTargetExtractor, boxes=False),
    "detector": Role("detect", ReplayDetector, HttpDetector, boxes=True),
    "grounder": Role("ground", ReplayGrounder, HttpGrounder, boxes=True),
    "mllm": Role("ground_generative", ReplayMllm, HttpMllm, boxes=True),
    "selector": Role("select", ReplaySelector, HttpSelector, boxes=False),
}


@dataclass(frozen=True)
class BackendBundle:
    """The handles a pipeline run draws from; unused roles may stay None."""

    extractor: TargetExtractor | None = None
    detector: Detector | None = None
    grounder: Grounder | None = None
    mllm: MllmGrounder | None = None
    selector: Selector | None = None

    def require(self, role: str):
        handle = getattr(self, role)
        if handle is None:
            raise BackendError(f"no {role} backend configured")
        return handle


__all__ = ["BackendBundle", "ROLES"]
