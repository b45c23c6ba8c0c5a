"""Model backends: the role table, HTTP clients, and deterministic replay.

``ROLES`` declares each of the five roles once, and keys a run's handles.
Import adapters and helpers from their submodules: ``types`` (results, wire
parsing, detector and grounder protocols), ``http``, ``replay``, ``extract``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .http import HttpDetector, HttpGrounder, HttpMllm, HttpSelector, HttpTargetExtractor
from .replay import ReplayDetector, ReplayGrounder, ReplayMllm, ReplaySelector, ReplayTargetExtractor


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


__all__ = ["ROLES"]
