"""Model backends: role protocols, HTTP clients, and deterministic replay.

Import adapters and helpers from their submodules: ``types`` (results,
wire parsing, role protocols), ``http``, ``replay`` and ``extract``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import BackendError, Detector, Grounder, MllmGrounder, Selector, TargetExtractor


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


__all__ = ["BackendBundle"]
