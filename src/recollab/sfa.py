"""Slow-fast adaptation: route each task to a specialist or an MLLM.

The router counts how many instances of the extracted target category a
detector finds above a confidence threshold. Exactly one instance means
the specialist's top box is trustworthy (fast pathway); zero or several
mean the task needs the MLLM's reasoning (slow pathway). Both pathways
can sharpen attention on the target: the fast side by re-scoring
proposals on target-token similarities, the slow side by appending a
focus clause to the grounding prompt.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .backends import BackendBundle
from .backends.types import (
    BackendError,
    Detector,
    GroundingResult,
    check_prompt_template,
    derive_confidence,
)
from .datamodel import ImageRef, RecTask, image_ref
from .geometry import Detection
from .prediction import Pathway, Prediction, RouteDecision

logger = logging.getLogger(__name__)

DEFAULT_ROUTE_THRESHOLD = 0.2
DEFAULT_GROUNDING_PROMPT = "Where is {expression}? answer in [[x0, y0, x1, y1]] format."
DEFAULT_FOCUS_SUFFIX = ", please focus on the {target}"


@dataclass(frozen=True)
class SfaParams:
    """Routing threshold, focus switches, and the prompt templates."""

    threshold: float = DEFAULT_ROUTE_THRESHOLD
    focus: bool = True
    grounding_prompt: str = DEFAULT_GROUNDING_PROMPT
    focus_suffix: str = DEFAULT_FOCUS_SUFFIX

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"routing threshold out of [0, 1]: {self.threshold}")
        check_prompt_template(self.grounding_prompt, "expression")
        check_prompt_template(self.focus_suffix, "target")


def assess_route(
    image: ImageRef,
    target: str,
    detector: Detector,
    threshold: float = DEFAULT_ROUTE_THRESHOLD,
) -> RouteDecision:
    """Count detections of the target category at or above the threshold;
    the count decides the route (``RouteDecision.level``)."""
    if not target:
        raise ValueError("empty target phrase")
    result = detector.detect(image, target)
    count = sum(1 for det in result.detections if det.score >= threshold)
    return RouteDecision(detection_count=count, target=target, threshold_used=threshold)


def build_focus_prompt(expression: str, target: str, params: SfaParams = SfaParams()) -> str:
    """Grounding prompt for the MLLM, with the focus clause when enabled."""
    if not expression:
        raise ValueError("empty expression")
    base = params.grounding_prompt.format(expression=expression)
    if not params.focus:
        return base
    if not target:
        raise ValueError("empty target phrase")
    return base + params.focus_suffix.format(target=target)


def find_target_span(query: str, target: str) -> tuple[int, int] | None:
    """Character span of the target phrase inside the query text."""
    if not target:
        return None
    match = re.search(r"\b" + re.escape(target) + r"\b", query, re.IGNORECASE)
    if match:
        return match.start(), match.end()
    index = query.lower().find(target.lower())
    if index >= 0:
        return index, index + len(target)
    return None


def target_focus_select(result: GroundingResult, span: tuple[int, int] | None) -> Detection:
    """Pick the proposal whose target-token similarity is highest.

    Each proposal's aggregate is the max token score over spans
    overlapping the target; ties fall back to overall score order. When
    the span is unknown or any proposal lacks token scores there, the
    overall-score argmax is returned and the fallback is logged.
    """
    dets = result.detections
    if not dets:
        raise ValueError("empty grounding result")
    if span is None:
        logger.info("target span not found in query %r; using overall argmax", result.query)
        return dets[0]
    aggregates: list[float | None] = []
    for det in dets:
        overlapping = [
            ts.score for ts in det.token_scores if ts.overlaps(span[0], span[1])
        ]
        aggregates.append(max(overlapping) if overlapping else None)
    if any(agg is None for agg in aggregates):
        logger.info("token scores absent for target span; using overall argmax")
        return dets[0]
    # dets are score-sorted, so max() on (aggregate, -index) breaks
    # aggregate ties by overall score then input order
    best = max(range(len(dets)), key=lambda i: (aggregates[i], -i))
    return dets[best]


def ground_slow(
    task: RecTask, handles: BackendBundle, prompt: str, decision: RouteDecision | None = None
) -> Prediction:
    """Slow pathway: the MLLM answers ``prompt`` with generated coordinates.

    A reply without usable coordinates is a rejection; a backend failure
    is a miss. Either way the task keeps the slow pathway and ``decision``.
    """
    try:
        answer = handles.require("mllm").ground_generative(image_ref(task), prompt)
    except BackendError as exc:
        return Prediction.backend_failure(task.id, Pathway.SLOW, exc, decision)
    raw = {"text": answer.raw_text}
    if answer.box is None:
        note = (
            "malformed coordinates in generative answer"
            if answer.malformed
            else "no coordinates in generative answer"
        )
        return Prediction.miss(task.id, Pathway.SLOW, note, decision=decision, raw=raw)
    confidence = derive_confidence(answer.coordinate_token_probs)
    assert confidence is not None
    return Prediction(
        task_id=task.id,
        box=answer.box,
        confidence=confidence,
        pathway=Pathway.SLOW,
        decision=decision,
        raw=raw,
    )


def run_sfa(task: RecTask, handles: BackendBundle, params: SfaParams = SfaParams()) -> Prediction:
    """Route one task and ground it on the chosen pathway.

    Backend failures become miss predictions (box absent, confidence 0,
    error note) so batch runs skip the task and continue. Failures before
    routing completes are attributed to the slow pathway, the same
    conservative default the zero-detection rule uses.
    """
    image = image_ref(task)
    decision: RouteDecision | None = None
    try:
        target = handles.require("extractor").extract(task.expression)
        decision = assess_route(image, target, handles.require("detector"), params.threshold)
        if decision.level is Pathway.SLOW:
            prompt = build_focus_prompt(task.expression, target, params)
            return ground_slow(task, handles, prompt, decision)
        grounding = handles.require("grounder").ground(image, task.expression)
    except BackendError as exc:
        pathway = Pathway.SLOW if decision is None else decision.level
        return Prediction.backend_failure(task.id, pathway, exc, decision)

    if not grounding.detections:
        return Prediction.miss(
            task.id, Pathway.FAST, "grounder returned no detections", decision=decision
        )
    if params.focus:
        det = target_focus_select(grounding, find_target_span(task.expression, target))
    else:
        det = grounding.detections[0]
    if det.score <= 0.0:
        return Prediction.miss(
            task.id, Pathway.FAST, "selected detection has zero confidence", decision=decision
        )
    return Prediction(
        task_id=task.id, box=det.box, confidence=det.score, pathway=Pathway.FAST, decision=decision
    )
