"""Specialist-MLLM collaboration harness for referring expression comprehension.

Route each task to a fast specialist or a slow MLLM, or let the MLLM
choose among specialist candidate boxes, then score predictions with the
paired-negative evaluation protocol.
"""

from .config import ConfigError, RunConfig, config_hash, load_config
from .crs import (
    CandidateSet,
    ChoicePrompt,
    CrsParams,
    TuningSample,
    build_choice_prompt,
    export_tuning,
    generate_candidates,
    run_crs,
)
from .datamodel import (
    DatasetError,
    Difficulty,
    EvalPair,
    ImageRef,
    NegativeKind,
    Polarity,
    RecTask,
    Split,
    TaskSet,
    load_taskset,
    pair_negatives,
    render_census,
    save_taskset,
    validate_counts,
)
from .geometry import BBox, Detection, TokenSpanScore, iou, nms
from .metrics import (
    auroc,
    build_report,
    precision_at_k,
    recall_at_k,
    render_text,
)
from .prediction import Pathway, Prediction, RouteDecision
from .sfa import SfaParams, assess_route, build_focus_prompt, run_sfa, target_focus_select

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CandidateSet",
    "ChoicePrompt",
    "ConfigError",
    "CrsParams",
    "DatasetError",
    "Detection",
    "Difficulty",
    "EvalPair",
    "ImageRef",
    "NegativeKind",
    "Pathway",
    "Polarity",
    "Prediction",
    "RecTask",
    "RouteDecision",
    "RunConfig",
    "SfaParams",
    "Split",
    "TaskSet",
    "TokenSpanScore",
    "TuningSample",
    "assess_route",
    "auroc",
    "build_choice_prompt",
    "build_focus_prompt",
    "build_report",
    "config_hash",
    "export_tuning",
    "generate_candidates",
    "iou",
    "load_config",
    "load_taskset",
    "nms",
    "pair_negatives",
    "precision_at_k",
    "recall_at_k",
    "render_census",
    "render_text",
    "run_crs",
    "run_sfa",
    "save_taskset",
    "target_focus_select",
    "validate_counts",
]
