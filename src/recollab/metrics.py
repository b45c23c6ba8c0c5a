"""Evaluation protocol and report assembly.

Three metrics, all ratios of per-item indicators:

* Precision@k over positive tasks: does some top-k box beat IoU 0.5
  against ground truth (strictly greater).
* Recall@k over negative-positive pairs: pool both members' ranked
  boxes, sort by confidence, and ask whether a good box for the
  positive survives in the top k. Boxes predicted on the negative have
  no ground truth, so their IoU is defined as 0.
* AUROC over confidences: the probability a positive sample outranks a
  negative one, ties counted half.

Every metric reads one ``Score`` row per task id, which ``score(pred,
task)`` makes from a ``prediction.Prediction``: a positive's hit rank and
the confidence there, a negative's ranked confidences, and the
confidence, pathway and failure of each. A task with no row counts as a
miss at confidence 0 (P@k, AUROC) or drops its pair (R@k); a warning
gives the count of such tasks or pairs.

Each positive and each pair is scored once, as the rank of its first box
above the fixed IoU bar (``NO_HIT`` if none); a hit at k is ``rank < k``,
so every P@k and R@k value is a count over the same ranks.

The report breaks these down by difficulty and negative taxonomy, adds
pathway counts and cost units, and states every cell's denominator.
``build_report`` returns it as the plain dict ``report.json`` holds, and
``render_text`` renders that dict as ``report.txt``.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .datamodel import EvalPair, NegativeKind, RecTask, TaskSet, pair_negatives
from .geometry import BBox, iou
from .prediction import Pathway, Prediction

logger = logging.getLogger(__name__)

IOU_THRESHOLD = 0.5
NO_HIT = math.inf  # rank of an item with no box above the IoU bar: a miss at every k
DEFAULT_KS = (1, 5)

COST_PROVENANCE = (
    "cost units are supplied by configuration, not measured; totals are "
    "arithmetic over those inputs"
)


@dataclass(frozen=True, slots=True)
class Score:
    """What the metrics read of one prediction, scored against its task.

    A positive's row has its hit ``rank`` and the confidence of its box at
    that rank (0 for ``NO_HIT``); a negative's has the ``confidences`` of
    its ranked boxes. A prediction scored without a task has neither.
    """

    confidence: float
    pathway: Pathway
    failed: bool
    rank: float | None = None
    rank_confidence: float = 0.0
    confidences: tuple[float, ...] | None = None


def score(pred: Prediction, task: RecTask | None) -> Score:
    """``pred``'s row against ``task``, which is None for a task outside the task set."""
    if task is None:
        return Score(pred.confidence, pred.pathway, pred.failed)
    if not task.is_positive:
        confidences = tuple(conf for _, conf in pred.ranked_boxes)
        return Score(pred.confidence, pred.pathway, pred.failed, confidences=confidences)
    rank = _hit_rank(pred, task.gt_box)
    conf = 0.0 if rank == NO_HIT else pred.ranked_boxes[rank][1]
    return Score(pred.confidence, pred.pathway, pred.failed, rank, conf)


def _hit_rank(pred: Prediction, gt: BBox) -> float:
    """Index of the first ranked box strictly above the IoU bar; NO_HIT if none."""
    for rank, (box, _) in enumerate(pred.ranked_boxes):
        if iou(box, gt) > IOU_THRESHOLD:
            return rank
    return NO_HIT


def _unscored(task: RecTask) -> ValueError:
    return ValueError(f"the prediction for task {task.id} was not scored against it")


def _warn_missing(message: str, ids: Sequence[str]) -> None:
    """Log ``message`` with the count and first of ``ids``, those missing a prediction, if any."""
    if ids:
        logger.warning(message, len(ids), ids[0])


def _positive_ranks(rows: Mapping[str, Score], positives: Iterable[RecTask]) -> dict[str, float]:
    """Hit rank of each positive by task id; a missing prediction is a miss."""
    ranks: dict[str, float] = {}
    for task in positives:
        row = rows.get(task.id)
        if row is not None and getattr(row, "rank", None) is None:
            raise _unscored(task)
        ranks[task.id] = NO_HIT if row is None else row.rank
    return ranks


def _pair_ranks(
    pairs: Sequence[EvalPair], rows: Mapping[str, Score], pos_ranks: Mapping[str, float]
) -> list[float | None]:
    """Each pair's hit rank among both members' pooled boxes; None when dropped, with a warning.

    Pooled, boxes sort by confidence descending, the positive's first on
    ties, then in each member's order: the positive's first hit keeps its
    own earlier boxes ahead and gains every negative box of higher confidence.
    """
    ranks: list[float | None] = []
    for pair in pairs:
        pos_row = rows.get(pair.positive.id)
        neg_row = rows.get(pair.negative.id)
        if pos_row is None or neg_row is None:
            ranks.append(None)
            continue
        if getattr(neg_row, "confidences", None) is None:
            raise _unscored(pair.negative)
        rank = pos_ranks[pair.positive.id]
        if rank != NO_HIT:
            conf = pos_row.rank_confidence
            rank += sum(1 for other in neg_row.confidences if other > conf)
        ranks.append(rank)
    _warn_missing(
        "%d pairs dropped, missing a prediction (first negative %s)",
        [pair.negative.id for pair, rank in zip(pairs, ranks) if rank is None],
    )
    return ranks


def _hits(ranks: Iterable[float], k: int) -> int:
    return sum(1 for rank in ranks if rank < k)


def precision_at_k(rows: Mapping[str, Score], ts: TaskSet, k: int) -> float:
    """Fraction of positives with a top-k box strictly above the IoU bar."""
    positives = ts.positives()
    if not positives:
        raise ValueError("no positive tasks to score")
    _warn_missing(
        "no prediction for %d positives (first %s): all misses",
        [task.id for task in positives if task.id not in rows],
    )
    ranks = _positive_ranks(rows, positives)
    return _hits(ranks.values(), k) / len(ranks)


def recall_at_k(pairs: Sequence[EvalPair], rows: Mapping[str, Score], k: int) -> float:
    """Hit fraction over pairs after pooling both members' ranked boxes."""
    positives = {pair.positive.id: pair.positive for pair in pairs}.values()
    ranks = _pair_ranks(pairs, rows, _positive_ranks(rows, positives))
    used = [rank for rank in ranks if rank is not None]
    if not used:
        raise ValueError("no scorable pairs")
    return _hits(used, k) / len(used)


def auroc(pos_scores: Sequence[float], neg_scores: Sequence[float]) -> float:
    """P(pos > neg) + half P(pos = neg), by exact counting."""
    if not pos_scores or not neg_scores:
        raise ValueError("auroc undefined on empty score lists")
    return _auroc_cell(sorted(pos_scores), neg_scores)["value"]


def _cell(numerator: float | None, denominator: int) -> dict[str, Any]:
    """One report value with the evidence behind it; absent (None) without a numerator."""
    value = None if numerator is None else numerator / denominator
    return {"value": value, "numerator": numerator, "denominator": denominator}


def _hit_cells(
    groups: Mapping[str, Sequence[float]], ks: Sequence[int]
) -> dict[str, dict[str, Any]]:
    """Each k's cells by ``str(k)``, then by group: the share of the group's ranks below k."""
    return {
        str(k): {g: _cell(_hits(r, k) if r else None, len(r)) for g, r in groups.items()}
        for k in ks
    }


def _auroc_cell(ordered_pos: Sequence[float], neg_scores: Sequence[float]) -> dict[str, Any]:
    """The AUROC cell of ``neg_scores`` against ``ordered_pos``, the positive scores sorted.

    Each negative counts the positives above it and those tied with it, so
    the positives are sorted once for every group, not each group's negatives.
    """
    pairs = len(ordered_pos) * len(neg_scores)
    if pairs == 0:
        return _cell(None, pairs)
    wins = ties = 0
    for score in neg_scores:
        hi = bisect_right(ordered_pos, score)
        wins += len(ordered_pos) - hi
        ties += hi - bisect_left(ordered_pos, score)
    return _cell(wins + 0.5 * ties, pairs)


def _confidence(rows: Mapping[str, Score], task: RecTask) -> float:
    """``task``'s confidence, 0 without a row; a negative's row must be scored against it."""
    row = rows.get(task.id)
    if row is None:
        return 0.0
    if not task.is_positive and getattr(row, "confidences", None) is None:
        raise _unscored(task)
    return row.confidence


_value = attrgetter("value")


def _grouped(
    items: Iterable[tuple[Any, Any]], name: Callable[[Any], str]
) -> dict[str, list[Any]]:
    """Values by the ``name`` of their member, names sorted; a None member is left out.

    Values are gathered per member object first, so ``name`` runs once per
    distinct member, not once per value: enum members are singletons, and
    ``load_taskset`` shares each distinct ``NegativeKind``. Equal members
    that are distinct objects still share one group.
    """
    by_member: dict[int, tuple[Any, list[Any]]] = {}
    for member, value in items:
        if member is not None:
            group = by_member.get(id(member))
            if group is None:
                group = by_member[id(member)] = (member, [])
            group[1].append(value)
    groups: dict[str, list[Any]] = {}
    for member, values in by_member.values():
        groups.setdefault(name(member), []).extend(values)
    return {key: groups[key] for key in sorted(groups)}


def _row_pathways(rows: Mapping[str, Score]) -> Iterator[tuple[Pathway, None]]:
    """Each row's pathway; a row that is not a ``Score`` is refused by its task id."""
    for task_id, row in rows.items():
        if not isinstance(row, Score):
            raise ValueError(f"the row for task {task_id} is not a metrics.Score")
        yield row.pathway, None


def build_report(
    rows: Mapping[str, Score],
    ts: TaskSet,
    *,
    ks: Sequence[int] = DEFAULT_KS,
    unit_costs: Mapping[str, float] | None = None,
    metadata: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The report as ``report.json`` holds it; groups with no members stay absent.

    Every cell is ``{value, numerator, denominator}``, with value and
    numerator None when absent. ``precision_at_k`` and ``recall_at_k`` key
    their cells by ``str(k)``, then by group. Group keys come in a fixed
    order: overall, then difficulties for precision, negative kinds for
    recall, and polarities then negative kinds for AUROC. Difficulty and
    polarity values sort in their enum order. Every row counts in the
    pathway counts, one for a task outside ``ts`` too, and a row that is
    not a ``Score`` is refused (``ValueError``). One warning gives the count
    and the first id of the tasks of ``ts`` without a row.
    """
    _warn_missing(
        "no prediction for %d tasks (first %s): positives count as misses, "
        "negatives score confidence 0",
        [task.id for task in ts if task.id not in rows],
    )
    positives = ts.positives()
    negatives = ts.negatives()
    pairs = pair_negatives(ts)

    pos_ranks = _positive_ranks(rows, positives)
    precision_groups = {
        "overall": list(pos_ranks.values()),
        **_grouped(((t.difficulty, pos_ranks[t.id]) for t in positives), _value),
    }

    pair_ranks = _pair_ranks(pairs, rows, pos_ranks)
    # a kind whose pairs were all dropped still gets its (absent) cell
    by_kind = _grouped(
        ((p.negative.negative_kind, rank) for p, rank in zip(pairs, pair_ranks)), NegativeKind.key
    )
    recall_groups = {
        key: [rank for rank in ranks if rank is not None]
        for key, ranks in {"overall": pair_ranks, **by_kind}.items()
    }

    ordered_pos = sorted(_confidence(rows, t) for t in positives)
    neg_scores = [_confidence(rows, t) for t in negatives]
    auroc_groups = {
        "overall": neg_scores,
        **_grouped(zip((t.polarity for t in negatives), neg_scores), _value),
        **_grouped(zip((t.negative_kind for t in negatives), neg_scores), NegativeKind.key),
    }

    by_pathway = _grouped(_row_pathways(rows), _value)
    counts = {pathway: len(members) for pathway, members in by_pathway.items()}
    unit_costs = dict(unit_costs or {})

    return {
        "precision_at_k": _hit_cells(precision_groups, ks),
        "recall_at_k": _hit_cells(recall_groups, ks),
        "auroc": {g: _auroc_cell(ordered_pos, scores) for g, scores in auroc_groups.items()},
        "pathways": {
            "counts": counts,
            "unit_costs": unit_costs,
            "total_tasks": sum(counts.values()),
            "total_cost": sum(n * unit_costs.get(pathway, 0.0) for pathway, n in counts.items()),
            "provenance": COST_PROVENANCE,
        },
        "metadata": dict(metadata or {}),
    }


def _cell_text(cell: Mapping[str, Any]) -> str:
    if cell["value"] is None:
        return f"absent (n={cell['denominator']})"
    numerator = cell["numerator"]
    num_text = str(int(numerator)) if numerator == int(numerator) else f"{numerator:g}"
    return f"{cell['value']:.4f} ({num_text}/{cell['denominator']})"


def render_text(report: Mapping[str, Any]) -> str:
    """Human-readable tables of a ``build_report`` dict; every value shows its denominator.

    P@k and R@k list k in numeric order, not in the order of their string keys.
    """
    lines: list[str] = []
    for title, metric, key in (
        ("Precision@k over positive tasks", "P", "precision_at_k"),
        ("Recall@k over negative-positive pairs", "R", "recall_at_k"),
    ):
        lines.append(title)
        for k, groups in sorted(report[key].items(), key=lambda item: int(item[0])):
            lines.extend(f"  {metric}@{k:<2} {g:<24} {_cell_text(c)}" for g, c in groups.items())

    lines.append("AUROC (positive vs negative confidence ranking)")
    lines.extend(f"  {g:<29} {_cell_text(c)}" for g, c in report["auroc"].items())

    lines.append("Pathways")
    stats = report["pathways"]
    counts, unit_costs, total = stats["counts"], stats["unit_costs"], stats["total_tasks"]
    for pathway in sorted(counts):
        unit = unit_costs.get(pathway, 0.0)
        lines.append(
            f"  {pathway:<10} tasks {counts[pathway]:>6}  share {counts[pathway] / total:6.1%}"
            f"  unit cost {unit:g}  cost {counts[pathway] * unit:g}"
        )
    lines.append(f"  total tasks {total}  total cost {stats['total_cost']:g}")
    lines.append(f"  note: {stats['provenance']}")

    metadata = report["metadata"]
    if metadata:
        lines.append("Run")
        lines.extend(f"  {key}: {metadata[key]}" for key in sorted(metadata))
    return "\n".join(lines)
