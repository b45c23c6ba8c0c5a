"""Target extraction: name the object category a referring expression refers to.

The LLM-backed adapters (see replay / http modules) send a fixed
question plus three in-context examples and require a dictionary-format
answer, which keeps free-text drift out of the parse path. The heuristic
extractor needs no model at all: it takes the head noun of the
expression's first noun phrase and is the fallback when an LLM answer
fails to parse.
"""

from __future__ import annotations

import json
import logging
import re

logger = logging.getLogger(__name__)

EXTRACT_QUESTION = "Which object does the given expression refer to?"

EXTRACT_EXAMPLES: tuple[tuple[str, str], ...] = (
    ("the child positioned to the right of the white cap", "child"),
    ("a dog", "dog"),
    ("the bird to the left of the white cow", "bird"),
)


def build_extract_prompt(expression: str) -> str:
    """Question + three worked examples + dictionary-format requirement."""
    if not expression:
        raise ValueError("empty expression")
    lines = [
        EXTRACT_QUESTION,
        'Respond with a dictionary in the form {"target": "<object>"} and nothing else.',
        "",
    ]
    for sample, target in EXTRACT_EXAMPLES:
        lines.append(f'Expression: "{sample}"')
        lines.append(f'Answer: {{"target": "{target}"}}')
        lines.append("")
    lines.append(f'Expression: "{expression}"')
    lines.append("Answer:")
    return "\n".join(lines)


_DICT_ANSWER = re.compile(r"\{[^{}]*\}")


def parse_target_dict(raw: str) -> str | None:
    """Pull the target phrase out of a dictionary-format answer.

    Accepts surrounding prose and single-quoted pseudo-JSON; returns None
    when no parsable dictionary with a non-empty "target" entry is found.
    """
    for match in _DICT_ANSWER.finditer(raw):
        chunk = match.group(0)
        for candidate in (chunk, chunk.replace("'", '"')):
            try:
                data = json.loads(candidate)
            except json.JSONDecodeError:
                continue
            if isinstance(data, dict):
                target = data.get("target")
                if isinstance(target, str) and target.strip():
                    return target.strip()
    return None


# Words that end the head noun phrase once at least one content word is in.
_BOUNDARY = frozenset(
    """
    at by for from in into near next of off on onto over to under with
    behind beside between above below across against along amid around
    that which who whom whose and or but
    left right front back middle center top bottom
    """.split()
)

_DETERMINERS = frozenset(
    "a an the this that these those its his her their my our your some any each every".split()
)

_WORD = re.compile(r"[A-Za-z]+(?:-[A-Za-z]+)*")


class HeuristicTargetExtractor:
    """Head noun of the first noun phrase, by shallow lexical rules.

    Adequate for the determiner-adjective-noun openings typical of
    referring expressions; anything more structured should use an LLM
    extractor with this as its fallback.
    """

    def extract(self, expression: str) -> str:
        if not expression:
            raise ValueError("empty expression")
        words = [w.lower() for w in _WORD.findall(expression)]
        if not words:
            raise ValueError(f"no words in expression {expression!r}")
        phrase: list[str] = []
        for word in words:
            if not phrase and word in _DETERMINERS:
                continue
            if phrase and word in _BOUNDARY:
                break
            if phrase and (word.endswith("ing") or word.endswith("ed")):
                break
            if word in _DETERMINERS:
                break
            phrase.append(word)
        if not phrase:
            return words[-1]
        return phrase[-1]


def resolve_target(raw_answer: str, expression: str) -> str:
    """Dictionary-format parse, falling back (logged) to the heuristic extractor."""
    target = parse_target_dict(raw_answer)
    if target is not None:
        return target
    logger.warning(
        "extractor answer not in dictionary format, using heuristic: %r", raw_answer
    )
    return HeuristicTargetExtractor().extract(expression)
