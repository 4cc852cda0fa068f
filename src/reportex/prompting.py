"""Deterministic prompt construction for the simple/complex and few-shot strategies."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources

from .corpus import LabelSchema, Task
from .retrieval import RetrievedContext


class PromptError(ValueError):
    pass


class PromptStyle(str, Enum):
    SIMPLE = "simple"
    COMPLEX = "complex"


class FewShot(str, Enum):
    NONE = "none"
    POSITIVE = "positive"
    POSITIVE_AND_NEGATIVE = "positive_and_negative"


@dataclass(frozen=True)
class PromptStrategy:
    style: PromptStyle = PromptStyle.COMPLEX
    few_shot: FewShot = FewShot.NONE
    json_instruction: bool = True

    def to_dict(self) -> dict:
        return {**asdict(self), "style": self.style.value, "few_shot": self.few_shot.value}


@dataclass(frozen=True)
class FewShotExemplar:
    snippet: str
    answer: str


# Task phrasing used for the {task} placeholder.
_TASK_PHRASE = {
    Task.RADIOLOGY: "the BT-RADS follow-up score",
    Task.PATHOLOGY: "the IDH mutation status",
}

# Built-in exemplars are synthetic, never drawn from evaluation corpora, and
# deliberately avoid the synthetic generator's filler vocabulary and sentence
# templates so exemplar text cannot be mistaken for report text.
_EXEMPLARS = {
    Task.RADIOLOGY: (
        FewShotExemplar(
            "Redemonstration of expected postoperative appearance. Category assigned for this exam is 2.",
            "2",
        ),
        FewShotExemplar(
            "Worsening nodularity raises concern for progression. Category assigned for this exam is 4.",
            "4",
        ),
        FewShotExemplar(
            "Routine surveillance head MRI obtained at the requested timepoint.",
            "NR",
        ),
    ),
    Task.PATHOLOGY: (
        FewShotExemplar(
            "Immunoprofile supports an integrated result, R132H immunopositivity seen on slides.",
            "positive",
        ),
        FewShotExemplar(
            "Targeted sequencing found no alteration at codon 132 or codon 172.",
            "negative",
        ),
        FewShotExemplar(
            "The sample contains dura and bone chips only, inadequate for ancillary assays.",
            "NR",
        ),
    ),
}


def default_exemplars(schema: LabelSchema) -> tuple[FewShotExemplar, ...]:
    """Two positive exemplars with distinct labels plus one not-reported exemplar."""
    exemplars = _EXEMPLARS[schema.task]
    for e in exemplars:
        if e.answer not in schema.valid_labels:
            raise PromptError(f"schema has no label {e.answer!r}, which a built-in "
                              f"{schema.task.value} few-shot exemplar answers")
    return exemplars


_TEMPLATES = {style: resources.files("reportex.templates").joinpath(f"{style.value}.txt")
              .read_text("utf-8") for style in PromptStyle}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def _render(template: str, values: dict[str, str]) -> str:
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in values:
            raise PromptError(f"unresolved placeholder {{{name}}}")
        return values[name]

    return _PLACEHOLDER_RE.sub(sub, template)


def _exemplar_block(exemplars: list[FewShotExemplar], schema: LabelSchema,
                    json_instruction: bool) -> str:
    parts = []
    for e in exemplars:
        answer = json.dumps({schema.answer_key: e.answer}) if json_instruction else e.answer
        parts.append(f"Report: {e.snippet}\nAnswer: {answer}\n\n")
    return "".join(parts)


def build_prompt(context: RetrievedContext, schema: LabelSchema, strategy: PromptStrategy) -> str:
    """Render the prompt for one context. Pure and deterministic.

    Few-shot strategies put the built-in exemplars of the schema's task before
    the target report, positives first and the not-reported one last. With
    json_instruction an output-format instruction is appended.
    """
    if strategy.few_shot is FewShot.NONE:
        chosen: list[FewShotExemplar] = []
    else:
        exemplars = default_exemplars(schema)
        positives = [e for e in exemplars if e.answer != schema.nr_label]
        negatives = [e for e in exemplars if e.answer == schema.nr_label]
        if strategy.few_shot is FewShot.POSITIVE:
            chosen = positives
        else:
            if not negatives:
                raise PromptError("few_shot=positive_and_negative requires a negative exemplar")
            chosen = positives + negatives

    values = {
        "task": _TASK_PHRASE[schema.task],
        "labels": ", ".join(schema.valid_labels),
        "nr_label": schema.nr_label,
        "answer_key": schema.answer_key,
        "context": context.selected_text,
        "exemplars": _exemplar_block(chosen, schema, strategy.json_instruction),
    }
    prompt = _render(_TEMPLATES[strategy.style], values)
    if strategy.json_instruction:
        prompt += (
            f'\nReply with exactly one JSON object of the form '
            f'{{"{schema.answer_key}": "<answer>"}} and no other text.\n'
        )
    return prompt


def check_strategies(schema: LabelSchema, strategies) -> None:
    """Raise PromptError if build_prompt cannot render one of `strategies` for `schema`."""
    empty = RetrievedContext("", False, None, ())
    for strategy in set(strategies):
        build_prompt(empty, schema, strategy)
