"""Deterministic prompt construction for the simple/complex and few-shot strategies.

Each (schema, strategy) pair's frame, the prompt text around the context, is
rendered once and cached, so each pair of a sweep only joins its context in.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, fields
from enum import Enum, EnumMeta
from functools import cache
from importlib import resources
from itertools import product, starmap

from .corpus import LabelSchema, Task
from .inputs import InputError, check_object, dataclass_fields
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
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.value if isinstance(v, Enum) else v for name, v in values}


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


@cache
def _frame(schema: LabelSchema, strategy: PromptStrategy) -> tuple[str, ...]:
    """The prompt text around each {context} of the strategy's template. Few-shot
    strategies put the task's built-in exemplars before the report, positives
    first and the not-reported one last; json_instruction appends an
    output-format instruction."""
    try:
        style, few_shot = PromptStyle(strategy.style), FewShot(strategy.few_shot)
    except ValueError as e:  # e.g. "'bogus' is not a valid PromptStyle"
        raise PromptError(str(e)) from e
    chosen: list[FewShotExemplar] = []
    if few_shot is not FewShot.NONE:
        exemplars = default_exemplars(schema)
        chosen = [e for e in exemplars if e.answer != schema.nr_label]
        if few_shot is FewShot.POSITIVE_AND_NEGATIVE:
            negatives = [e for e in exemplars if e.answer == schema.nr_label]
            if not negatives:
                raise PromptError("few_shot=positive_and_negative requires a negative exemplar")
            chosen += negatives

    values = {
        "task": _TASK_PHRASE[schema.task],
        "labels": ", ".join(schema.valid_labels),
        "nr_label": schema.nr_label,
        "answer_key": schema.answer_key,
        "exemplars": _exemplar_block(chosen, schema, strategy.json_instruction),
    }
    pieces = [_render(piece, values) for piece in _TEMPLATES[style].split("{context}")]
    if strategy.json_instruction:
        pieces[-1] += (f'\nReply with exactly one JSON object of the form '
                       f'{{"{schema.answer_key}": "<answer>"}} and no other text.\n')
    return tuple(pieces)


def build_prompt(context: RetrievedContext, schema: LabelSchema, strategy: PromptStrategy) -> str:
    """Render the prompt for one context. Pure and deterministic."""
    # _render never rescans a value it substituted, so joining the context into
    # the frame gives the render of the whole template, whatever the context holds.
    return context.selected_text.join(_frame(schema, strategy))


# A strategy built in code skips PipelineConfig's check of its JSON form. Any
# string passes for an Enum field here, and _frame words one outside the Enum.
_STRATEGY_FIELDS = tuple((name, str if isinstance(kind, EnumMeta) else kind, required)
                         for name, kind, required in dataclass_fields(PromptStrategy))


def check_strategies(schema: LabelSchema, strategies) -> None:
    """Raise PromptError if one of `strategies` has a field of the wrong type, or
    build_prompt cannot render it for `schema`."""
    for strategy in strategies:
        try:
            check_object(vars(strategy), _STRATEGY_FIELDS)
        except InputError as e:
            raise PromptError(str(e)) from e
        _frame(schema, strategy)


def fixed_text(schema: LabelSchema) -> list[str]:
    """Every piece of prompt text but the context, over every strategy `schema` can render."""
    pieces = []
    for strategy in starmap(PromptStrategy, product(PromptStyle, FewShot, (False, True))):
        with suppress(PromptError):  # run_sweep and extract refuse it before any request
            pieces.extend(_frame(schema, strategy))
    return pieces
