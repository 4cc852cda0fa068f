"""Deterministic prompt construction for the simple/complex and few-shot strategies."""

from __future__ import annotations

import hashlib
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
            raise PromptError(f"built-in exemplar answer {e.answer!r} not in schema")
    return exemplars


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def _render(template: str, values: dict[str, str]) -> str:
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in values:
            raise PromptError(f"unresolved placeholder {{{name}}}")
        return values[name]

    return _PLACEHOLDER_RE.sub(sub, template)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PromptTemplates:
    """Versioned template pair; hashes let sweeps cite the exact wording used."""

    simple: str
    complex: str

    @property
    def simple_hash(self) -> str:
        return _sha256(self.simple)

    @property
    def complex_hash(self) -> str:
        return _sha256(self.complex)

    @classmethod
    def default(cls) -> "PromptTemplates":
        pkg = resources.files("reportex.templates")
        return cls(
            simple=pkg.joinpath("simple.txt").read_text("utf-8"),
            complex=pkg.joinpath("complex.txt").read_text("utf-8"),
        )


_DEFAULT_TEMPLATES: PromptTemplates | None = None


def _default_templates() -> PromptTemplates:
    global _DEFAULT_TEMPLATES
    if _DEFAULT_TEMPLATES is None:
        _DEFAULT_TEMPLATES = PromptTemplates.default()
    return _DEFAULT_TEMPLATES


def _exemplar_block(exemplars: list[FewShotExemplar], schema: LabelSchema,
                    json_instruction: bool) -> str:
    parts = []
    for e in exemplars:
        answer = json.dumps({schema.answer_key: e.answer}) if json_instruction else e.answer
        parts.append(f"Report: {e.snippet}\nAnswer: {answer}\n\n")
    return "".join(parts)


def build_prompt(context: RetrievedContext, schema: LabelSchema, strategy: PromptStrategy,
                 exemplars: tuple[FewShotExemplar, ...] = (),
                 templates: PromptTemplates | None = None) -> str:
    """Render the prompt for one context. Pure and deterministic.

    Few-shot exemplars appear before the target report, positives first and
    negatives (not-reported) last. With json_instruction an output-format
    instruction is appended.
    """
    templates = templates or _default_templates()
    for e in exemplars:
        if e.answer not in schema.valid_labels:
            raise PromptError(f"exemplar answer {e.answer!r} not in schema")

    if strategy.few_shot is FewShot.NONE:
        chosen: list[FewShotExemplar] = []
    else:
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
    template = templates.simple if strategy.style is PromptStyle.SIMPLE else templates.complex
    prompt = _render(template, values)
    if strategy.json_instruction:
        prompt += (
            f'\nReply with exactly one JSON object of the form '
            f'{{"{schema.answer_key}": "<answer>"}} and no other text.\n'
        )
    return prompt
