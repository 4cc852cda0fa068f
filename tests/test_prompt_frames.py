"""Prompts are a context joined into a frame rendered once per (schema, strategy).

The reference below is the whole-template rendering that `build_prompt` did
before frames: one `_render` over the template with the context substituted,
plus the JSON instruction. Every prompt must stay byte-identical to it.
"""

from itertools import product

import pytest

from reportex import prompting
from reportex.corpus import PATHOLOGY_SCHEMA, RADIOLOGY_SCHEMA, LabelSchema, Task
from reportex.prompting import (
    _TASK_PHRASE,
    _TEMPLATES,
    FewShot,
    PromptError,
    PromptStrategy,
    PromptStyle,
    _exemplar_block,
    _render,
    build_prompt,
    check_strategies,
    default_exemplars,
)
from reportex.retrieval import RetrievedContext

ALL_STRATEGIES = [PromptStrategy(style, few_shot, json_instruction)
                  for style, few_shot, json_instruction
                  in product(PromptStyle, FewShot, (False, True))]

CONTEXTS = [
    "",
    "Stable exam. BT-RADS follow-up score: 2.",
    "{context}",
    "a {task} b {context} c {labels} {exemplars} {nr_label} {answer_key} {bogus}",
    "Ödem ohne Befund — IDH1 R132H ✓ 3b",
    "{",
    "}{context",
]


def reference_prompt(text: str, schema: LabelSchema, strategy: PromptStrategy) -> str:
    if strategy.few_shot is FewShot.NONE:
        chosen = []
    else:
        exemplars = default_exemplars(schema)
        positives = [e for e in exemplars if e.answer != schema.nr_label]
        negatives = [e for e in exemplars if e.answer == schema.nr_label]
        chosen = positives if strategy.few_shot is FewShot.POSITIVE else positives + negatives
    values = {
        "task": _TASK_PHRASE[schema.task],
        "labels": ", ".join(schema.valid_labels),
        "nr_label": schema.nr_label,
        "answer_key": schema.answer_key,
        "context": text,
        "exemplars": _exemplar_block(chosen, schema, strategy.json_instruction),
    }
    prompt = _render(_TEMPLATES[strategy.style], values)
    if strategy.json_instruction:
        prompt += (f'\nReply with exactly one JSON object of the form '
                   f'{{"{schema.answer_key}": "<answer>"}} and no other text.\n')
    return prompt


@pytest.mark.parametrize("schema", [RADIOLOGY_SCHEMA, PATHOLOGY_SCHEMA], ids=["rad", "path"])
@pytest.mark.parametrize("text", CONTEXTS)
def test_prompt_is_byte_identical_to_the_whole_template_render(schema, text):
    context = RetrievedContext(text, False, None, ())
    for strategy in ALL_STRATEGIES:
        assert build_prompt(context, schema, strategy) == reference_prompt(text, schema, strategy)


def test_fixed_text_is_every_prompt_without_its_context():
    marker = "\x00"  # no template or exemplar holds it
    context = RetrievedContext(marker, False, None, ())
    for schema in (RADIOLOGY_SCHEMA, PATHOLOGY_SCHEMA):
        expected = []
        for strategy in ALL_STRATEGIES:
            expected += build_prompt(context, schema, strategy).split(marker)
        assert prompting.fixed_text(schema) == expected


def test_fixed_text_leaves_out_strategies_the_schema_cannot_render():
    # the built-in few-shot exemplars answer "2" and "4", which this schema lacks
    schema = LabelSchema(Task.RADIOLOGY, ("low", "high", "NR"), "NR", "score", "score")
    zero_shot = [s for s in ALL_STRATEGIES if s.few_shot is FewShot.NONE]
    context = RetrievedContext("\x00", False, None, ())
    expected = []
    for strategy in zero_shot:
        expected += build_prompt(context, schema, strategy).split("\x00")
    assert prompting.fixed_text(schema) == expected


def test_a_strategy_that_fails_raises_on_every_call():
    schema = LabelSchema(Task.PATHOLOGY, ("positive", "negative", "NR", "none"), "none",
                         "idh", "idh")
    strategy = PromptStrategy(PromptStyle.SIMPLE, FewShot.POSITIVE_AND_NEGATIVE, True)
    for _ in range(2):  # a failed render is not cached
        with pytest.raises(PromptError, match="requires a negative exemplar"):
            check_strategies(schema, [strategy])
        with pytest.raises(PromptError, match="requires a negative exemplar"):
            build_prompt(RetrievedContext("x", False, None, ()), schema, strategy)


def test_equal_strategies_share_one_frame():
    # equal strategies hash alike, so a strategy spelled with plain strings
    # must render what its enum spelling renders, whichever is cached first
    context = RetrievedContext("x", False, None, ())
    for strategy in ALL_STRATEGIES:
        plain = PromptStrategy(strategy.style.value, strategy.few_shot.value,
                               strategy.json_instruction)
        assert plain == strategy
        assert build_prompt(context, RADIOLOGY_SCHEMA, plain) == reference_prompt(
            "x", RADIOLOGY_SCHEMA, strategy)
