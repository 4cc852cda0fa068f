import pytest

from reportex.corpus import LabelSchema, Task
from reportex.prompting import (
    FewShot,
    PromptError,
    PromptStrategy,
    PromptStyle,
    _render,
    build_prompt,
    check_strategies,
    default_exemplars,
)
from reportex.retrieval import RetrievedContext


def _schema(valid_labels, nr_label="NR"):
    return LabelSchema(Task.RADIOLOGY, tuple(valid_labels), nr_label, "score", "score")


def _ctx(text="Stable exam. BT-RADS follow-up score: 2."):
    return RetrievedContext(selected_text=text, rag_used=False, rerank_score=None, candidates=())


class TestBuildPrompt:
    def test_simple_contains_context_exactly_once(self, radiology_schema):
        ctx = _ctx("a very distinctive context sentence")
        prompt = build_prompt(ctx, radiology_schema,
                              PromptStrategy(PromptStyle.SIMPLE, FewShot.NONE, False))
        assert prompt.count(ctx.selected_text) == 1

    def test_simple_has_no_label_enumeration(self, radiology_schema):
        prompt = build_prompt(_ctx(), radiology_schema,
                              PromptStrategy(PromptStyle.SIMPLE, FewShot.NONE, False))
        assert "3c" not in prompt

    def test_complex_enumerates_all_labels(self, radiology_schema):
        prompt = build_prompt(_ctx(), radiology_schema,
                              PromptStrategy(PromptStyle.COMPLEX, FewShot.NONE, False))
        for label in radiology_schema.valid_labels:
            assert label in prompt
        assert "1a, 1b, 2, 2a, 2b, 3, 3a, 3b, 3c, 4" in prompt

    def test_deterministic(self, pathology_schema):
        strategy = PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE_AND_NEGATIVE, True)
        a = build_prompt(_ctx(), pathology_schema, strategy)
        b = build_prompt(_ctx(), pathology_schema, strategy)
        assert a == b

    def test_json_instruction_appended(self, pathology_schema):
        with_json = build_prompt(_ctx(), pathology_schema,
                                 PromptStrategy(PromptStyle.COMPLEX, FewShot.NONE, True))
        without = build_prompt(_ctx(), pathology_schema,
                               PromptStrategy(PromptStyle.COMPLEX, FewShot.NONE, False))
        assert '{"idh_status": "<answer>"}' in with_json
        assert '{"idh_status"' not in without

    def test_exemplars_render_positives_first_negative_last(self, radiology_schema):
        exemplars = default_exemplars(radiology_schema)
        strategy = PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE_AND_NEGATIVE, False)
        prompt = build_prompt(_ctx(), radiology_schema, strategy)
        positions = [prompt.index(e.snippet) for e in exemplars]
        assert positions == sorted(positions)
        assert positions[-1] < prompt.index(_ctx().selected_text)

    def test_positive_only_excludes_negative(self, radiology_schema):
        exemplars = default_exemplars(radiology_schema)
        prompt = build_prompt(_ctx(), radiology_schema,
                              PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE, False))
        negative = [e for e in exemplars if e.answer == "NR"][0]
        assert negative.snippet not in prompt

    def test_negative_required_error(self):
        # every built-in exemplar answer is a label, but none is the not-reported one
        schema = _schema(["2", "4", "NR", "none"], nr_label="none")
        build_prompt(_ctx(), schema, PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE, False))
        with pytest.raises(PromptError, match="requires a negative exemplar"):
            build_prompt(_ctx(), schema,
                         PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE_AND_NEGATIVE, False))

    def test_prompt_grows_with_exemplars(self, radiology_schema):
        lengths = []
        for few_shot in (FewShot.NONE, FewShot.POSITIVE, FewShot.POSITIVE_AND_NEGATIVE):
            prompt = build_prompt(_ctx(), radiology_schema,
                                  PromptStrategy(PromptStyle.COMPLEX, few_shot, False))
            lengths.append(len(prompt))
        assert lengths[0] < lengths[1] < lengths[2]

    def test_exemplar_answer_outside_schema_rejected(self):
        schema = _schema(["low", "high", "NR"])
        zero_shot = [PromptStrategy(style, FewShot.NONE, json_instruction)
                     for style in PromptStyle for json_instruction in (False, True)]
        check_strategies(schema, zero_shot)
        for few_shot in (FewShot.POSITIVE, FewShot.POSITIVE_AND_NEGATIVE):
            strategy = PromptStrategy(PromptStyle.COMPLEX, few_shot, False)
            with pytest.raises(PromptError, match="schema has no label '2'"):
                build_prompt(_ctx(), schema, strategy)
            with pytest.raises(PromptError, match="schema has no label '2'"):
                check_strategies(schema, zero_shot + [strategy])

    @pytest.mark.parametrize("field, kind", [("style", "PromptStyle"), ("few_shot", "FewShot")])
    def test_unknown_style_or_few_shot_rejected(self, radiology_schema, field, kind):
        # a strategy built in code skips PipelineConfig's check of its JSON form
        strategy = PromptStrategy(**{field: "bogus"})
        with pytest.raises(PromptError, match=f"^'bogus' is not a valid {kind}$"):
            check_strategies(radiology_schema, [strategy])
        with pytest.raises(PromptError, match="'bogus'"):
            build_prompt(_ctx(), radiology_schema, strategy)


class TestDefaultExemplars:
    def test_radiology_three_with_nr_last(self, radiology_schema):
        exemplars = default_exemplars(radiology_schema)
        assert len(exemplars) == 3
        assert exemplars[-1].answer == "NR"
        positives = [e.answer for e in exemplars[:2]]
        assert len(set(positives)) == 2

    def test_pathology_answers_in_schema(self, pathology_schema):
        exemplars = default_exemplars(pathology_schema)
        assert {e.answer for e in exemplars} <= set(pathology_schema.valid_labels)
        assert {e.answer for e in exemplars} == {"positive", "negative", "NR"}


class TestTemplates:
    def test_unresolved_placeholder_is_error(self):
        assert _render("ONLY {context} HERE", {"context": "abc"}) == "ONLY abc HERE"
        with pytest.raises(PromptError, match="bogus_name"):
            _render("{context} {bogus_name}", {"context": "abc"})
