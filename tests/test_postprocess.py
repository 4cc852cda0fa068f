import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reportex.inputs import from_json
from reportex.postprocess import (
    InvalidReason,
    ParsedLabel,
    canonicalize_value,
    clean_artifacts,
    load_noise_wrappers,
    parse_label,
    render_wrapped,
)
from reportex.postprocess import _first_object


class TestCleanArtifacts:
    def test_fenced_single_quoted(self):
        assert clean_artifacts("```json\n{'score': '2a'}\n```") == '{"score": "2a"}'

    def test_already_clean(self):
        assert clean_artifacts('{"score": "3b"}') == '{"score": "3b"}'

    def test_newline_and_padding(self):
        assert clean_artifacts('  {"score":\n"NR"} ') == '{"score": "NR"}'

    def test_curly_quotes(self):
        assert clean_artifacts("{“score”: “2a”}") == '{"score": "2a"}'

    def test_prose_apostrophe_survives(self):
        assert clean_artifacts("it's fine") == "it's fine"

    @given(st.text(max_size=200))
    def test_idempotent(self, s):
        once = clean_artifacts(s)
        assert clean_artifacts(once) == once


class TestExtractJsonPayload:
    """The JSON payload that _first_object finds, and its [start, end) span."""

    def test_surrounding_prose(self):
        assert _first_object('Sure! {"score": "4"} Hope that helps.') == ({"score": "4"}, 6, 20)

    def test_no_braces(self):
        assert _first_object("no braces here") is None

    def test_first_valid_object_wins(self):
        assert _first_object('{"a":1} {"score":"2"}') == ({"a": 1}, 0, 7)

    def test_skips_unparseable_prefix_object(self):
        assert _first_object('{oops} {"score": "2"}') == ({"score": "2"}, 7, 21)

    def test_nested_object(self):
        assert _first_object('x {"a": {"b": 1}} y') == ({"a": {"b": 1}}, 2, 17)

    def test_braces_inside_strings_ignored(self):
        assert _first_object('{"a": "}{"}') == ({"a": "}{"}, 0, 11)


class TestParseLabel:
    def test_full_pipeline(self, radiology_schema):
        assert parse_label('The score is {"score": "3c"}.', radiology_schema) == ParsedLabel.valid("3c")

    def test_null_value(self, radiology_schema):
        assert parse_label('{"score": null}', radiology_schema).reason is InvalidReason.NULL_VALUE

    def test_not_in_schema(self, pathology_schema):
        result = parse_label('{"idh_status": "equivocal"}', pathology_schema)
        assert result.reason is InvalidReason.NOT_IN_SCHEMA

    def test_no_json(self, radiology_schema):
        assert parse_label("cannot help", radiology_schema).reason is InvalidReason.NO_JSON

    def test_empty(self, radiology_schema):
        assert parse_label("", radiology_schema).reason is InvalidReason.EMPTY
        assert parse_label("   \n ", radiology_schema).reason is InvalidReason.EMPTY

    def test_wrong_key(self, radiology_schema):
        result = parse_label('{"verdict": "apple", "x": "y"}', radiology_schema)
        assert result.reason is InvalidReason.WRONG_KEY

    def test_single_string_field_recovery(self, radiology_schema):
        result = parse_label('{"btrads": "2a"}', radiology_schema)
        assert result == ParsedLabel.valid("2a", alt_key="btrads")

    def test_numeric_value_stringified(self, radiology_schema):
        assert parse_label('{"score": 2}', radiology_schema) == ParsedLabel.valid("2")
        assert parse_label('{"score": 4.0}', radiology_schema) == ParsedLabel.valid("4")

    def test_case_and_prefix_canonicalization(self, radiology_schema):
        assert parse_label('{"score": "1A"}', radiology_schema) == ParsedLabel.valid("1a")
        assert parse_label('{"score": "BT-RADS 2a"}', radiology_schema) == ParsedLabel.valid("2a")
        assert parse_label('{"score": "not provided"}', radiology_schema) == ParsedLabel.valid("NR")

    def test_pathology_aliases(self, pathology_schema):
        for raw, expected in [
            ("mutant", "positive"), ("Mutated", "positive"), ("IDH-mutant", "positive"),
            ("wildtype", "negative"), ("wild-type", "negative"), ("not detected", "negative"),
        ]:
            assert parse_label(json.dumps({"idh_status": raw}), pathology_schema) == \
                ParsedLabel.valid(expected), raw

    def test_empty_string_value(self, radiology_schema):
        assert parse_label('{"score": ""}', radiology_schema).reason is InvalidReason.EMPTY

    def test_roundtrip_dict(self, radiology_schema):
        for parsed in [ParsedLabel.valid("2a"), ParsedLabel.invalid(InvalidReason.NO_JSON),
                       ParsedLabel.valid("4", alt_key="result")]:
            assert from_json(ParsedLabel, parsed.to_dict()) == parsed


class TestRecovery:
    """Every (label, wrapper) combination from the wrapper corpus is recoverable."""

    def test_all_wrappers_all_labels(self, radiology_schema, pathology_schema):
        wrappers = load_noise_wrappers()
        assert len(wrappers) >= 8
        for schema in (radiology_schema, pathology_schema):
            for label in schema.valid_labels:
                for wrapper in wrappers:
                    raw = render_wrapped(wrapper, schema.answer_key, label)
                    parsed = parse_label(raw, schema)
                    assert parsed.label == label, (wrapper["name"], label, raw)


def _mutate(rng, s):
    ops = ("insert", "delete", "swap", "dup")
    if not s:
        return s + "{"
    op = rng.choice(ops)
    i = rng.randrange(len(s))
    if op == "insert":
        return s[:i] + rng.choice('{}[]":,\'\n\\x') + s[i:]
    if op == "delete":
        return s[:i] + s[i + 1:]
    if op == "swap":
        j = rng.randrange(len(s))
        lst = list(s)
        lst[i], lst[j] = lst[j], lst[i]
        return "".join(lst)
    return s[:i] + s[i] * 3 + s[i:]


class TestTotalityAndSoundness:
    def test_seeded_fuzz_never_raises_and_stays_sound(self, radiology_schema):
        rng = random.Random(99)
        seeds = [
            '{"score": "2a"}', "```json\n{'score': null}\n```", 'prefix {"a": 1} suffix',
            "{{{{", '{"score": ', "\x00\x01\x02", "", '{"score": [2]}',
        ]
        valid = set(radiology_schema.valid_labels)
        for _ in range(2000):
            base = rng.choice(seeds)
            raw = base
            for _ in range(rng.randrange(4)):
                raw = _mutate(rng, raw)
            parsed = parse_label(raw, radiology_schema)
            if parsed.is_valid:
                assert parsed.label in valid

    @given(st.text(max_size=400))
    @settings(max_examples=300)
    def test_arbitrary_text_total(self, s):
        from reportex.corpus import RADIOLOGY_SCHEMA
        parsed = parse_label(s, RADIOLOGY_SCHEMA)
        assert parsed.is_valid or parsed.reason is not None


class TestCanonicalize:
    def test_strips_punctuation(self, radiology_schema):
        assert canonicalize_value(" 2a. ", radiology_schema) == "2a"

    def test_unknown_returns_none(self, radiology_schema):
        assert canonicalize_value("banana", radiology_schema) is None


_JSON_SYNTAX = '{}[]":,\\ ' + "abcdefghijklmnopqrstuvwxyz" + "0123456789"


class TestDecoderTotality:
    """Inputs the standard-library decoder rejects mean "no object here", never an exception."""

    def test_integer_past_digit_limit_is_invalid(self, radiology_schema):
        parsed = parse_label('{"score": ' + "7" * 5000 + "}", radiology_schema)
        assert not parsed.is_valid
        assert parsed.reason is InvalidReason.NO_JSON

    def test_nesting_past_recursion_limit_is_total(self, radiology_schema):
        # The decoder's depth limit follows the recursion limit, so only
        # totality is asserted, not which inner object (if any) is recovered.
        raw = '{"a":' * 5000 + "1" + "}" * 5000
        assert isinstance(parse_label(raw, radiology_schema), ParsedLabel)

    def test_unmatched_braces_scan_in_linear_time(self, radiology_schema):
        start = time.perf_counter()
        parsed = parse_label("{" * 20000, radiology_schema)
        assert time.perf_counter() - start < 2.0
        assert parsed.reason is InvalidReason.NO_JSON

    @pytest.mark.parametrize("raw", ['{"a":' * 10000, "{" * 40000],
                             ids=["unclosed_nesting", "open_braces"])
    def test_no_closing_brace_returns_at_once(self, raw):
        # Each failed decode from every "{" took 0.7-1.2 s in all on these inputs.
        start = time.perf_counter()
        assert _first_object(raw) is None
        assert time.perf_counter() - start < 0.25

    @given(st.text(alphabet=_JSON_SYNTAX, max_size=300))
    @settings(max_examples=300)
    def test_json_syntax_text_total(self, s):
        from reportex.corpus import RADIOLOGY_SCHEMA
        parsed = parse_label(s, RADIOLOGY_SCHEMA)
        assert parsed.is_valid or parsed.reason is not None
        cleaned = clean_artifacts(s)
        found = _first_object(cleaned)
        assert found is None or isinstance(json.loads(cleaned[found[1] : found[2]]), dict)
