import json
import math
from dataclasses import dataclass

import pytest

from reportex.corpus import CorpusError, load_schema
from reportex.inputs import InputError, check_object, dataclass_fields, from_json
from reportex.postprocess import InvalidReason, ParsedLabel
from reportex.sweep import PipelineConfig

TABLE = (
    ("n", int, True),
    ("x", float, False),
    ("flag", bool, False),
    ("name", str | None, False),
    ("labels", tuple[str, ...], False),
    ("weights", dict[str, float], False),
    ("nested", (("k", int, True),), False),
)


def _error(value, table=TABLE, **kw) -> str:
    with pytest.raises(InputError) as exc:
        check_object(value, table, **kw)
    return str(exc.value)


class TestRules:
    @pytest.mark.parametrize("field, value", [("n", True), ("x", False)])
    def test_bool_is_never_a_number(self, field, value):
        assert _error({"n": 1, field: value}) == f"{field} must be " + (
            "an integer" if field == "n" else "a number") + ", not bool"

    def test_int_passes_where_a_float_is_expected_unconverted(self):
        checked = check_object({"n": 1, "x": 8}, TABLE)
        assert checked == {"n": 1, "x": 8} and type(checked["x"]) is int

    def test_float_is_not_an_integer(self):
        assert _error({"n": 2.0}) == "n must be an integer, not float"

    @pytest.mark.parametrize("value, shown", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
    ])
    def test_non_finite_numbers_are_refused(self, value, shown):
        assert _error({"n": 1, "x": value}) == f"x must be a number, not {shown}"
        assert _error({"n": 1, "weights": {"a": value}}) == f"weights.a must be a number, not {shown}"

    def test_missing_required_field(self):
        assert _error({}) == "n must be an integer, not missing"

    def test_null_only_where_allowed(self):
        assert check_object({"n": 1, "name": None}, TABLE) == {"n": 1, "name": None}
        assert _error({"n": None}) == "n must be an integer, not null"
        assert _error({"n": 1, "name": 3}) == "name must be a string or null, not int"

    def test_lists_are_checked_as_a_whole(self):
        assert check_object({"n": 1, "labels": ["a"]}, TABLE)["labels"] == ("a",)
        assert _error({"n": 1, "labels": ["a", 1]}) == (
            "labels must be a list of strings, not a list holding int")
        assert _error({"n": 1, "labels": "a"}) == "labels must be a list of strings, not str"

    @pytest.mark.parametrize("item, shown", [
        (None, "null"), (math.nan, "NaN"), (-math.inf, "-Infinity"),
        ("\ud800", "a string holding a lone surrogate"),
    ], ids=["null", "nan", "-infinity", "surrogate"])
    def test_a_bad_list_item_is_worded_as_a_bad_value(self, item, shown):
        assert _error({"n": 1, "labels": ["a", item]}) == (
            f"labels must be a list of strings, not a list holding {shown}")

    def test_schema_with_a_null_label_names_null(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({
            "task": "radiology", "valid_labels": ["2", None], "nr_label": "2",
            "answer_key": "score", "retrieval_keywords": "score"}), encoding="utf-8")
        with pytest.raises(CorpusError, match="valid_labels must be a list of strings, "
                                              "not a list holding null"):
            load_schema(path)

    def test_nested_tables_name_the_key_path(self):
        assert _error({"n": 1, "nested": {"k": "1"}}) == "nested.k must be an integer, not str"
        assert _error({"n": 1, "nested": []}) == "nested must be a JSON object, not list"

    def test_top_level_shape(self):
        assert _error([1]) == "expected a JSON object, not list"
        assert _error(5, what="grid") == "grid must be a JSON object, not int"

    def test_unknown_keys_ignored_unless_closed(self):
        assert check_object({"n": 1, "comment": "x"}, TABLE) == {"n": 1}
        assert _error({"n": 1, "comment": "x"}, closed=True).endswith(", not 'comment'")
        assert _error({"n": 1, "nested": {"k": 1, "j": 2}}, closed=True).startswith(
            "nested must have only the fields k, not 'j'")


class TestDataclasses:
    def test_field_table_follows_defaults(self):
        @dataclass
        class Point:
            x: int
            y: float = 0.0

        assert dataclass_fields(Point) == (("x", int, True), ("y", float, False))
        assert from_json(Point, {"x": 3}) == Point(3)

    def test_enum_values_are_built(self):
        parsed = from_json(ParsedLabel, {"label": None, "reason": "no_json"})
        assert parsed == ParsedLabel.invalid(InvalidReason.NO_JSON)

    def test_enum_value_outside_the_enum(self):
        with pytest.raises(InputError, match="^reason must be one of 'no_json', .*, not 'nope'$"):
            from_json(ParsedLabel, {"label": None, "reason": "nope"})

    def test_config_keeps_numbers_as_written(self):
        config = PipelineConfig.from_dict({"model_name": "m", "param_count_b": 8})
        assert type(config.param_count_b) is int
        assert config.config_hash == PipelineConfig(model_name="m", param_count_b=8).config_hash
