"""A schema folds its labels once; postprocessing reads that table."""

import pytest

from reportex.corpus import RADIOLOGY_SCHEMA, LabelSchema, Task
from reportex.postprocess import InvalidReason, clean_artifacts, parse_label


def test_folded_lookup_is_the_table_built_with_the_schema():
    schema = LabelSchema(Task.RADIOLOGY, (" Low ", "HIGH", "NR"), "NR", "score", "kw")
    assert schema.folded_lookup() == {"low": " Low ", "high": "HIGH", "nr": "NR"}
    assert schema.folded_lookup() is schema.folded_lookup()


def test_every_curly_quote_becomes_straight():
    assert clean_artifacts("{“score”: ‘2’}") == '{"score": "2"}'
    assert clean_artifacts("„x‚ ’") == "\"x' '"


@pytest.mark.parametrize("raw", ['{"score": true}', '{"score": false}'])
def test_boolean_answer_is_not_in_schema(raw):
    parsed = parse_label(raw, RADIOLOGY_SCHEMA)
    assert parsed.label is None and parsed.reason is InvalidReason.NOT_IN_SCHEMA
