"""Every CLI input is total: whatever an input file holds, `reportex` exits 0,
2, 3 or 4 and no exception escapes.

Each input kind (corpus spec, pipeline config, grid, schema, corpus line,
report JSON, store line) is fed arbitrary bytes, arbitrary JSON, and a valid
object with one key path replaced by an arbitrary JSON value, NaN, ±Infinity
and strings of lone surrogates included. Only the last gets past the
top-level shape check to the field checks. Drawn numbers stay small: a
well-typed spec asking for a huge corpus is a valid request, not a malformed
input.

The backend is a closed port and retries are off, so a valid sweep fails
fast on every pair.

A PipelineConfig or a GenerationRequest built in Python passes the same
check as its JSON form, with the same wording, so every config that builds
reads back from its JSON form as itself.
"""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reportex import cli, lm_client
from reportex.corpus import RADIOLOGY_SCHEMA, Task, default_corpus_spec, generate_synthetic_corpus
from reportex.lm_client import GenerationRequest
from reportex.postprocess import ParsedLabel
from reportex.retrieval import RetrievalSettings
from reportex.sweep import ExtractionRecord, PipelineConfig, SweepError, SweepGrid, enumerate_configs

CLOSED_ENDPOINT = "http://127.0.0.1:9"

_REPORTS, _ANNOTATIONS = generate_synthetic_corpus(default_corpus_spec(Task.RADIOLOGY, 2, seed=1))
_CORPUS_LINES = [{"id": r.id, "task": "radiology", "text": r.text, "label": a.label}
                 for r, a in zip(_REPORTS, _ANNOTATIONS)]
_BASE = PipelineConfig(model_name="m", retrieval=RetrievalSettings(mode="hybrid"))
_GRID = {"base": _BASE.to_dict(), "axes": {"top_k": [2, 40]}, "sample": {"n": 2, "seed": 0}}
_STORE_LINES = [
    ExtractionRecord(r.id, config.config_hash, "", ParsedLabel.valid(a.label), False, None,
                     1.0, 0.0).to_dict()
    for config in enumerate_configs(SweepGrid(_BASE, _GRID["axes"]))
    for r, a in zip(_REPORTS, _ANNOTATIONS)
]

# Each input kind: its file, the valid object, and the valid lines kept before
# the drawn one in a JSONL file.
VALID = {
    "spec": {"task": "radiology", "n_reports": 2, "class_distribution": {"2": 0.5, "NR": 0.5},
             "length_mean_words": 40, "length_sd_words": 5, "distractor_rate": 0.1, "seed": 1},
    "config": _BASE.to_dict(),
    "grid": _GRID,
    "schema": {"task": "radiology", "valid_labels": list(RADIOLOGY_SCHEMA.valid_labels),
               "nr_label": RADIOLOGY_SCHEMA.nr_label, "answer_key": RADIOLOGY_SCHEMA.answer_key,
               "retrieval_keywords": RADIOLOGY_SCHEMA.retrieval_keywords},
    "corpus": _CORPUS_LINES[1],
    "report": {"id": "r1", "task": "radiology", "text": _REPORTS[0].text},
    "store": _STORE_LINES[-1],
}
_KEPT_LINES = {"corpus": _CORPUS_LINES[:1], "store": _STORE_LINES[:-1]}


def _command(kind: str, root: Path) -> list[str]:
    f = {name: str(root / name) for name in VALID}
    if kind == "spec":
        return ["generate-corpus", "--spec", f["spec"], "--out", str(root / "out.jsonl")]
    if kind in ("config", "report"):
        return ["extract", f["report"], "--config", f["config"], "--schema", f["schema"],
                "--endpoint", CLOSED_ENDPOINT]
    if kind == "store":
        return ["report", "--store", f["store"], "--corpus", f["corpus"],
                "--schema", f["schema"], "--grid", f["grid"]]
    return ["sweep", "--grid", f["grid"], "--corpus", f["corpus"], "--schema", f["schema"],
            "--store", str(root / "new.jsonl"), "--endpoint", CLOSED_ENDPOINT]


def _run(kind: str, content: bytes) -> int:
    """cli.main's exit code with every input valid but `kind`'s, which holds `content`."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, obj in VALID.items():
            lines = _KEPT_LINES.get(name, []) + [obj]
            (root / name).write_text("".join(json.dumps(o) + "\n" for o in lines))
        kept = "".join(json.dumps(o) + "\n" for o in _KEPT_LINES.get(kind, []))
        (root / kind).write_bytes(kept.encode() + content)
        return cli.main(_command(kind, root))


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# json.loads accepts a lone surrogate escape, which UTF-8 cannot encode
_TEXT = st.text(max_size=8) | st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
_SCALARS = (st.none() | st.booleans() | st.integers(-50, 50)
            | st.floats(min_value=-1e3, max_value=1e3) | _NON_FINITE | _TEXT)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


def _encoded(objects):
    return objects.map(lambda obj: (json.dumps(obj) + "\n").encode())


def _replaced(kind: str):
    """The valid object of `kind` with one key path replaced by an arbitrary JSON value."""

    def replace(path, value):
        out = copy.deepcopy(VALID[kind])
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return out

    paths = sorted(_key_paths(VALID[kind]))
    return _encoded(st.builds(replace, st.sampled_from(paths), _NON_FINITE | _SCALARS | _JSON))


@pytest.fixture(scope="module", autouse=True)
def _no_retries():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lm_client, "DEFAULT_RETRIES", 0)
        yield


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_inputs_run(kind):
    # extract exits 3 at the closed port; a sweep stores each failure as an error record
    expected = 3 if _command(kind, Path())[0] == "extract" else 0
    assert _run(kind, (json.dumps(VALID[kind]) + "\n").encode()) == expected


@pytest.mark.parametrize("kind", sorted(VALID))
def test_arbitrary_bytes_or_json_exits_with_a_documented_code(kind):
    @settings(max_examples=15)
    @given(st.binary(max_size=64) | _encoded(_JSON))
    def check(content):
        assert _run(kind, content) in (0, 2, 3, 4)

    check()


@pytest.mark.parametrize("kind", sorted(VALID))
def test_one_field_replaced_exits_with_a_documented_code(kind):
    @settings(max_examples=60)
    @given(_replaced(kind))
    def check(content):
        assert _run(kind, content) in (0, 2, 3, 4)

    check()


@settings(max_examples=300)
@given(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]),
       _NON_FINITE | _SCALARS | _JSON)
def test_every_config_that_builds_reads_back_as_itself(name, value):
    try:
        config = dataclasses.replace(_BASE, **{name: value})
    except SweepError:
        return
    back = PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config and back.config_hash == config.config_hash


@pytest.mark.parametrize("path, value, message", [
    ("top_k", 2.5, "top_k must be an integer, not float"),
    ("top_k", True, "top_k must be an integer, not bool"),
    ("seed", True, "seed must be an integer, not bool"),
    ("quant_bits", 4.5, "quant_bits must be an integer, not float"),
    ("model_name", 5, "model_name must be a string, not int"),
    ("retrieval.chunk_size", 70.5, "retrieval.chunk_size must be an integer, not float"),
    ("prompt.style", "bogus", "prompt.style must be one of 'simple', 'complex', not 'bogus'"),
    ("retrieval.bm25_b", None, "retrieval.bm25_b must be a number, not null"),
    ("retrieval.bm25_k1", "x", "retrieval.bm25_k1 must be a number, not str"),
    ("retrieval.candidates", None, "retrieval.candidates must be an integer, not null"),
    ("retrieval.chunk_size", "x", "retrieval.chunk_size must be an integer, not str"),
    ("retrieval.overlap", None, "retrieval.overlap must be an integer, not null"),
    ("retrieval.shortlist", "x", "retrieval.shortlist must be an integer, not str"),
], ids=["top_k-float", "top_k-bool", "seed-bool", "quant_bits-float", "model_name-int",
        "chunk_size-float", "style-unknown", "bm25_b-null", "bm25_k1-str", "candidates-null",
        "chunk_size-str", "overlap-null", "shortlist-str"])
def test_config_is_refused_as_its_json_form_is(path, value, message):
    parent, _, name = path.rpartition(".")
    d = _BASE.to_dict()
    (d[parent] if parent else d)[name] = value
    kwargs = ({parent: dataclasses.replace(getattr(_BASE, parent), **{name: value})} if parent
              else {name: value})
    with pytest.raises(SweepError) as built:
        dataclasses.replace(_BASE, **kwargs)
    with pytest.raises(SweepError) as read:
        PipelineConfig.from_dict(d)
    assert str(built.value) == message
    assert str(read.value) == f"invalid pipeline config: {message}"


@pytest.mark.parametrize("name, value", [("prompt", {"style": "simple"}), ("retrieval", "hybrid")],
                         ids=["prompt-dict", "retrieval-str"])
def test_config_part_of_another_type_is_refused(name, value):
    # a dict in `prompt` would pass as its JSON form, and read back as a PromptStrategy
    with pytest.raises(SweepError, match="^prompt must be a PromptStrategy and retrieval a "
                                         "RetrievalSettings$"):
        dataclasses.replace(_BASE, **{name: value})


@pytest.mark.parametrize("name, value, message", [
    ("top_k", math.inf, "top_k must be an integer, not Infinity"),
    ("top_k", 2.5, "top_k must be an integer, not float"),
    ("top_k", True, "top_k must be an integer, not bool"),
    ("seed", math.inf, "seed must be an integer, not Infinity"),
    ("seed", math.nan, "seed must be an integer, not NaN"),
    ("seed", True, "seed must be an integer, not bool"),
    ("seed", "x", "seed must be an integer, not str"),
], ids=["top_k-inf", "top_k-float", "top_k-bool", "seed-inf", "seed-nan", "seed-bool",
        "seed-str"])
def test_request_is_refused_as_its_body_would_be(name, value, message):
    with pytest.raises(ValueError) as exc:
        GenerationRequest("m", "p", **{name: value})
    assert str(exc.value) == message
