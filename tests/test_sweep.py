import copy
import csv
import hashlib
import io
import json
import math
import threading
import time
from dataclasses import dataclass, replace
from importlib import resources

import pytest

from reportex import sweep as sweep_mod
from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    RADIOLOGY_SCHEMA,
    LabelSchema,
    Report,
    Task,
    answer_sentence,
    default_corpus_spec,
    generate_synthetic_corpus,
)
from reportex.inputs import from_json
from reportex.lm_client import GenerationResponse, TransportError
from reportex.metrics import compute_metrics, confusion
from reportex.mock_server import MockLmServer, MockMode, MockModel
from reportex.postprocess import InvalidReason, ParsedLabel
from reportex.prompting import FewShot, PromptStrategy, PromptStyle
from reportex.retrieval import (
    MockHashEmbedder,
    RetrievalSettings,
    TokenOverlapReranker,
    VectorIndexError,
    split_recursive,
    tokenize,
)
from reportex.sweep import (
    ExtractionRecord,
    MissingRecordsError,
    PipelineBackends,
    PipelineConfig,
    ResultStore,
    StoreCorruptError,
    SweepError,
    SweepGrid,
    aggregate,
    enumerate_configs,
    extract_one,
    record_seed,
    run_sweep,
    sample_reports,
)


def model_backends(mock_model, seed=0):
    """In-process backends wired to a MockModel (no HTTP)."""

    def gen(req):
        out = mock_model.complete(req.to_payload())
        return GenerationResponse(out["response"], 0.0, out["model"])

    return PipelineBackends(generate=gen, embedder=MockHashEmbedder(seed=seed),
                            reranker=TokenOverlapReranker())


def failing_backends():
    def gen(req):
        raise TransportError("connection refused")

    return PipelineBackends(generate=gen, embedder=MockHashEmbedder(),
                            reranker=TokenOverlapReranker())


@pytest.fixture(scope="module")
def radiology_corpus():
    return generate_synthetic_corpus(default_corpus_spec(Task.RADIOLOGY, 80, seed=41))


@pytest.fixture(scope="module")
def oracle_backends(radiology_corpus):
    reports, annotations = radiology_corpus
    gold = {a.report_id: a.label for a in annotations}
    return model_backends(MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports))


def _config(**kw):
    return PipelineConfig(model_name=kw.pop("model_name", "mock-7b"), **kw)


class TestSampleReports:
    def test_whole_corpus_is_permutation(self, radiology_corpus):
        reports, _ = radiology_corpus
        sample = sample_reports(reports, len(reports), seed=1)
        assert sorted(r.id for r in sample) == sorted(r.id for r in reports)

    def test_deterministic(self, radiology_corpus):
        reports, _ = radiology_corpus
        assert sample_reports(reports, 10, seed=2) == sample_reports(reports, 10, seed=2)

    def test_distinct_ids(self, radiology_corpus):
        reports, _ = radiology_corpus
        sample = sample_reports(reports, 50, seed=3)
        assert len({r.id for r in sample}) == 50

    def test_oversample_rejected(self, radiology_corpus):
        reports, _ = radiology_corpus
        with pytest.raises(SweepError):
            sample_reports(reports, len(reports) + 1, seed=4)

    def test_500_from_full_size_corpus(self):
        from reportex.corpus import make_report, Task
        corpus = [make_report(f"r{i:05d}", Task.RADIOLOGY, f"report {i}")
                  for i in range(7294)]
        sample = sample_reports(corpus, 500, seed=9)
        assert len({r.id for r in sample}) == 500


class TestEnumerateConfigs:
    def test_product_count(self):
        grid = SweepGrid(base=_config(), axes={
            "temperature": [0.0, 0.01, 0.1, 0.5, 0.8],
            "top_k": [2, 5, 10, 40],
        })
        assert len(enumerate_configs(grid)) == 20

    def test_empty_axes_yields_base(self):
        base = _config()
        assert enumerate_configs(SweepGrid(base=base, axes={})) == [base]

    def test_distinct_hashes(self):
        grid = SweepGrid(base=_config(), axes={
            "temperature": [0.0, 0.1],
            "top_p": [0.1, 0.5, 0.9],
            "top_k": [2, 5, 10, 40],
        })
        configs = enumerate_configs(grid)
        assert len({c.config_hash for c in configs}) == 24

    def test_dotted_axes(self):
        grid = SweepGrid(base=_config(), axes={
            "retrieval.mode": ["off", "dense"],
            "prompt.style": ["simple", "complex"],
        })
        configs = enumerate_configs(grid)
        assert {(c.retrieval.mode, c.prompt.style.value) for c in configs} == {
            ("off", "simple"), ("off", "complex"), ("dense", "simple"), ("dense", "complex"),
        }

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepError):
            enumerate_configs(SweepGrid(base=_config(), axes={"bogus": [1]}))

    def test_invalid_value_rejected(self):
        with pytest.raises(SweepError):
            enumerate_configs(SweepGrid(base=_config(), axes={"quant_bits": [99]}))

    @pytest.mark.parametrize("axes, message", [
        ({"temperature.x": [1]}, "unknown axis 'temperature.x'"),
        ({"top_k": []}, "axis 'top_k' must map to a nonempty value list"),
        ({"top_k": [2, 2]}, "grid produces duplicate configurations"),
        ({"temperature": [1, 1.0]}, "grid produces duplicate configurations"),
    ], ids=["dotted-through-a-number", "no-values", "duplicate-values", "equal-numbers"])
    def test_malformed_axes_rejected(self, axes, message):
        with pytest.raises(SweepError, match=f"^{message}$"):
            enumerate_configs(SweepGrid(base=_config(), axes=axes))

    def test_deterministic_order(self):
        grid = SweepGrid(base=_config(), axes={"top_k": [5, 2], "temperature": [0.1, 0.0]})
        configs = enumerate_configs(grid)
        # axes sorted by name: temperature outermost, values in given order
        assert [(c.temperature, c.top_k) for c in configs] == [
            (0.1, 5), (0.1, 2), (0.0, 5), (0.0, 2),
        ]

    def test_grid_file_roundtrip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "base": _config().to_dict(),
            "axes": {"temperature": [0.0, 0.5]},
            "sample": {"n": 10, "seed": 3},
        }))
        grid = SweepGrid.from_file(path)
        assert grid.sample_n == 10
        assert len(enumerate_configs(grid)) == 2

    def test_default_grid_file_parses(self):
        path = resources.files("reportex.data").joinpath("default_grid.json")
        grid = SweepGrid.from_file(path)
        configs = enumerate_configs(grid)
        assert len(configs) == 5 * 4 * 3
        assert grid.sample_n == 500


class TestConfigHash:
    def test_stable(self):
        assert _config().config_hash == _config().config_hash

    def test_sensitive_to_fields(self):
        assert _config(temperature=0.1).config_hash != _config(temperature=0.2).config_hash

    def test_roundtrip_dict(self):
        config = _config(prompt=PromptStrategy(PromptStyle.SIMPLE, FewShot.POSITIVE, False),
                         retrieval=RetrievalSettings(mode="hybrid"))
        assert PipelineConfig.from_dict(config.to_dict()) == config

    # Stores key records by these hashes: a change orphans every existing store.
    def test_default_grid_first_hash_pinned(self):
        path = resources.files("reportex.data").joinpath("default_grid.json")
        assert enumerate_configs(SweepGrid.from_file(path))[0].config_hash == "c817370213f32cdd"

    def test_dense_retrieval_hash_pinned(self):
        config = _config(retrieval=RetrievalSettings(mode="dense"))
        assert config.config_hash == "185e90fd7b4a87d0"

    def test_few_shot_hash_pinned(self):
        config = _config(prompt=PromptStrategy(PromptStyle.SIMPLE, FewShot.POSITIVE, False))
        assert config.config_hash == "57377ded915146af"


class TestConfigIdentity:
    def test_replace_gets_its_own_hash(self):
        config = _config()
        changed = replace(config, temperature=0.5)
        assert changed.config_hash != config.config_hash
        assert changed.config_hash == _config(temperature=0.5).config_hash
        assert replace(changed, temperature=0.0).config_hash == config.config_hash

    def test_model_name_required(self):
        with pytest.raises(SweepError, match="^model_name must be nonempty$"):
            PipelineConfig(model_name="")

    def test_to_dict_is_plain_and_fresh(self):
        config = _config(prompt=PromptStrategy(PromptStyle.SIMPLE, FewShot.POSITIVE, False),
                         retrieval=RetrievalSettings(mode="hybrid"))
        d = config.to_dict()
        assert d == json.loads(json.dumps(d))
        assert type(d["prompt"]["style"]) is str and type(d["prompt"]["few_shot"]) is str
        d["retrieval"]["mode"] = "dense"  # enumerate_configs edits its copy in place
        assert config.to_dict()["retrieval"]["mode"] == "hybrid"

    def test_equal_configs_equal_hashes(self):
        a = _config(retrieval=RetrievalSettings(mode="hybrid"), seed=3)
        b = PipelineConfig.from_dict(json.loads(json.dumps(a.to_dict())))
        assert a == b and a is not b
        assert a.config_hash == b.config_hash == copy.deepcopy(a).config_hash
        canonical = json.dumps(a.to_dict(), sort_keys=True, separators=(",", ":"))
        assert a.config_hash == hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @pytest.mark.parametrize("field, value, message", [
        ("temperature", -0.1, "temperature must be >= 0"),
        ("top_k", 0, "top_k must be >= 1"),
        ("top_p", 0.0, "top_p must be in (0, 1]"),
        ("top_p", 1.5, "top_p must be in (0, 1]"),
    ])
    def test_sampling_limits_raise_sweep_error(self, field, value, message):
        with pytest.raises(SweepError) as exc:
            _config(**{field: value})
        assert str(exc.value) == message


class TestResultStore:
    def _record(self, rid, chash, label="2"):
        return ExtractionRecord(rid, chash, '{"score": "2"}', ParsedLabel.valid(label),
                                False, None, 1.0, 0.0)

    def test_append_and_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore.open(path)
        store.append(self._record("r1", "c1"))
        store.append(self._record("r2", "c1"))
        reopened = ResultStore.open(path)
        assert len(reopened) == 2
        assert ("r1", "c1") in reopened

    def test_duplicate_append_rejected(self, tmp_path):
        store = ResultStore.open(tmp_path / "store.jsonl")
        store.append(self._record("r1", "c1"))
        with pytest.raises(StoreCorruptError):
            store.append(self._record("r1", "c1"))

    def test_truncated_final_line_healed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore.open(path)
        store.append(self._record("r1", "c1"))
        store.append(self._record("r2", "c1"))
        content = path.read_text()
        path.write_text(content[:-25])  # cut into the last record
        healed = ResultStore.open(path)
        assert len(healed) == 1
        assert ("r2", "c1") not in healed
        healed.append(self._record("r2", "c1"))  # pair is recomputable

    def test_corrupt_middle_line_aborts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore.open(path)
        store.append(self._record("r1", "c1"))
        store.append(self._record("r2", "c1"))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptError, match="line 1"):
            ResultStore.open(path)

    @pytest.mark.parametrize("bad_line", [
        "5",
        '["a"]',
        json.dumps({"report_id": "r9", "config_hash": "c1", "raw_output": "",
                    "parsed": {"reason": "nope"}, "rag_used": False}),
        json.dumps({"report_id": "r9", "config_hash": "c1", "raw_output": "",
                    "parsed": 5, "rag_used": False}),
    ], ids=["number", "list", "unknown-reason", "parsed-number"])
    def test_json_that_is_not_a_record(self, tmp_path, bad_line):
        path = tmp_path / "store.jsonl"
        ResultStore.open(path).append(self._record("r1", "c1"))
        good = path.read_text()
        path.write_text(good + bad_line + "\n")
        with pytest.raises(StoreCorruptError, match="line 2: unreadable record"):
            ResultStore.open(path)
        # The same line cut short, with no newline, is a torn append: skipped by
        # open, which leaves the bytes as they are, and cut by the next append.
        path.write_text(good + bad_line)
        store = ResultStore.open(path)
        assert store.pairs == {("r1", "c1")}
        assert path.read_text() == good + bad_line
        store.append(self._record("r2", "c1"))
        assert path.read_text() == good + json.dumps(self._record("r2", "c1").to_dict()) + "\n"

    def test_undecodable_line_aborts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore.open(path).append(self._record("r1", "c1"))
        good = path.read_bytes()
        path.write_bytes(good + b"\xff\xfe\n")
        with pytest.raises(StoreCorruptError, match="line 2: unreadable record"):
            ResultStore.open(path)
        # The same bytes with no newline are a torn append: skipped by open, which
        # leaves the bytes as they are, and cut by the next append.
        path.write_bytes(good + b"\xff\xfe")
        store = ResultStore.open(path)
        assert store.pairs == {("r1", "c1")}
        assert path.read_bytes() == good + b"\xff\xfe"
        store.append(self._record("r2", "c1"))
        line = json.dumps(self._record("r2", "c1").to_dict()) + "\n"
        assert path.read_bytes() == good + line.encode("utf-8")

    @pytest.mark.parametrize("field, value", [
        ("report_id", 5),
        ("report_id", None),
        ("config_hash", ["c1"]),
        ("raw_output", None),
        ("rag_used", "yes"),
        ("rag_used", 1),
        ("rerank_score", "0.5"),
        ("rerank_score", True),
        ("latency_ms", None),
        ("latency_ms", False),
        ("timestamp", "0"),
        ("error", 5),
    ])
    def test_field_of_wrong_type_aborts(self, tmp_path, field, value):
        path = tmp_path / "store.jsonl"
        d = self._record("r1", "c1").to_dict()
        path.write_text(json.dumps(d) + "\n" + json.dumps({**d, "report_id": "r2", field: value})
                        + "\n")
        with pytest.raises(StoreCorruptError,
                           match=rf"line 2: unreadable record \({field} must be"):
            ResultStore.open(path)

    def test_fields_of_every_allowed_type_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        d = self._record("r1", "c1").to_dict()
        lines = [{**d, "rerank_score": None, "latency_ms": 3, "timestamp": 0},
                 {**d, "report_id": "r2", "rerank_score": 1, "error": "TransportError: x"},
                 {**d, "report_id": "r3", "rerank_score": 0.25, "error": None}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = ResultStore.open(path)
        assert [r.to_dict() for r in store.records] == [
            ExtractionRecord.from_dict(line).to_dict() for line in lines]
        assert store.records[1].error == "TransportError: x"

    def test_line_carries_every_field_of_the_record_class(self, tmp_path):
        # The store line is written from the dataclass's fields, as from_json reads it,
        # so a field a record class gains reaches the line with no key list to edit.
        @dataclass(frozen=True)
        class TaggedRecord(ExtractionRecord):
            tag: str = ""

        record = TaggedRecord("r1", "c1", '{"score": "2"}', ParsedLabel.valid("2"),
                              False, None, 1.0, 0.0, tag="t")
        assert record.to_dict()["tag"] == "t"
        path = tmp_path / "store.jsonl"
        ResultStore.open(path).append(record)
        assert from_json(TaggedRecord, json.loads(path.read_text())) == record

    def test_line_separators_inside_strings_round_trip(self, tmp_path):
        # JSON leaves U+2028, U+2029 and U+0085 unescaped, and str.splitlines splits at them.
        path = tmp_path / "store.jsonl"
        record = ExtractionRecord("r\u2029", "c1", "a\u2028b\x85c", ParsedLabel.valid("2"),
                                  False, None, 1.0, 0.0)
        ResultStore.open(path).append(record)
        assert ResultStore.open(path).records == [record]

    def test_duplicate_pair_in_file_aborts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore.open(path)
        store.append(self._record("r1", "c1"))
        line = path.read_text()
        path.write_text(line + line)
        with pytest.raises(StoreCorruptError, match="duplicate"):
            ResultStore.open(path)


class TestExtractOne:
    def test_oracle_extraction_valid(self, radiology_corpus, oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        record = extract_one(reports[0], RADIOLOGY_SCHEMA, _config(), oracle_backends)
        assert record.parsed.label == gold[reports[0].id]
        assert record.config_hash == _config().config_hash
        assert not record.rag_used

    def test_backend_failure_becomes_invalid_record(self, radiology_corpus):
        reports, _ = radiology_corpus
        record = extract_one(reports[0], RADIOLOGY_SCHEMA, _config(), failing_backends())
        assert record.parsed.reason is InvalidReason.EMPTY
        assert record.error is not None
        assert "connection refused" in record.error

    def test_record_roundtrip(self, radiology_corpus, oracle_backends):
        reports, _ = radiology_corpus
        record = extract_one(reports[0], RADIOLOGY_SCHEMA, _config(), oracle_backends)
        assert ExtractionRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


class TestRunSweep:
    def test_oracle_end_to_end_accuracy_one(self, tmp_path, radiology_corpus, oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        config = _config()
        store = run_sweep(reports, [config], None, tmp_path / "s.jsonl", RADIOLOGY_SCHEMA,
                          parallelism=4, backends=oracle_backends, no_timestamps=True)
        assert len(store) == len(reports)
        assert all(r.parsed.is_valid for r in store.records)
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)

    def test_report_of_another_task_raises_before_any_pair(self, tmp_path, radiology_corpus):
        reports, _ = radiology_corpus
        calls = []
        backends = PipelineBackends(generate=calls.append, embedder=MockHashEmbedder(),
                                    reranker=TokenOverlapReranker())
        stray = replace(reports[2], task=Task.PATHOLOGY)
        with pytest.raises(SweepError, match=f"report '{stray.id}' has task 'pathology', but "
                                             "the schema is for 'radiology'"):
            run_sweep([*reports[:2], stray], [_config()], None, tmp_path / "s.jsonl",
                      RADIOLOGY_SCHEMA, backends=backends)
        assert calls == [] and not (tmp_path / "s.jsonl").exists()

    def test_reports_sharing_an_id_raise_before_any_pair(self, tmp_path, radiology_corpus):
        reports, _ = radiology_corpus
        calls, embedder = [], _CountingEmbedder()
        backends = PipelineBackends(generate=calls.append, embedder=embedder,
                                    reranker=TokenOverlapReranker())
        twin = replace(reports[2], id=reports[0].id)
        with pytest.raises(SweepError, match=f"two reports share the id '{twin.id}'"):
            run_sweep([*reports[:2], twin], _mode_configs(("off", "dense")), None,
                      tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, backends=backends)
        assert calls == [] and embedder.calls == [] and not (tmp_path / "s.jsonl").exists()

    def test_configs_sharing_a_hash_raise_before_any_pair(self, tmp_path, radiology_corpus):
        reports, _ = radiology_corpus
        calls, embedder = [], _CountingEmbedder()
        backends = PipelineBackends(generate=calls.append, embedder=embedder,
                                    reranker=TokenOverlapReranker())
        config = _config()
        with pytest.raises(SweepError,
                           match="two configs share the config_hash " + config.config_hash):
            run_sweep(reports[:3], [config, config], None, tmp_path / "s.jsonl",
                      RADIOLOGY_SCHEMA, backends=backends)
        assert calls == [] and embedder.calls == [] and not (tmp_path / "s.jsonl").exists()

    def test_resume_matches_uninterrupted(self, tmp_path, radiology_corpus, oracle_backends):
        reports, _ = radiology_corpus
        configs = [_config(), _config(temperature=0.5)]

        full = run_sweep(reports, configs, None, tmp_path / "full.jsonl", RADIOLOGY_SCHEMA,
                         backends=oracle_backends, no_timestamps=True)
        # partial run: first config only, half the reports; then resume with everything
        run_sweep(reports[:40], configs[:1], None, tmp_path / "resumed.jsonl", RADIOLOGY_SCHEMA,
                  backends=oracle_backends, no_timestamps=True)
        resumed = run_sweep(reports, configs, None, tmp_path / "resumed.jsonl", RADIOLOGY_SCHEMA,
                            backends=oracle_backends, no_timestamps=True)

        def key(store):
            return sorted((r.report_id, r.config_hash, r.raw_output, r.parsed.label,
                           r.rag_used) for r in store.records)

        assert key(full) == key(resumed)
        assert len(resumed) == len(reports) * 2

    def test_config_order_invariance(self, tmp_path, radiology_corpus, oracle_backends):
        reports, _ = radiology_corpus
        configs = [_config(), _config(top_k=2)]

        def key(store):
            return sorted((r.report_id, r.config_hash, r.raw_output) for r in store.records)

        a = run_sweep(reports[:20], configs, None, tmp_path / "a.jsonl", RADIOLOGY_SCHEMA,
                      backends=oracle_backends, no_timestamps=True)
        b = run_sweep(reports[:20], list(reversed(configs)), None, tmp_path / "b.jsonl",
                      RADIOLOGY_SCHEMA, backends=oracle_backends, no_timestamps=True)
        assert key(a) == key(b)

    def test_rerun_adds_no_records(self, tmp_path, radiology_corpus, oracle_backends):
        reports, _ = radiology_corpus
        config = _config()
        path = tmp_path / "s.jsonl"
        run_sweep(reports[:10], [config], None, path, RADIOLOGY_SCHEMA,
                  backends=oracle_backends, no_timestamps=True)
        before = path.read_text()
        run_sweep(reports[:10], [config], None, path, RADIOLOGY_SCHEMA,
                  backends=oracle_backends, no_timestamps=True)
        assert path.read_text() == before

    def test_noisy_oracle_accuracy_calibration(self, tmp_path):
        reports, annotations = generate_synthetic_corpus(
            default_corpus_spec(Task.RADIOLOGY, 400, seed=61))
        gold = {a.report_id: a.label for a in annotations}
        backends = model_backends(
            MockModel(MockMode.NOISY_ORACLE, gold, RADIOLOGY_SCHEMA, reports,
                      seed=2, noise_rate=0.2))
        store = run_sweep(reports, [_config()], None, tmp_path / "noisy.jsonl",
                          RADIOLOGY_SCHEMA, backends=backends, no_timestamps=True)
        accuracy = sum(r.parsed.label == gold[r.report_id] for r in store.records) / len(store)
        assert abs(accuracy - 0.8) <= 0.05

    def test_rag_over_the_wire_uses_remote_embeddings(self, tmp_path, radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        model = MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
        config = _config(retrieval=RetrievalSettings(mode="dense"))
        with MockLmServer(model) as server:
            store = run_sweep(reports[:15], [config], server.endpoint, tmp_path / "wire.jsonl",
                              RADIOLOGY_SCHEMA, parallelism=4, no_timestamps=True)
        assert len(store) == 15
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)
        assert any(r.rag_used for r in store.records)

    def test_mock_serves_a_schema_its_exemplars_do_not_fit(self, tmp_path):
        schema = LabelSchema(Task.RADIOLOGY, ("low", "high", "NR"), "NR", "score", "score")
        gold = {"r0": "low", "r1": "high", "r2": "NR"}
        reports = [Report(rid, Task.RADIOLOGY,
                          f"Surveillance MRI for case {rid}, series {i * 37} of the cavity. "
                          + (answer_sentence(Task.RADIOLOGY, label) if label != "NR" else ""))
                   for i, (rid, label) in enumerate(gold.items())]
        config = _config()  # zero-shot: the sweep refuses the few-shot strategies
        with MockLmServer(MockModel(MockMode.ORACLE, gold, schema, reports)) as server:
            store = run_sweep(reports, [config], server.endpoint, tmp_path / "s.jsonl", schema,
                              no_timestamps=True)
        [(_, metrics)] = aggregate(store, gold, schema, [config]).rows
        assert metrics.accuracy == 1.0

    def test_backend_failures_do_not_abort(self, tmp_path, radiology_corpus):
        reports, _ = radiology_corpus
        store = run_sweep(reports[:10], [_config()], None, tmp_path / "f.jsonl",
                          RADIOLOGY_SCHEMA, backends=failing_backends(), no_timestamps=True)
        assert len(store) == 10
        assert all(r.parsed.reason is InvalidReason.EMPTY for r in store.records)
        assert all(r.error for r in store.records)


def _store_with(tmp_path, name, configs_and_outcomes, gold):
    """Build a store fixture: {config: {report_id: predicted_label_or_None}}."""
    store = ResultStore.open(tmp_path / name)
    for config, preds in configs_and_outcomes:
        for rid, label in preds.items():
            parsed = ParsedLabel.valid(label) if label else ParsedLabel.invalid(InvalidReason.NO_JSON)
            store.append(ExtractionRecord(rid, config.config_hash, "", parsed,
                                          False, None, 0.0, 0.0))
    return store


class TestAggregate:
    def _gold(self, n=10):
        return {f"r{i}": "2" for i in range(n)}

    def _preds(self, gold, n_correct):
        out = {}
        for i, rid in enumerate(sorted(gold)):
            out[rid] = gold[rid] if i < n_correct else "4"
        return out

    def test_metrics_match_independent_single_pass(self, tmp_path, radiology_corpus,
                                                   oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        config = _config()
        store = run_sweep(reports, [config], None, tmp_path / "agg.jsonl", RADIOLOGY_SCHEMA,
                          backends=oracle_backends, no_timestamps=True)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, [config])
        # independent single pass over the records
        by_id = {r.report_id: r for r in store.records}
        ids = sorted(by_id)
        oracle_cm = confusion([by_id[i].parsed for i in ids], [gold[i] for i in ids],
                              RADIOLOGY_SCHEMA)
        expected = compute_metrics(oracle_cm)
        got = result.rows[0][1]
        assert got == expected
        assert got.accuracy == 1.0

    def test_two_model_rag_comparison_hand_arithmetic(self, tmp_path):
        gold = self._gold(10)
        off, on = RetrievalSettings(mode="off"), RetrievalSettings(mode="dense")
        configs = [
            _config(model_name="alpha", retrieval=off),
            _config(model_name="alpha", retrieval=on),
            _config(model_name="beta", retrieval=off),
            _config(model_name="beta", retrieval=on),
        ]
        store = _store_with(tmp_path, "cmp.jsonl", [
            (configs[0], self._preds(gold, 6)),
            (configs[1], self._preds(gold, 8)),
            (configs[2], self._preds(gold, 5)),
            (configs[3], self._preds(gold, 9)),
        ], gold)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, configs,
                           compare_axes=("retrieval.mode",))
        cmp = result.comparisons[0]
        assert cmp.value_on == "dense" and cmp.value_off == "off"
        assert cmp.per_model["alpha"][2] == pytest.approx(0.2)
        assert cmp.per_model["beta"][2] == pytest.approx(0.4)
        assert cmp.mean_delta == pytest.approx(0.3)
        assert cmp.sd_delta == pytest.approx(math.sqrt(0.02), abs=1e-12)
        assert cmp.outcome == "tested"
        assert cmp.paired.statistic == pytest.approx(3.0, abs=1e-9)

    def test_noop_axis_reports_no_difference(self, tmp_path):
        gold = self._gold(10)
        configs = [
            _config(model_name="alpha", top_k=2),
            _config(model_name="alpha", top_k=5),
            _config(model_name="beta", top_k=2),
            _config(model_name="beta", top_k=5),
        ]
        preds = self._preds(gold, 10)
        store = _store_with(tmp_path, "noop.jsonl", [(c, preds) for c in configs], gold)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, configs, compare_axes=("top_k",))
        cmp = result.comparisons[0]
        assert cmp.mean_delta == 0.0
        assert cmp.outcome == "no_difference"

    def test_equal_nonzero_deltas_are_a_uniform_delta(self, tmp_path):
        gold = self._gold(4)
        configs = [_config(model_name=m, top_k=k)
                   for m, k in [("alpha", 2), ("alpha", 5), ("beta", 2), ("beta", 5), ("gamma", 2)]]
        store = _store_with(tmp_path, "uniform.jsonl", [
            (configs[0], self._preds(gold, 1)),
            (configs[1], self._preds(gold, 3)),
            (configs[2], self._preds(gold, 2)),
            (configs[3], self._preds(gold, 4)),
            (configs[4], self._preds(gold, 4)),  # gamma holds only one of the two values
        ], gold)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, configs, compare_axes=("top_k",))
        cmp = result.comparisons[0]
        assert (cmp.value_on, cmp.value_off) == (5, 2)
        assert cmp.per_model == {"alpha": (0.75, 0.25, 0.5), "beta": (1.0, 0.5, 0.5)}
        assert (cmp.mean_delta, cmp.sd_delta) == (0.5, 0.0)
        assert cmp.outcome == "uniform_delta" and cmp.paired is None

    @pytest.mark.parametrize("axis, small, large, fields", [
        ("top_k", 5, 10, lambda v: {"top_k": v}),
        ("temperature", 9.0, 10.0, lambda v: {"temperature": v}),
        ("retrieval.embed_model", "gte-large", "nomic-embed-text",
         lambda v: {"retrieval": RetrievalSettings(embed_model=v)}),
    ], ids=["5-10", "9.0-10.0", "embed-model"])
    def test_the_smaller_of_two_truthy_values_is_off(self, tmp_path, axis, small, large, fields):
        gold = self._gold(4)
        configs = [_config(model_name=m, **fields(v)) for m in ("alpha", "beta")
                   for v in (large, small)]
        store = _store_with(tmp_path, "order.jsonl", [
            (c, self._preds(gold, 4 if i % 2 == 0 else 2)) for i, c in enumerate(configs)], gold)
        cmp = aggregate(store, gold, RADIOLOGY_SCHEMA, configs, compare_axes=(axis,)).comparisons[0]
        assert (cmp.value_on, cmp.value_off) == (large, small)
        assert cmp.mean_delta == 0.5

    def test_monotone_param_correlation_is_one(self, tmp_path):
        gold = self._gold(8)
        configs = [
            _config(model_name=f"m{i}", param_count_b=p)
            for i, p in enumerate([1.0, 4.0, 8.0, 70.0])
        ]
        store = _store_with(tmp_path, "corr.jsonl", [
            (configs[0], self._preds(gold, 2)),
            (configs[1], self._preds(gold, 4)),
            (configs[2], self._preds(gold, 6)),
            (configs[3], self._preds(gold, 8)),
        ], gold)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, configs)
        assert result.correlations["accuracy_vs_log_param_count"]["statistic"] == 1.0

    def test_missing_records_listed(self, tmp_path):
        gold = self._gold(4)
        c1, c2 = _config(), _config(temperature=0.5)
        store = _store_with(tmp_path, "miss.jsonl", [(c1, self._preds(gold, 4))], gold)
        with pytest.raises(MissingRecordsError) as exc:
            aggregate(store, gold, RADIOLOGY_SCHEMA, [c1, c2])
        assert len(exc.value.missing) == 4

    def test_csv_has_expected_header_and_sorting(self, tmp_path):
        gold = self._gold(10)
        configs = [_config(model_name="worse"), _config(model_name="better")]
        store = _store_with(tmp_path, "csv.jsonl", [
            (configs[0], self._preds(gold, 5)),
            (configs[1], self._preds(gold, 9)),
        ], gold)
        result = aggregate(store, gold, RADIOLOGY_SCHEMA, configs)
        lines = result.to_csv().splitlines()
        assert lines[0].startswith("config_hash,model_name")
        assert lines[0].endswith("accuracy,macro_precision,micro_precision,"
                                 "macro_recall,micro_recall,macro_f1,micro_f1")
        assert "better" in lines[1] and "worse" in lines[2]

    def test_csv_quotes_a_model_name_with_a_comma_and_a_quote(self, tmp_path):
        gold = self._gold(4)
        config = _config(model_name='llama3:8b,q4 "x"')
        store = _store_with(tmp_path, "quoted.jsonl", [(config, self._preds(gold, 3))], gold)
        header, row = csv.reader(io.StringIO(aggregate(store, gold, RADIOLOGY_SCHEMA,
                                                       [config]).to_csv()))
        assert len(row) == len(header)
        assert row[header.index("model_name")] == 'llama3:8b,q4 "x"'

    def test_record_seed_stable(self):
        assert record_seed(1, "r1") == record_seed(1, "r1")
        assert record_seed(1, "r1") != record_seed(2, "r1")


class TestSweepStops:
    def test_overlong_integer_completion_stores_invalid_records(self, tmp_path,
                                                                radiology_corpus):
        reports, _ = radiology_corpus
        raw = '{"score": ' + "7" * 5000 + "}"
        backends = PipelineBackends(generate=lambda req: GenerationResponse(raw, 0.0, req.model),
                                    embedder=MockHashEmbedder(), reranker=TokenOverlapReranker())
        configs = [_config(), _config(top_k=2)]
        store = run_sweep(reports[:5], configs, None, tmp_path / "big.jsonl", RADIOLOGY_SCHEMA,
                          parallelism=2, backends=backends, no_timestamps=True)
        assert len(store) == 10
        assert all(not r.parsed.is_valid and r.error is None for r in store.records)

    def test_stop_cancels_queued_pairs(self, tmp_path, radiology_corpus, oracle_backends):
        reports, _ = radiology_corpus
        calls = []

        def counting_generate(req):
            calls.append(req.seed)
            time.sleep(0.02)
            return oracle_backends.generate(req)

        backends = PipelineBackends(generate=counting_generate, embedder=oracle_backends.embedder,
                                    reranker=oracle_backends.reranker)

        def progress(done, pending):
            if done == 5:
                raise KeyboardInterrupt

        configs = [_config(), _config(top_k=2)]
        pending = len(reports) * len(configs)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(reports, configs, None, tmp_path / "stop.jsonl", RADIOLOGY_SCHEMA,
                      parallelism=2, backends=backends, no_timestamps=True,
                      progress=progress)
        assert len(calls) < pending / 4
        assert len(ResultStore.open(tmp_path / "stop.jsonl")) == 5


_RAG_MODES = ("dense", "hybrid", "sequential")
_EMBED_MODEL = RetrievalSettings().embed_model


class _CountingEmbedder:
    """MockHashEmbedder that records the model and the texts of every embed
    call; `before` runs first on each call and may block or raise."""

    def __init__(self, before=lambda texts: None):
        self.inner = MockHashEmbedder()
        self.before = before
        self.calls: list[tuple[str, list[str]]] = []

    def embed(self, texts, model):
        self.calls.append((model, list(texts)))
        self.before(texts)
        return self.inner.embed(texts, model)


def _chunk_texts(report, cfg=RetrievalSettings()):
    chunks = split_recursive(report.text, cfg.chunk_size, cfg.overlap, report.id)
    return [c.text for c in chunks if tokenize(c.text)]


def _mode_configs(modes=_RAG_MODES):
    return [_config(retrieval=RetrievalSettings(mode=mode)) for mode in modes]


class TestSweepMemo:
    """One sweep embeds each report's query and chunks in one call, shared by every mode."""

    def test_each_report_embedded_once_with_the_query(self, tmp_path, radiology_corpus,
                                                      oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        embedder = _CountingEmbedder()
        backends = PipelineBackends(oracle_backends.generate, embedder, oracle_backends.reranker)
        store = run_sweep(reports[:2], _mode_configs(), None, tmp_path / "s.jsonl",
                          RADIOLOGY_SCHEMA, parallelism=2, backends=backends,
                          no_timestamps=True)
        query = RADIOLOGY_SCHEMA.retrieval_keywords
        expected = [(_EMBED_MODEL, [query] + _chunk_texts(r)) for r in reports[:2]]
        assert sorted(embedder.calls) == sorted(expected)
        assert len(store) == 6
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)

    def test_each_report_embedded_once_per_embed_model(self, tmp_path, radiology_corpus,
                                                       oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        embedder = _CountingEmbedder()
        backends = PipelineBackends(oracle_backends.generate, embedder, oracle_backends.reranker)
        models = ("gte-large", "nomic-embed-text")
        configs = [_config(retrieval=RetrievalSettings(mode=mode, embed_model=model))
                   for model in models for mode in ("dense", "hybrid")]
        store = run_sweep(reports[:2], configs, None, tmp_path / "s.jsonl", RADIOLOGY_SCHEMA,
                          parallelism=4, backends=backends, no_timestamps=True)
        query = RADIOLOGY_SCHEMA.retrieval_keywords
        expected = [(model, [query] + _chunk_texts(r)) for model in models for r in reports[:2]]
        assert sorted(embedder.calls) == sorted(expected)
        assert len(store) == 8
        assert all(r.error is None and r.parsed.label == gold[r.report_id]
                   for r in store.records)

    def test_concurrent_pairs_embed_a_report_once(self, tmp_path, radiology_corpus,
                                                  oracle_backends, monkeypatch):
        reports, _ = radiology_corpus
        both_asked = threading.Event()
        entered = []
        real_select_context = sweep_mod.select_context

        def counting_select_context(*args, **kwargs):
            entered.append(args[2].mode)
            if len(entered) == 2:
                both_asked.set()
            return real_select_context(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "select_context", counting_select_context)
        # The first embedding waits until the second worker is inside
        # select_context too, so an unshared computation would embed twice.
        embedder = _CountingEmbedder(before=lambda texts: both_asked.wait(timeout=10))
        backends = PipelineBackends(oracle_backends.generate, embedder, oracle_backends.reranker)
        store = run_sweep(reports[:1], _mode_configs(("dense", "hybrid")), None,
                          tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                          backends=backends, no_timestamps=True)
        assert both_asked.is_set()
        assert sorted(entered) == ["dense", "hybrid"]
        assert embedder.calls == [
            (_EMBED_MODEL, [RADIOLOGY_SCHEMA.retrieval_keywords] + _chunk_texts(reports[0]))]
        assert all(r.error is None for r in store.records)

    def test_failed_embedding_is_retried_by_a_later_pair(self, tmp_path, radiology_corpus,
                                                         oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}

        def fail_first(texts):
            if len(embedder.calls) == 1:
                raise TransportError("connection reset")

        embedder = _CountingEmbedder(before=fail_first)
        backends = PipelineBackends(oracle_backends.generate, embedder, oracle_backends.reranker)
        store = run_sweep(reports[:1], _mode_configs(("dense", "hybrid")), None,
                          tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=1,
                          backends=backends, no_timestamps=True)
        failed, retried = store.records
        assert "connection reset" in failed.error
        assert retried.error is None
        assert retried.parsed.label == gold[reports[0].id]
        texts = [RADIOLOGY_SCHEMA.retrieval_keywords] + _chunk_texts(reports[0])
        assert embedder.calls == [(_EMBED_MODEL, texts), (_EMBED_MODEL, texts)]

    def test_wire_sweep_sends_one_embedding_per_chunk_and_one_query_per_report(
            self, tmp_path, radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}

        sent = []

        class CountingModel(MockModel):
            def embeddings(self, payload):
                sent.append(payload["prompt"])
                return super().embeddings(payload)

        model = CountingModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
        with MockLmServer(model) as server:
            store = run_sweep(reports[:2], _mode_configs(), server.endpoint,
                              tmp_path / "wire.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                              no_timestamps=True)
        query = RADIOLOGY_SCHEMA.retrieval_keywords
        expected = [query] + _chunk_texts(reports[0]) + [query] + _chunk_texts(reports[1])
        assert len(sent) == len(expected)
        assert sorted(sent) == sorted(expected)
        assert len(store) == 6
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)

    def test_wire_sweep_names_each_configs_embed_model(self, tmp_path, radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        sent = []

        class ModelNamingModel(MockModel):
            def embeddings(self, payload):
                sent.append((payload["model"], payload["prompt"]))
                return super().embeddings(payload)

        models = ("gte-large", "nomic-embed-text")
        configs = [_config(retrieval=RetrievalSettings(mode="dense", embed_model=model))
                   for model in models]
        with MockLmServer(ModelNamingModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA,
                                           reports)) as server:
            store = run_sweep(reports[:1], configs, server.endpoint, tmp_path / "wire.jsonl",
                              RADIOLOGY_SCHEMA, parallelism=2, no_timestamps=True)
        texts = [RADIOLOGY_SCHEMA.retrieval_keywords] + _chunk_texts(reports[0])
        assert sorted(sent) == sorted((model, text) for model in models for text in texts)
        assert len(store) == 2
        assert all(r.error is None and r.parsed.label == gold[r.report_id]
                   for r in store.records)

    def test_wire_first_generate_waits_on_its_own_report_only(self, tmp_path,
                                                              radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        query = RADIOLOGY_SCHEMA.retrieval_keywords
        arrivals = []
        lock = threading.Lock()

        class OrderModel(MockModel):
            def embeddings(self, payload):
                with lock:
                    arrivals.append(("embed", payload["prompt"]))
                time.sleep(0.005)
                return super().embeddings(payload)

            def complete(self, payload):
                with lock:
                    arrivals.append(("generate", payload["prompt"]))
                return super().complete(payload)

        model = OrderModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
        with MockLmServer(model) as server:
            store = run_sweep(reports[:2], _mode_configs(("dense",)), server.endpoint,
                              tmp_path / "wire.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                              no_timestamps=True)
        # ~50 chunks per report: the report whose embeddings finish first sends
        # its generate while the other report's chunks are still arriving.
        first_generate = [kind for kind, _ in arrivals].index("generate")
        chunk_embeds = [i for i, (kind, prompt) in enumerate(arrivals)
                        if kind == "embed" and prompt != query]
        assert first_generate < chunk_embeds[-1]
        assert [prompt for _, prompt in arrivals].count(query) == 2
        assert len(store) == 2
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)


class _CountingGenerate:
    """Wraps a generate callable and records the seed of every request it sends;
    `before` runs first on each call and may raise."""

    def __init__(self, inner, before=lambda req: None):
        self.inner = inner
        self.before = before
        self.seeds: list[int] = []

    def __call__(self, req):
        self.seeds.append(req.seed)
        self.before(req)
        return self.inner(req)


class TestSharedGeneration:
    """One sweep sends each distinct generation request once, shared by every
    pair that sends the same bytes."""

    def test_modes_that_select_the_same_context_share_one_call(self, tmp_path,
                                                               radiology_corpus,
                                                               oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        generate = _CountingGenerate(oracle_backends.generate)
        backends = PipelineBackends(generate, oracle_backends.embedder, oracle_backends.reranker)
        configs = _mode_configs()
        store = run_sweep(reports[:2], configs, None, tmp_path / "s.jsonl", RADIOLOGY_SCHEMA,
                          parallelism=3, backends=backends, no_timestamps=True)
        assert sorted(generate.seeds) == sorted(record_seed(0, r.id) for r in reports[:2])
        assert len(store) == 6
        by_pair = {(r.report_id, r.config_hash): r for r in store.records}
        for report in reports[:2]:
            for config in configs:
                record = by_pair[(report.id, config.config_hash)]
                context = sweep_mod.select_context(report, RADIOLOGY_SCHEMA, config.retrieval,
                                                   oracle_backends.embedder,
                                                   oracle_backends.reranker)
                assert record.rag_used == context.rag_used
                assert record.rerank_score == context.rerank_score
                assert record.error is None and record.parsed.label == gold[report.id]

    def test_configs_differing_only_in_seed_each_send(self, tmp_path, radiology_corpus,
                                                      oracle_backends):
        reports, _ = radiology_corpus
        generate = _CountingGenerate(oracle_backends.generate)
        backends = PipelineBackends(generate, oracle_backends.embedder, oracle_backends.reranker)
        store = run_sweep(reports[:2], [_config(seed=0), _config(seed=1)], None,
                          tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                          backends=backends, no_timestamps=True)
        expected = [record_seed(seed, r.id) for seed in (0, 1) for r in reports[:2]]
        assert sorted(generate.seeds) == sorted(expected)
        assert len(set(expected)) == 4
        assert len(store) == 4

    def test_failed_generation_is_retried_by_a_later_pair(self, tmp_path, radiology_corpus,
                                                          oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}

        def fail_first(req):
            if len(generate.seeds) == 1:
                raise TransportError("connection reset")

        generate = _CountingGenerate(oracle_backends.generate, before=fail_first)
        backends = PipelineBackends(generate, oracle_backends.embedder, oracle_backends.reranker)
        # quant_bits is not part of the request: both configs send the same bytes.
        store = run_sweep(reports[:1], [_config(quant_bits=4), _config(quant_bits=8)], None,
                          tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=1,
                          backends=backends, no_timestamps=True)
        failed, retried = store.records
        assert failed.error == "TransportError: connection reset"
        assert retried.error is None
        assert retried.parsed.label == gold[reports[0].id]
        assert generate.seeds == [record_seed(0, reports[0].id)] * 2

    def test_wire_sweep_sends_one_generate_per_distinct_request(self, tmp_path,
                                                                radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        sent = []

        class CountingModel(MockModel):
            def complete(self, payload):
                sent.append(payload["options"]["seed"])
                return super().complete(payload)

        model = CountingModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
        with MockLmServer(model) as server:
            store = run_sweep(reports[:2], _mode_configs(), server.endpoint,
                              tmp_path / "wire.jsonl", RADIOLOGY_SCHEMA, parallelism=3,
                              no_timestamps=True)
        assert sorted(sent) == sorted(record_seed(0, r.id) for r in reports[:2])
        assert len(store) == 6
        assert all(r.parsed.label == gold[r.report_id] for r in store.records)


def _default_grid():
    return SweepGrid.from_file(resources.files("reportex.data").joinpath("default_grid.json"))


class TestStoreBytesPinned:
    """sha256 of `--no-timestamps` stores from small in-process sweeps. A change
    to the runner that moves any stored byte fails here; pin a new digest only
    for a change that means to alter what a store holds."""

    def _store_sha256(self, tmp_path, task, schema, n, corpus_seed, configs, **model_kw):
        reports, annotations = generate_synthetic_corpus(default_corpus_spec(task, n, corpus_seed))
        gold = {a.report_id: a.label for a in annotations}
        backends = model_backends(MockModel(gold=gold, schema=schema, reports=reports, **model_kw))
        path = tmp_path / "s.jsonl"
        run_sweep(reports, configs, None, path, schema, parallelism=4, backends=backends,
                  no_timestamps=True)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_pathology_retrieval_modes_oracle(self, tmp_path):
        grid = SweepGrid(_default_grid().base,
                         {"retrieval.mode": ["off", "dense", "hybrid", "sequential"]})
        digest = self._store_sha256(tmp_path, Task.PATHOLOGY, PATHOLOGY_SCHEMA, 30, 5,
                                    enumerate_configs(grid), mode=MockMode.ORACLE)
        assert digest == "a241868dfc6ed14f43c87617de8f28fd68e986089c797f9c2f4f56d256062b82"

    def test_radiology_default_grid_noisy_oracle(self, tmp_path):
        configs = enumerate_configs(_default_grid())[::6]
        digest = self._store_sha256(tmp_path, Task.RADIOLOGY, RADIOLOGY_SCHEMA, 40, 17,
                                    configs, mode=MockMode.NOISY_ORACLE, seed=3,
                                    noise_rate=0.3)
        assert digest == "f761ac7013c96c6ee9f739a34d8143f1393e47f7fb3deaff36c76ad4f5d648f0"


class _FailingReranker:
    def score(self, query, passage):
        raise RuntimeError("scorer crashed")


class _NanReranker:
    def score(self, query, passage):
        return float("nan")


class _ScaledEmbedder:
    """MockHashEmbedder's rows, each value doubled."""

    def embed(self, texts, model):
        return [[2.0 * x for x in row] for row in MockHashEmbedder().embed(texts, model)]


class _OverflowEmbedder:
    """A last row whose sum of squares is beyond float range."""

    def embed(self, texts, model):
        rows = MockHashEmbedder().embed(texts, model)
        rows[-1] = [1.3e154] * len(rows[-1])
        return rows


class _BuggyEmbedder:
    def embed(self, texts, model):
        raise ValueError("a programming error")


class _ReplyModel(MockModel):
    """Mock whose every /api/generate reply body is `reply`."""

    def __init__(self, reply):
        super().__init__(MockMode.ORACLE, {}, RADIOLOGY_SCHEMA)
        self.reply = reply

    def complete(self, payload):
        return self.reply


class _RowModel(MockModel):
    """Oracle mock whose /api/embeddings answers with `row` for the retrieval
    query (`target` "query") or for each report's first chunk ("chunk")."""

    def __init__(self, gold, reports, target, row):
        super().__init__(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
        self.texts = [r.text for r in reports]
        self.target, self.row = target, row

    def embeddings(self, payload):
        prompt = payload["prompt"]
        if (prompt == RADIOLOGY_SCHEMA.retrieval_keywords if self.target == "query"
                else any(text.startswith(prompt) for text in self.texts)):
            return {"embedding": self.row}
        return super().embeddings(payload)


# Rows the client passes on and VectorIndex refuses, as a chunk row and as the query row.
_UNFIT_ROWS = {
    "empty": [],
    "int-overflow": [int("9" * 400)] + [0] * 63,
    "norm-overflow": [1.3e154] * 64,
    "square-overflow": [1e200] + [0.0] * 63,  # 1e200 squared is inf, with no OverflowError
    "mixed-dimensions": [1.0] * 65,
}


class TestPairExceptions:
    def _sweep(self, tmp_path, reports, oracle_backends, embedder=None, reranker=None):
        backends = PipelineBackends(oracle_backends.generate,
                                    embedder or oracle_backends.embedder,
                                    reranker or oracle_backends.reranker)
        return run_sweep(reports[:2], _mode_configs(("off", "dense")), None,
                         tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                         backends=backends, no_timestamps=True)

    def _assert_rag_pairs_errored(self, store, gold, name):
        assert len(store) == 4
        off_hash = _mode_configs(("off",))[0].config_hash
        for r in store.records:
            if r.config_hash == off_hash:
                assert r.error is None and r.parsed.label == gold[r.report_id]
            else:
                assert r.error.startswith(f"{name}: ")
                assert r.parsed.reason is InvalidReason.EMPTY

    def test_rerank_error_is_stored_by_class(self, tmp_path, radiology_corpus, oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        store = self._sweep(tmp_path, reports, oracle_backends, reranker=_FailingReranker())
        self._assert_rag_pairs_errored(store, gold, "RerankError")

    def test_nan_rerank_score_is_stored_as_an_error(self, tmp_path, radiology_corpus,
                                                     oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        store = self._sweep(tmp_path, reports, oracle_backends, reranker=_NanReranker())
        self._assert_rag_pairs_errored(store, gold, "RerankError")
        assert "NaN" not in (tmp_path / "s.jsonl").read_text()
        assert ResultStore.open(tmp_path / "s.jsonl").records == store.records

    def test_embedder_row_scale_leaves_the_store_unchanged(self, tmp_path, radiology_corpus,
                                                           oracle_backends):
        reports, _ = radiology_corpus
        stores = {}
        for name, embedder in (("plain", MockHashEmbedder()), ("doubled", _ScaledEmbedder())):
            backends = PipelineBackends(oracle_backends.generate, embedder,
                                        oracle_backends.reranker)
            stores[name] = run_sweep(reports[:8], _mode_configs(), None,
                                     tmp_path / f"{name}.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                                     backends=backends, no_timestamps=True)
        assert not any(r.error for r in stores["plain"].records)
        assert any(r.rag_used for r in stores["plain"].records)
        assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "doubled.jsonl").read_bytes()

    def test_overflowing_embedding_row_is_stored_by_class(self, tmp_path, radiology_corpus,
                                                          oracle_backends):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        store = self._sweep(tmp_path, reports, oracle_backends, embedder=_OverflowEmbedder())
        self._assert_rag_pairs_errored(store, gold, VectorIndexError.__name__)

    def test_nan_embedding_over_the_wire_is_stored_as_an_error(self, tmp_path,
                                                              radiology_corpus):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        model = _RowModel(gold, reports, "chunk", [math.nan] + [0.0] * 63)
        with MockLmServer(model) as server:
            store = run_sweep(reports[:2], _mode_configs(("off", "dense")), server.endpoint,
                              tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                              no_timestamps=True)
        self._assert_rag_pairs_errored(store, gold, "ProtocolError")
        assert all("embedding must be a list of numbers, not a list holding NaN" in r.error
                   for r in store.records if r.error)

    @pytest.mark.parametrize("target, row", [
        *((target, row) for target in ("chunk", "query") for row in _UNFIT_ROWS.values()),
        ("chunk", [0.0] * 64),
    ], ids=[*(f"{target}-{name}" for target in ("chunk", "query") for name in _UNFIT_ROWS),
            "chunk-zero"])
    def test_unfit_embedding_over_the_wire_is_stored_as_an_error(self, tmp_path,
                                                                 radiology_corpus, target, row):
        reports, annotations = radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        with MockLmServer(_RowModel(gold, reports[:2], target, row)) as server:
            store = run_sweep(reports[:2], _mode_configs(("off", "dense")), server.endpoint,
                              tmp_path / "s.jsonl", RADIOLOGY_SCHEMA, parallelism=2,
                              no_timestamps=True)
        self._assert_rag_pairs_errored(store, gold, VectorIndexError.__name__)

    def test_other_value_error_aborts_the_sweep(self, tmp_path, radiology_corpus,
                                                oracle_backends):
        reports, _ = radiology_corpus
        with pytest.raises(ValueError, match="a programming error"):
            self._sweep(tmp_path, reports, oracle_backends, embedder=_BuggyEmbedder())

    @pytest.mark.parametrize("reply, message", [
        ("the response", "reply body must be a JSON object, not str"),
        ({"response": 5}, "response must be a string, not int"),
        ({"response": "\ud800 4"}, "response must be a string, not a string holding a lone"),
        ({"response": "4", "model": None}, "model must be a string, not null"),
    ], ids=["string-body", "number", "surrogate", "model"])
    def test_malformed_generate_reply_is_stored_as_an_error(self, tmp_path, radiology_corpus,
                                                            reply, message):
        reports, _ = radiology_corpus
        path = tmp_path / "s.jsonl"
        with MockLmServer(_ReplyModel(reply)) as server:
            store = run_sweep(reports[:2], [_config()], server.endpoint, path, RADIOLOGY_SCHEMA,
                              parallelism=2, no_timestamps=True)
        assert len(store) == 2
        for r in store.records:
            assert r.error.startswith("ProtocolError: ") and message in r.error
            assert r.raw_output == "" and r.parsed.reason is InvalidReason.EMPTY
        assert ResultStore.open(path).records == store.records
