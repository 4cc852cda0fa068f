import hashlib
import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reportex import corpus as corpus_mod
from reportex.corpus import (
    CorpusError,
    CorpusSpec,
    LabelSchema,
    PATHOLOGY_DISTRIBUTION,
    RADIOLOGY_DISTRIBUTION,
    Report,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
    load_corpus,
    load_schema,
    make_report,
    normalize_text,
    save_corpus,
    save_schema,
)
from reportex.mock_server import MockMode, MockModel
from reportex.postprocess import parse_label
from reportex.prompting import PromptStrategy, check_strategies


class TestNormalizeText:
    def test_newline_after_period(self):
        assert normalize_text("stable.\nNo new lesion.") == "stable. No new lesion."

    def test_identity_on_clean_text(self):
        assert normalize_text("already normalized text.") == "already normalized text."

    def test_mid_sentence_newline(self):
        assert normalize_text("partial line\ncontinues here") == "partial line continues here"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_collapses_space_runs_and_strips(self):
        assert normalize_text("  a   b \t c \r\n d  ") == "a b c d"

    @given(st.text(max_size=300))
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(st.text(max_size=300))
    def test_preserves_non_whitespace_in_order(self, s):
        squeeze = lambda t: "".join(t.split())
        assert squeeze(normalize_text(s)) == squeeze(s)

    @given(st.text(max_size=300))
    def test_no_newlines_in_output(self, s):
        assert "\n" not in normalize_text(s)


class TestReport:
    def test_newline_rejected(self):
        with pytest.raises(CorpusError):
            Report(id="x", task=Task.RADIOLOGY, text="a\nb")

    def test_make_report_normalizes(self):
        r = make_report("r1", Task.RADIOLOGY, "line one.\nline two")
        assert r.text == "line one. line two"
        assert r.word_count == 4

    def test_task_given_as_a_string_is_converted_and_unknown_task_rejected(self, tmp_path):
        report = Report("a", "pathology", "text")
        assert report.task is Task.PATHOLOGY
        save_corpus(tmp_path / "c.jsonl", [report], [])
        assert load_corpus(tmp_path / "c.jsonl") == ([report], [])
        with pytest.raises(CorpusError, match="unknown task 'bogus'"):
            Report("a", "bogus", "text")

    @pytest.mark.parametrize("fields, message", [
        ((7, Task.RADIOLOGY, "BT-RADS follow-up score: 2."), "id must be a string, not int"),
        (("x", Task.RADIOLOGY, 5), "text must be a string, not int"),
        (("x\ud800", Task.RADIOLOGY, "text"),
         "id must be a string, not a string holding a lone surrogate"),
    ], ids=["int-id", "int-text", "surrogate-id"])
    def test_field_of_the_wrong_type_rejected(self, fields, message):
        # An int id would reach the store, which then refuses to read it back.
        with pytest.raises(CorpusError, match=f"^{message}$"):
            Report(*fields)


class TestSchema:
    def test_builtin_radiology_labels(self, radiology_schema):
        assert len(radiology_schema.valid_labels) == 13
        assert "3c" in radiology_schema.valid_labels
        assert radiology_schema.nr_label == "NR"

    def test_schema_roundtrip(self, tmp_path, pathology_schema):
        path = tmp_path / "schema.json"
        save_schema(path, pathology_schema)
        assert load_schema(path) == pathology_schema

    def test_duplicate_after_folding_rejected(self):
        with pytest.raises(CorpusError):
            LabelSchema(Task.RADIOLOGY, ("A", "a"), "A", "score", "kw")

    @pytest.mark.parametrize("label", ["INVALID", "invalid", " Invalid "])
    def test_label_folding_to_the_invalid_pseudo_class_rejected(self, label):
        with pytest.raises(CorpusError, match="must not fold to INVALID"):
            LabelSchema(Task.RADIOLOGY, (label, "2", "NR"), "NR", "score", "kw")

    def test_nr_label_outside_labels_rejected(self):
        with pytest.raises(CorpusError, match="nr_label 'none' not in valid_labels"):
            LabelSchema(Task.RADIOLOGY, ("A", "B"), "none", "score", "kw")

    def test_task_given_as_a_string_is_converted_and_unknown_task_rejected(self):
        schema = LabelSchema("radiology", ("2", "4", "NR"), "NR", "score", "kw")
        assert schema.task is Task.RADIOLOGY
        assert parse_label('{"score": "2"}', schema).label == "2"
        with pytest.raises(CorpusError, match="unknown task 'bogus'"):
            LabelSchema("bogus", ("2", "4", "NR"), "NR", "score", "kw")

    def test_labels_given_as_a_list_are_kept_as_a_tuple(self):
        schema = LabelSchema(Task.RADIOLOGY, ["2", "4", "NR"], "NR", "score", "kw")
        assert schema == LabelSchema(Task.RADIOLOGY, ("2", "4", "NR"), "NR", "score", "kw")
        assert type(schema.valid_labels) is tuple
        check_strategies(schema, [PromptStrategy()])  # both hash the schema
        MockModel(MockMode.ORACLE, {}, schema, [])

    @pytest.mark.parametrize("labels, answer_key, message", [
        ("abc", "score", "valid_labels must be a list of strings, not str"),
        (("2", 4, "NR"), "score",
         "valid_labels must be a list of strings, not a list holding int"),
        (("2", "NR"), 3, "answer_key must be a string, not int"),
    ], ids=["string-labels", "int-label", "int-answer-key"])
    def test_field_of_the_wrong_type_rejected(self, labels, answer_key, message):
        with pytest.raises(CorpusError, match=f"^{message}$"):
            LabelSchema(Task.RADIOLOGY, labels, "NR", answer_key, "kw")


class TestCorpusSpec:
    def test_rejects_bad_distribution_sum(self):
        with pytest.raises(CorpusError):
            CorpusSpec(Task.PATHOLOGY, 10, {"positive": 0.5, "NR": 0.2}, 100, 10, 0.1, 1)

    def test_accepts_rounded_published_distribution(self):
        # The published radiology percentages sum to 1.0001; the spec
        # renormalizes internally rather than rejecting them.
        spec = default_corpus_spec(Task.RADIOLOGY, 10, 1)
        assert abs(sum(spec.normalized_distribution().values()) - 1.0) < 1e-12

    def test_rejects_unknown_labels(self):
        spec = CorpusSpec(Task.PATHOLOGY, 10, {"positive": 0.5, "bogus": 0.5}, 100, 10, 0.1, 1)
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(spec)

    @pytest.mark.parametrize("n_reports, mean, sd, message", [
        (0, 265.0, 66.0, "n_reports must be >= 1"),
        (10, 0.0, 66.0, "length parameters must be positive"),
        (10, 265.0, -1.0, "length parameters must be positive"),
    ])
    def test_rejects_bad_size(self, n_reports, mean, sd, message):
        with pytest.raises(CorpusError, match=message):
            CorpusSpec(Task.RADIOLOGY, n_reports, dict(RADIOLOGY_DISTRIBUTION), mean, sd, 0.1, 1)

    @pytest.mark.parametrize("task", list(Task))
    def test_task_given_as_a_string_generates_the_same_corpus(self, tmp_path, task):
        by_enum = default_corpus_spec(task, 3, 7)
        by_string = CorpusSpec(task.value, *[getattr(by_enum, f) for f in (
            "n_reports", "class_distribution", "length_mean_words", "length_sd_words",
            "distractor_rate", "seed")])
        assert by_string == by_enum and by_string.task is task
        paths = tmp_path / "enum.jsonl", tmp_path / "string.jsonl"
        for path, spec in zip(paths, (by_enum, by_string)):
            save_corpus(path, *generate_synthetic_corpus(spec))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_task_rejected(self):
        with pytest.raises(CorpusError, match="unknown task 'bogus'"):
            CorpusSpec("bogus", 2, dict(RADIOLOGY_DISTRIBUTION), 265.0, 66.0, 0.1, 1)

    @pytest.mark.parametrize("name, value, message", [
        ("n_reports", "x", "n_reports must be an integer, not str"),
        ("seed", 1.5, "seed must be an integer, not float"),
        ("distractor_rate", None, "distractor_rate must be a number, not null"),
        ("class_distribution", {"NR": "1"}, "class_distribution.NR must be a number, not str"),
    ])
    def test_field_of_the_wrong_type_rejected(self, name, value, message):
        with pytest.raises(CorpusError, match=f"^{message}$"):
            replace(default_corpus_spec(Task.RADIOLOGY, 2, 1), **{name: value})


class TestSyntheticCorpus:
    def test_deterministic(self):
        spec = default_corpus_spec(Task.RADIOLOGY, 50, seed=7)
        a = generate_synthetic_corpus(spec)
        b = generate_synthetic_corpus(spec)
        assert a == b

    def test_count_and_ids_unique(self, small_radiology_corpus):
        reports, annotations = small_radiology_corpus
        assert len(reports) == 200
        assert len({r.id for r in reports}) == 200
        assert len(annotations) == 200

    def test_labels_embedded_in_text(self, small_radiology_corpus, radiology_schema):
        reports, annotations = small_radiology_corpus
        gold = {a.report_id: a.label for a in annotations}
        for r in reports:
            label = gold[r.id]
            if label == radiology_schema.nr_label:
                assert "follow-up score" not in r.text
            else:
                assert f"BT-RADS follow-up score: {label}." in r.text

    def test_pathology_answer_sentences(self):
        spec = CorpusSpec(Task.PATHOLOGY, 60, dict(PATHOLOGY_DISTRIBUTION), 120, 30, 0.5, 3)
        reports, annotations = generate_synthetic_corpus(spec)
        gold = {a.report_id: a.label for a in annotations}
        for r in reports:
            if gold[r.id] != "NR":
                assert f"IDH1/IDH2 mutation status: {gold[r.id]}" in r.text

    @pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
    def test_generated_text_is_already_normalized(self, task):
        # generate_synthetic_corpus builds its reports without normalize_text
        spec = default_corpus_spec(task, 40, seed=11)
        reports, _ = generate_synthetic_corpus(spec)
        assert all(r.text == normalize_text(r.text) for r in reports)
        assert {r.task for r in reports} == {task}

    def test_length_floor(self):
        spec = CorpusSpec(Task.RADIOLOGY, 40, dict(RADIOLOGY_DISTRIBUTION), 35, 60, 0.0, 5)
        reports, _ = generate_synthetic_corpus(spec)
        assert all(r.word_count >= 30 for r in reports)

    def test_distribution_within_three_binomial_se(self):
        n = 2000
        spec = default_corpus_spec(Task.RADIOLOGY, n, seed=23)
        _, annotations = generate_synthetic_corpus(spec)
        dist = spec.normalized_distribution()
        counts = {}
        for a in annotations:
            counts[a.label] = counts.get(a.label, 0) + 1
        for label, p in dist.items():
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(label, 0) / n - p) <= 3 * se + 1e-12, label

    @pytest.mark.parametrize("vocab", [corpus_mod._RADIOLOGY_VOCAB, corpus_mod._PATHOLOGY_VOCAB],
                             ids=["radiology", "pathology"])
    def test_filler_draws_match_randint_and_choice(self, vocab):
        def reference(rng, target_words):
            sentences, count = [], 0
            while count < target_words:
                words = [rng.choice(vocab) for _ in range(rng.randint(4, 7))]
                while len(" ".join(words)) + 1 > corpus_mod._MAX_SENTENCE_CHARS and len(words) > 2:
                    words.pop()
                s = words[0].capitalize() + " " + " ".join(words[1:]) + "."
                sentences.append(s)
                count += len(s.split())
            return sentences

        for seed in range(20):
            ours, ref = random.Random(seed), random.Random(seed)
            target = 30 + 97 * seed
            got = corpus_mod._filler_sentences(ours.getrandbits, vocab, target)
            assert got == reference(ref, target)
            assert ours.getstate() == ref.getstate()


class TestCorpusBytesPinned:
    """sha256 of save_corpus output, the same as when filler words came from
    rng.randint and rng.choice. A change that moves any corpus byte fails here;
    pin a new digest only for a change that means to alter what corpora hold."""

    @pytest.mark.parametrize("spec, digest", [
        (default_corpus_spec(Task.RADIOLOGY, 200, 5),
         "610d3aa9473f042e049d96d08658e5e5814896d0a52f7d70bd105a68e55988a2"),
        (default_corpus_spec(Task.PATHOLOGY, 60, 5),
         "b62f529b897b8e4ce96cf8f9327d8b578bcc5e30da684d676a7c3f0244c10af9"),
        (default_corpus_spec(Task.PATHOLOGY, 300, 1),
         "ce6b1aacd63b7c5b16496de181619934361155877c89e5b53a96a5405f801601"),
        # mean 35 and sd 60 words put many reports on the 30-word floor
        (CorpusSpec(Task.RADIOLOGY, 40, dict(RADIOLOGY_DISTRIBUTION), 35, 60, 1.0, 5),
         "31b7c3bd9751cac9bbd5cecc7f0726f3b511054e21bcbb2cdd10d56ebe291e67"),
    ], ids=["radiology-200-seed5", "pathology-60-seed5", "pathology-300-seed1",
            "floor-all-distractors"])
    def test_corpus_bytes(self, tmp_path, spec, digest):
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, *generate_synthetic_corpus(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestPersistence:
    def test_roundtrip(self, tmp_path, small_radiology_corpus):
        reports, annotations = small_radiology_corpus
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, reports, annotations)
        loaded_reports, loaded_annotations = load_corpus(path)
        assert loaded_reports == reports
        assert loaded_annotations == annotations

    def test_label_omitted_for_unannotated(self, tmp_path, small_radiology_corpus):
        reports, _ = small_radiology_corpus
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, reports[:3], [])
        lines = path.read_text().splitlines()
        assert all("label" not in json.loads(line) for line in lines)

    def test_duplicate_id_rejected(self, tmp_path, small_radiology_corpus):
        reports, _ = small_radiology_corpus
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, reports[:2], [])
        line = path.read_text().splitlines()[0]
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_truncated_final_line_cites_line_number(self, tmp_path, small_radiology_corpus):
        reports, annotations = small_radiology_corpus
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, reports[:3], annotations[:3])
        content = path.read_text()
        path.write_text(content[: len(content) - 40])
        with pytest.raises(CorpusError, match="line 3"):
            load_corpus(path)

    def test_save_rejects_duplicate_ids(self, tmp_path, small_radiology_corpus):
        reports, _ = small_radiology_corpus
        with pytest.raises(CorpusError):
            save_corpus(tmp_path / "x.jsonl", [reports[0], reports[0]], [])
