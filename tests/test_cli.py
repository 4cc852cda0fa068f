import csv
import errno
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from reportex import corpus as corpus_mod
from reportex.cli import main
from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    RADIOLOGY_SCHEMA,
    LabelSchema,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    save_schema,
)
from reportex.metrics import TABLE_COLUMNS
from reportex.mock_server import MockLmServer, MockMode, MockModel
from reportex.prompting import FewShot, PromptStrategy
from reportex.retrieval import RetrievalSettings
from reportex.postprocess import ParsedLabel
from reportex.sweep import ExtractionRecord, PipelineConfig, ResultStore, SweepGrid, enumerate_configs
from wire_doubles import CannedServer, RecordingModel


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """Corpus, schema, config, and grid files plus a live oracle server."""
    root = tmp_path_factory.mktemp("cli")
    reports, annotations = generate_synthetic_corpus(
        default_corpus_spec(Task.RADIOLOGY, 30, seed=80))
    gold = {a.report_id: a.label for a in annotations}

    corpus_path = root / "corpus.jsonl"
    save_corpus(corpus_path, reports, annotations)
    schema_path = root / "schema.json"
    save_schema(schema_path, RADIOLOGY_SCHEMA)

    config = PipelineConfig(model_name="mock-7b")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))

    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps({
        "base": config.to_dict(),
        "axes": {"top_k": [2, 40]},
        "sample": {"n": 20, "seed": 5},
    }))

    server = MockLmServer(MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)).start()
    yield {
        "root": root, "reports": reports, "gold": gold, "corpus": str(corpus_path),
        "schema": str(schema_path), "config": str(config_path), "grid": str(grid_path),
        "endpoint": server.endpoint,
    }
    server.stop()


def _few_shot_files(root):
    """A schema without the labels of the built-in radiology exemplars, and a
    config and a grid that ask for positive few-shot prompts."""
    schema = root / "low_high_schema.json"
    save_schema(schema, LabelSchema(Task.RADIOLOGY, ("low", "high", "NR"), "NR", "score",
                                    RADIOLOGY_SCHEMA.retrieval_keywords))
    config = PipelineConfig(model_name="mock-7b", prompt=PromptStrategy(few_shot=FewShot.POSITIVE))
    config_path = root / "few_shot_config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    grid = root / "few_shot_grid.json"
    grid.write_text(json.dumps({"base": config.to_dict(), "axes": {"prompt.few_shot": [
        "none", "positive"]}}))
    return schema, config_path, grid


def _endpoint_args(command, corpus_files):
    """`sweep` talks to the live server; `report` takes no endpoint."""
    return ["--endpoint", corpus_files["endpoint"]] if command == "sweep" else []


def _grid_obj(corpus_files):
    """The grid file's object, read afresh for a test to change."""
    with open(corpus_files["grid"]) as fh:
        return json.load(fh)


class TestGenerateCorpus:
    def _spec_file(self, tmp_path, **overrides):
        spec = {"task": "radiology", "n_reports": 25, "seed": 3}
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_valid_spec(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        out = tmp_path / "corpus.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(out)]) == 0
        reports, annotations = load_corpus(out)
        assert len(reports) == 25
        assert len(annotations) == 25
        assert "NR" in capsys.readouterr().out

    def test_bad_distribution_exit_2(self, tmp_path):
        spec = self._spec_file(tmp_path, class_distribution={"2": 0.4, "NR": 0.4})
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2

    def test_spec_not_an_object_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[]")
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2
        assert "invalid corpus spec" in capsys.readouterr().err

    def test_distribution_not_an_object_exit_2(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, class_distribution=[1])
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2
        assert "invalid corpus spec" in capsys.readouterr().err

    def test_string_report_count_exit_2(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, n_reports="5")
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2
        assert "invalid corpus spec" in capsys.readouterr().err

    def test_string_probability_exit_2(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, class_distribution={"2": "x"})
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2
        assert "invalid corpus spec" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["length_mean_words", "length_sd_words"])
    @pytest.mark.parametrize("value, shown", [
        (float("inf"), "Infinity"), (float("nan"), "NaN"),
    ], ids=["inf", "nan"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, field, value, shown):
        spec = self._spec_file(tmp_path, **{field: value})
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2
        assert f"{field} must be a number, not {shown}" in capsys.readouterr().err

    def test_seed_repetition_identical_files(self, tmp_path):
        spec = self._spec_file(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unset_fields_take_task_defaults(self, tmp_path):
        spec = self._spec_file(tmp_path)
        out, expected = tmp_path / "cli.jsonl", tmp_path / "api.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(out)]) == 0
        save_corpus(expected, *generate_synthetic_corpus(
            default_corpus_spec(Task.RADIOLOGY, 25, seed=3)))
        assert out.read_bytes() == expected.read_bytes()

    def test_set_fields_override_exactly_those(self, tmp_path, monkeypatch):
        seen = []
        real = corpus_mod.generate_synthetic_corpus
        monkeypatch.setattr(corpus_mod, "generate_synthetic_corpus",
                            lambda spec: seen.append(spec) or real(spec))
        spec = self._spec_file(tmp_path, length_mean_words=80.0, distractor_rate=0.9,
                               comment="keys that are not spec fields are ignored")
        assert main(["generate-corpus", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 0
        expected = replace(default_corpus_spec(Task.RADIOLOGY, 25, seed=3),
                           length_mean_words=80.0, distractor_rate=0.9)
        assert seen == [expected]

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, n_report=5)
        out = tmp_path / "x.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: invalid corpus spec (spec must have only the "
                              "fields task, n_reports, ")
        assert err.endswith(", comment, not 'n_report')\n")
        assert not out.exists()

    def test_seed_flag_beats_spec_seed(self, tmp_path):
        spec = self._spec_file(tmp_path)
        out, expected = tmp_path / "cli.jsonl", tmp_path / "api.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(out),
                     "--seed", "9"]) == 0
        save_corpus(expected, *generate_synthetic_corpus(
            default_corpus_spec(Task.RADIOLOGY, 25, seed=9)))
        assert out.read_bytes() == expected.read_bytes()


class TestExtract:
    def _report_file(self, corpus_files, label):
        reports, gold = corpus_files["reports"], corpus_files["gold"]
        report = next(r for r in reports if gold[r.id] == label)
        path = corpus_files["root"] / f"report_{label}.json"
        path.write_text(json.dumps({"id": report.id, "task": "radiology", "text": report.text}))
        return path, report

    def test_oracle_extract(self, corpus_files, capsys):
        path, report = self._report_file(corpus_files, "4")
        code = main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"], "--endpoint", corpus_files["endpoint"]])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"report_id": report.id, "label": "4", "rag_used": False}

    def test_show_raw(self, corpus_files, capsys):
        path, _ = self._report_file(corpus_files, "2")
        code = main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"], "--endpoint", corpus_files["endpoint"],
                     "--show-raw"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["raw_output"] == '{"score": "2"}'

    def test_garbage_backend_is_data_not_failure(self, corpus_files, capsys):
        with MockLmServer(MockModel(MockMode.GARBAGE, corpus_files["gold"], RADIOLOGY_SCHEMA,
                                    corpus_files["reports"])) as garbage:
            path, _ = self._report_file(corpus_files, "2")
            code = main(["extract", str(path), "--config", corpus_files["config"],
                         "--schema", corpus_files["schema"], "--endpoint", garbage.endpoint])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["label"] == "INVALID"
        assert out["invalid_reason"] == "no_json"

    def test_missing_schema_exit_2(self, corpus_files):
        path, _ = self._report_file(corpus_files, "2")
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", "/nonexistent/schema.json",
                     "--endpoint", corpus_files["endpoint"]]) == 2

    def test_unknown_task_exit_2(self, corpus_files, tmp_path, capsys):
        path = tmp_path / "bogus_task.json"
        path.write_text(json.dumps({"text": "x y", "task": "bogus"}))
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"],
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert "unknown task 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("config_obj, part", [
        ([1, 2], "pipeline config"),
        ({"model_name": "m", "prompt": [1]}, "prompt"),
    ], ids=["top", "prompt"])
    def test_config_not_an_object_exit_2(self, corpus_files, tmp_path, capsys, config_obj,
                                         part):
        path, _ = self._report_file(corpus_files, "2")
        config = tmp_path / "shape_config.json"
        config.write_text(json.dumps(config_obj))
        assert main(["extract", str(path), "--config", str(config),
                     "--schema", corpus_files["schema"],
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert f"{part} must be a JSON object, not list" in capsys.readouterr().err

    @pytest.mark.parametrize("report_obj, message", [
        ({"text": 5}, "text must be a string, not int"),
        ({"text": "a b", "id": 5}, "id must be a string, not int"),
    ], ids=["text", "id"])
    def test_report_field_not_a_string_exit_2(self, corpus_files, tmp_path, capsys, report_obj,
                                              message):
        path = tmp_path / "bad_report.json"
        path.write_text(json.dumps(report_obj))
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"],
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert message in capsys.readouterr().err

    def test_json_object_without_text_exit_2(self, corpus_files, tmp_path, capsys):
        path = tmp_path / "misspelt_report.json"
        path.write_text(json.dumps({"id": "r1", "task": "radiology", "txt": "no new lesion"}))
        # a closed port: exit 3 would mean the backend was called
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"], "--endpoint", "http://127.0.0.1:9"]) == 2
        assert "text must be a string, not missing" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [False, True], ids=["prose", "json-number"])
    def test_input_that_is_not_a_json_object_is_report_text(self, corpus_files, tmp_path,
                                                            capsys, as_json):
        path = tmp_path / "report.txt"
        _, report = self._report_file(corpus_files, "4")
        path.write_text("42" if as_json else report.text)
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"],
                     "--endpoint", corpus_files["endpoint"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report_id"] == "stdin"
        assert out["label"] == ("INVALID" if as_json else "4")

    @pytest.mark.parametrize("key, value", [
        ("answer_key", 5), ("nr_label", True), ("retrieval_keywords", ["w"]),
    ], ids=["answer_key", "nr_label", "retrieval_keywords"])
    def test_schema_field_not_a_string_exit_2(self, corpus_files, tmp_path, capsys, key, value):
        path, _ = self._report_file(corpus_files, "2")
        with open(corpus_files["schema"]) as fh:
            schema_obj = json.load(fh)
        schema_obj[key] = value
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(schema_obj))
        # a closed port: exit 3 would mean the backend was called
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", str(schema), "--endpoint", "http://127.0.0.1:9"]) == 2
        assert f"{key} must be a string, not {type(value).__name__}" in capsys.readouterr().err

    def test_embeddings_unfit_for_the_index_exit_3(self, corpus_files, tmp_path, capsys):
        path, _ = self._report_file(corpus_files, "2")
        config = tmp_path / "dense_config.json"
        config.write_text(json.dumps(PipelineConfig(
            model_name="mock-7b", retrieval=RetrievalSettings(mode="dense")).to_dict()))
        zero_rows = {"/api/embeddings": lambda _: {"embedding": [0.0] * 8}}
        with MockLmServer(RecordingModel(gold=corpus_files["gold"], replies=zero_rows)) as server:
            assert main(["extract", str(path), "--config", str(config),
                         "--schema", corpus_files["schema"], "--endpoint", server.endpoint]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: VectorIndexError: ")
        assert len(captured.err.splitlines()) == 1

    def test_server_error_body_on_one_line_exit_3(self, corpus_files, capsys):
        path, _ = self._report_file(corpus_files, "2")
        with CannedServer(500, b"<html>\nInternal Server Error\n</html>") as httpd:
            assert main(["extract", str(path), "--config", corpus_files["config"],
                         "--schema", corpus_files["schema"], "--endpoint", httpd.endpoint]) == 3
        assert capsys.readouterr().err == (
            "error: ProtocolError: server returned status 500: "
            "<html> Internal Server Error </html>\n")

    def test_schema_without_exemplar_labels_exit_2(self, corpus_files, tmp_path, capsys):
        path, _ = self._report_file(corpus_files, "2")
        schema, config, _ = _few_shot_files(tmp_path)
        # a closed port: exit 3 would mean the backend was called
        assert main(["extract", str(path), "--config", str(config), "--schema", str(schema),
                     "--endpoint", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert "schema has no label '2'" in err and len(err.splitlines()) == 1

    def test_report_of_another_task_exit_2(self, corpus_files, tmp_path, capsys):
        _, report = self._report_file(corpus_files, "2")
        path = tmp_path / "pathology_report.json"
        path.write_text(json.dumps({"id": report.id, "task": "pathology", "text": report.text}))
        # a closed port: exit 3 would mean the backend was called
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"], "--endpoint", "http://127.0.0.1:9"]) == 2
        assert capsys.readouterr().err == (f"error: {path}: report task 'pathology' is not "
                                           "the schema's task 'radiology'\n")

    def test_backend_unreachable_exit_3(self, corpus_files, monkeypatch):
        monkeypatch.setattr("reportex.lm_client.DEFAULT_RETRY_BASE", 0.001)
        path, _ = self._report_file(corpus_files, "2")
        assert main(["extract", str(path), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"],
                     "--endpoint", "http://127.0.0.1:9"]) == 3


class TestEndpointChecked:
    """An endpoint that is not an http(s) URL with a valid port is a usage error,
    reported before any pair runs."""

    def _run(self, corpus_files, tmp_path, command, endpoint):
        if command == "sweep":
            return main(["sweep", "--grid", corpus_files["grid"],
                         "--corpus", corpus_files["corpus"], "--schema", corpus_files["schema"],
                         "--store", str(tmp_path / "s.jsonl"), "--endpoint", endpoint])
        report = tmp_path / "report.txt"
        report.write_text(corpus_files["reports"][0].text)
        return main(["extract", str(report), "--config", corpus_files["config"],
                     "--schema", corpus_files["schema"], "--endpoint", endpoint])

    @pytest.mark.parametrize("command", ["sweep", "extract"])
    @pytest.mark.parametrize("configured, env", [
        ("localhost:11434", None),
        (None, "http://127.0.0.1:99999"),
        (None, "http://127.0.0.1:abc"),
        ("http://[::1", None),
        ("http://127.0.0.1:11434?a=b", None),
        ("http://127.0.0.1:11434#frag", None),
        (None, "http://127.0.0.1:0"),
    ], ids=["no-scheme", "port-out-of-range", "port-not-a-number", "malformed-ipv6-host", "query",
            "fragment", "port-zero"])
    def test_bad_endpoint_exit_2(self, corpus_files, tmp_path, capsys, monkeypatch, command,
                                 configured, env):
        if env is not None:
            monkeypatch.setenv("EXTRACTOR_LM_ENDPOINT", env)
        assert self._run(corpus_files, tmp_path, command,
                         configured or corpus_files["endpoint"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(env or configured) in err  # the message names the endpoint
        assert "Traceback" not in err
        assert not (tmp_path / "s.jsonl").exists()


class TestSweepAndReport:
    def test_sweep_then_report(self, corpus_files, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        code = main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--parallelism", "4",
                     "--no-timestamps"])
        assert code == 0
        swept = store.read_bytes()
        assert len(swept.splitlines()) == 40  # 20 reports x 2 configs
        capsys.readouterr()

        csv_path = tmp_path / "table.csv"
        code = main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", corpus_files["grid"],
                     "--csv", str(csv_path), "--compare", "top_k"])
        assert code == 0
        assert store.read_bytes() == swept  # reading a store leaves its bytes as they were
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[-7]) == 1.0  # accuracy column
        out = capsys.readouterr().out
        comparisons = json.loads(out[out.index("{"): out.rindex("}") + 1])
        assert comparisons["comparisons"][0]["outcome"] == "no_difference"

    def test_sweep_byte_deterministic_across_runs(self, corpus_files, tmp_path, capsys):
        stores = []
        for name in ("d1.jsonl", "d2.jsonl"):
            store = tmp_path / name
            assert main(["sweep", "--grid", corpus_files["grid"],
                         "--corpus", corpus_files["corpus"],
                         "--schema", corpus_files["schema"], "--store", str(store),
                         "--endpoint", corpus_files["endpoint"], "--parallelism", "4",
                         "--no-timestamps"]) == 0
            stores.append(store.read_bytes())
        assert stores[0] == stores[1]

    def test_rerun_sweep_adds_nothing(self, corpus_files, tmp_path, capsys):
        store = tmp_path / "store2.jsonl"
        args = ["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                "--schema", corpus_files["schema"], "--store", str(store),
                "--endpoint", corpus_files["endpoint"], "--no-timestamps"]
        assert main(args) == 0
        before = store.read_text()
        assert main(args) == 0
        assert store.read_text() == before

    @pytest.mark.skipif(os.name != "posix", reason="the store lock is an fcntl.flock")
    def test_second_sweep_on_a_store_in_use_exit_2(self, corpus_files, tmp_path, capsys):
        def sweep(store, endpoint):
            return main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                         "--schema", corpus_files["schema"], "--store", str(store),
                         "--endpoint", endpoint, "--parallelism", "1", "--no-timestamps"])

        uninterrupted = tmp_path / "uninterrupted.jsonl"
        assert sweep(uninterrupted, corpus_files["endpoint"]) == 0
        # The server holds back its first reply until released, so the second
        # sweep starts while the first holds the store and has stored nothing.
        held, released = threading.Event(), threading.Event()

        def hold(payload):
            if not held.is_set():
                held.set()
                released.wait(30)
            return None  # answer as the oracle does

        store = tmp_path / "store.jsonl"
        model = RecordingModel(gold=corpus_files["gold"], reports=corpus_files["reports"],
                               replies={"/api/generate": hold})
        with MockLmServer(model) as server:
            codes = []
            first = threading.Thread(target=lambda: codes.append(sweep(store, server.endpoint)))
            first.start()
            try:
                assert held.wait(30)
                capsys.readouterr()
                assert sweep(store, server.endpoint) == 2
                assert capsys.readouterr().err == f"error: {store}: in use by another sweep\n"
                assert store.read_bytes() == b""
            finally:
                released.set()
                first.join(60)
        assert codes == [0]
        assert store.read_bytes() == uninterrupted.read_bytes()

    def test_zero_parallelism_exit_2(self, corpus_files, tmp_path, capsys):
        store = tmp_path / "p0.jsonl"
        assert main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--parallelism", "0"]) == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not store.exists()

    def test_sweep_over_two_embed_models(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "embed_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["base"]["retrieval"]["mode"] = "dense"
        grid_obj["axes"] = {"retrieval.embed_model": ["gte-large", "nomic-embed-text"]}
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "embed.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        records = [ExtractionRecord.from_dict(json.loads(line))
                   for line in store.read_text().splitlines()]
        assert len(records) == 40
        assert len({r.config_hash for r in records}) == 2
        assert all(r.error is None for r in records)
        assert all(r.parsed.label == corpus_files["gold"][r.report_id] for r in records)

    def test_report_table_has_every_config_field(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "embed_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["base"]["retrieval"]["mode"] = "dense"
        grid_obj["axes"] = {"retrieval.embed_model": ["gte-large", "nomic-embed-text"]}
        grid.write_text(json.dumps(grid_obj))
        table = tmp_path / "embed.csv"
        files = ["--grid", str(grid), "--corpus", corpus_files["corpus"],
                 "--schema", corpus_files["schema"], "--store", str(tmp_path / "embed.jsonl")]
        assert main(["sweep", *files, "--endpoint", corpus_files["endpoint"],
                     "--no-timestamps"]) == 0
        assert main(["report", *files, "--csv", str(table)]) == 0
        header, *rows = csv.reader(io.StringIO(table.read_text()))
        assert header == [
            "config_hash", "model_name", "param_count_b", "quant_bits", "prompt.style",
            "prompt.few_shot", "prompt.json_instruction", "temperature", "top_k", "top_p",
            "json_mode", "retrieval.mode", "retrieval.chunk_size", "retrieval.overlap",
            "retrieval.candidates", "retrieval.shortlist", "retrieval.rerank_threshold",
            "retrieval.embed_model", "retrieval.bm25_k1", "retrieval.bm25_b", "seed",
            *TABLE_COLUMNS]
        first, second = (dict(zip(header[:-len(TABLE_COLUMNS)], row)) for row in rows)
        assert {first["retrieval.embed_model"], second["retrieval.embed_model"]} == {
            "gte-large", "nomic-embed-text"}
        assert [k for k in first if first[k] != second[k]] == [
            "config_hash", "retrieval.embed_model"]

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("extra, message", [
        ({"axis": {"temperature": [0.0, 0.5]}},
         "grid must have only the fields base, axes, sample, comment, not 'axis'"),
        ({"sample": {"n": 3, "sampel": 1}},
         "sample must have only the fields n, seed, not 'sampel'"),
    ], ids=["top", "sample"])
    def test_grid_with_an_unknown_key_exit_2(self, corpus_files, tmp_path, capsys, command,
                                             extra, message):
        grid = tmp_path / "typo_grid.json"
        grid.write_text(json.dumps({**_grid_obj(corpus_files), **extra}))
        store = tmp_path / "typo.jsonl"
        assert main([command, "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     *_endpoint_args(command, corpus_files)]) == 2
        assert f"{grid}: invalid grid file ({message})" in capsys.readouterr().err
        assert not store.exists()

    def test_grid_with_a_comment_runs(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "comment_grid.json"
        grid.write_text(json.dumps({**_grid_obj(corpus_files),
                                    "comment": "top_k at 2 and 40"}))
        store = tmp_path / "comment.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        assert len(store.read_text().splitlines()) == 40

    def test_corpus_of_another_task_exit_2(self, corpus_files, tmp_path, capsys, monkeypatch):
        # a closed port and no retries: a pair that ran would be stored as an error record
        monkeypatch.setattr("reportex.lm_client.DEFAULT_RETRIES", 0)
        schema = tmp_path / "pathology_schema.json"
        save_schema(schema, PATHOLOGY_SCHEMA)
        store = tmp_path / "mismatch.jsonl"
        assert main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                     "--schema", str(schema), "--store", str(store),
                     "--endpoint", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert "has task 'radiology', but the schema is for 'pathology'" in err
        assert len(err.splitlines()) == 1 and not store.exists()

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("grid_obj, part", [
        ([1], "grid"),
        ({"base": [1]}, "pipeline config"),
        ({"base": {"model_name": "m"}, "sample": [1]}, "sample"),
        ({"base": {"model_name": "m"}, "axes": [["top_k", [2]]]}, "axes"),
    ], ids=["top", "base", "sample", "axes"])
    def test_grid_of_wrong_shape_exit_2(self, corpus_files, tmp_path, capsys, command,
                                        grid_obj, part):
        grid = tmp_path / "shape_grid.json"
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "shape.jsonl"
        assert main([command, "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store)]) == 2
        assert f"{part} must be a JSON object, not list" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("part, message", [
        ({"model_name": 5}, "model_name must be a string, not int"),
        ({"seed": "x"}, "seed must be an integer, not str"),
        ({"json_mode": "no"}, "json_mode must be true or false, not str"),
        ({"quant_bits": 4.5}, "quant_bits must be an integer, not float"),
        ({"top_k": 2.5}, "top_k must be an integer, not float"),
        ({"temperature": float("nan")}, "temperature must be a number, not NaN"),
        ({"prompt": {"json_instruction": "false"}},
         "prompt.json_instruction must be true or false, not str"),
        ({"prompt": {"stlye": "simple"}}, "prompt must have only the fields style, few_shot, "
                                          "json_instruction, not 'stlye'"),
        ({"prompt": {"style": "fancy"}},
         "prompt.style must be one of 'simple', 'complex', not 'fancy'"),
        ({"retrieval": {"candidates": True}}, "retrieval.candidates must be an integer, not bool"),
        ({"retrieval": {"mode": "hybrid", "chunk_size": 70.5}},
         "retrieval.chunk_size must be an integer, not float"),
        ({"modle_name": "m"}, "pipeline config must have only the fields model_name, "),
    ], ids=["model_name", "seed", "json_mode", "quant_bits", "top_k", "temperature",
            "json_instruction", "prompt-typo", "style", "candidates", "chunk_size", "typo"])
    def test_config_field_of_wrong_type_exit_2(self, corpus_files, tmp_path, capsys, part,
                                               message):
        grid_obj = _grid_obj(corpus_files)
        base = grid_obj["base"]
        for key, value in part.items():
            base[key] = {**base[key], **value} if isinstance(value, dict) else value
        grid = tmp_path / "typed_grid.json"
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "typed.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert message in capsys.readouterr().err
        assert not store.exists()

    def test_axis_value_of_wrong_type_exit_2(self, corpus_files, tmp_path, capsys):
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {"retrieval.chunk_size": [70, 70.5]}
        grid = tmp_path / "axis_grid.json"
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "axis.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert "retrieval.chunk_size must be an integer, not float" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("sample, message", [
        ({"n": "3"}, "sample.n must be an integer, not str"),
        ({"n": -1}, "sample.n must be an integer >= 1, not -1"),
        ({"n": True}, "sample.n must be an integer, not bool"),
        ({"n": 2, "seed": "x"}, "sample.seed must be an integer, not str"),
        ({"n": 2, "seed": False}, "sample.seed must be an integer, not bool"),
    ], ids=["n-string", "n-negative", "n-bool", "seed-string", "seed-bool"])
    def test_bad_sample_exit_2(self, corpus_files, tmp_path, capsys, command, sample, message):
        grid = tmp_path / "sample_grid.json"
        grid.write_text(json.dumps({"base": {"model_name": "m"}, "sample": sample}))
        store = tmp_path / "sample.jsonl"
        assert main([command, "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     *_endpoint_args(command, corpus_files)]) == 2
        assert message in capsys.readouterr().err
        assert not store.exists()

    def test_seed_without_a_grid_sample_exit_2(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "unsampled_grid.json"
        grid.write_text(json.dumps({"base": {"model_name": "m"}}))
        store = tmp_path / "unsampled.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "--seed overrides the grid's sample seed, but the grid has no sample" in err
        assert not store.exists()

    def test_incomplete_store_exit_4(self, corpus_files, tmp_path, capsys):
        store = tmp_path / "partial.jsonl"
        # run only half the grid by sweeping with a single-config grid
        single = tmp_path / "single_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {}
        single.write_text(json.dumps(grid_obj))
        assert main(["sweep", "--grid", str(single), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        capsys.readouterr()
        code = main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", corpus_files["grid"]])
        assert code == 4

    @pytest.mark.parametrize("content", [None, ""], ids=["missing", "empty"])
    def test_store_without_records_exit_4(self, corpus_files, tmp_path, capsys, content):
        store = tmp_path / "none.jsonl"
        if content is not None:
            store.write_text(content)
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", corpus_files["grid"]]) == 4
        err = capsys.readouterr().err
        assert err == "error: store holds no record for any requested config\n"

    def test_compare_axis_with_three_values_exit_2(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "three_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {"top_k": [2, 5, 40]}
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "three.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", str(grid),
                     "--compare", "top_k"]) == 2
        err = capsys.readouterr().err
        assert err == "error: axis 'top_k' must take exactly 2 values in the store, got 3\n"

    def test_compare_axis_whose_values_are_objects_exit_2(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "object_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {"prompt": [{"style": "simple"}, {"style": "complex"}],
                            "model_name": ["m1", "m2"]}
        grid_obj["sample"]["n"] = 6
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "object.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", str(grid),
                     "--compare", "prompt"]) == 2
        assert capsys.readouterr().err == (
            "error: axis 'prompt' takes objects as values; compare one of their fields, "
            "such as 'prompt.style'\n")

    def test_stored_report_without_gold_label_exit_2(self, corpus_files, tmp_path, capsys):
        grid = SweepGrid.from_file(corpus_files["grid"])
        store = tmp_path / "ghost.jsonl"
        store.write_text("".join(
            json.dumps(ExtractionRecord("ghost", config.config_hash, "", ParsedLabel.valid("2"),
                                        False).to_dict()) + "\n"
            for config in enumerate_configs(grid)))
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", corpus_files["grid"]]) == 2
        assert capsys.readouterr().err == "error: no gold label for report ids: ['ghost']\n"

    def test_schema_without_exemplar_labels_exit_2(self, corpus_files, tmp_path, capsys):
        schema, _, grid = _few_shot_files(tmp_path)
        store = tmp_path / "few_shot.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", str(schema), "--store", str(store),
                     "--endpoint", corpus_files["endpoint"]]) == 2
        assert "error: schema has no label '2'" in capsys.readouterr().err
        assert not store.exists()

    def test_negative_top_exit_2(self, corpus_files, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--store", str(tmp_path / "s.jsonl"), "--corpus",
                  corpus_files["corpus"], "--schema", corpus_files["schema"],
                  "--grid", corpus_files["grid"], "--top", "-1"])
        assert exc.value.code == 2
        assert "--top: must be >= 0, not -1" in capsys.readouterr().err

    def test_report_top_limits_the_printed_rows(self, corpus_files, tmp_path, capsys):
        grid = tmp_path / "four.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {"top_k": [2, 10, 20, 40]}
        grid_obj["sample"] = {"n": 3, "seed": 5}
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "four.jsonl"
        assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", str(grid),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 configurations by accuracy, then macro F1:" in out
        table = out[out.index("top 3 configurations"):].splitlines()
        assert table[1].split() == ["config", "model", "accuracy", "macro_f1"]
        assert len(table) == 5  # the title, the header and three rows
        assert all(row.split()[1] == "mock-7b" for row in table[2:])

    def test_report_sort_order(self, corpus_files, tmp_path, capsys):
        # a noisy backend gives each model a different accuracy (per-model rng
        # stream); the plain-text table must come out sorted by accuracy
        reports, gold = corpus_files["reports"], corpus_files["gold"]
        grid = tmp_path / "model_grid.json"
        grid_obj = _grid_obj(corpus_files)
        grid_obj["axes"] = {"model_name": ["m-a", "m-b", "m-c"]}
        grid.write_text(json.dumps(grid_obj))
        store = tmp_path / "sorted.jsonl"
        with MockLmServer(MockModel(MockMode.NOISY_ORACLE, gold, RADIOLOGY_SCHEMA,
                                    reports, seed=9, noise_rate=0.4)) as noisy:
            assert main(["sweep", "--grid", str(grid), "--corpus", corpus_files["corpus"],
                         "--schema", corpus_files["schema"], "--store", str(store),
                         "--endpoint", noisy.endpoint, "--no-timestamps"]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "sorted.csv"
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", str(grid),
                     "--csv", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()[1:]
        accuracies = [float(r.split(",")[-7]) for r in rows]
        assert accuracies == sorted(accuracies, reverse=True)


class TestOutputPaths:
    """An output path that cannot be written exits 2 with one line naming it."""

    def _sweep(self, corpus_files, store, endpoint="http://127.0.0.1:9"):
        return main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", endpoint, "--no-timestamps"])

    @staticmethod
    def _one_error_naming(capsys, path):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_sweep_store_in_missing_directory_exit_2(self, corpus_files, tmp_path, capsys,
                                                     monkeypatch):
        # a closed port and no retries: a pair that ran would reach the append and crash
        monkeypatch.setattr("reportex.lm_client.DEFAULT_RETRIES", 0)
        store = tmp_path / "nodir" / "store.jsonl"
        assert self._sweep(corpus_files, store) == 2
        self._one_error_naming(capsys, store)
        assert not store.parent.exists()

    def test_sweep_store_that_is_a_directory_exit_2(self, corpus_files, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("reportex.lm_client.DEFAULT_RETRIES", 0)
        assert self._sweep(corpus_files, tmp_path) == 2
        self._one_error_naming(capsys, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_store_that_stops_taking_appends_midway_exit_2(self, corpus_files, tmp_path, capsys,
                                                           monkeypatch):
        def sweep(store):
            return self._sweep(corpus_files, store, corpus_files["endpoint"])

        uninterrupted, store = tmp_path / "uninterrupted.jsonl", tmp_path / "store.jsonl"
        assert sweep(uninterrupted) == 0
        capsys.readouterr()
        append, calls = ResultStore.append, []

        def disk_full_on_third_append(self, record):
            calls.append(record)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            append(self, record)

        with monkeypatch.context() as m:
            m.setattr(ResultStore, "append", disk_full_on_third_append)
            assert sweep(store) == 2
        err = self._one_error_naming(capsys, store)
        assert os.strerror(errno.ENOSPC) in err
        assert len(store.read_bytes().splitlines()) == 2
        assert sweep(store) == 0
        assert store.read_bytes() == uninterrupted.read_bytes()

    def test_report_to_a_closed_stdout_raises_broken_pipe(self, corpus_files, tmp_path,
                                                          monkeypatch):
        # `report | head -1`: stdout is no output path, so main does not map it to exit 2
        store = tmp_path / "store.jsonl"
        assert self._sweep(corpus_files, store, corpus_files["endpoint"]) == 0

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                  "--schema", corpus_files["schema"], "--grid", corpus_files["grid"]])

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, package_env, unbuffered):
        # buffered, the output fails only at the final flush; unbuffered, at the first print
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"task": "radiology", "n_reports": 5, "seed": 3}))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "reportex.cli", "generate-corpus", "--spec", str(spec),
                 "--out", str(tmp_path / "c.jsonl")],
                env={**package_env, "PYTHONUNBUFFERED": unbuffered}, stdout=write_end,
                stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.parametrize("option", ["--csv", "--json"])
    def test_report_output_in_missing_directory_exit_2(self, corpus_files, tmp_path, capsys,
                                                       option):
        store = tmp_path / "store.jsonl"
        assert main(["sweep", "--grid", corpus_files["grid"], "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--store", str(store),
                     "--endpoint", corpus_files["endpoint"], "--no-timestamps"]) == 0
        capsys.readouterr()
        out = tmp_path / "nodir" / "x.out"
        assert main(["report", "--store", str(store), "--corpus", corpus_files["corpus"],
                     "--schema", corpus_files["schema"], "--grid", corpus_files["grid"],
                     option, str(out)]) == 2
        self._one_error_naming(capsys, out)

    def test_generate_corpus_out_in_missing_directory_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"task": "radiology", "n_reports": 5, "seed": 3}))
        out = tmp_path / "nodir" / "c.jsonl"
        assert main(["generate-corpus", "--spec", str(spec), "--out", str(out)]) == 2
        err = self._one_error_naming(capsys, out)
        assert "invalid corpus spec" not in err


class TestMalformedInputFiles:
    """Corpus and schema files that parse as JSON but have the wrong shape."""

    def _run(self, corpus_files, tmp_path, command, corpus=None, schema=None):
        return main([command, "--grid", corpus_files["grid"],
                     "--corpus", corpus or corpus_files["corpus"],
                     "--schema", schema or corpus_files["schema"],
                     "--store", str(tmp_path / "malformed.jsonl"),
                     *_endpoint_args(command, corpus_files)])

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("bad_line, message", [
        ([1], "line 2: expected a JSON object, not list"),
        ({"id": "r", "task": "radiology", "text": 5}, "line 2: text must be a string, not int"),
        ({"id": 7, "task": "radiology", "text": "x"}, "line 2: id must be a string, not int"),
        ({"id": "r", "task": "radiology", "text": "x", "label": 2},
         "line 2: label must be a string, not int"),
        ({"id": "a\ud800", "task": "radiology", "text": "x"},
         "line 2: id must be a string, not a string holding a lone surrogate"),
    ], ids=["list", "text", "id", "label", "surrogate"])
    def test_corpus_line_of_wrong_shape_exit_2(self, corpus_files, tmp_path, capsys, command,
                                               bad_line, message):
        with open(corpus_files["corpus"]) as fh:
            first = fh.readline()
        corpus = tmp_path / "bad_corpus.jsonl"
        corpus.write_text(first + json.dumps(bad_line) + "\n")
        assert self._run(corpus_files, tmp_path, command, corpus=str(corpus)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("bad_line", [
        "5",
        '["a"]',
        json.dumps({"report_id": "r", "config_hash": "c", "raw_output": "",
                    "parsed": {"reason": "nope"}, "rag_used": False}),
        json.dumps({"report_id": "r", "config_hash": "c", "raw_output": "",
                    "parsed": 5, "rag_used": False}),
    ], ids=["number", "list", "unknown-reason", "parsed-number"])
    def test_store_line_not_a_record_exit_2(self, corpus_files, tmp_path, capsys, command,
                                           bad_line):
        store = tmp_path / "malformed.jsonl"
        store.write_text(bad_line + "\n")
        assert self._run(corpus_files, tmp_path, command) == 2
        assert "line 1: unreadable record" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_store_line_not_utf8_exit_2(self, corpus_files, tmp_path, capsys, command):
        (tmp_path / "malformed.jsonl").write_bytes(b"\xff\xfe\n")
        assert self._run(corpus_files, tmp_path, command) == 2
        assert "line 1: unreadable record" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_store_field_of_wrong_type_exit_2(self, corpus_files, tmp_path, capsys, command):
        line = {"report_id": 5, "config_hash": "c", "raw_output": "", "parsed": {"label": "2"},
                "rag_used": "yes", "rerank_score": None, "latency_ms": 1.0, "timestamp": 0.0}
        (tmp_path / "malformed.jsonl").write_text(json.dumps(line) + "\n")
        assert self._run(corpus_files, tmp_path, command) == 2
        assert "line 1: unreadable record (report_id must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("parsed, message", [
        ({"label": 5}, "parsed.label must be a string or null, not int"),
        ({"label": ["x"]}, "parsed.label must be a string or null, not list"),
        ({"label": None, "alt_key": 1}, "parsed.alt_key must be a string or null, not int"),
        ({"label": None, "reason": 5}, "parsed.reason must be one of 'no_json'"),
    ], ids=["label-number", "label-list", "alt_key", "reason"])
    def test_stored_parsed_field_of_wrong_type_exit_2(self, corpus_files, tmp_path, capsys,
                                                      command, parsed, message):
        line = {"report_id": "r", "config_hash": "c", "raw_output": "", "parsed": parsed,
                "rag_used": False}
        (tmp_path / "malformed.jsonl").write_text(json.dumps(line) + "\n")
        assert self._run(corpus_files, tmp_path, command) == 2
        assert f"line 1: unreadable record ({message}" in capsys.readouterr().err

    def test_stored_label_outside_schema_exit_2(self, corpus_files, tmp_path, capsys):
        store = tmp_path / "malformed.jsonl"
        assert self._run(corpus_files, tmp_path, "sweep") == 0
        lines = store.read_text().splitlines()
        record = json.loads(lines[0])
        record["parsed"] = {"label": "bogus"}
        store.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert self._run(corpus_files, tmp_path, "report") == 2
        assert "predicted label 'bogus' not in schema" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("schema_obj, message", [
        ([1], "expected a JSON object, not list"),
        ({"task": "radiology", "valid_labels": "abc", "nr_label": "c", "answer_key": "k",
          "retrieval_keywords": "w"}, "valid_labels must be a list of strings"),
        ({"task": "radiology", "valid_labels": ["a", 1], "nr_label": "a", "answer_key": "k",
          "retrieval_keywords": "w"}, "valid_labels must be a list of strings"),
    ], ids=["list", "labels-string", "labels-int"])
    def test_schema_of_wrong_shape_exit_2(self, corpus_files, tmp_path, capsys, command,
                                          schema_obj, message):
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(schema_obj))
        assert self._run(corpus_files, tmp_path, command, schema=str(schema)) == 2
        assert message in capsys.readouterr().err
