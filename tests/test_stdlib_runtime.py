"""The client runs on the standard library alone: a RAG sweep over HTTP, dense
retrieval included, and its report complete in an interpreter that refuses to
import numpy. The mock server runs in a process of its own, since the mock's
embedder uses numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import reportex
from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
    save_corpus,
    save_schema,
)
from reportex.retrieval import RetrievalSettings
from reportex.sweep import PipelineConfig, ResultStore

SERVER = r"""
import sys
from reportex.corpus import PATHOLOGY_SCHEMA, load_corpus
from reportex.mock_server import MockLmServer, MockMode, MockModel

reports, annotations = load_corpus(sys.argv[1])
gold = {a.report_id: a.label for a in annotations}
with MockLmServer(MockModel(MockMode.ORACLE, gold, PATHOLOGY_SCHEMA, reports)) as server:
    print(server.endpoint, flush=True)
    sys.stdin.read()  # serve until the test closes stdin
"""

CLIENT = r"""
import json, sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseNumpy())
from reportex import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    assert code == 0, (argv[0], code)
assert "numpy" not in sys.modules
"""


def _env():
    src = str(Path(reportex.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_rag_sweep_and_report_over_http_without_numpy(tmp_path):
    reports, annotations = generate_synthetic_corpus(
        default_corpus_spec(Task.PATHOLOGY, 20, seed=44))
    reports = sorted(reports, key=lambda r: len(r.text))[:5]  # 336 to 2463 characters
    corpus, schema, grid, store = (tmp_path / name for name in (
        "corpus.jsonl", "schema.json", "grid.json", "store.jsonl"))
    save_corpus(corpus, reports, annotations)
    save_schema(schema, PATHOLOGY_SCHEMA)
    base = PipelineConfig(model_name="m", retrieval=RetrievalSettings(mode="dense"))
    grid.write_text(json.dumps({
        "base": base.to_dict(), "axes": {"retrieval.mode": ["dense", "hybrid", "sequential"]}}))

    server = subprocess.Popen([sys.executable, "-c", SERVER, str(corpus)], env=_env(),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        endpoint = server.stdout.readline().strip()
        assert endpoint.startswith("http://"), endpoint
        files = ["--grid", str(grid), "--corpus", str(corpus), "--schema", str(schema)]
        argvs = [["sweep", *files, "--store", str(store), "--endpoint", endpoint,
                  "--parallelism", "2", "--no-timestamps"],
                 ["report", *files, "--store", str(store), "--csv", str(tmp_path / "t.csv")]]
        client = subprocess.run([sys.executable, "-c", CLIENT, json.dumps(argvs)], env=_env(),
                                capture_output=True, text=True, timeout=120)
    finally:
        server.stdin.close()
        server.wait(timeout=30)
    assert client.returncode == 0, client.stderr
    records = ResultStore.open(store).records
    assert len(records) == 15  # 5 reports x 3 modes
    assert all(r.error is None for r in records)
    assert any(r.rag_used for r in records)
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 4
