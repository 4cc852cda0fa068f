"""The client and the mock server run on the standard library alone. Each
script below runs in a fresh interpreter that refuses to import numpy and
imports the reportex this module imported: a sweep over HTTP across every
retrieval mode and two embedding models, and its report, with the mock server
in a process of its own; an in-process sweep, its report and dense retrieval;
and the mock's embedder, whose rows do not depend on the interpreter's hash
seed. The installed-package CI job runs this module against the wheel, in an
environment with no numpy installed, and the last test keeps that job's list
of test modules in step with the tests directory."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

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

REFUSE_NUMPY = r"""
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseNumpy())
"""

SERVER = REFUSE_NUMPY + r"""
from reportex.corpus import PATHOLOGY_SCHEMA, load_corpus
from reportex.mock_server import MockLmServer, MockMode, MockModel

reports, annotations = load_corpus(sys.argv[1])
gold = {a.report_id: a.label for a in annotations}
with MockLmServer(MockModel(MockMode.ORACLE, gold, PATHOLOGY_SCHEMA, reports)) as server:
    print(server.endpoint, flush=True)
    sys.stdin.read()  # serve until the test closes stdin
assert "numpy" not in sys.modules
"""

CLIENT = REFUSE_NUMPY + r"""
import json
from reportex import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    assert code == 0, (argv[0], code)
assert "numpy" not in sys.modules
"""

IN_PROCESS = REFUSE_NUMPY + r"""
import json, zlib
from reportex.corpus import RADIOLOGY_SCHEMA, Task, default_corpus_spec, generate_synthetic_corpus
from reportex.lm_client import GenerationResponse
from reportex.retrieval import (MockHashEmbedder, RetrievalSettings, TokenOverlapReranker,
                                select_context)
from reportex.sweep import (PipelineBackends, PipelineConfig, ResultStore, SweepGrid, aggregate,
                            enumerate_configs, run_sweep)

reports, annotations = generate_synthetic_corpus(default_corpus_spec(Task.RADIOLOGY, 8, seed=3))
gold = {a.report_id: a.label for a in annotations}

def generate(req):
    label = gold[next(r.id for r in reports if r.text in req.prompt)]
    if zlib.crc32(json.dumps(req.to_payload()).encode()) % 3 == 0:  # some answers wrong
        label = "NR" if label != "NR" else "4"
    return GenerationResponse('{"score": "%s"}' % label, 0.0, req.model)

grid = SweepGrid(base=PipelineConfig(model_name="m"), axes={
    "model_name": ["a", "b", "c"], "param_count_b": [1.0, 8.0, 70.0], "json_mode": [False, True]})
configs = enumerate_configs(grid)
backends = PipelineBackends(generate, MockHashEmbedder(), TokenOverlapReranker())
store_path = sys.argv[1]
run_sweep(reports, configs, None, store_path, RADIOLOGY_SCHEMA, parallelism=2,
          backends=backends, no_timestamps=True)
result = aggregate(ResultStore.open(store_path), gold, RADIOLOGY_SCHEMA, configs,
                   compare_axes=("json_mode",))
assert len(result.rows) == 18 and result.to_csv()
comparison = result.comparisons_json()["comparisons"][0]
assert comparison["outcome"] == "tested", comparison
assert isinstance(result.correlations["accuracy_vs_log_param_count"], dict), result.correlations

context = select_context(reports[0], RADIOLOGY_SCHEMA, RetrievalSettings(mode="dense"),
                         MockHashEmbedder(), TokenOverlapReranker())
assert context.candidates
assert "numpy" not in sys.modules
"""

EMBED = REFUSE_NUMPY + r"""
import json
from reportex.retrieval import MockHashEmbedder

print(json.dumps(MockHashEmbedder(64, 5).embed(json.loads(sys.argv[1]), "gte-large")))
"""


def test_rag_sweep_and_report_over_http_without_numpy(tmp_path, package_env):
    reports, annotations = generate_synthetic_corpus(
        default_corpus_spec(Task.PATHOLOGY, 20, seed=44))
    reports = sorted(reports, key=lambda r: len(r.text))[:5]  # 336 to 2463 characters
    gold = {a.report_id: a.label for a in annotations}
    corpus, schema, grid, store = (tmp_path / name for name in (
        "corpus.jsonl", "schema.json", "grid.json", "store.jsonl"))
    save_corpus(corpus, reports, annotations)
    save_schema(schema, PATHOLOGY_SCHEMA)
    base = PipelineConfig(model_name="m", retrieval=RetrievalSettings(mode="dense"))
    grid.write_text(json.dumps({
        "base": base.to_dict(), "axes": {
            "retrieval.mode": ["off", "dense", "hybrid", "sequential"],
            "retrieval.embed_model": ["gte-large", "nomic-embed-text"]}}))

    server = subprocess.Popen([sys.executable, "-c", SERVER, str(corpus)], env=package_env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        endpoint = server.stdout.readline().strip()
        assert endpoint.startswith("http://"), endpoint
        files = ["--grid", str(grid), "--corpus", str(corpus), "--schema", str(schema)]
        argvs = [["sweep", *files, "--store", str(store), "--endpoint", endpoint,
                  "--parallelism", "2", "--no-timestamps"],
                 ["report", *files, "--store", str(store), "--csv", str(tmp_path / "t.csv"),
                  "--compare", "retrieval.embed_model"]]
        client = subprocess.run([sys.executable, "-c", CLIENT, json.dumps(argvs)],
                                env=package_env, capture_output=True, text=True, timeout=120)
    finally:
        server.stdin.close()
        server_code = server.wait(timeout=30)
        server.stdout.close()
    assert client.returncode == 0, client.stderr
    assert server_code == 0
    records = ResultStore.open(store).records
    assert len(records) == 40  # 5 reports x 4 modes x 2 embedding models
    assert all(r.error is None for r in records)
    assert any(r.rag_used for r in records)
    assert all(r.parsed.label == gold[r.report_id] for r in records)
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 9


def test_sweep_report_and_dense_retrieval_in_process_without_numpy(tmp_path, package_env):
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS, str(tmp_path / "store.jsonl")],
                          env=package_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_retrieval_and_the_mock_server_load_no_http_client(package_env):
    script = ("import sys, reportex.retrieval, reportex.mock_server; "
              "print(sorted({'reportex.lm_client', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=package_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_mock_embeddings_do_not_depend_on_the_hash_seed(package_env):
    texts = ["idh mutation detected", "BT-RADS 3c, stable", "..."]
    rows = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", EMBED, json.dumps(texts)],
                              env={**package_env, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows.append(json.loads(proc.stdout))
    assert rows[0] == rows[1]
    assert len(rows[0]) == 3 and all(len(row) == 64 for row in rows[0])
    assert all(type(x) is float for row in rows[0] for x in row)
    assert any(x != 0.0 for x in rows[0][0])


def _imported(path: Path) -> set[str]:
    """The top-level names of the modules that a test module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_installed_package_job_runs_every_test_module_without_numpy():
    # test_perfbench_smoke stays out: it runs perfbench/, which imports reportex
    # from src/, and the job deletes src/.
    tests = Path(__file__).resolve().parent
    workflow = (tests.parent / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    listed = {"test_" + name.strip()
              for group in re.findall(r"tests/test_\{([^}]*)\}\.py", workflow)
              for name in group.split(",")}
    imports = {path.stem: _imported(path) for path in tests.glob("*.py")}
    needs = {"numpy", "scipy", "requests"}
    while more := {name for name, names in imports.items() if names & needs} - needs:
        needs |= more  # a module that imports a test module that needs one needs it too
    numpy_free = {name for name in imports if name.startswith("test_")} - needs
    assert listed == numpy_free - {"test_perfbench_smoke"}
