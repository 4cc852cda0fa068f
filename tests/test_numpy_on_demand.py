"""numpy is loaded only on the vector paths: a sweep with retrieval off, its
report and the CLI run without it, and dense retrieval loads it."""

import os
import subprocess
import sys
from pathlib import Path

import reportex

# Runs in a fresh interpreter, so that no earlier test has loaded numpy.
SCRIPT = r"""
import json, sys, zlib
import reportex.cli, reportex.mock_server
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
assert "numpy" not in sys.modules, "a sweep with retrieval off loaded numpy"

context = select_context(reports[0], RADIOLOGY_SCHEMA, RetrievalSettings(mode="dense"),
                         MockHashEmbedder(), TokenOverlapReranker())
assert context.candidates
assert "numpy" in sys.modules
"""


def test_retrieval_off_sweep_and_report_leave_numpy_unloaded(tmp_path):
    src = str(Path(reportex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "store.jsonl")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
