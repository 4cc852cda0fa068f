"""Smoke checks that keep the benchmark under perfbench/ runnable against src/.

The benchmark wraps program functions by name from outside the package, so a
rename in src/ breaks it without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_layer_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)  # KeyError or AttributeError if a patched name is gone
    finally:
        tracer.restore()


def test_short_wire_run_is_correct():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rad-grid-wire",
         "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_short_traced_rag_run_reports_every_layer():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-rag-wire",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for name in ("lm_client.embed_request_ms", "retrieval.embed_ms"):
        assert isinstance(result["metrics"][name]["value"], float), name
