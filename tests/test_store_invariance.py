"""A store does not depend on how the sweep ran.

Each example sweeps a few short reports under a few configs at some
parallelism, in process or over the wire to a mock server, and stops it with
KeyboardInterrupt from `progress` after the k-th appended record; the same
sweep then resumes. The store's bytes must equal those of one uninterrupted
in-process sweep at parallelism 1.
"""

import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    RADIOLOGY_SCHEMA,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
)
from reportex.lm_client import GenerationResponse
from reportex.mock_server import MockLmServer, MockMode, MockModel
from reportex.prompting import PromptStrategy, PromptStyle
from reportex.retrieval import MockHashEmbedder, RetrievalSettings, TokenOverlapReranker
from reportex.sweep import PipelineBackends, PipelineConfig, run_sweep

_SCHEMAS = {Task.RADIOLOGY: RADIOLOGY_SCHEMA, Task.PATHOLOGY: PATHOLOGY_SCHEMA}
_CONFIGS = [
    PipelineConfig(model_name="mock-8b", retrieval=RetrievalSettings(mode=mode),
                   temperature=temperature, prompt=PromptStrategy(style=style))
    for mode, temperature, style in itertools.product(
        ("off", "dense", "hybrid", "sequential"), (0.0, 0.5), PromptStyle)
]


def _setup(task):
    """The four shortest reports of a fixed corpus, and a noisy mock that knows them all."""
    reports, annotations = generate_synthetic_corpus(default_corpus_spec(task, 20, seed=7))
    gold = {a.report_id: a.label for a in annotations}
    model = MockModel(MockMode.NOISY_ORACLE, gold, _SCHEMAS[task], reports, seed=3,
                      noise_rate=0.3)
    return sorted(reports, key=lambda r: len(r.text))[:4], model


_SETUPS = {task: _setup(task) for task in Task}


def _in_process(model):
    def gen(req):
        out = model.complete(req.to_payload())
        return GenerationResponse(out["response"], 0.0, out["model"])

    return PipelineBackends(gen, MockHashEmbedder(64, model.seed), TokenOverlapReranker())


class _Stop:
    """A progress callback that interrupts the sweep once the k-th record is appended."""

    def __init__(self, k):
        self.k = k

    def __call__(self, done, pending):
        if done == self.k:
            raise KeyboardInterrupt


@st.composite
def _sweeps(draw):
    task = draw(st.sampled_from(list(Task)))
    picks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
    configs = draw(st.lists(st.sampled_from(_CONFIGS), min_size=2, max_size=4, unique=True))
    parallelism = draw(st.sampled_from([1, 2, 4]))
    wire = draw(st.booleans())
    k = draw(st.integers(1, len(picks) * len(configs)))
    return task, picks, configs, parallelism, wire, k


@settings(max_examples=30)
@given(_sweeps())
def test_store_bytes_do_not_depend_on_how_the_sweep_ran(sweep):
    task, picks, configs, parallelism, wire, k = sweep
    shortest, model = _SETUPS[task]
    reports = [shortest[i] for i in picks]
    schema = _SCHEMAS[task]
    with tempfile.TemporaryDirectory() as tmp:
        reference, resumed = Path(tmp, "reference.jsonl"), Path(tmp, "resumed.jsonl")
        run_sweep(reports, configs, None, reference, schema, parallelism=1,
                  backends=_in_process(model), no_timestamps=True)

        def sweep_once(progress=None):
            if not wire:
                return run_sweep(reports, configs, None, resumed, schema, parallelism,
                                 _in_process(model), no_timestamps=True, progress=progress)
            with MockLmServer(model) as server:
                return run_sweep(reports, configs, server.endpoint, resumed, schema, parallelism,
                                 no_timestamps=True, progress=progress)

        with pytest.raises(KeyboardInterrupt):
            sweep_once(_Stop(k))
        sweep_once()
        assert resumed.read_bytes() == reference.read_bytes()
