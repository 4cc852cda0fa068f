import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

import reportex
from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    RADIOLOGY_SCHEMA,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
)

# Every @given test draws the same examples on every run and keeps no example
# database. No deadline: some properties do file I/O in each example.
settings.register_profile("reportex", derandomize=True, deadline=None, database=None)
settings.load_profile("reportex")
# Hypothesis also caches what it reads from the source under .hypothesis/;
# keep that in a directory removed when the run ends.
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_STORAGE.cleanup()  # not left to the interpreter's exit, which warns


@pytest.fixture(scope="session")
def radiology_schema():
    return RADIOLOGY_SCHEMA


@pytest.fixture(scope="session")
def pathology_schema():
    return PATHOLOGY_SCHEMA


@pytest.fixture(scope="session")
def small_radiology_corpus():
    """200 short synthetic radiology reports with gold labels."""
    spec = default_corpus_spec(Task.RADIOLOGY, 200, seed=11)
    return generate_synthetic_corpus(spec)


@pytest.fixture
def package_env():
    """The environment for a child interpreter that must import the reportex
    this one imported, whether the checkout's src/ or an installed wheel: its
    directory goes first on PYTHONPATH."""
    where = str(Path(reportex.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [where, os.environ.get("PYTHONPATH")]))}
