"""The benchmark's three workloads: inputs made from a seed, set-up, one timed
iteration (sweep, then report) and the correctness checks on its outputs."""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reportex import sweep
from reportex.corpus import (
    BUILTIN_SCHEMAS,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
    save_corpus,
)
from reportex.lm_client import GenerationResponse
from reportex.mock_server import MockMode
from reportex.retrieval import MockHashEmbedder, TokenOverlapReranker

from mockproc import TimedMockModel

HERE = Path(__file__).resolve().parent
GRID_FILE = HERE.parent / "src" / "reportex" / "data" / "default_grid.json"

PARALLELISM = 2  # closed loop of two clients, one per CPU of the reference machine
# Server-side latency added by the mock to each request. It keeps both wire
# workloads latency-bound, as real model servers are, so that the share of a
# pair's time that follows the shared host's CPU speed stays small.
GENERATE_DELAY_MS = 50.0
EMBED_DELAY_MS = 30.0
REPORT_REPEATS = 3  # at least this many report steps per iteration ...
REPORT_MIN_S = 0.1  # ... and at least this much time in them


class BenchError(RuntimeError):
    """A correctness check failed; the run reports no numbers."""


@dataclass
class Iteration:
    pairs: int  # records newly stored by the sweep
    sweep_s: float  # wall time of the run_sweep call
    first_record_s: float  # run_sweep call to the first durable record
    report_s: float  # ResultStore.open plus aggregate on the finished store
    failed: int  # records carrying an error


def default_configs() -> list[sweep.PipelineConfig]:
    return sweep.enumerate_configs(sweep.SweepGrid.from_file(GRID_FILE))


def sweep_and_report(reports, configs, schema, gold, store_path, endpoint=None,
                     backends=None, no_timestamps=False):
    """One timed run_sweep followed by the timed work of `reportex report`."""
    first: list[float] = []
    stored = 0

    def progress(done: int, pending: int) -> None:
        nonlocal stored
        if not first:
            first.append(time.perf_counter())
        stored = done

    start = time.perf_counter()
    sweep.run_sweep(reports, configs, endpoint, store_path, schema, parallelism=PARALLELISM,
                    backends=backends, no_timestamps=no_timestamps, progress=progress)
    end = time.perf_counter()
    if not first:
        raise BenchError("the sweep stored no record")
    # The report step is short, so it is repeated and its median taken.
    report_times: list[float] = []
    while len(report_times) < REPORT_REPEATS or sum(report_times) < REPORT_MIN_S:
        report_start = time.perf_counter()
        store = sweep.ResultStore.open(store_path)
        result = sweep.aggregate(store, gold, schema, configs)
        report_times.append(time.perf_counter() - report_start)
    failed = sum(1 for r in store.records if r.error is not None)
    return (Iteration(stored, end - start, first[0] - start,
                      statistics.median(report_times), failed), store, result)


def check_complete(store: sweep.ResultStore, expected_pairs: set) -> None:
    """Every pair stored exactly once (open() refuses duplicates), none errored."""
    if len(store) != len(expected_pairs) or store.pairs != expected_pairs:
        raise BenchError(f"store holds {len(store)} records for {len(expected_pairs)} pairs")
    failed = sum(1 for r in store.records if r.error is not None)
    if failed:
        raise BenchError(f"{failed} records carry a backend error")


def check_accuracy(result: sweep.AggregateResult) -> None:
    wrong = [(c.config_hash, m.accuracy) for c, m in result.rows if m.accuracy != 1.0]
    if wrong:
        raise BenchError(f"ORACLE configs below accuracy 1.0: {wrong[:3]}")


class MockProcess:
    """The benchmark's mock server in a child process (see mockproc.py)."""

    def __init__(self, corpus_path, delay_ms: float, embed_delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mockproc.py"), "--corpus", str(corpus_path),
             "--delay-ms", str(delay_ms), "--embed-delay-ms", str(embed_delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError("mock server process exited before listening")
        info = json.loads(line)
        self.endpoint: str = info["endpoint"]
        self.index_build_s: float = info["index_build_s"]

    def take_stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.reports: list = []  # reports with pairs the timed sweep runs

    def setup(self) -> dict:
        """Build everything the timed phase needs; returns set-up timings in seconds."""
        raise NotImplementedError

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def take_server_stats(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class WireWorkload(Workload):
    """A fresh sweep over the wire against the mock in its own process."""

    task: Task

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.schema = None
        self.mock: MockProcess | None = None
        self.runs = 0

    def make_corpus(self) -> tuple[list, list]:
        raise NotImplementedError

    def make_configs(self) -> list:
        raise NotImplementedError

    def setup(self) -> dict:
        self.close()
        start = time.perf_counter()
        reports, annotations = self.make_corpus()
        corpus_s = time.perf_counter() - start
        corpus_path = self.work / "corpus.jsonl"
        save_corpus(corpus_path, reports, annotations)
        self.mock = MockProcess(corpus_path, GENERATE_DELAY_MS, EMBED_DELAY_MS)
        total_s = time.perf_counter() - start
        self.schema = BUILTIN_SCHEMAS[self.task]
        self.reports = reports
        self.gold = {a.report_id: a.label for a in annotations}
        self.configs = self.make_configs()
        self.expected = {(r.id, c.config_hash) for c in self.configs for r in reports}
        return {"setup_s": total_s, "corpus_s": corpus_s, "index_build_s": self.mock.index_build_s}

    def iterate(self) -> Iteration:
        self.runs += 1
        store_path = self.work / f"store-{self.runs}.jsonl"
        it, store, result = sweep_and_report(self.reports, self.configs, self.schema, self.gold,
                                             store_path, endpoint=self.mock.endpoint)
        check_complete(store, self.expected)
        check_accuracy(result)
        store_path.unlink()
        return it

    def take_server_stats(self) -> dict:
        return self.mock.take_stats()

    def close(self) -> None:
        if self.mock is not None:
            self.mock.close()
            self.mock = None


class RadGridWire(WireWorkload):
    name = "rad-grid-wire"
    task = Task.RADIOLOGY
    n_reports = 10
    n_configs = 6

    def make_corpus(self):
        return generate_synthetic_corpus(default_corpus_spec(self.task, self.n_reports, self.seed))

    def make_configs(self):
        configs = default_configs()
        chosen = set(random.Random(self.seed).sample(range(len(configs)), self.n_configs))
        return [c for i, c in enumerate(configs) if i in chosen]


class PathRagWire(WireWorkload):
    name = "path-rag-wire"
    task = Task.PATHOLOGY
    pool_size = 300
    target_chars = (6000, 3500)

    def make_corpus(self):
        """From a seeded pool of the default pathology corpus, the report closest
        in length to each of a few fixed character counts, longest first. The
        chunker counts characters, so every seed sweeps nearly the same number
        of chunks, and an iteration stays short enough to repeat several times
        in a run."""
        pool, annotations = generate_synthetic_corpus(
            default_corpus_spec(self.task, self.pool_size, self.seed))
        chosen = []
        for target in self.target_chars:
            best = min((r for r in pool if r not in chosen),
                       key=lambda r: (abs(len(r.text) - target), r.id))
            chosen.append(best)
        ids = {r.id for r in chosen}
        return chosen, [a for a in annotations if a.report_id in ids]

    def make_configs(self):
        base = sweep.SweepGrid.from_file(GRID_FILE).base
        grid = sweep.SweepGrid(base=base, axes={"retrieval.mode": ["dense", "hybrid", "sequential"]})
        return sweep.enumerate_configs(grid)


class RadResumeReport(Workload):
    name = "rad-resume-report"
    n_reports = 100
    tail_share = 0.05

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.schema = BUILTIN_SCHEMAS[Task.RADIOLOGY]
        self.store_path = work / "store.jsonl"

    def setup(self) -> dict:
        start = time.perf_counter()
        reports, annotations = generate_synthetic_corpus(
            default_corpus_spec(Task.RADIOLOGY, self.n_reports, self.seed))
        corpus_s = time.perf_counter() - start
        gold = {a.report_id: a.label for a in annotations}
        built = time.perf_counter()
        model = TimedMockModel(MockMode.NOISY_ORACLE, gold, self.schema, reports)
        index_build_s = time.perf_counter() - built
        backends = sweep.PipelineBackends(
            generate=lambda req: GenerationResponse(
                model.complete(req.to_payload())["response"], 0.0, req.model),
            embedder=MockHashEmbedder(),
            reranker=TokenOverlapReranker(),
        )
        configs = default_configs()
        reference_path = self.work / "reference.jsonl"
        reference_path.unlink(missing_ok=True)
        sweep.run_sweep(reports, configs, None, reference_path, self.schema,
                        parallelism=PARALLELISM, backends=backends, no_timestamps=True)
        total_s = time.perf_counter() - start
        check_complete(sweep.ResultStore.open(reference_path),
                       {(r.id, c.config_hash) for c in configs for r in reports})

        self.reference = reference_path.read_bytes()
        lines = self.reference.splitlines(keepends=True)
        tail = max(1, round(len(lines) * self.tail_share))
        self.head = b"".join(lines[:-tail])
        self.model, self.backends, self.configs, self.gold = model, backends, configs, gold
        pending = lines[-tail:]
        pending_ids = {json.loads(line)["report_id"] for line in pending}
        self.reports = [r for r in reports if r.id in pending_ids]
        self.all_reports = reports
        return {"setup_s": total_s, "corpus_s": corpus_s, "index_build_s": index_build_s}

    def iterate(self) -> Iteration:
        self.store_path.write_bytes(self.head)
        it, _, _ = sweep_and_report(self.all_reports, self.configs, self.schema, self.gold,
                                    self.store_path, backends=self.backends, no_timestamps=True)
        if self.store_path.read_bytes() != self.reference:
            raise BenchError("resumed store differs from the uninterrupted store")
        return it

    def take_server_stats(self) -> dict:
        return self.model.take_stats()


WORKLOADS = {w.name: w for w in (RadGridWire, PathRagWire, RadResumeReport)}
