"""Configuration grids, the end-to-end extraction runner with a durable
append-only result store, and metric/statistics aggregation over stores."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import lm_client
from .corpus import LabelSchema, Report
from .inputs import check_object, dataclass_fields, from_json
from .lm_client import GenerationRequest, GenerationResponse, LmClientError, check_sampling, generate
from .metrics import (
    MetricsError,
    MetricsReport,
    StatTestResult,
    TABLE_COLUMNS,
    compute_metrics,
    confusion,
    paired_t,
    spearman,
)
from .postprocess import InvalidReason, ParsedLabel, parse_label
from .prompting import PromptStrategy, build_prompt, check_strategies
from .retrieval import (
    Embedder,
    RerankError,
    RerankScorer,
    RetrievalSettings,
    SingleFlightMemo,
    TokenOverlapReranker,
    VectorIndexError,
    select_context,
)


class SweepError(ValueError):
    pass


class StoreCorruptError(RuntimeError):
    pass


class MissingRecordsError(RuntimeError):
    """The store lacks the listed pairs; none listed when it holds no record
    for any requested config."""

    def __init__(self, missing: list[tuple[str, str]]):
        shown = ", ".join(f"({r}, {c})" for r, c in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        super().__init__(f"store is missing {len(missing)} (report, config) pairs: {shown}{more}"
                         if missing else "store holds no record for any requested config")
        self.missing = missing


@dataclass(frozen=True)
class PipelineConfig:
    """One point in the configuration space swept by the benchmark."""

    model_name: str
    param_count_b: float = 7.0
    quant_bits: int = 4
    prompt: PromptStrategy = PromptStrategy()
    temperature: float = 0.0
    top_k: int = 40
    top_p: float = 0.9
    json_mode: bool = True
    retrieval: RetrievalSettings = field(default_factory=RetrievalSettings)
    seed: int = 0

    def __post_init__(self):
        # a dict would pass as the JSON form of either, and read back as another config
        if not (isinstance(self.prompt, PromptStrategy) and isinstance(self.retrieval, RetrievalSettings)):
            raise SweepError("prompt must be a PromptStrategy and retrieval a RetrievalSettings")
        d = self.to_dict()
        try:  # the JSON form, against the table from_dict reads it with
            check_object(d, dataclass_fields(PipelineConfig))
            check_sampling(self.temperature, self.top_k, self.top_p)
        except ValueError as e:
            raise SweepError(str(e)) from e
        if not self.model_name:
            raise SweepError("model_name must be nonempty")
        if self.param_count_b <= 0:
            raise SweepError("param_count_b must be positive")
        if not 3 <= self.quant_bits <= 16:
            raise SweepError("quant_bits must be in 3..16")
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_hash", hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16])

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["prompt"] = self.prompt.to_dict()
        d["retrieval"] = {f.name: getattr(self.retrieval, f.name) for f in fields(self.retrieval)}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config a decoded JSON object describes; every part refuses unknown keys."""
        try:
            return from_json(cls, d, "pipeline config", closed=True)
        except ValueError as e:
            raise SweepError(f"invalid pipeline config: {e}") from e

    @property
    def config_hash(self) -> str:
        """Stable content hash over all fields, computed when the config is built."""
        return self._hash


@dataclass(frozen=True)
class ExtractionRecord:
    report_id: str
    config_hash: str
    raw_output: str
    parsed: ParsedLabel
    rag_used: bool
    rerank_score: float | None = None
    latency_ms: float = 0.0
    timestamp: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        """The store line: every field in declaration order, `parsed` in its JSON
        form, and `error` only on a failed pair."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["parsed"] = self.parsed.to_dict()
        if self.error is None:
            del d["error"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractionRecord":
        """The record a store line holds; InputError for a field of the wrong type."""
        return from_json(cls, d)


# A grid file; any other key is refused. `base` is checked as a pipeline
# config, and `axes` values as the config fields they name, when the configs
# are built.
_GRID_FIELDS = (
    ("base", object, True),
    ("axes", dict[str, list], False),
    ("sample", (("n", int, False), ("seed", int, False)), False),
    ("comment", str, False),
)


@dataclass(frozen=True)
class SweepGrid:
    base: PipelineConfig
    axes: dict[str, list]
    sample_n: int | None = None
    sample_seed: int = 0

    @classmethod
    def from_file(cls, path) -> "SweepGrid":
        try:
            obj = check_object(json.loads(Path(path).read_text(encoding="utf-8")),
                               _GRID_FIELDS, "grid", closed=True)
            sample = obj.get("sample", {})
            sample_n = sample.get("n")
            if sample_n is not None and sample_n < 1:
                raise SweepError(f"sample.n must be an integer >= 1, not {sample_n!r}")
            return cls(PipelineConfig.from_dict(obj["base"]), obj.get("axes", {}), sample_n,
                       sample.get("seed", 0))
        except ValueError as e:
            raise SweepError(f"{path}: invalid grid file ({e})") from e


def _field(d: dict, axis: str) -> tuple[dict, str]:
    """The dict holding the dotted `axis` of a config dict, and its key there."""
    *parents, key = axis.split(".")
    for part in parents:
        d = d.get(part)
        if not isinstance(d, dict):
            raise SweepError(f"unknown axis {axis!r}")
    if key not in d:
        raise SweepError(f"unknown axis {axis!r}")
    return d, key


def _leaves(d: dict, prefix: str = ""):
    """(axis name, value) of each non-object field of a config dict, in declaration order."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def enumerate_configs(grid: SweepGrid) -> list[PipelineConfig]:
    """Cartesian product of the grid axes applied to the base config.

    Axes are sorted by name; values keep their given order. Axis names are
    PipelineConfig fields, with dotted paths for nested fields such as
    retrieval.mode or prompt.style.
    """
    names = sorted(grid.axes)
    value_lists = []
    for name in names:
        values = grid.axes[name]
        if not isinstance(values, list) or not values:
            raise SweepError(f"axis {name!r} must map to a nonempty value list")
        value_lists.append(values)
    configs: list[PipelineConfig] = []
    for combo in itertools.product(*value_lists):
        d = grid.base.to_dict()
        for name, value in zip(names, combo):
            node, key = _field(d, name)
            node[key] = value
        configs.append(PipelineConfig.from_dict(d))
    # Checked once built, so a value of the wrong type gets its own message; equal
    # values pass through unconverted (1 and 1.0) and would hash apart.
    if len({c.config_hash for c in configs}) != len(configs) or any(
            a == b for values in value_lists for a, b in itertools.combinations(values, 2)):
        raise SweepError("grid produces duplicate configurations")
    return configs


def sample_reports(reports: list[Report], n: int, seed: int) -> list[Report]:
    """Uniform sample without replacement; deterministic and stably ordered."""
    if n > len(reports):
        raise SweepError(f"cannot sample {n} from a corpus of {len(reports)}")
    return random.Random(seed).sample(list(reports), n)


def record_seed(config_seed: int, report_id: str) -> int:
    """Per-record generation seed, independent of execution order."""
    digest = hashlib.blake2b(f"{config_seed}:{report_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class RemoteEmbedder:
    """Embedding backend that calls a model server; each call names the model."""

    endpoint: str

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        return lm_client.embed(self.endpoint, model, texts)  # a wrapper on lm_client.embed sees it


@dataclass
class PipelineBackends:
    """Pluggable model access for the pipeline: generation, embedding, reranking."""

    generate: Callable[[GenerationRequest], GenerationResponse]
    embedder: Embedder
    reranker: RerankScorer

    @classmethod
    def remote(cls, endpoint: str | None) -> "PipelineBackends":
        """Backends on the model server at `endpoint`, which resolve_endpoint
        checks here, so a missing or malformed one fails before any call."""
        endpoint = lm_client.resolve_endpoint(endpoint)
        return cls(
            generate=lambda req: generate(endpoint, req),
            embedder=RemoteEmbedder(endpoint),
            reranker=TokenOverlapReranker(),
        )


def extract_one(report: Report, schema: LabelSchema, config: PipelineConfig,
                backends: PipelineBackends, no_timestamps: bool = False,
                memo: SingleFlightMemo | None = None) -> ExtractionRecord:
    """Run one report through select-context -> prompt -> generate -> parse.

    `memo`, shared by the pairs of one sweep, holds each report's retrieval
    context and embeddings, and the response to each distinct generation
    request, keyed by a digest of the request's body, its wire bytes (model,
    prompt, options and per-record seed). A pair whose request another pair
    already sent gets that response, and its record carries that call's
    `latency_ms`. A backend failure, a reranker failure or embeddings unfit
    for the index make the pair a failed one: an error record whose `error`
    names the exception class. Under `no_timestamps`, `latency_ms` and
    `timestamp` keep their 0.0 defaults.
    """
    if memo is None:
        memo = SingleFlightMemo()
    try:
        context = memo.get(("context", report.id, config.retrieval), lambda: select_context(
            report, schema, config.retrieval, backends.embedder, backends.reranker, memo))
        prompt = build_prompt(context, schema, config.prompt)
        request = GenerationRequest(
            model=config.model_name,
            prompt=prompt,
            json_mode=config.json_mode,
            temperature=config.temperature,
            top_k=config.top_k,
            top_p=config.top_p,
            seed=record_seed(config.seed, report.id),
        )
        # Key on a digest, not the request, so the memo does not keep every prompt alive.
        response = memo.get(("generate", hashlib.blake2b(request.body, digest_size=16).digest()),
                            lambda: backends.generate(request))
    except (LmClientError, RerankError, VectorIndexError) as e:
        stored = dict(raw_output="", parsed=ParsedLabel.invalid(InvalidReason.EMPTY),
                      rag_used=False, error=f"{type(e).__name__}: {e}")
        latency_ms = 0.0
    else:
        stored = dict(raw_output=response.raw_text, parsed=parse_label(response.raw_text, schema),
                      rag_used=context.rag_used, rerank_score=context.rerank_score)
        latency_ms = response.latency_ms
    if not no_timestamps:  # the fields that differ from one run to the next
        stored.update(latency_ms=latency_ms, timestamp=time.time())
    return ExtractionRecord(report.id, config.config_hash, **stored)


class ResultStore:
    """Append-only JSONL result store with crash recovery.

    The store keeps one record per (report_id, config_hash) pair, in file
    order; `records`, `pairs`, `in` and `len` all read that one table.
    A process killed mid-append leaves a torn final line. open() skips it, so
    the pair is recomputed on resume, and append() cuts it off; open() never
    writes. Any other line that is not JSON, or is JSON but not a record, is
    corruption and aborts with a diagnostic naming the line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._by_pair: dict[tuple[str, str], ExtractionRecord] = {}
        self._torn = 0  # bytes after the file's last newline, when opened

    @classmethod
    def open(cls, path) -> "ResultStore":
        store = cls(path)
        p = store.path
        if not p.exists():
            return store
        raw = p.read_bytes()
        complete = raw[: raw.rfind(b"\n") + 1]  # empty when no line is complete
        store._torn = len(raw) - len(complete)
        # Bytes split only at \n and \r, which JSON always escapes; str.splitlines
        # would also split at U+2028 or U+0085 inside a record's strings.
        for lineno, line in enumerate(complete.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = ExtractionRecord.from_dict(json.loads(line.decode("utf-8")))
            except ValueError as e:
                raise StoreCorruptError(f"{p}: line {lineno}: unreadable record ({e})") from e
            pair = (record.report_id, record.config_hash)
            if pair in store:
                raise StoreCorruptError(f"{p}: line {lineno}: duplicate pair {pair}")
            store._by_pair[pair] = record
        return store

    @property
    def records(self) -> list[ExtractionRecord]:
        return list(self._by_pair.values())

    @property
    def pairs(self) -> set[tuple[str, str]]:
        return set(self._by_pair)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    def __len__(self) -> int:
        return len(self._by_pair)

    def append(self, record: ExtractionRecord) -> None:
        """Durably append one record; duplicates are an error."""
        pair = (record.report_id, record.config_hash)
        if pair in self:
            raise StoreCorruptError(f"duplicate append for pair {pair}")
        line = json.dumps(record.to_dict(), ensure_ascii=False)
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._torn:
                fh.truncate(fh.tell() - self._torn)
                self._torn = 0
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._by_pair[pair] = record


def run_sweep(reports: list[Report], configs: list[PipelineConfig], endpoint: str | None,
              store_path, schema: LabelSchema, parallelism: int = 4,
              backends: PipelineBackends | None = None, no_timestamps: bool = False,
              progress: Callable[[int, int], None] | None = None) -> ResultStore:
    """Run every (report, config) pair not already in the store.

    A config whose prompt strategy the schema cannot render raises PromptError
    before any pair runs, and a report of another task than the schema's, two
    reports that share an id, two configs that share a config_hash, or a store
    path that cannot be appended to, raises SweepError. Without `backends`, an
    endpoint that is missing (and EXTRACTOR_LM_ENDPOINT unset) or malformed
    raises LmClientError. The store file exists once those checks pass.
    Workers run extractions concurrently (bounded pool); only this thread
    appends to the store, one durable record per completed pair. Backend
    failures become invalid records; any exception that stops the sweep
    cancels the queued pairs. Interrupted sweeps resume by skipping completed
    pairs.

    Pairs are keyed by the hash each config computed when it was built. Each
    distinct generation request is sent once per call and its response shared
    by every pair whose request has the same body, such as retrieval modes
    that select the same context. This assumes a server that answers a seeded
    request the same way each time; configs that differ in `seed` send
    different requests. A shared record carries the first call's `latency_ms`;
    under `no_timestamps` stores do not change. A failed request is not kept,
    so a later pair sends it again.
    """
    if parallelism < 1:
        raise SweepError("parallelism must be >= 1")
    check_strategies(schema, [c.prompt for c in configs])
    ids = set()
    for report in reports:
        if report.task is not schema.task:
            raise SweepError(f"report {report.id!r} has task {report.task.value!r}, but the "
                             f"schema is for {schema.task.value!r}")
        if report.id in ids:  # pairs, the store and the memo know reports by id
            raise SweepError(f"two reports share the id {report.id!r}")
        ids.add(report.id)
    hashes = set()
    for config in configs:
        if config.config_hash in hashes:  # the store knows a config by its hash
            raise SweepError(f"two configs share the config_hash {config.config_hash}")
        hashes.add(config.config_hash)
    if backends is None:
        backends = PipelineBackends.remote(endpoint)
    try:
        store = ResultStore.open(store_path)
        open(store.path, "ab").close()  # a store that cannot take appends fails before any pair
    except OSError as e:
        raise SweepError(f"{store_path}: cannot append to the result store ({e.strerror or e})") from e
    pending = [(report, config) for config in configs for report in reports
               if (report.id, config.config_hash) not in store]
    # One memo per call: every run pays for its own embeddings and generations,
    # and concurrent pairs wait for a single computation of what they share.
    memo = SingleFlightMemo()
    done = 0
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [
            pool.submit(extract_one, report, schema, config, backends, no_timestamps, memo)
            for report, config in pending
        ]
        # Consume in submission order: the store stays deterministic under a
        # deterministic backend, and a crash only loses work that resume recomputes.
        try:
            for future in futures:
                store.append(future.result())
                done += 1
                if progress is not None:
                    progress(done, len(pending))
        except BaseException:  # Ctrl-C, a failing append or progress callback
            pool.shutdown(cancel_futures=True)
            raise
    return store


# ----------------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------------

_FALSY_AXIS_VALUES = {"off", "none", "simple", "false", False, 0}


@dataclass(frozen=True)
class AxisComparison:
    axis: str
    value_on: object
    value_off: object
    per_model: dict[str, tuple[float, float, float]]  # model -> (acc_on, acc_off, delta)
    mean_delta: float
    sd_delta: float
    outcome: str  # "tested" | "no_difference" | "uniform_delta" | "insufficient_models"
    paired: StatTestResult | None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "paired"}
        d["per_model"] = {m: {"acc_on": a, "acc_off": b, "delta": delta}
                          for m, (a, b, delta) in self.per_model.items()}
        d["paired_t"] = self.paired.to_dict() if self.paired else None
        return d


@dataclass
class AggregateResult:
    rows: list[tuple[PipelineConfig, MetricsReport]]  # sorted by accuracy, then macro F1
    comparisons: list[AxisComparison]
    correlations: dict[str, dict | str]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for i, (config, report) in enumerate(self.rows):
            cells = dict(_leaves(config.to_dict()))
            if i == 0:  # every config has the same fields
                writer.writerow(["config_hash", *cells, *TABLE_COLUMNS])
            writer.writerow([config.config_hash, *cells.values(),
                             *(f"{v:.6f}" for v in report.csv_row())])
        return out.getvalue()

    def comparisons_json(self) -> dict:
        return {
            "comparisons": [c.to_dict() for c in self.comparisons],
            "correlations": dict(self.correlations),
        }


def _compare_axis(axis: str, rows: list[tuple[PipelineConfig, MetricsReport]]) -> AxisComparison:
    cells = []  # (model, axis value, accuracy) per row
    for config, report in rows:
        node, key = _field(config.to_dict(), axis)
        cells.append((config.model_name, node[key], report.accuracy))
    if isinstance(cells[0][1], dict):  # objects neither order nor hash; a field keeps one type
        raise SweepError(f"axis {axis!r} takes objects as values; compare one of their "
                         f"fields, such as '{axis}.{next(iter(cells[0][1]))}'")
    distinct = {repr(v): v for _, v, _ in cells}
    if len(distinct) != 2:
        raise SweepError(f"axis {axis!r} must take exactly 2 values in the store, got {len(distinct)}")
    a, b = sorted(distinct.values())  # one field's values share one JSON type
    value_off, value_on = ((b, a) if a not in _FALSY_AXIS_VALUES and b in _FALSY_AXIS_VALUES
                           else (a, b))

    accs: dict[tuple[str, object], list[float]] = {}  # per (model, axis value), in row order
    for model, value, acc in cells:
        accs.setdefault((model, value), []).append(acc)
    per_model: dict[str, tuple[float, float, float]] = {}
    for model in sorted({m for m, _ in accs}):
        on, off = accs.get((model, value_on)), accs.get((model, value_off))
        if on and off:
            mean_on, mean_off = sum(on) / len(on), sum(off) / len(off)
            per_model[model] = (mean_on, mean_off, mean_on - mean_off)

    deltas = [d for _, _, d in per_model.values()]
    if len(deltas) < 2:
        mean_delta = deltas[0] if deltas else 0.0
        outcome = "no_difference" if mean_delta == 0.0 else "insufficient_models"
        return AxisComparison(axis, value_on, value_off, per_model, mean_delta, 0.0,
                              outcome, None)
    mean_delta = sum(deltas) / len(deltas)
    sd_delta = math.sqrt(sum((d - mean_delta) ** 2 for d in deltas) / (len(deltas) - 1))
    ons, offs, _ = zip(*per_model.values())
    try:
        paired = paired_t(ons, offs)
        outcome = "no_difference" if sd_delta == 0.0 and mean_delta == 0.0 else "tested"
    except MetricsError:  # paired_t raises only on a constant nonzero delta
        paired, outcome = None, "uniform_delta"
    return AxisComparison(axis, value_on, value_off, per_model, mean_delta, sd_delta,
                          outcome, paired)


def _correlation(xs: list[float], ys: list[float]) -> dict | str:
    try:
        result = spearman(xs, ys)
    except MetricsError as e:
        return f"not computed: {e}"
    return result.to_dict()


def aggregate(store: ResultStore, gold: dict[str, str], schema: LabelSchema,
              configs: list[PipelineConfig], compare_axes: tuple[str, ...] = ()) -> AggregateResult:
    """Per-config metrics plus axis comparisons and size/quantization correlations.

    Every report id the store holds for any of the configs is expected for all
    of them. Raises MissingRecordsError when the store lacks any such pair, or
    holds no record for any of the configs.
    """
    table = store._by_pair
    config_by_hash = {c.config_hash: c for c in configs}
    report_ids = sorted({rid for rid, h in table if h in config_by_hash})
    missing = [(rid, h) for h in config_by_hash for rid in report_ids if (rid, h) not in table]
    if missing or not report_ids:
        raise MissingRecordsError(missing)
    absent_gold = [rid for rid in report_ids if rid not in gold]
    if absent_gold:
        raise SweepError(f"no gold label for report ids: {absent_gold[:5]}")

    rows: list[tuple[PipelineConfig, MetricsReport]] = []
    for h, config in config_by_hash.items():
        preds = [table[rid, h].parsed for rid in report_ids]
        golds = [gold[rid] for rid in report_ids]
        rows.append((config, compute_metrics(confusion(preds, golds, schema))))
    rows.sort(key=lambda cr: (-cr[1].accuracy, -cr[1].macro_f1, cr[0].config_hash))

    comparisons = [_compare_axis(axis, rows) for axis in compare_axes]

    accs = [r.accuracy for _, r in rows]
    f1s = [r.macro_f1 for _, r in rows]
    log_params = [math.log(c.param_count_b) for c, _ in rows]
    quant = [float(c.quant_bits) for c, _ in rows]
    correlations = {
        "accuracy_vs_log_param_count": _correlation(accs, log_params),
        "macro_f1_vs_log_param_count": _correlation(f1s, log_params),
        "accuracy_vs_quant_bits": _correlation(accs, quant),
        "macro_f1_vs_quant_bits": _correlation(f1s, quant),
    }
    return AggregateResult(rows=rows, comparisons=comparisons, correlations=correlations)
