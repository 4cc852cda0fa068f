"""Per-layer metrics for the traced run, measured from outside the program.

install() wraps each layer's public functions where the caller looks them up:
`run_sweep` finds extract_one, select_context, build_prompt, parse_label,
generate, confusion and compute_metrics as globals of reportex.sweep;
select_context finds the retrieval stages as globals of reportex.retrieval;
RemoteEmbedder calls reportex.lm_client.embed, and both lm_client calls go
through lm_client._post_with_retries and requests.post.

A layer that a workload bypasses has no timings of its own there. Those come
from the probe: a short in-process pass over a small radiology corpus that
runs every layer once, and that also gives the `baseline.*` figures of the
ROADMAP re-anchor list.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import requests

from reportex import lm_client, retrieval, sweep
from reportex.corpus import RADIOLOGY_SCHEMA, Task, default_corpus_spec, generate_synthetic_corpus
from reportex.lm_client import GenerationResponse
from reportex.mock_server import MockLmServer, MockMode
from reportex.retrieval import MockHashEmbedder, RetrievalSettings, TokenOverlapReranker

from mockproc import TimedMockModel
from tracing import Span, Tracer

MODES = ("dense", "hybrid", "sequential")
RETRIEVAL_STAGES = ("split", "embed", "bm25", "dense_search", "fusion", "rerank")


def install(tracer: Tracer) -> None:
    p = tracer.patch
    p(sweep, "run_sweep", "sweep.run_sweep")
    p(sweep, "extract_one", "sweep.extract_one", lambda a, k, r: {"rec": id(r)})
    p(sweep, "select_context", "retrieval.select_context",
      lambda a, k, r: {"mode": a[2].mode, "rag": r.rag_used})
    p(sweep, "build_prompt", "prompting.build_prompt", lambda a, k, r: {"chars": len(r)})
    p(sweep, "parse_label", "postprocess.parse_label", lambda a, k, r: {"valid": r.is_valid})
    p(sweep, "generate", "lm_client.generate")
    p(sweep, "aggregate", "sweep.aggregate")
    p(sweep, "confusion", "metrics.confusion")
    p(sweep, "compute_metrics", "metrics.compute_metrics")
    p(sweep.ResultStore, "open", "sweep.store_open", lambda a, k, r: {"records": len(r)})
    p(sweep.ResultStore, "append", "sweep.append", lambda a, k, r: {"rec": id(a[1])})
    p(sweep.PipelineConfig, "config_hash", "sweep.config_hash")
    p(retrieval, "tokenize", "retrieval.tokenize", lambda a, k, r: {"chars": len(a[0])})
    p(retrieval, "split_recursive", "retrieval.split")
    p(retrieval, "Bm25Stats", "retrieval.bm25")
    p(retrieval, "bm25_rank", "retrieval.bm25")
    p(retrieval, "dense_search", "retrieval.dense_search")
    p(retrieval, "hybrid_search", "retrieval.fusion")
    p(retrieval, "sequential_search", "retrieval.fusion")
    p(retrieval, "rerank", "retrieval.rerank")
    p(lm_client, "embed", "retrieval.embed", lambda a, k, r: {"texts": len(a[2])})
    p(lm_client, "_post_with_retries", "lm_client.request",
      lambda a, k, r: {"embed": a[0].endswith("/api/embeddings")})
    p(requests, "post", "lm_client.attempt")


@dataclass
class Scope:
    """What the traced sweeps covered, to turn totals into per-unit figures."""

    sweeps: int
    pairs: int
    reports: int  # distinct reports per sweep, summed over sweeps
    report_chars: int  # their characters, summed over sweeps
    parallelism: int


def _median(xs):
    return statistics.median(xs) if xs else None


def _pct(xs, q):
    if not xs:
        return None
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _scale(x, factor):
    return None if x is None else x * factor


def _ratio(num, den):
    return num / den if den else 0.0


def _within(spans: list[Span], outer: list[Span]) -> list[Span]:
    return [s for s in spans if any(o.start <= s.start <= o.end for o in outer)]


def layer_metrics(tracer: Tracer, server: dict, scope: Scope) -> dict[str, float | None]:
    """Every per-layer metric; None where the layer did not run."""
    spans = tracer.by_name()
    dur = {name: [s.duration for s in ss] for name, ss in spans.items()}
    self_time = tracer.self_times()
    sweeps = spans.get("sweep.run_sweep", [])
    m: dict[str, float | None] = {}

    gen_ms = [d * 1e3 for d in dur.get("lm_client.generate", [])]
    handled_ms = [d * 1e3 for d in server["handled_s"]]
    requests_ = spans.get("lm_client.request", [])
    embed_requests = [s.duration * 1e3 for s in requests_ if s.note["embed"]]
    m["lm_client.generate_p50_ms"] = _median(gen_ms)
    m["lm_client.generate_p99_ms"] = _pct(gen_ms, 0.99)
    m["lm_client.generate_overhead_ms"] = (
        _median(gen_ms) - _median(handled_ms) if gen_ms and handled_ms else None)
    m["lm_client.embed_request_ms"] = _median(embed_requests)
    m["lm_client.attempts_per_call"] = (
        len(spans.get("lm_client.attempt", [])) / len(requests_) if requests_ else None)

    m["mock_server.complete_p50_ms"] = _scale(_median(server["complete_s"]), 1e3)
    m["mock_server.embeddings_p50_us"] = _scale(_median(server["embeddings_s"]), 1e6)
    m["mock_server.generate_requests"] = _ratio(len(server["complete_s"]), scope.pairs)
    m["mock_server.embed_requests"] = _ratio(len(server["embeddings_s"]), scope.reports)

    contexts = spans.get("retrieval.select_context", [])
    retrieving = [s for s in contexts if s.note["mode"] != "off"]
    m["retrieval.select_context_calls_per_pair"] = _ratio(len(contexts), scope.pairs)
    for mode in MODES:
        own = [self_time[s.span_id] * 1e3 for s in contexts if s.note["mode"] == mode]
        m[f"retrieval.select_context_ms.{mode}"] = statistics.fmean(own) if own else None
    for stage in RETRIEVAL_STAGES:
        # fusion's own time: sequential_search nests a dense_search
        ss = spans.get(f"retrieval.{stage}", [])
        total = sum(self_time[s.span_id] if stage == "fusion" else s.duration for s in ss)
        m[f"retrieval.{stage}_ms"] = total * 1e3 / len(retrieving) if retrieving else None
    tokenized = spans.get("retrieval.tokenize", [])
    embeds = spans.get("retrieval.embed", [])
    m["retrieval.tokenize_calls_per_report"] = _ratio(len(tokenized), scope.reports)
    m["retrieval.tokenize_chars_ratio"] = _ratio(sum(s.note["chars"] for s in tokenized),
                                                 scope.report_chars)
    m["retrieval.embed_calls_per_report"] = _ratio(len(embeds), scope.reports)
    m["retrieval.embed_texts_per_report"] = _ratio(sum(s.note["texts"] for s in embeds),
                                                   scope.reports)
    m["retrieval.rag_used_ratio"] = _ratio(sum(s.note["rag"] for s in contexts), len(contexts))

    prompts = spans.get("prompting.build_prompt", [])
    parses = spans.get("postprocess.parse_label", [])
    m["prompting.build_prompt_p50_us"] = _scale(_median([s.duration for s in prompts]), 1e6)
    m["prompting.prompt_chars_p50"] = _median([s.note["chars"] for s in prompts])
    m["postprocess.parse_label_p50_us"] = _scale(_median([s.duration for s in parses]), 1e6)
    m["postprocess.invalid_ratio"] = _ratio(sum(not s.note["valid"] for s in parses), len(parses))

    opens = spans.get("sweep.store_open", [])
    sweep_ids = {s.span_id for s in sweeps}
    sweep_opens = [s for s in opens if s.parent_id in sweep_ids]
    loaded = [s for s in opens if s.note["records"]]
    extracts = spans.get("sweep.extract_one", [])
    appends = spans.get("sweep.append", [])
    m["sweep.store_open_ms"] = _scale(_median([s.duration for s in sweep_opens]), 1e3)
    m["sweep.store_open_us_per_record"] = (
        sum(s.duration for s in loaded) * 1e6 / sum(s.note["records"] for s in loaded)
        if loaded else None)
    m["sweep.config_hash_calls"] = _ratio(len(_within(spans.get("sweep.config_hash", []), sweeps)),
                                          len(sweeps))
    pre = []
    for s in sweeps:
        starts = [e.start for e in extracts if s.start <= e.start <= s.end]
        opened = sum(o.duration for o in sweep_opens if o.parent_id == s.span_id)
        if starts:
            pre.append((min(starts) - s.start - opened) * 1e3)
    m["sweep.pre_dispatch_ms"] = _median(pre)
    extract_ms = [s.duration * 1e3 for s in extracts]
    m["sweep.extract_one_p50_ms"] = _median(extract_ms)
    m["sweep.extract_one_p99_ms"] = _pct(extract_ms, 0.99)
    append_us = [s.duration * 1e6 for s in appends]
    m["sweep.append_p50_us"] = _median(append_us)
    m["sweep.append_p99_us"] = _pct(append_us, 0.99)
    ready = {s.note["rec"]: s.end for s in extracts}
    m["sweep.append_wait_ms"] = _median(
        [(s.start - ready[s.note["rec"]]) * 1e3 for s in appends if s.note["rec"] in ready])
    busy = sum(d for d in dur.get("sweep.extract_one", []))
    wall = sum(s.duration for s in sweeps)
    m["sweep.worker_busy_ratio"] = busy / (scope.parallelism * wall) if wall else None
    aggregates = dur.get("sweep.aggregate", [])
    m["sweep.aggregate_ms"] = _scale(_median(aggregates), 1e3)
    for name in ("confusion", "compute_metrics"):
        total = sum(dur.get(f"metrics.{name}", []))
        m[f"metrics.{name}_ms"] = total * 1e3 / len(aggregates) if aggregates else None
    return m


def probe(work: Path, seed: int, n_reports: int = 100) -> tuple[dict, dict]:
    """Run every layer over a small radiology corpus, in process.

    Returns (layer metrics, baseline figures). The baseline figures are taken
    with tracing off, as per-call means, in the form of the ROADMAP re-anchor
    list: select_context per mode with the in-process MockHashEmbedder,
    build_prompt, MockModel.complete, parse_label, fsynced append, store open
    per record, and serial generate over the wire. The traced pass then gives
    the layer metrics that workloads bypassing a layer fall back to.
    """
    reports, annotations = generate_synthetic_corpus(
        default_corpus_spec(Task.RADIOLOGY, n_reports, seed))
    gold = {a.report_id: a.label for a in annotations}
    schema = RADIOLOGY_SCHEMA
    model = TimedMockModel(MockMode.ORACLE, gold, schema, reports)
    # PipelineConfig defaults (no few-shot exemplars), as at the re-anchor
    configs = [sweep.PipelineConfig(model_name="llama3:8b", retrieval=RetrievalSettings(mode=mode))
               for mode in ("off",) + MODES]
    sent: list[lm_client.GenerationRequest] = []

    def generate(req):
        sent.append(req)
        return GenerationResponse(model.complete(req.to_payload())["response"], 0.0, req.model)

    embedder = MockHashEmbedder()
    backends = sweep.PipelineBackends(generate, embedder, TokenOverlapReranker())

    def mean_s(fn, items) -> float:
        start = time.perf_counter()
        for item in items:
            fn(item)
        return (time.perf_counter() - start) / len(items)

    for report in reports:  # fill the embedder's token cache before timing
        retrieval.select_context(report, schema, configs[1].retrieval, embedder, backends.reranker)
    rounds: dict[str, list[float]] = {}
    for _ in range(3):  # modes interleaved, so that each sees the same machine
        for config in configs:
            rounds.setdefault(config.retrieval.mode, []).append(mean_s(
                lambda r: retrieval.select_context(r, schema, config.retrieval, embedder,
                                                   backends.reranker), reports))
    baseline = {f"baseline.select_context_ms.{mode}": 1e3 * statistics.median(times)
                for mode, times in rounds.items()}
    records = [sweep.extract_one(r, schema, configs[0], backends) for r in reports]
    contexts = [retrieval.select_context(r, schema, configs[0].retrieval, embedder,
                                         backends.reranker) for r in reports]
    baseline["baseline.build_prompt_us"] = 1e6 * mean_s(
        lambda c: sweep.build_prompt(c, schema, configs[0].prompt), contexts)
    baseline["baseline.complete_ms"] = 1e3 * mean_s(
        lambda req: model.complete(req.to_payload()), sent)
    baseline["baseline.parse_label_us"] = 1e6 * mean_s(
        lambda rec: sweep.parse_label(rec.raw_output, schema), records)
    store_path = work / "probe.jsonl"
    store_path.unlink(missing_ok=True)
    store = sweep.ResultStore(store_path)
    baseline["baseline.append_us"] = 1e6 * mean_s(store.append, records)
    baseline["baseline.open_us_per_record"] = 1e6 * mean_s(
        sweep.ResultStore.open, [store_path]) / len(records)
    store_path.unlink()
    with MockLmServer(model) as server:
        baseline["baseline.wire_generate_ms"] = 1e3 * mean_s(
            lambda req: sweep.generate(server.endpoint, req), sent)
        model.take_stats()

        tracer = Tracer()
        install(tracer)
        try:
            traced = sweep.PipelineBackends(generate, _TracedEmbedder(tracer, embedder),
                                            backends.reranker)
            for config in configs[1:]:
                for report in reports:
                    sweep.extract_one(report, schema, config, traced)
            for req in sent[:n_reports]:
                sweep.generate(server.endpoint, req)
            chunks = retrieval.split_recursive(reports[0].text, report_id=reports[0].id)
            lm_client.embed(server.endpoint, "gte-large", [c.text for c in chunks])
        finally:
            tracer.restore()
    scope = Scope(sweeps=0, pairs=len(MODES) * n_reports, reports=n_reports,
                  report_chars=sum(len(r.text) for r in reports), parallelism=1)
    return layer_metrics(tracer, model.take_stats(), scope), baseline


class _TracedEmbedder:
    """An in-process embedder whose calls show up as retrieval.embed spans."""

    def __init__(self, tracer: Tracer, inner):
        self.embed = tracer.wrap(inner.embed, "retrieval.embed",
                                 lambda a, k, r: {"texts": len(a[0])})
