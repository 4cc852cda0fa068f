"""Retrieval-augmented context selection: chunking, BM25, dense search, fusion,
reranking, and the relevance-threshold fallback to the full report."""

from __future__ import annotations

import hashlib
import math
import operator
import re
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Protocol, Sequence, TypeVar

from .corpus import LabelSchema, Report

RRF_K = 60  # reciprocal-rank fusion constant

_TOKEN_RE = re.compile(r"[0-9a-z]+(?:/[0-9a-z]+)*")


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens; slash compounds like idh1/idh2 yield the
    compound plus both parts."""
    tokens: list[str] = []
    for m in _TOKEN_RE.finditer(text.casefold()):
        tok = m.group()
        if "/" in tok:
            tokens.append(tok)
            tokens.extend(t for t in tok.split("/") if t)
        else:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Chunk:
    report_id: str
    index: int
    text: str
    start: int
    end: int


RETRIEVAL_MODES = ("off", "dense", "hybrid", "sequential")


def _check_chunking(chunk_size: int, overlap: int) -> None:
    if overlap < 0 or chunk_size <= overlap:
        raise ValueError("require chunk_size > overlap >= 0")


@dataclass(frozen=True)
class RetrievalSettings:
    """How a config retrieves; the one place that holds and checks the
    chunking and BM25 values."""

    mode: str = "off"
    chunk_size: int = 70
    overlap: int = 20
    candidates: int = 4
    shortlist: int = 8
    rerank_threshold: float = 0.2
    embed_model: str = "gte-large"
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    def __post_init__(self):
        if self.mode not in RETRIEVAL_MODES:
            raise ValueError(f"mode must be one of {RETRIEVAL_MODES}")
        _check_chunking(self.chunk_size, self.overlap)
        if self.candidates < 1 or self.shortlist < self.candidates:
            raise ValueError("require shortlist >= candidates >= 1")
        if self.bm25_k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError("b must be in [0, 1]")


def split_recursive(text: str, chunk_size: int = RetrievalSettings.chunk_size,
                    overlap: int = RetrievalSettings.overlap, report_id: str = "") -> list[Chunk]:
    """Split text into chunks of at most chunk_size characters.

    Split points prefer ". ", then "; ", then " ", then a hard character cut.
    Sentence-separator splits are clean boundaries; mid-sentence splits carry
    `overlap` characters into the next chunk. Spans index into the input, and
    every character offset is covered by at least one chunk.
    """
    _check_chunking(chunk_size, overlap)
    n = len(text)
    if n == 0:
        return []
    chunks: list[Chunk] = []
    p = 0
    idx = 0
    while True:
        if n - p <= chunk_size:
            chunks.append(Chunk(report_id, idx, text[p:n], p, n))
            return chunks
        window_end = p + chunk_size
        cut = None
        sentence_cut = False
        for sep in (". ", "; "):
            j = text.rfind(sep, p, window_end)
            if j != -1:
                cut = j + len(sep)
                sentence_cut = True
                break
        if cut is None:
            j = text.rfind(" ", p + 1, window_end)
            if j != -1:
                cut = j + 1
        if cut is None:
            cut = window_end
        chunks.append(Chunk(report_id, idx, text[p:cut], p, cut))
        idx += 1
        p = cut if sentence_cut else max(cut - overlap, p + 1)


class Bm25Stats:
    """Per-report chunk-set statistics: term document frequencies and lengths,
    keyed by Chunk.index. The indices in one set must be distinct, as
    split_recursive's are."""

    def __init__(self, chunks: list[Chunk]):
        self.n_chunks = len(chunks)
        self.tf: dict[int, dict[str, int]] = {}
        self.doc_len: dict[int, int] = {}
        self.df: dict[str, int] = {}
        for chunk in chunks:
            tokens = tokenize(chunk.text)
            counts: dict[str, int] = {}
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            self.tf[chunk.index] = counts
            self.doc_len[chunk.index] = len(tokens)
            for t in counts:
                self.df[t] = self.df.get(t, 0) + 1
        total = sum(self.doc_len.values())
        self.avgdl = total / self.n_chunks if self.n_chunks else 0.0


def bm25_score(query_terms: list[str], chunk_index: int, stats: Bm25Stats,
               cfg: RetrievalSettings = RetrievalSettings()) -> float:
    """Okapi BM25 score of the chunk with index `chunk_index` against a query
    term multiset, with cfg's bm25_k1 and bm25_b."""
    tf = stats.tf[chunk_index]
    dl = stats.doc_len[chunk_index]
    score = 0.0
    for term in query_terms:
        f = tf.get(term, 0)
        if f == 0:
            continue
        n_t = stats.df[term]
        idf = math.log(1.0 + (stats.n_chunks - n_t + 0.5) / (n_t + 0.5))
        score += idf * f * (cfg.bm25_k1 + 1.0) / (
            f + cfg.bm25_k1 * (1.0 - cfg.bm25_b + cfg.bm25_b * dl / stats.avgdl)
        )
    return score


def bm25_rank(query_terms: list[str], chunks: list[Chunk], stats: Bm25Stats,
              cfg: RetrievalSettings = RetrievalSettings()) -> list[tuple[Chunk, float]]:
    """All chunks ranked by bm25_score under cfg, descending, ties by chunk index."""
    scored = [(c, bm25_score(query_terms, c.index, stats, cfg)) for c in chunks]
    scored.sort(key=lambda cs: (-cs[1], cs[0].index))
    return scored


class VectorIndexError(ValueError):
    """Embeddings unfit for a VectorIndex: the wrong shape, a value that is not
    a number or lies beyond float range, a row without a finite nonzero norm,
    or a query of another dimension or without a finite norm."""


class VectorIndex:
    """Flat exact-search index over chunk embeddings, kept as one list of
    floats per chunk. Each row is converted and scaled to unit L2 norm here,
    once, so the scale of an embedder's rows does not matter. Any iterable of
    rows will do, an ndarray included."""

    def __init__(self, chunks: list[Chunk], vectors: Iterable[Iterable[float]]):
        shape = "vectors must be a (n_chunks, dimension) matrix"
        self.rows = []
        for row in vectors:
            row = _floats(row, shape)
            norm = _norm(row)
            if not 0.0 < norm < math.inf:  # NaN fails it too
                raise VectorIndexError("stored vectors must have a finite nonzero L2 norm")
            self.rows.append([x / norm for x in row])
        if len(self.rows) != len(chunks) or len({len(row) for row in self.rows}) > 1:
            raise VectorIndexError(shape)
        self.chunks = tuple(chunks)
        self.dimension = len(self.rows[0]) if self.rows else 0


def _floats(values, message: str) -> list[float]:
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an int beyond float range
        raise VectorIndexError(message) from e


def _norm(row: list[float]) -> float:
    try:
        return math.sqrt(math.fsum(x * x for x in row))
    except OverflowError:  # a sum of squares beyond float range
        return math.inf


def dense_search(index: VectorIndex, query_vector, n: int) -> list[tuple[Chunk, float]]:
    """Exhaustive cosine-similarity top-n, descending, ties by chunk index."""
    q = _floats(query_vector, f"query must be a vector of dimension {index.dimension}")
    if len(q) != index.dimension:
        raise VectorIndexError(
            f"query dimension ({len(q)},) does not match index ({index.dimension},)")
    norm = _norm(q)
    if not math.isfinite(norm):
        raise VectorIndexError("query vector must have a finite norm")
    if norm > 0:
        q = [x / norm for x in q]
    scores = [math.fsum(map(operator.mul, row, q)) for row in index.rows]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(index.chunks[i], scores[i]) for i in order[:n]]


def hybrid_search(ranking_a: list[tuple[Chunk, float]], ranking_b: list[tuple[Chunk, float]],
                  n: int) -> list[tuple[Chunk, float]]:
    """Reciprocal-rank fusion of two rankings over the same chunk set.

    fused(c) = sum over rankings of 1/(RRF_K + rank(c)) with 1-based ranks;
    a chunk missing from a ranking contributes 0 for it. Symmetric in its
    two ranking arguments.
    """
    fused: dict[int, float] = {}
    by_index: dict[int, Chunk] = {}
    for ranking in (ranking_a, ranking_b):
        for pos, (chunk, _) in enumerate(ranking, start=1):
            by_index[chunk.index] = chunk
            fused[chunk.index] = fused.get(chunk.index, 0.0) + 1.0 / (RRF_K + pos)
    order = sorted(fused, key=lambda i: (-fused[i], i))
    return [(by_index[i], fused[i]) for i in order[:n]]


def sequential_search(shortlist: list[tuple[Chunk, float]], stats: Bm25Stats,
                      query_terms: list[str], n: int,
                      cfg: RetrievalSettings = RetrievalSettings()) -> list[tuple[Chunk, float]]:
    """The n best of a dense shortlist by bm25_score under cfg, ties broken by
    dense rank. `stats` must cover every shortlisted chunk."""
    if len(shortlist) < n:
        raise ValueError("the shortlist must hold at least n chunks")
    rescored = [(chunk, bm25_score(query_terms, chunk.index, stats, cfg), dense_pos)
                for dense_pos, (chunk, _) in enumerate(shortlist)]
    rescored.sort(key=lambda t: (-t[1], t[2]))
    return [(chunk, score) for chunk, score, _ in rescored[:n]]


class RerankError(RuntimeError):
    """Scorer failure; carries the index of the failing candidate."""

    def __init__(self, candidate_index: int, message: str):
        super().__init__(f"reranker failed on candidate {candidate_index}: {message}")
        self.candidate_index = candidate_index


class Embedder(Protocol):
    """One row of numbers per text, in input order, at any scale: VectorIndex
    and dense_search convert and scale each row."""

    def embed(self, texts: list[str], model: str) -> Sequence[Sequence[float]]: ...


class RerankScorer(Protocol):
    def score(self, query: str, passage: str) -> float: ...


def rerank(query: str, candidates: list[Chunk], scorer: RerankScorer) -> list[tuple[Chunk, float]]:
    """Score every candidate, clamp to [0, 1], sort descending, ties by input order.

    A scorer that fails or returns a non-finite score raises RerankError.
    """
    scored = []
    for i, chunk in enumerate(candidates):
        try:
            s = float(scorer.score(query, chunk.text))
        except Exception as e:
            raise RerankError(i, str(e)) from e
        if not math.isfinite(s):
            raise RerankError(i, f"non-finite score {s}")
        scored.append((i, chunk, min(max(s, 0.0), 1.0)))
    scored.sort(key=lambda t: (-t[2], t[0]))
    return [(chunk, score) for _, chunk, score in scored]


class MockHashEmbedder:
    """Deterministic seeded-hash embedder: a text's vector is the sum of its
    per-token vectors, so shared tokens raise cosine similarity.

    A token's vector is the centred bytes of SHAKE-256 over the seed and the
    token, so it is the same in every process and for any dimension. embed()
    returns one list of floats per text, the same rows for every model name,
    unscaled: VectorIndex and dense_search scale them. Every value is a
    multiple of 0.5, so a row is exact in JSON too. A text without tokens is
    a zero row."""

    def __init__(self, dimension: int = 64, seed: int = 0):
        self.dimension = dimension
        self.seed = seed
        self._token_cache: dict[str, list[float]] = {}

    def _token_vector(self, token: str) -> list[float]:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = hashlib.shake_256(f"{self.seed}:{token}".encode("utf-8")).digest(self.dimension)
            vec = self._token_cache[token] = [b - 127.5 for b in digest]
        return vec

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        return [[sum(col) for col in zip(*map(self._token_vector, tokenize(text)))]
                or [0.0] * self.dimension for text in texts]


class TokenOverlapReranker:
    """Mock cross-encoder: fraction of distinct query tokens present in the passage."""

    def score(self, query: str, passage: str) -> float:
        q = set(tokenize(query))
        if not q:
            return 0.0
        return len(q & set(tokenize(passage))) / len(q)


@dataclass(frozen=True)
class RetrievedContext:
    selected_text: str
    rag_used: bool
    rerank_score: float | None
    candidates: tuple[tuple[Chunk, float, float], ...]  # (chunk, retrieval score, rerank score)


def _full_report(report: Report, candidates=()) -> RetrievedContext:
    return RetrievedContext(report.text, False, None, tuple(candidates))


T = TypeVar("T")


class SingleFlightMemo:
    """Thread-safe memo in which concurrent requests for one key share one
    computation: the first caller computes, later callers wait for its result.

    A computation that raises is evicted, so the next request for its key
    computes it again; callers already waiting get the same exception. Only
    computations in flight hold a Future: a finished one keeps just its value,
    since a sweep may keep one entry per pair.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict[Hashable, object] = {}
        self._pending: dict[Hashable, Future] = {}

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        with self._lock:
            if key in self._values:
                return self._values[key]
            future = self._pending.get(key)
            owner = future is None
            if owner:
                future = self._pending[key] = Future()
        if not owner:
            return future.result()
        try:
            value = compute()
        except BaseException as e:
            with self._lock:
                del self._pending[key]
            future.set_exception(e)
            raise
        with self._lock:
            self._values[key] = value
            del self._pending[key]
        future.set_result(value)
        return value


def _dense_ranking(report: Report, cfg: RetrievalSettings, query: str,
                   embedder: Embedder) -> tuple[list[Chunk], list[tuple[Chunk, float]]]:
    """The report's retrievable chunks and all of them ranked by dense_search."""
    chunks = split_recursive(report.text, cfg.chunk_size, cfg.overlap, report.id)
    # token-less chunks cannot match anything and would embed to zero vectors
    chunks = [c for c in chunks if _TOKEN_RE.search(c.text.casefold())]
    if not chunks:
        return chunks, []
    # One call: the query rides as row 0, so the ranking waits on this report alone.
    vectors = embedder.embed([query] + [c.text for c in chunks], cfg.embed_model)
    index = VectorIndex(chunks, vectors[1:])
    return chunks, dense_search(index, vectors[0], len(chunks))


def select_context(report: Report, schema: LabelSchema, cfg: RetrievalSettings,
                   embedder: Embedder, reranker: RerankScorer,
                   memo: SingleFlightMemo | None = None) -> RetrievedContext:
    """Pick the context handed to the model: the best reranked chunk, or the full
    report when retrieval is off or the best rerank score falls below threshold.

    A report's query and chunks are embedded in one call, the query as row 0,
    so a report's ranking waits on no other report's embeddings. Calls that
    share `memo` make that call once per report and (chunk_size, overlap,
    embed_model), whatever their mode. The memo knows reports by id, so it
    serves one set of reports and one embedder, as in one sweep.
    """
    if cfg.mode == "off":
        return _full_report(report)
    if memo is None:
        memo = SingleFlightMemo()
    query = schema.retrieval_keywords
    chunks, ranking = memo.get(
        ("ranking", report.id, cfg.chunk_size, cfg.overlap, cfg.embed_model, query),
        lambda: _dense_ranking(report, cfg, query, embedder))
    if not chunks:
        return _full_report(report)

    # A prefix of the full ranking is what dense_search returns for that n.
    n = min(cfg.candidates, len(chunks))
    if cfg.mode == "dense":
        retrieved = ranking[:n]
    else:  # hybrid and sequential also rank lexically
        query_terms = tokenize(query)
        # Not memoized here: a sweep memoizes this call's result, so each report
        # builds these once per RetrievalSettings, and the memo keeps no stats.
        stats = Bm25Stats(chunks)
        if cfg.mode == "hybrid":
            lexical = bm25_rank(query_terms, chunks, stats, cfg)[:n]
            retrieved = hybrid_search(lexical, ranking[:n], n)
        else:  # sequential; shortlist >= candidates, so the prefix holds n chunks
            retrieved = sequential_search(ranking[:cfg.shortlist], stats, query_terms, n, cfg)

    retrieval_scores = {chunk.index: score for chunk, score in retrieved}
    reranked = rerank(query, [chunk for chunk, _ in retrieved], reranker)
    candidates = tuple(
        (chunk, retrieval_scores[chunk.index], score) for chunk, score in reranked
    )
    best_chunk, best_score = reranked[0]
    if best_score < cfg.rerank_threshold:
        return _full_report(report, candidates)
    return RetrievedContext(best_chunk.text, True, best_score, candidates)
