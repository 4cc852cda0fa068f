"""Walk through the retrieval stack on one pathology report: chunking, BM25,
dense search, hybrid fusion, sequential retrieval, reranking, and the
threshold-gated context selection."""

from reportex.corpus import PATHOLOGY_SCHEMA, Task, default_corpus_spec, generate_synthetic_corpus
from reportex.retrieval import (
    Bm25Stats,
    MockHashEmbedder,
    RetrievalSettings,
    TokenOverlapReranker,
    VectorIndex,
    bm25_rank,
    dense_search,
    hybrid_search,
    select_context,
    sequential_search,
    split_recursive,
    tokenize,
)

spec = default_corpus_spec(Task.PATHOLOGY, 40, seed=7)
reports, annotations = generate_synthetic_corpus(spec)
gold = {a.report_id: a.label for a in annotations}
report = next(r for r in reports if gold[r.id] != "NR")
print(f"report {report.id}: {report.word_count} words, gold IDH status = {gold[report.id]}")

chunks = split_recursive(report.text, chunk_size=70, overlap=20, report_id=report.id)
print(f"\nsplit into {len(chunks)} chunks of <= 70 characters; first three:")
for c in chunks[:3]:
    print(f"  [{c.index}] span={(c.start, c.end)} {c.text!r}")

query = PATHOLOGY_SCHEMA.retrieval_keywords
query_terms = tokenize(query)
print(f"\nquery: {query!r}")
print(f"tokenized (slash compounds kept whole and split): {query_terms}")

stats = Bm25Stats(chunks)
embedder = MockHashEmbedder(seed=0)
embed_model = RetrievalSettings().embed_model
index = VectorIndex(chunks, embedder.embed([c.text for c in chunks], embed_model))
query_vector = embedder.embed([query], embed_model)[0]

print("\ntop-3 by BM25 (within-report statistics):")
for chunk, score in bm25_rank(query_terms, chunks, stats)[:3]:
    print(f"  {score:6.3f}  [{chunk.index}] {chunk.text[:60]!r}")

print("top-3 by dense cosine similarity:")
dense = dense_search(index, query_vector, 3)
for chunk, score in dense:
    print(f"  {score:6.3f}  [{chunk.index}] {chunk.text[:60]!r}")

print("top-3 by hybrid reciprocal-rank fusion:")
lexical = bm25_rank(query_terms, chunks, stats)[:4]
for chunk, score in hybrid_search(lexical, dense_search(index, query_vector, 4), 3):
    print(f"  {score:6.4f}  [{chunk.index}] {chunk.text[:60]!r}")

print("top-3 by sequential retrieval (dense shortlist of 8, BM25 re-scoring):")
shortlist = dense_search(index, query_vector, 8)
for chunk, score in sequential_search(shortlist, stats, query_terms, 3):
    print(f"  {score:6.3f}  [{chunk.index}] {chunk.text[:60]!r}")

ctx = select_context(report, PATHOLOGY_SCHEMA, RetrievalSettings(mode="dense"),
                     embedder, TokenOverlapReranker())
print(f"\nselect_context (rerank threshold 0.2): rag_used={ctx.rag_used}, "
      f"rerank_score={ctx.rerank_score}")
print(f"selected context: {ctx.selected_text!r}")

high = RetrievalSettings(mode="dense", rerank_threshold=0.99)
ctx = select_context(report, PATHOLOGY_SCHEMA, high, embedder, TokenOverlapReranker())
print(f"\nwith threshold 0.99 the best chunk falls short, so RAG is disused: "
      f"rag_used={ctx.rag_used}, context reverts to all {len(ctx.selected_text)} chars")
