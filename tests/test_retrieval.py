import math
import operator
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from reportex import retrieval
from reportex.corpus import Task, default_corpus_spec, generate_synthetic_corpus, make_report
from reportex.retrieval import (
    Bm25Params,
    Bm25Stats,
    Chunk,
    MockHashEmbedder,
    RerankError,
    RetrievalSettings,
    SingleFlightMemo,
    TokenOverlapReranker,
    VectorIndex,
    VectorIndexError,
    bm25_rank,
    bm25_score,
    dense_search,
    hybrid_search,
    rerank,
    select_context,
    sequential_search,
    split_recursive,
    tokenize,
)


MODEL = RetrievalSettings().embed_model


def _chunks(texts):
    pos = 0
    out = []
    for i, t in enumerate(texts):
        out.append(Chunk("r", i, t, pos, pos + len(t)))
        pos += len(t)
    return out


class TestTokenize:
    def test_casefold_and_split(self):
        assert tokenize("Stable Lesion, margin.") == ["stable", "lesion", "margin"]

    def test_slash_compound(self):
        assert tokenize("IDH1/IDH2 detected") == ["idh1/idh2", "idh1", "idh2", "detected"]

    def test_hyphen_splits(self):
        assert tokenize("follow-up") == ["follow", "up"]


class TestSplitRecursive:
    def test_short_text_single_chunk(self):
        text = "a" * 50
        chunks = split_recursive(text)
        assert len(chunks) == 1
        assert chunks[0].text == text
        assert (chunks[0].start, chunks[0].end) == (0, 50)

    def test_empty(self):
        assert split_recursive("") == []

    def test_sentence_boundaries_fixture(self):
        # periods at offsets 60 and 130; sentence separators win over word cuts
        text = "x" * 60 + ". " + "y" * 68 + ". " + "z" * 68
        assert len(text) == 200
        assert text[60] == "." and text[130] == "."
        chunks = split_recursive(text, chunk_size=70, overlap=20)
        assert [(c.start, c.end) for c in chunks] == [(0, 62), (62, 132), (132, 200)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            split_recursive("abc", chunk_size=10, overlap=10)

    def test_spans_match_text(self):
        rng = random.Random(1)
        for _ in range(50):
            words = ["w%d" % rng.randrange(40) for _ in range(rng.randrange(1, 80))]
            text = " ".join(words)
            for c in split_recursive(text, 70, 20):
                assert c.text == text[c.start : c.end]
                assert len(c.text) <= 70

    def test_lossless_coverage(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(0, 400)
            text = "".join(rng.choice("ab .;") for _ in range(n))
            covered = set()
            for c in split_recursive(text, 30, 8):
                covered.update(range(c.start, c.end))
            assert covered == set(range(len(text)))

    def test_token_longer_than_a_chunk_is_cut_hard(self):
        text = "x" * 100
        chunks = split_recursive(text, 30, 8)
        assert [(c.start, c.end) for c in chunks] == [(0, 30), (22, 52), (44, 74), (66, 96),
                                                      (88, 100)]
        assert set().union(*(range(c.start, c.end) for c in chunks)) == set(range(100))

    def test_overlap_reconstruction(self):
        rng = random.Random(3)
        for _ in range(50):
            text = " ".join("w%d" % rng.randrange(30) for _ in range(rng.randrange(1, 100)))
            chunks = split_recursive(text, 50, 15)
            rebuilt = chunks[0].text
            for prev, cur in zip(chunks, chunks[1:]):
                shared = prev.end - cur.start
                assert shared >= 0
                rebuilt += cur.text[shared:]
            assert rebuilt == text

    def test_mid_sentence_splits_share_overlap(self):
        text = " ".join("word%02d" % i for i in range(40))  # no sentence separators
        chunks = split_recursive(text, 70, 20)
        for prev, cur in zip(chunks, chunks[1:]):
            assert prev.end - cur.start == 20


def bm25_reference(chunk_texts, query_terms, k1=1.2, b=0.75):
    """Independent brute-force Okapi implementation."""
    docs = [tokenize(t) for t in chunk_texts]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    out = []
    for d in docs:
        s = 0.0
        for t in query_terms:
            f = d.count(t)
            if not f:
                continue
            n_t = sum(1 for dd in docs if t in dd)
            idf = math.log(1 + (n - n_t + 0.5) / (n_t + 0.5))
            s += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(d) / avgdl))
        out.append(s)
    return out


class TestBm25:
    def test_no_shared_term_is_zero(self):
        chunks = _chunks(["stable lesion margin", "edema mass effect"])
        stats = Bm25Stats(chunks)
        assert bm25_score(["idh"], 0, stats) == 0.0

    def test_single_chunk_formula_value(self):
        # one chunk, term present once, |d| == avgdl: score reduces to
        # IDF * (k1+1)/(1+k1) = ln(1 + 0.5/1.5) with the saturation factor = 1
        chunks = _chunks(["idh status pending review"])
        stats = Bm25Stats(chunks)
        assert bm25_score(["idh"], 0, stats) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_three_chunk_fixture_matches_reference(self):
        texts = [
            "idh mutation detected in tumor",
            "no mutation detected today",
            "idh idh status reviewed",
        ]
        stats = Bm25Stats(_chunks(texts))
        expected = bm25_reference(texts, ["idh"])
        for i in range(3):
            assert bm25_score(["idh"], i, stats) == pytest.approx(expected[i], abs=1e-12)

    def test_random_corpora_match_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            n_chunks = rng.randint(1, 40)
            texts = [
                " ".join("w%d" % rng.randrange(25) for _ in range(rng.randint(1, 12)))
                for _ in range(n_chunks)
            ]
            query = ["w%d" % rng.randrange(25) for _ in range(rng.randint(1, 10))]
            stats = Bm25Stats(_chunks(texts))
            expected = bm25_reference(texts, query)
            for i in range(n_chunks):
                assert abs(bm25_score(query, i, stats) - expected[i]) <= 1e-9

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


def dense_reference_order(vectors, q, n):
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q)
    sims = [float(np.dot(v, q)) for v in vectors]
    return sorted(range(len(vectors)), key=lambda i: (-sims[i], i))[:n]


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestDenseSearch:
    def test_self_similarity(self):
        rng = np.random.default_rng(4)
        vectors = _unit_rows(rng, 10, 16)
        index = VectorIndex(_chunks(["c%d" % i for i in range(10)]), vectors)
        top = dense_search(index, vectors[3], 1)
        assert top[0][0].index == 3
        assert top[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_scores_zero(self):
        vectors = np.eye(4)[:3]
        index = VectorIndex(_chunks(["a", "b", "c"]), vectors)
        for _, score in dense_search(index, np.eye(4)[3], 3):
            assert score == pytest.approx(0.0, abs=1e-6)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            vectors = _unit_rows(rng, n, 24)
            index = VectorIndex(_chunks(["c%d" % i for i in range(n)]), vectors)
            q = rng.standard_normal(24)
            k = int(rng.integers(1, n + 1))
            ours = [c.index for c, _ in dense_search(index, q, k)]
            assert ours == dense_reference_order(vectors, q, k)

    def test_tie_rule_by_chunk_index(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        index = VectorIndex(_chunks(["a", "b", "c"]), v)
        ours = [c.index for c, _ in dense_search(index, np.array([1.0, 0.0]), 3)]
        assert ours == [0, 1, 2]

    def test_dimension_mismatch(self):
        index = VectorIndex(_chunks(["a"]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            dense_search(index, np.array([1.0, 0.0, 0.0]), 1)

    def test_rows_scaled_to_unit_norm(self):
        index = VectorIndex(_chunks(["a", "b"]), np.array([[3.0, 4.0], [0.0, 2.5]]))
        assert index.rows == [[0.6, 0.8], [0.0, 1.0]]
        assert all(type(x) is float for row in index.rows for x in row)

    def test_row_lists_and_ndarrays_search_alike(self):
        rng = np.random.default_rng(6)
        vectors = _unit_rows(rng, 30, 64)
        chunks = _chunks(["c%d" % i for i in range(30)])
        q = rng.standard_normal(64)
        expected = dense_search(VectorIndex(chunks, vectors), q, 30)
        for rows in (vectors.tolist(), (list(row) for row in vectors.tolist())):
            got = dense_search(VectorIndex(chunks, rows), q.tolist(), 30)
            assert [c.index for c, _ in got] == [c.index for c, _ in expected]
            assert all(type(score) is float for _, score in got)
            np.testing.assert_allclose([s for _, s in got], [s for _, s in expected],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("vectors", [
        [[1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0], [0.0, "x"]],
        [1.0, 0.0],
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], []],
        [[math.nan, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [10 ** 400, 0]],
        [[1.0, 0.0], [1.3e154, 1.3e154]],
        [[1.0, 0.0], [1e200, 0.0]],  # 1e200 squared is inf, with no OverflowError
    ], ids=["row-count", "ragged", "non-numeric", "flat", "zero-row", "empty-row", "nan",
            "int-overflow", "norm-overflow", "square-overflow"])
    def test_malformed_vectors_rejected(self, vectors):
        with pytest.raises(VectorIndexError):
            VectorIndex(_chunks(["a", "b"]), vectors)

    @pytest.mark.parametrize("query", [5.0, [1.0, "x"], [1.0], [], [math.nan, 0.0],
                                       [math.inf, 0.0], [10 ** 400, 0], [1.3e154, 1.3e154]],
                             ids=["scalar", "non-numeric", "short", "empty", "nan", "infinity",
                                  "int-overflow", "norm-overflow"])
    def test_malformed_query_rejected(self, query):
        index = VectorIndex(_chunks(["a", "b"]), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(VectorIndexError):
            dense_search(index, query, 1)


class TestHybridSearch:
    def test_unanimity(self):
        chunks = _chunks(["a", "b", "c"])
        ranking = [(chunks[0], 3.0), (chunks[1], 2.0), (chunks[2], 1.0)]
        fused = hybrid_search(ranking, ranking, 3)
        assert fused[0][0].index == 0

    def test_rank1_single_vs_rank2_both(self):
        chunks = _chunks(["x", "y"])
        a = [(chunks[0], 5.0), (chunks[1], 1.0)]
        b = [(chunks[1], 9.0)]
        fused = hybrid_search(a, b, 2)
        # y: 1/62 + 1/61 beats x: 1/61
        assert fused[0][0].index == 1
        assert fused[0][1] == pytest.approx(1 / 62 + 1 / 61)
        assert fused[1][1] == pytest.approx(1 / 61)

    def test_five_chunk_hand_computation(self):
        chunks = _chunks(["a", "b", "c", "d", "e"])
        a = [(chunks[i], 5.0 - i) for i in (0, 1, 2, 3, 4)]
        b = [(chunks[i], 5.0 - j) for j, i in enumerate((2, 0, 4, 1, 3))]
        fused = {c.index: s for c, s in hybrid_search(a, b, 5)}
        expected = {
            0: 1 / 61 + 1 / 62,
            1: 1 / 62 + 1 / 64,
            2: 1 / 63 + 1 / 61,
            3: 1 / 64 + 1 / 65,
            4: 1 / 65 + 1 / 63,
        }
        for idx, val in expected.items():
            assert fused[idx] == pytest.approx(val, abs=1e-15)

    def test_permutation_symmetric(self):
        rng = random.Random(9)
        chunks = _chunks(["c%d" % i for i in range(8)])
        for _ in range(30):
            a = [(chunks[i], rng.random()) for i in rng.sample(range(8), rng.randint(1, 8))]
            b = [(chunks[i], rng.random()) for i in rng.sample(range(8), rng.randint(1, 8))]
            ab = [(c.index, s) for c, s in hybrid_search(a, b, 8)]
            ba = [(c.index, s) for c, s in hybrid_search(b, a, 8)]
            assert ab == ba


class TestSequentialSearch:
    def _setup(self, texts, seed=6):
        chunks = _chunks(texts)
        embedder = MockHashEmbedder(dimension=32, seed=seed)
        index = VectorIndex(chunks, embedder.embed(texts, MODEL))
        stats = Bm25Stats(chunks)
        return chunks, embedder, index, stats

    def test_full_shortlist_equals_bm25_with_dense_tiebreak(self):
        texts = ["idh status noted", "margin stable", "idh idh detected", "edema present"]
        chunks, embedder, index, stats = self._setup(texts)
        q = "idh detected"
        qv = embedder.embed([q], MODEL)[0]
        qt = tokenize(q)
        shortlist = dense_search(index, qv, 4)
        ours = [c.index for c, _ in sequential_search(shortlist, stats, qt, 4)]
        bm25_order = bm25_rank(qt, chunks, stats)
        dense_pos = {c.index: p for p, (c, _) in enumerate(shortlist)}
        expected = [c.index for c, _ in sorted(
            bm25_order, key=lambda cs: (-cs[1], dense_pos[cs[0].index]))]
        assert ours == expected

    def test_singleton_equals_dense_top1(self):
        texts = ["alpha beta", "gamma delta", "alpha gamma"]
        chunks, embedder, index, stats = self._setup(texts)
        qv = embedder.embed(["beta"], MODEL)[0]
        dense = dense_search(index, qv, 1)
        seq = sequential_search(dense, stats, ["nomatch"], 1)
        assert seq[0][0].index == dense[0][0].index

    def test_six_chunk_two_stage_hand_execution(self):
        texts = [
            "idh mutation detected", "stable margin noted", "idh status pending",
            "mutation analysis idh idh", "margin margin margin", "detected lesion",
        ]
        chunks, embedder, index, stats = self._setup(texts)
        q = "idh mutation"
        qv = embedder.embed([q], MODEL)[0]
        qt = tokenize(q)
        shortlist = dense_search(index, qv, 3)
        rescored = sorted(
            ((c, bm25_score(qt, c.index, stats), pos) for pos, (c, _) in enumerate(shortlist)),
            key=lambda t: (-t[1], t[2]),
        )
        expected = [c.index for c, _, _ in rescored[:2]]
        ours = [c.index for c, _ in sequential_search(shortlist, stats, qt, 2)]
        assert ours == expected

    def test_shortlist_must_cover_n(self):
        texts = ["a b", "c d"]
        chunks, embedder, index, stats = self._setup(texts)
        with pytest.raises(ValueError):
            sequential_search(dense_search(index, embedder.embed(["a"], MODEL)[0], 1), stats, ["a"], 2)


class TestRerank:
    def test_full_overlap_scores_one(self):
        chunks = _chunks(["idh mutation detected here", "nothing relevant"])
        ranked = rerank("idh mutation", chunks, TokenOverlapReranker())
        assert ranked[0][0].index == 0
        assert ranked[0][1] == 1.0

    def test_empty_candidates(self):
        assert rerank("q", [], TokenOverlapReranker()) == []

    def test_query_without_tokens_scores_zero(self):
        assert TokenOverlapReranker().score("", "x") == 0.0

    def test_four_candidate_overlap_fractions(self):
        chunks = _chunks([
            "idh mutation status detected",  # 4/4
            "idh mutation noted",            # 2/4
            "status report",                 # 1/4
            "unrelated text",                # 0/4
        ])
        ranked = rerank("idh mutation status detected", chunks, TokenOverlapReranker())
        assert [c.index for c, _ in ranked] == [0, 1, 2, 3]
        assert [s for _, s in ranked] == [1.0, 0.5, 0.25, 0.0]

    def test_ties_keep_input_order(self):
        chunks = _chunks(["idh a", "idh b"])
        ranked = rerank("idh", chunks, TokenOverlapReranker())
        assert [c.index for c, _ in ranked] == [0, 1]

    def test_scores_clamped(self):
        class Wild:
            def score(self, query, passage):
                return 7.5 if "a" in passage else -2.0

        ranked = rerank("q", _chunks(["a", "b"]), Wild())
        assert ranked[0][1] == 1.0
        assert ranked[1][1] == 0.0

    def test_scorer_failure_carries_index(self):
        class Boom:
            def score(self, query, passage):
                if passage == "bad":
                    raise RuntimeError("nope")
                return 0.5

        with pytest.raises(RerankError) as exc:
            rerank("q", _chunks(["ok", "bad"]), Boom())
        assert exc.value.candidate_index == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_is_a_scorer_failure(self, bad):
        # min(max(nan, 0.0), 1.0) is nan: a clamp alone would keep it
        with pytest.raises(RerankError, match="non-finite score") as exc:
            rerank("q", _chunks(["ok", "bad"]), _FixedScorer(bad))
        assert exc.value.candidate_index == 0


class _FixedScorer:
    def __init__(self, score):
        self._score = score

    def score(self, query, passage):
        return self._score


class TestRetrievalSettings:
    @pytest.mark.parametrize("overlap", [20, 30, -1])
    def test_chunk_must_exceed_overlap(self, overlap):
        with pytest.raises(ValueError, match="require chunk_size > overlap >= 0"):
            RetrievalSettings(chunk_size=20, overlap=overlap)


class TestSelectContext:
    def _report(self, text):
        return make_report("r-1", Task.PATHOLOGY, text)

    def test_mode_off_returns_full_text(self, pathology_schema):
        report = self._report("Tumor cells present. IDH1/IDH2 mutation status: positive (mutant detected).")
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="off"),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert ctx.selected_text == report.text
        assert not ctx.rag_used
        assert ctx.rerank_score is None

    def test_dominant_chunk_selected(self, pathology_schema):
        filler = "Specimen received in formalin and processed for permanent evaluation. " * 3
        answer = "IDH1/IDH2 mutation status: positive (mutant detected)."
        report = self._report(filler + answer + " Additional material submitted for review.")
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="dense"),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert ctx.rag_used
        assert "mutation status: positive" in ctx.selected_text
        assert ctx.rerank_score >= 0.2

    def test_low_rerank_falls_back_to_full_report(self, pathology_schema):
        report = self._report(
            "Specimen received in formalin. Sections show hypercellular tumor fragments. "
            "Mitotic figures are frequent and necrosis is present."
        )
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="dense"),
                             MockHashEmbedder(), _FixedScorer(0.1))
        assert not ctx.rag_used
        assert ctx.selected_text == report.text

    @pytest.mark.parametrize("score,expected_rag", [(0.19, False), (0.21, True)])
    def test_threshold_boundary(self, pathology_schema, score, expected_rag):
        report = self._report(
            "Specimen received in formalin. IDH1/IDH2 mutation status: positive (mutant detected). "
            "Additional tumor fragments submitted."
        )
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="dense"),
                             MockHashEmbedder(), _FixedScorer(score))
        assert ctx.rag_used is expected_rag

    @pytest.mark.parametrize("mode", ["dense", "hybrid", "sequential"])
    def test_all_modes_produce_candidates(self, pathology_schema, mode):
        filler = "Sections show infiltrating glioma with atypical nuclei and necrosis. " * 4
        report = self._report(filler + "IDH1/IDH2 mutation status: negative (wildtype detected).")
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode=mode),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert ctx.candidates
        assert ctx.rag_used

    def test_threshold_above_one_always_full_report(self, pathology_schema):
        report = self._report("IDH1/IDH2 mutation status: positive (mutant detected). Tumor present.")
        ctx = select_context(report, pathology_schema,
                             RetrievalSettings(mode="dense", rerank_threshold=1.0 + 1e-9),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert not ctx.rag_used
        assert ctx.selected_text == report.text

    def test_threshold_zero_always_selects_chunk(self, pathology_schema):
        report = self._report(
            "Specimen received in formalin and processed. Sections show tumor fragments "
            "with atypical nuclei and frequent mitotic figures throughout."
        )
        ctx = select_context(report, pathology_schema,
                             RetrievalSettings(mode="dense", rerank_threshold=0.0),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert ctx.rag_used

    @pytest.mark.parametrize("mode", ["dense", "hybrid", "sequential"])
    def test_report_with_fewer_chunks_than_candidates(self, pathology_schema, mode):
        report = self._report("IDH1/IDH2 mutation status: positive (mutant detected).")
        cfg = RetrievalSettings(mode=mode, candidates=4, shortlist=8)
        ctx = select_context(report, pathology_schema, cfg,
                             MockHashEmbedder(), TokenOverlapReranker())
        assert ctx.rag_used
        assert ctx.selected_text == report.text  # single chunk == whole text

    def test_tokenless_text_falls_back_to_full_report(self, pathology_schema):
        report = self._report(". . . . .")
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="dense"),
                             MockHashEmbedder(), TokenOverlapReranker())
        assert not ctx.rag_used
        assert ctx.selected_text == report.text

    def test_raising_threshold_never_enables_rag(self, pathology_schema):
        report = self._report(
            "Specimen received in formalin. IDH1/IDH2 mutation status: positive (mutant detected). "
            "Sections show infiltrating tumor with necrosis and vascular proliferation."
        )
        flags = []
        for threshold in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.01]:
            ctx = select_context(report, pathology_schema,
                                 RetrievalSettings(mode="dense", rerank_threshold=threshold),
                                 MockHashEmbedder(), TokenOverlapReranker())
            flags.append(ctx.rag_used)
        assert flags == sorted(flags, reverse=True)  # True ... then False ...

    def test_candidates_match_the_search_functions(self, pathology_schema):
        # select_context slices one full dense ranking, shared across modes
        # through the memo; the search functions over a VectorIndex are the reference.
        reports, _ = generate_synthetic_corpus(default_corpus_spec(Task.PATHOLOGY, 4, seed=3))
        embedder, reranker, memo = MockHashEmbedder(), TokenOverlapReranker(), SingleFlightMemo()
        query = pathology_schema.retrieval_keywords
        terms, query_vector = tokenize(query), embedder.embed([query], MODEL)[0]
        for report in reports:
            chunks = [c for c in split_recursive(report.text, report_id=report.id)
                      if tokenize(c.text)]
            index = VectorIndex(chunks, embedder.embed([c.text for c in chunks], MODEL))
            stats = Bm25Stats(chunks)
            expected = {
                "dense": dense_search(index, query_vector, 3),
                "hybrid": hybrid_search(bm25_rank(terms, chunks, stats)[:3],
                                        dense_search(index, query_vector, 3), 3),
                "sequential": sequential_search(dense_search(index, query_vector, 6), stats,
                                                terms, 3),
            }
            for mode, retrieved in expected.items():
                cfg = RetrievalSettings(mode=mode, candidates=3, shortlist=6)
                for shared in (memo, None):
                    ctx = select_context(report, pathology_schema, cfg, embedder, reranker, shared)
                    assert sorted((c.index, s) for c, s, _ in ctx.candidates) == \
                        sorted((c.index, s) for c, s in retrieved), (report.id, mode)

    def test_dense_tokenizes_only_the_rerank_candidates(self, pathology_schema, monkeypatch):
        report = generate_synthetic_corpus(default_corpus_spec(Task.PATHOLOGY, 1, seed=3))[0][0]
        query = pathology_schema.retrieval_keywords
        texts = [query] + [c.text for c in split_recursive(report.text, report_id=report.id)]
        rows = dict(zip(texts, MockHashEmbedder().embed(texts, MODEL)))  # embedded before the patch

        class Precomputed:
            def embed(self, batch, model):
                return [rows[t] for t in batch]

        seen = []
        real = retrieval.tokenize
        monkeypatch.setattr(retrieval, "tokenize", lambda text: seen.append(text) or real(text))
        ctx = select_context(report, pathology_schema, RetrievalSettings(mode="dense"),
                             Precomputed(), TokenOverlapReranker())
        assert len(set(texts)) - 1 > len(ctx.candidates)
        assert set(seen) - {query} <= {c.text for c, _, _ in ctx.candidates}

    def test_sequential_mode_calls_sequential_search_once(self, pathology_schema, monkeypatch):
        filler = "Sections show infiltrating glioma with atypical nuclei and necrosis. " * 6
        report = self._report(filler + "IDH1/IDH2 mutation status: negative (wildtype detected).")
        calls = []
        real = retrieval.sequential_search

        def recording(shortlist, *args, **kwargs):
            calls.append(len(shortlist))
            return real(shortlist, *args, **kwargs)

        monkeypatch.setattr(retrieval, "sequential_search", recording)
        cfg = RetrievalSettings(mode="sequential", candidates=3, shortlist=5)
        ctx = select_context(report, pathology_schema, cfg, MockHashEmbedder(),
                             TokenOverlapReranker())
        assert calls == [5]
        assert len(ctx.candidates) == 3

    def test_tokenless_chunk_between_worded_chunks_is_skipped(self, pathology_schema):
        report = self._report("Specimen received in formalin for review. "
                              "-- ;; -- ;; -- ;; -- ;; -- ;; -- ;; -- ;; -- ;; --. "
                              "IDH1/IDH2 mutation status: positive (mutant detected). "
                              "Sections show infiltrating tumor with necrosis.")
        chunks = split_recursive(report.text, report_id=report.id)
        kept = [c for c in chunks if tokenize(c.text)]
        assert [c.index for c in chunks if c not in kept] == [1]  # a gap in the kept indices
        embedder, reranker = MockHashEmbedder(), TokenOverlapReranker()
        query = pathology_schema.retrieval_keywords
        terms, query_vector = tokenize(query), embedder.embed([query], MODEL)[0]
        stats = Bm25Stats(kept)
        ranking = dense_search(VectorIndex(kept, embedder.embed([c.text for c in kept], MODEL)),
                               query_vector, len(kept))
        expected = {
            "dense": ranking[:2],
            "hybrid": hybrid_search(bm25_rank(terms, kept, stats)[:2], ranking[:2], 2),
            "sequential": sequential_search(ranking[:3], stats, terms, 2),
        }
        got = {}
        for mode, retrieved in expected.items():
            cfg = RetrievalSettings(mode=mode, candidates=2, shortlist=3)
            got[mode] = select_context(report, pathology_schema, cfg, embedder,
                                       reranker).candidates
            assert 1 not in {c.index for c, _, _ in got[mode]}, mode
            assert sorted((c.index, s) for c, s, _ in got[mode]) == \
                sorted((c.index, s) for c, s in retrieved), mode
        assert all(s == bm25_score(terms, c.index, stats) for c, s, _ in got["sequential"])
        assert any(s > 0 for _, s, _ in got["sequential"])


class TestSingleFlightMemo:
    def test_stress_each_key_computed_once(self):
        memo = SingleFlightMemo()
        computed: list[int] = []
        results: dict[int, list] = {}

        def compute(key):
            computed.append(key)
            return object()

        def worker():
            for key in range(200):
                results.setdefault(key, []).append(memo.get(key, lambda: compute(key)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(computed) == list(range(200))
        assert all(len(got) == 8 and all(r is got[0] for r in got) for got in results.values())

    def test_finished_entries_keep_only_their_values(self):
        # A sweep keeps one generation entry per distinct request, so a
        # finished entry must not hold a Future with its lock and condition.
        memo = SingleFlightMemo()
        values = [object() for _ in range(2000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for key, value in enumerate(values):
                assert memo.get(key, lambda: value) is value
            per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(values)
        finally:
            tracemalloc.stop()
        assert per_entry < 400
        assert memo.get(7, lambda: None) is values[7]


class TestMockEmbedder:
    def test_deterministic(self):
        a = MockHashEmbedder(seed=0).embed(["idh mutation detected"], MODEL)
        b = MockHashEmbedder(seed=0).embed(["idh mutation detected"], MODEL)
        assert np.array_equal(a, b)

    def test_shared_tokens_raise_cosine(self):
        emb = MockHashEmbedder(seed=0)
        base, close, far = emb.embed([
            "idh mutation detected",
            "idh mutation detected positive",
            "weather is nice today",
        ], MODEL)
        dot = lambda a, b: sum(map(operator.mul, a, b))
        assert dot(base, close) > dot(base, far)

    def test_every_model_name_gets_the_same_rows(self):
        texts = ["idh mutation detected", "..."]
        assert MockHashEmbedder().embed(texts, "gte-large") == \
            MockHashEmbedder().embed(texts, "nomic-embed-text")

    def test_rows_are_unscaled_token_sums(self):
        emb = MockHashEmbedder(dimension=8)
        some, tokens = (emb.embed([t], MODEL)[0] for t in ("some", "tokens"))
        row = emb.embed(["some tokens, some"], MODEL)[0]
        assert row == [2 * a + b for a, b in zip(some, tokens)]
        assert all((2 * x).is_integer() for x in row)  # multiples of 0.5: exact in JSON

    def test_empty_text_zero_vector(self):
        assert MockHashEmbedder().embed(["..."], MODEL) == [[0.0] * 64]
