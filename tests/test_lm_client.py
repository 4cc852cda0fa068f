import http.client
import json
import math
import select
import socket
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from reportex import lm_client, mock_server
from reportex.corpus import (
    PATHOLOGY_SCHEMA,
    RADIOLOGY_SCHEMA,
    Task,
    default_corpus_spec,
    generate_synthetic_corpus,
)
from reportex.lm_client import (
    EMBED_CONCURRENCY,
    GenerationRequest,
    LmClientError,
    ProtocolError,
    RequestTimeout,
    TransportError,
    embed,
    generate,
    resolve_endpoint,
)
from reportex.mock_server import (
    MockLmServer,
    MockMode,
    MockModel,
    load_garbage_fixtures,
)
from reportex.retrieval import (
    Chunk,
    MockHashEmbedder,
    VectorIndex,
    VectorIndexError,
    dense_search,
    split_recursive,
    tokenize,
)
from reportex.sweep import PipelineConfig, record_seed, run_sweep
from wire_doubles import CannedServer, RecordingModel

# Replies for a CannedServer: an answer to every generate, and a proxy's own answer.
_SCORE_2 = json.dumps({"model": "m", "response": '{"score": "2"}'}).encode()
_VIA_PROXY = json.dumps({"model": "m", "response": "via proxy"}).encode()


@pytest.fixture(scope="module")
def corpus():
    spec = default_corpus_spec(Task.RADIOLOGY, 40, seed=21)
    return generate_synthetic_corpus(spec)


@pytest.fixture(scope="module")
def oracle_server(corpus):
    reports, annotations = corpus
    gold = {a.report_id: a.label for a in annotations}
    from reportex.corpus import RADIOLOGY_SCHEMA
    model = MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
    with MockLmServer(model) as server:
        yield server, reports, gold


class TestGenerationRequest:
    def test_payload_roundtrip(self):
        req = GenerationRequest("m", "p", json_mode=True, temperature=0.5, top_k=10,
                                top_p=0.5, seed=99)
        assert req.to_payload() == {
            "model": "m", "prompt": "p", "stream": False, "format": "json",
            "options": {"temperature": 0.5, "top_k": 10, "top_p": 0.5, "seed": 99},
        }

    def test_payload_roundtrip_defaults(self):
        req = GenerationRequest("m", "p")
        assert req.to_payload() == {
            "model": "m", "prompt": "p", "stream": False,
            "options": {"temperature": 0.0, "top_k": 40, "top_p": 0.9},
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest("m", "p", temperature=-1)
        with pytest.raises(ValueError):
            GenerationRequest("m", "p", top_k=0)
        with pytest.raises(ValueError):
            GenerationRequest("m", "p", top_p=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_temperature_rejected(self, value):
        # its body would hold NaN or Infinity, which is not JSON
        with pytest.raises(ValueError, match="^temperature must be a number, not "):
            GenerationRequest("m", "p", temperature=value)


class TestGenerateWire:
    def test_oracle_answers_gold_label(self, oracle_server):
        server, reports, gold = oracle_server
        report = reports[0]
        resp = generate(server.endpoint, GenerationRequest("m1", f"Extract: {report.text}"))
        assert json.loads(resp.raw_text) == {"score": gold[report.id]}
        assert resp.model_echo == "m1"
        assert resp.latency_ms >= 0

    def test_json_mode_parseable(self, oracle_server):
        server, reports, gold = oracle_server
        resp = generate(server.endpoint,
                        GenerationRequest("m1", reports[1].text, json_mode=True))
        assert isinstance(json.loads(resp.raw_text), dict)

    def test_unknown_prompt_gets_garbage(self, oracle_server):
        server, _, _ = oracle_server
        resp = generate(server.endpoint, GenerationRequest("m1", "completely unknown text"))
        assert resp.raw_text in load_garbage_fixtures()

    def test_server_down_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setattr(lm_client, "DEFAULT_RETRIES", 3)
        monkeypatch.setattr(lm_client, "DEFAULT_RETRY_BASE", 0.001)
        with pytest.raises(TransportError):
            generate("http://127.0.0.1:9", GenerationRequest("m", "p"))

    def test_env_var_overrides_endpoint(self, oracle_server, monkeypatch):
        server, reports, gold = oracle_server
        monkeypatch.setenv("EXTRACTOR_LM_ENDPOINT", server.endpoint)
        resp = generate("http://127.0.0.1:9", GenerationRequest("m", reports[0].text))
        assert json.loads(resp.raw_text)["score"] == gold[reports[0].id]
        assert resolve_endpoint(None) == server.endpoint

    @pytest.mark.parametrize("given, resolved", [
        ("http://127.0.0.1:11434/", "http://127.0.0.1:11434"),
        ("http://127.0.0.1:11434/v1", "http://127.0.0.1:11434/v1"),
        ("https://models.example:8443/v1/", "https://models.example:8443/v1"),
    ], ids=["trailing-slash", "path-prefix", "https-prefix-and-slash"])
    def test_path_prefix_and_trailing_slash_resolve(self, monkeypatch, given, resolved):
        monkeypatch.delenv("EXTRACTOR_LM_ENDPOINT", raising=False)
        assert resolve_endpoint(given) == resolved

    def test_no_endpoint_configured(self, monkeypatch):
        monkeypatch.delenv("EXTRACTOR_LM_ENDPOINT", raising=False)
        with pytest.raises(LmClientError, match="no endpoint configured and "
                                                "EXTRACTOR_LM_ENDPOINT is unset"):
            resolve_endpoint(None)


class TestErrorMapping:
    def test_failing_model_is_protocol_error_500_at_once(self):
        def embeddings(payload):  # a model call that fails inside the server
            raise ModuleNotFoundError("No module named 'numpy'")

        with MockLmServer(RecordingModel(replies={"/api/embeddings": embeddings})) as server:
            with pytest.raises(ProtocolError) as info:
                embed(server.endpoint, "m", ["a", "b"])
        assert info.value.status == 500
        assert json.loads(info.value.body) == {
            "error": "ModuleNotFoundError: No module named 'numpy'"}

    def test_mock_answers_a_body_that_is_not_json_with_400(self, oracle_server, capsys):
        server, _, _ = oracle_server
        # not JSON; JSON but not UTF-8; JSON but not an object
        for body in (b"{not json", b'"\xff"', b"[1]"):
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
            try:
                conn.request("POST", "/api/generate", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 400, body
                assert json.loads(response.read()) == {"error": "invalid JSON body"}
            finally:
                conn.close()
        assert capsys.readouterr().err == ""

    def test_unknown_path_is_protocol_error_404(self, oracle_server):
        server, _, _ = oracle_server
        with pytest.raises(ProtocolError) as info:
            generate(server.endpoint + "/no-such-prefix", GenerationRequest("m", "p"))
        assert info.value.status == 404

    def test_non_json_2xx_body_is_protocol_error(self):
        with CannedServer(200, b"<html>not json</html>") as httpd:
            with pytest.raises(ProtocolError) as info:
                generate(httpd.endpoint, GenerationRequest("m", "p"))
            assert info.value.status == 200

    def test_silent_server_is_request_timeout(self, monkeypatch):
        monkeypatch.setattr(lm_client, "DEFAULT_TIMEOUT", 0.05)
        monkeypatch.setattr(lm_client, "DEFAULT_RETRY_BASE", 0.001)
        with socket.socket() as listener:  # accepts connections, never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            host, port = listener.getsockname()
            with pytest.raises(RequestTimeout):
                generate(f"http://{host}:{port}", GenerationRequest("m", "p"))

    def test_import_leaves_requests_unloaded(self, package_env):
        subprocess.run([sys.executable, "-c",
                        "import reportex.cli, reportex.mock_server, sys; "
                        "assert 'requests' not in sys.modules"],
                       check=True, env=package_env)


class TestEmbedWire:
    def test_identical_texts_identical_vectors(self, oracle_server):
        server, _, _ = oracle_server
        vectors = embed(server.endpoint, "gte-large", ["idh detected", "idh detected"])
        assert vectors[0] == vectors[1]
        assert len(vectors) == 2 and all(len(row) == 64 for row in vectors)

    def test_index_rows_equal_in_process_rows_bit_for_bit(self):
        # The mock sends its rows unscaled and exact in JSON, and VectorIndex alone
        # scales them, so the wire changes no bit of an index row.
        reports, _ = generate_synthetic_corpus(default_corpus_spec(Task.PATHOLOGY, 10, seed=3))
        chunks = [c for r in reports for c in split_recursive(r.text, report_id=r.id)
                  if tokenize(c.text)][:300]
        texts = [c.text for c in chunks]
        with MockLmServer(MockModel(MockMode.ORACLE, {}, PATHOLOGY_SCHEMA, seed=9)) as server:
            wire = VectorIndex(chunks, embed(server.endpoint, "gte-large", texts))
        local = VectorIndex(chunks, MockHashEmbedder(64, 9).embed(texts, "gte-large"))
        assert len(chunks) == 300
        assert [list(map(float.hex, row)) for row in wire.rows] == \
            [list(map(float.hex, row)) for row in local.rows]

    def test_cosine_ordering(self, oracle_server):
        server, _, _ = oracle_server
        base, far, close = embed(server.endpoint, "gte-large", [
            "idh mutation detected",
            "the weather is nice",
            "idh mutation detected positive",
        ])
        # dense_search ranks by cosine: the raw rows are unscaled
        ranking = dense_search(VectorIndex(_chunks(2), [far, close]), base, 2)
        assert [c.index for c, _ in ranking] == [1, 0]

    def test_empty_texts_rejected(self, oracle_server):
        server, _, _ = oracle_server
        with pytest.raises(ValueError):
            embed(server.endpoint, "gte-large", [])

    def test_rows_are_lists_of_floats(self, oracle_server):
        server, _, _ = oracle_server
        rows = embed(server.endpoint, "gte-large", ["idh detected", "no words match"])
        assert type(rows) is list
        assert all(type(row) is list and all(type(x) is float for x in row) for row in rows)


def _chunks(n):
    return [Chunk("r", i, f"chunk {i}", i, i + 1) for i in range(n)]


def _embed_replies(replies):
    with MockLmServer(RecordingModel(replies={
            "/api/embeddings": lambda payload: replies[payload["prompt"]]})) as server:
        return embed(server.endpoint, "m", list(replies))


class TestEmbedRows:
    def test_rows_come_back_as_sent(self):
        rows = _embed_replies({"a": {"embedding": [3, 4]}, "b": {"embedding": [0.0, 2.5]}})
        assert rows == [[3, 4], [0.0, 2.5]]
        assert [list(map(type, row)) for row in rows] == [[int, int], [float, float]]

    def test_zero_row_stays_zero(self):
        assert _embed_replies({"a": {"embedding": [0, 0.0, 0]}}) == [[0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("reply, error", [
        pytest.param({}, ProtocolError, id="missing"),
        pytest.param({"embedding": [[0.6, 0.8]]}, ProtocolError, id="nested"),
        pytest.param({"embedding": [0.6, [0.8]]}, ProtocolError, id="ragged"),
        pytest.param({"embedding": ["0.6", 0.8]}, ProtocolError, id="string"),
        pytest.param({"embedding": [None, 1.0]}, ProtocolError, id="null"),
        pytest.param({"embedding": [True, 1.0]}, ProtocolError, id="bool"),
        pytest.param({"embedding": [int("9" * 400), 0]}, VectorIndexError, id="overflow"),
        pytest.param({"embedding": []}, VectorIndexError, id="empty"),
        pytest.param({"embedding": 0.6}, ProtocolError, id="scalar"),
        pytest.param({"embedding": {"x": 0.6}}, ProtocolError, id="object"),
        pytest.param({"embedding": None}, ProtocolError, id="null-row"),
        # sent as the NaN that json.loads accepts
        pytest.param({"embedding": [math.nan, 1.0]}, ProtocolError, id="nan"),
        pytest.param({"embedding": [-math.inf, 1.0]}, ProtocolError, id="infinity"),
        pytest.param({"embedding": [1.3e154, 1.3e154]}, VectorIndexError, id="norm-overflow"),
        # 1e200 squared is inf, with no OverflowError
        pytest.param({"embedding": [1e200, 0.0]}, VectorIndexError, id="square-overflow"),
    ])
    def test_malformed_row_is_protocol_error(self, reply, error):
        # The reply table refuses a row that is not a list of finite numbers as a
        # ProtocolError. A list of finite numbers comes back as sent, and
        # VectorIndex, the one owner of the vector contract, refuses its shape or norm.
        with pytest.raises(error):
            VectorIndex(_chunks(2), _embed_replies({"a": {"embedding": [1.0, 0.0]}, "b": reply}))

    def test_mixed_dimensions_raise(self):
        rows = _embed_replies({"a": {"embedding": [1.0, 0.0]}, "b": {"embedding": [1.0, 0.0, 0.0]}})
        assert rows == [[1.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(VectorIndexError, match=r"\(n_chunks, dimension\) matrix"):
            VectorIndex(_chunks(2), rows)


def _texts(n, tag=""):
    return [f"{tag} finding {i} idh status report section {i * 7}" for i in range(n)]


def _drain_embed_pool():
    """Return once every embedding request submitted so far has run or been
    cancelled: the pool is FIFO, and these tasks run only when all its threads
    are free at once."""
    barrier = threading.Barrier(EMBED_CONCURRENCY)
    pool = lm_client._EMBED_POOL
    for future in [pool.submit(barrier.wait, 10) for _ in range(EMBED_CONCURRENCY)]:
        future.result(timeout=20)


class TestEmbedConcurrency:
    def test_in_flight_bounded_across_callers(self):
        model = RecordingModel(embed_delay=0.02)
        a, b = _texts(40, "a"), _texts(40, "b")
        with MockLmServer(model) as server, ThreadPoolExecutor(2) as callers:
            start = threading.Barrier(2)

            def call(texts):
                start.wait(timeout=10)
                return embed(server.endpoint, "gte-large", texts)

            rows_a, rows_b = callers.map(call, [a, b])
        # two callers that each sent one request at a time would peak at 2
        assert 2 < model.peak <= EMBED_CONCURRENCY
        assert sorted(p["prompt"] for p in model.payloads("/api/embeddings")) == sorted(a + b)
        expected = MockHashEmbedder(64, 0)
        assert rows_a == expected.embed(a, "gte-large")
        assert rows_b == expected.embed(b, "gte-large")

    def test_rows_in_input_order(self):
        texts = _texts(30)
        with MockLmServer(RecordingModel(seed=5)) as server:
            rows = embed(server.endpoint, "gte-large", texts)
        assert rows == MockHashEmbedder(64, 5).embed(texts, "gte-large")

    def test_first_failure_cancels_queued_requests(self):
        texts = _texts(100)
        # the first text's reply has no embedding field
        model = RecordingModel(embed_delay=0.02, replies={
            "/api/embeddings": lambda payload: {} if payload["prompt"] == texts[0] else None})
        with MockLmServer(model) as server:
            with pytest.raises(ProtocolError,
                               match="embedding must be a list of numbers, not missing"):
                embed(server.endpoint, "gte-large", texts)
            _drain_embed_pool()
        seen = [payload["prompt"] for payload in model.payloads("/api/embeddings")]
        assert texts[0] in seen
        assert len(seen) < 50

    def test_import_starts_no_threads(self, package_env):
        subprocess.run([sys.executable, "-c",
                        "import threading; before = threading.active_count(); "
                        "import reportex; from reportex import lm_client as c; "
                        "assert threading.active_count() == before"],
                       check=True, env=package_env)


class _CountingHandler(mock_server._Handler):
    """The mock's handler, recording the connections the server accepts."""

    accepted: list = []

    def setup(self):
        self.accepted.append(self.client_address)
        super().setup()


class TestRequestBody:
    def test_generate_posts_the_request_body(self):
        request = GenerationRequest("m", "caf\u00e9 \u2028", json_mode=True, seed=7)
        with CannedServer(200, _SCORE_2) as httpd:
            generate(httpd.endpoint, request)
        assert httpd.bodies == [request.body]
        assert json.loads(request.body) == request.to_payload()

    def test_configs_with_equal_request_bodies_send_one_request(self, corpus, tmp_path):
        reports, _ = corpus
        # quant_bits is not part of the request: both configs send the same bytes
        configs = [PipelineConfig(model_name="m", quant_bits=4),
                   PipelineConfig(model_name="m", quant_bits=8)]
        with CannedServer(200, _SCORE_2) as httpd:
            store = run_sweep(reports[:1], configs, httpd.endpoint, tmp_path / "s.jsonl",
                              RADIOLOGY_SCHEMA, no_timestamps=True)
        assert len(store) == 2 and {r.error for r in store.records} == {None}
        assert len(httpd.bodies) == 1
        assert json.loads(httpd.bodies[0])["options"]["seed"] == record_seed(0, reports[0].id)


class TestConnections:
    def test_serial_calls_and_an_embed_reuse_connections(self, corpus, monkeypatch):
        reports, annotations = corpus
        gold = {a.report_id: a.label for a in annotations}
        monkeypatch.setattr(_CountingHandler, "accepted", [])
        server = MockLmServer(MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports))
        server.RequestHandlerClass = _CountingHandler
        with server:
            for report in reports[:20]:
                resp = generate(server.endpoint, GenerationRequest("m", report.text))
                assert json.loads(resp.raw_text) == {"score": gold[report.id]}
            embed(server.endpoint, "gte-large", _texts(30))
        assert len(_CountingHandler.accepted) <= 1 + EMBED_CONCURRENCY

    def test_connection_closed_while_idle_is_reopened_not_retried(self, monkeypatch):
        monkeypatch.setattr(lm_client, "DEFAULT_RETRIES", 0)
        reply = json.dumps({"model": "m", "response": "ok"}).encode()
        with CannedServer(200, reply, close_after_reply=True) as httpd:
            for _ in range(3):
                resp = generate(httpd.endpoint, GenerationRequest("m", "p"))
                assert resp.raw_text == "ok"

    def test_reset_on_a_fresh_connection_is_raised_not_sent_again(self, monkeypatch):
        # only a kept connection gets the silent resend of _post
        monkeypatch.setattr(lm_client, "DEFAULT_RETRIES", 0)
        accepted = []
        done = threading.Event()
        with socket.socket() as listener:  # closes each connection at once
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            listener.settimeout(0.05)

            def serve():
                while not done.is_set():
                    try:
                        conn, _ = listener.accept()
                    except TimeoutError:
                        continue
                    accepted.append(conn.getpeername())
                    conn.close()

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            try:
                host, port = listener.getsockname()
                with pytest.raises(TransportError):
                    generate(f"http://{host}:{port}", GenerationRequest("m", "p"))
                time.sleep(0.2)  # a resend would connect within this
            finally:
                done.set()
                thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(accepted) == 1

    def test_stop_closes_open_connections(self, oracle_server, monkeypatch):
        monkeypatch.setattr(lm_client, "DEFAULT_RETRIES", 0)
        _, reports, gold = oracle_server
        server = MockLmServer(MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)).start()
        request = GenerationRequest("m", reports[0].text)
        generate(server.endpoint, request)  # this thread keeps the connection open
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.5
        # a handler left waiting on the kept connection would still answer
        with pytest.raises(TransportError):
            generate(server.endpoint, request)

    def test_proxy_from_environment(self, monkeypatch):
        for var in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(var, raising=False)
        endpoint = "http://model.invalid:11434"  # only the proxy can answer it
        with CannedServer(200, _VIA_PROXY) as proxy:
            monkeypatch.setenv("http_proxy", proxy.endpoint)
            resp = generate(endpoint, GenerationRequest("m", "p"))
            assert resp.raw_text == "via proxy"
            assert proxy.targets == [endpoint + "/api/generate"]  # absolute form
            monkeypatch.setenv("no_proxy", "model.invalid")
            conn, target = lm_client._connection(endpoint + "/api/generate")  # connects lazily
            assert (conn.host, conn.port, target) == ("model.invalid", 11434, "/api/generate")

    def test_https_endpoint_is_tunnelled_through_the_proxy(self, monkeypatch):
        for var in ("https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("https_proxy", "http://proxy.invalid:3128")
        conn, target = lm_client._connection("https://model.invalid:11434/api/generate")
        assert isinstance(conn, http.client.HTTPSConnection)  # connects lazily: no request sent
        assert (conn.host, conn.port, target) == ("proxy.invalid", 3128, "/api/generate")
        assert (conn._tunnel_host, conn._tunnel_port) == ("model.invalid", 11434)

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost"])
    def test_loopback_server_is_reached_without_the_proxy(self, oracle_server, monkeypatch,
                                                           host):
        server, reports, gold = oracle_server
        for var in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(var, raising=False)
        with CannedServer(200, _VIA_PROXY) as proxy:
            monkeypatch.setenv("http_proxy", proxy.endpoint)
            endpoint = server.endpoint.replace("127.0.0.1", host)
            resp = generate(endpoint, GenerationRequest("m", reports[0].text))
            assert json.loads(resp.raw_text) == {"score": gold[reports[0].id]}
            assert proxy.targets == []

    def test_loopback_request_does_not_read_the_proxy_environment(self, oracle_server,
                                                                  monkeypatch):
        server, reports, gold = oracle_server

        def no_lookup():
            raise AssertionError("proxy environment read for a loopback server")

        monkeypatch.setattr(lm_client.urllib.request, "getproxies", no_lookup)
        resp = generate(server.endpoint, GenerationRequest("m", reports[0].text))
        assert json.loads(resp.raw_text) == {"score": gold[reports[0].id]}
        assert len(embed(server.endpoint, "gte-large", _texts(3))) == 3

    def test_listen_queue_takes_a_burst_of_connects(self):
        server = MockLmServer(MockModel(MockMode.ORACLE, {}, RADIOLOGY_SCHEMA))
        address = server.server_address[:2]  # not started: nothing accepts
        sockets = [socket.socket() for _ in range(32)]
        try:
            for s in sockets:
                s.setblocking(False)
                s.connect_ex(address)
            pending = set(sockets)
            deadline = time.monotonic() + 0.5
            while pending and time.monotonic() < deadline:
                _, connected, _ = select.select([], list(pending), [], deadline - time.monotonic())
                pending.difference_update(connected)
            assert not pending
            assert all(s.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0 for s in sockets)
        finally:
            for s in sockets:
                s.close()
            server.stop()


class TestMockServerErrors:
    def _handle(self, exc):
        server = MockLmServer(MockModel(MockMode.ORACLE, {}, RADIOLOGY_SCHEMA))
        try:
            try:
                raise exc
            except type(exc):
                server.handle_error(None, ("127.0.0.1", 1))
        finally:
            server.server_close()

    @pytest.mark.parametrize("exc", [ConnectionResetError(104, "reset"),
                                     BrokenPipeError(32, "pipe")], ids=["reset", "broken-pipe"])
    def test_client_dropping_its_connection_prints_nothing(self, exc, capsys):
        self._handle(exc)
        assert capsys.readouterr() == ("", "")

    def test_other_errors_still_print(self, capsys):
        self._handle(ValueError("boom"))
        err = capsys.readouterr().err
        assert "Exception occurred during processing of request from ('127.0.0.1', 1)" in err
        assert "ValueError: boom" in err

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_and_a_closed_connection(self, length, capsys):
        with MockLmServer(MockModel(MockMode.ORACLE, {}, RADIOLOGY_SCHEMA)) as server:
            with socket.create_connection(server.server_address[:2], timeout=2) as sock:
                sock.sendall(f"POST /api/generate HTTP/1.1\r\nHost: x\r\n"
                             f"Content-Length: {length}\r\n\r\n".encode("ascii"))
                reply = b""
                while chunk := sock.recv(4096):  # until the server closes; a hang times out
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"error": f"invalid Content-Length {length!r}"}
        assert capsys.readouterr().err == ""

    def test_client_reset_mid_body_prints_nothing(self, capsys):
        with MockLmServer(MockModel(MockMode.ORACLE, {}, RADIOLOGY_SCHEMA)) as server:
            open_now = server._open
            with socket.create_connection(server.server_address[:2], timeout=2) as sock:
                sock.sendall(b"POST /api/generate HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 100\r\n\r\n{\"model\": ")
                deadline = time.monotonic() + 5
                while not open_now and time.monotonic() < deadline:  # until accepted
                    time.sleep(0.01)
                time.sleep(0.05)  # for the handler to wait on the rest of the body
                # linger on, with a zero timeout: close() sends a reset
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            while open_now and time.monotonic() < deadline:  # until the handler ends
                time.sleep(0.01)
            assert not open_now
        assert capsys.readouterr().err == ""


class TestMockModes:
    def _model(self, mode, corpus, **kw):
        from reportex.corpus import RADIOLOGY_SCHEMA
        reports, annotations = corpus
        gold = {a.report_id: a.label for a in annotations}
        return MockModel(mode, gold, RADIOLOGY_SCHEMA, reports, **kw), reports, gold

    def test_oracle_contract(self, corpus):
        model, reports, gold = self._model(MockMode.ORACLE, corpus)
        for report in reports[:10]:
            out = model.complete({"model": "m", "prompt": f"prefix {report.text} suffix"})
            assert json.loads(out["response"]) == {"score": gold[report.id]}

    def test_noisy_oracle_rate(self, corpus):
        model, reports, gold = self._model(MockMode.NOISY_ORACLE, corpus, seed=5, noise_rate=0.1)
        report = reports[0]
        wrong = 0
        n = 10_000
        for i in range(n):
            out = model.complete({
                "model": "m",
                "prompt": report.text,
                "options": {"seed": record_seed(i, report.id)},
            })
            answer = json.loads(out["response"])["score"]
            wrong += answer != gold[report.id]
        assert abs(wrong / n - 0.1) <= 0.01

    def test_noisy_oracle_deterministic_given_seed(self, corpus):
        model, reports, _ = self._model(MockMode.NOISY_ORACLE, corpus, seed=5, noise_rate=0.5)
        payload = {"model": "m", "prompt": reports[0].text, "options": {"seed": 7}}
        assert model.complete(payload) == model.complete(payload)

    def test_garbage_mode(self, corpus):
        model, reports, _ = self._model(MockMode.GARBAGE, corpus)
        out = model.complete({"model": "m", "prompt": reports[0].text})
        assert out["response"] in load_garbage_fixtures()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out["response"])

    def test_length_noisy_error_grows_with_prompt(self, corpus):
        model, reports, gold = self._model(
            MockMode.LENGTH_NOISY, corpus, seed=3, noise_base=0.0, noise_per_kchar=0.3)
        report = reports[0]
        # full-text prompt vs an artificially padded long prompt
        long_prompt = report.text + " filler" * 2000
        n = 400
        wrong_short = wrong_long = 0
        for i in range(n):
            for prompt, bucket in ((report.text, "short"), (long_prompt, "long")):
                out = model.complete({"model": "m", "prompt": prompt,
                                      "options": {"seed": i}})
                wrong = json.loads(out["response"])["score"] != gold[report.id]
                if bucket == "short":
                    wrong_short += wrong
                else:
                    wrong_long += wrong
        assert wrong_long > wrong_short
