import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import reportex
from reportex import lm_client
from reportex.corpus import Task, default_corpus_spec, generate_synthetic_corpus
from reportex.lm_client import (
    GenerationRequest,
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
    load_malformed_templates,
)
from reportex.sweep import record_seed


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


class _NotJsonHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b"<html>not json</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestErrorMapping:
    def test_unknown_path_is_protocol_error_404(self, oracle_server):
        server, _, _ = oracle_server
        with pytest.raises(ProtocolError) as info:
            generate(server.endpoint + "/no-such-prefix", GenerationRequest("m", "p"))
        assert info.value.status == 404

    def test_non_json_2xx_body_is_protocol_error(self):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _NotJsonHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            with pytest.raises(ProtocolError) as info:
                generate(f"http://{host}:{port}", GenerationRequest("m", "p"))
            assert info.value.status == 200
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_silent_server_is_request_timeout(self, monkeypatch):
        monkeypatch.setattr(lm_client, "DEFAULT_TIMEOUT", 0.05)
        monkeypatch.setattr(lm_client, "DEFAULT_RETRY_BASE", 0.001)
        with socket.socket() as listener:  # accepts connections, never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            host, port = listener.getsockname()
            with pytest.raises(RequestTimeout):
                generate(f"http://{host}:{port}", GenerationRequest("m", "p"))

    def test_import_leaves_requests_unloaded(self):
        src = str(Path(reportex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c",
                        "import reportex, sys; assert 'requests' not in sys.modules"],
                       check=True, env=env)


class TestEmbedWire:
    def test_identical_texts_identical_vectors(self, oracle_server):
        server, _, _ = oracle_server
        vectors = embed(server.endpoint, "gte-large", ["idh detected", "idh detected"])
        assert np.array_equal(vectors[0], vectors[1])
        assert vectors.shape == (2, 64)

    def test_normalized(self, oracle_server):
        server, _, _ = oracle_server
        vectors = embed(server.endpoint, "gte-large", ["some words here"])
        assert np.linalg.norm(vectors[0]) == pytest.approx(1.0, abs=1e-9)

    def test_cosine_ordering(self, oracle_server):
        server, _, _ = oracle_server
        base, close, far = embed(server.endpoint, "gte-large", [
            "idh mutation detected",
            "idh mutation detected positive",
            "the weather is nice",
        ])
        assert base @ close > base @ far

    def test_empty_texts_rejected(self, oracle_server):
        server, _, _ = oracle_server
        with pytest.raises(ValueError):
            embed(server.endpoint, "gte-large", [])


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

    def test_malformed_mode_draws_from_fixture_list(self, corpus):
        model, reports, gold = self._model(MockMode.MALFORMED, corpus)
        templates = load_malformed_templates()
        for report in reports[:10]:
            out = model.complete({"model": "m", "prompt": report.text})
            rendered = [t.format(key="score", label=gold[report.id]) for t in templates]
            assert out["response"] in rendered

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
