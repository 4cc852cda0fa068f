"""Deterministic in-repo mock of the local model server, for hermetic tests.

The mock speaks the same wire protocol as a real server. Because the protocol
carries only the prompt, report identity is recovered from the prompt text via
a substring-shingle index over the corpus, keyed by the exact bytes of each
16-byte window of the UTF-8 text: windows unique to one report vote for its
id, and windows unique to one gold label (from the synthetic answer-sentence
templates) act as a fallback when a selected chunk carries no report-unique
text. Unknown prompts get a garbage-mode response.

The constant prompt text must never vote, so every window of it is removed
from both indexes. That text is `prompting.fixed_text`: the frames that
`build_prompt` joins each context into, over every strategy the schema can
render. Only `prompting` knows the prompt wording and the exemplars.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import sys
import threading
from collections import Counter
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from typing import Iterator

from .corpus import LabelSchema, Report, answer_sentence
from .prompting import fixed_text
from .retrieval import MockHashEmbedder

_SHINGLE = 16


def _windows(text: str) -> Iterator[bytes]:
    """Every 16-byte window of the UTF-8 text, in order, made as it is read."""
    data = text.encode("utf-8")
    return (data[i : i + _SHINGLE] for i in range(len(data) - _SHINGLE + 1))


def _claim(index: dict[bytes, str | None], text: str, owner: str | None) -> None:
    """Give every window of `text` to `owner`. A window claimed by two owners,
    or by owner None, belongs to nobody and can never vote."""
    for window in _windows(text):
        if index.setdefault(window, owner) != owner:
            index[window] = None


def _vote(index: dict[bytes, str | None], prompt: str) -> str | None:
    """The owner of the most prompt windows, ties to the greatest owner; None
    if no window votes. The scan may stop once the leader is 25 votes ahead."""
    votes: Counter[str] = Counter()
    for scanned, window in enumerate(_windows(prompt), start=1):
        owner = index.get(window)
        if owner is not None:
            votes[owner] += 1
        if scanned % 256 == 0 and votes:
            (_, top_n), *rest = votes.most_common(2)
            if top_n >= 25 and (not rest or top_n - rest[0][1] >= 25):
                break
    if not votes:
        return None
    return max(votes.items(), key=lambda kv: (kv[1], kv[0]))[0]


class MockMode(str, Enum):
    ORACLE = "oracle"
    NOISY_ORACLE = "noisy_oracle"
    GARBAGE = "garbage"
    LENGTH_NOISY = "length_noisy"  # error rate grows with prompt length


def _h64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def load_garbage_fixtures() -> list[str]:
    path = resources.files("reportex.data").joinpath("garbage_fixtures.json")
    return json.loads(path.read_text("utf-8"))["garbage"]


class MockModel:
    """Prompt -> completion logic behind the mock server (usable in-process)."""

    def __init__(self, mode: MockMode, gold: dict[str, str], schema: LabelSchema,
                 reports: list[Report] = (), seed: int = 0, noise_rate: float = 0.1,
                 noise_base: float = 0.05, noise_per_kchar: float = 0.1,
                 noise_cap: float = 0.9):
        self.mode = MockMode(mode)
        self.gold = dict(gold)
        self.schema = schema
        self.seed = seed
        self.noise_rate = noise_rate
        self.noise_base = noise_base
        self.noise_per_kchar = noise_per_kchar
        self.noise_cap = noise_cap
        self.garbage = load_garbage_fixtures()
        self.embedder = MockHashEmbedder(dimension=64, seed=seed)
        self._report_index: dict[bytes, str | None] = {}
        for r in reports:
            _claim(self._report_index, r.text, r.id)
        self._label_index: dict[bytes, str | None] = {}
        for label in schema.valid_labels:
            if label != schema.nr_label:
                _claim(self._label_index, answer_sentence(schema.task, label), label)
        for text in fixed_text(schema):
            _claim(self._report_index, text, None)
            _claim(self._label_index, text, None)

    def _rng(self, model: str, prompt: str, seed: int | None) -> random.Random:
        request_seed = seed if seed is not None else _h64(prompt)
        return random.Random(_h64(f"{self.seed}|{model}|{request_seed}"))

    def _garbage_response(self, prompt: str) -> str:
        return self.garbage[_h64(prompt) % len(self.garbage)]

    def _wrong_label(self, gold_label: str, rng: random.Random) -> str:
        others = [l for l in self.schema.valid_labels if l != gold_label]
        return rng.choice(others)

    def _error_rate(self, prompt: str) -> float:
        if self.mode is MockMode.NOISY_ORACLE:
            return self.noise_rate
        if self.mode is MockMode.LENGTH_NOISY:
            return min(self.noise_cap, self.noise_base + self.noise_per_kchar * len(prompt) / 1000.0)
        return 0.0

    def complete(self, payload: dict) -> dict:
        """Handle one /api/generate payload; returns the wire response dict."""
        model = payload.get("model", "")
        prompt = payload.get("prompt", "")
        options = payload.get("options", {})
        if self.mode is MockMode.GARBAGE:
            return self._wire(model, self._garbage_response(prompt))

        report_id = _vote(self._report_index, prompt)
        if report_id is not None and report_id in self.gold:
            label = self.gold[report_id]
        else:
            label = _vote(self._label_index, prompt)
            if label is None:
                return self._wire(model, self._garbage_response(prompt))

        eps = self._error_rate(prompt)
        if eps > 0.0:
            rng = self._rng(model, prompt, options.get("seed"))
            if rng.random() < eps:
                label = self._wrong_label(label, rng)
        return self._wire(model, json.dumps({self.schema.answer_key: label}))

    def embeddings(self, payload: dict) -> dict:
        """Handle one /api/embeddings payload: MockHashEmbedder's unscaled row,
        exact in JSON, so a client's row equals the in-process one."""
        return {"embedding": self.embedder.embed([payload.get("prompt", "")],
                                                 payload.get("model", ""))[0]}

    @staticmethod
    def _wire(model: str, text: str) -> dict:
        return {"model": model, "response": text, "done": True}


class _Handler(BaseHTTPRequestHandler):
    server: MockLmServer
    protocol_version = "HTTP/1.1"  # connections stay open between requests
    # The headers and the body are two writes; with Nagle on, the body waits
    # for the client's delayed ACK of the headers, about 40 ms per request.
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 (http.server API)
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):  # the body's end is unknown
            self._send(400, {"error": f"invalid Content-Length {length!r}"}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(int(length)))
        except ValueError:  # not JSON, or not UTF-8
            payload = None
        if not isinstance(payload, dict):
            self._send(400, {"error": "invalid JSON body"})
            return
        model = self.server.model
        answer = {"/api/generate": model.complete,
                  "/api/embeddings": model.embeddings}.get(self.path)
        if answer is None:
            self._send(404, {"error": f"unknown path {self.path}"})
            return
        try:
            reply = answer(payload)
        except Exception as e:  # a failing model is the server's error, as on a real server
            self._send(500, {"error": f"{type(e).__name__}: {e}"})
            return
        self._send(200, reply)

    def _send(self, status: int, obj: dict, close: bool = False) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also sets close_connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence request logging in tests
        pass


class MockLmServer(ThreadingHTTPServer):
    """Threaded HTTP/1.1 server for MockModel; endpoint is http://127.0.0.1:<port>.
    It keeps the connections it serves, so that stop() can close them: a handler
    thread waits on its open connection for the next request, with no idle
    timeout, and server_close() neither closes nor waits for it."""

    request_queue_size = 128  # the default of 5 drops bursts of first connects

    def __init__(self, model: MockModel, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.model = model
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        # shutdown() waits up to one poll interval; the 0.5 s default slows stop().
        self._thread = threading.Thread(target=self.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A client that drops its connection, between requests or in the middle of
        # one (a killed sweep process), is no error.
        if not isinstance(sys.exc_info()[1], (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)

    def start(self) -> "MockLmServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread.is_alive():  # else shutdown() waits forever on a loop never run
            self.shutdown()
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)  # wakes a handler blocked reading it
            except OSError:
                pass  # the client closed it first
        self.server_close()

    def __enter__(self) -> "MockLmServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
