"""The two wire doubles that Tier-1's tests share.

CannedServer answers every request with one fixed reply and logs what it was
sent; RecordingModel is a MockModel that logs what it answers, and takes any
reply of a test's own as a function in `replies`. Test modules import them by
name, as pytest puts this directory on sys.path.
"""

import threading
import time
from http.server import BaseHTTPRequestHandler

from reportex.corpus import RADIOLOGY_SCHEMA
from reportex.mock_server import MockLmServer, MockMode, MockModel


class _CannedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # connections stay open unless the server closes them

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        server.requests.append((self.path, self.rfile.read(int(self.headers["Content-Length"]))))
        self.send_response(server.status)
        self.send_header("Content-Length", str(len(server.body)))
        self.end_headers()
        self.wfile.write(server.body)
        self.close_connection = server.close_after_reply  # without a Connection: close header

    def log_message(self, *args):
        pass


class CannedServer(MockLmServer):
    """HTTP server on 127.0.0.1 that answers every POST with `status` and the
    bytes `body`, and logs each request's (target, body) in `requests`. With
    `close_after_reply`, it closes each connection after its reply without
    saying so, and the client finds out only on its next request. Serves
    inside a `with` block."""

    def __init__(self, status, body, close_after_reply=False):
        super().__init__(None)  # no model: _CannedHandler answers
        self.RequestHandlerClass = _CannedHandler
        self.status, self.body, self.close_after_reply = status, body, close_after_reply
        self.requests = []

    @property
    def targets(self):
        return [target for target, _ in self.requests]

    @property
    def bodies(self):
        return [body for _, body in self.requests]


class RecordingModel(MockModel):
    """A MockModel (by default a RADIOLOGY_SCHEMA oracle with no gold) that logs
    each (route, payload) it answers in `log`, in arrival order, sleeps
    `embed_delay` seconds in each embedding and keeps in `peak` the most
    embeddings in flight at once. `replies` maps a route to a function of the
    payload that returns the reply; where it returns None, MockModel answers.
    What the function raises is the server's 500."""

    def __init__(self, mode=MockMode.ORACLE, gold=None, schema=RADIOLOGY_SCHEMA, reports=(), *,
                 embed_delay=0.0, replies=None, **kwargs):
        super().__init__(mode, gold or {}, schema, reports, **kwargs)
        self.embed_delay = embed_delay
        self.replies = replies or {}
        self.log = []
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def payloads(self, route):
        """The payloads sent to `route`, in arrival order."""
        return [payload for r, payload in self.log if r == route]

    def _answer(self, route, payload, default):
        reply = self.replies[route](payload) if route in self.replies else None
        return default(payload) if reply is None else reply

    def complete(self, payload):
        with self._lock:
            self.log.append(("/api/generate", payload))
        return self._answer("/api/generate", payload, super().complete)

    def embeddings(self, payload):
        with self._lock:
            self.log.append(("/api/embeddings", payload))
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(self.embed_delay)
            return self._answer("/api/embeddings", payload, super().embeddings)
        finally:
            with self._lock:
                self._in_flight -= 1
