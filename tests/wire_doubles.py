"""The two wire doubles that Tier-1's tests share.

CannedServer answers every request with one fixed reply and logs what it was
sent; RecordingModel is a MockModel that logs what it answers. Test modules
import them by name, as pytest puts this directory on sys.path. Doubles that
shape a reply per request stay in the module that uses them.
"""

import threading
import time
from http.server import BaseHTTPRequestHandler

from reportex.mock_server import MockLmServer, MockModel


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
    """A MockModel that logs each (route, payload) it answers in `log`, in
    arrival order, and sleeps `embed_delay` seconds in each embedding."""

    def __init__(self, *args, embed_delay=0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.embed_delay = embed_delay
        self.log = []
        self._lock = threading.Lock()

    def payloads(self, route):
        """The payloads sent to `route`, in arrival order."""
        return [payload for r, payload in self.log if r == route]

    def _record(self, route, payload):
        with self._lock:
            self.log.append((route, payload))

    def complete(self, payload):
        self._record("/api/generate", payload)
        return super().complete(payload)

    def embeddings(self, payload):
        self._record("/api/embeddings", payload)
        time.sleep(self.embed_delay)
        return super().embeddings(payload)
