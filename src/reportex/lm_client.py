"""HTTP client for a local model server (generation + embeddings).

Wire protocol: POST <endpoint>/api/generate with a JSON body carrying model,
prompt, stream=false, optional format="json", and sampling options; the
completion comes back in the "response" field. POST <endpoint>/api/embeddings
with {"model", "prompt"} returns {"embedding": [...]}. The environment
variable EXTRACTOR_LM_ENDPOINT overrides any configured endpoint.
resolve_endpoint refuses an endpoint that is not an http:// or https:// URL
with a host and a valid port, or that has a query, a fragment or port 0, so
a bad one fails before any request.

Transport settings are the module constants DEFAULT_TIMEOUT (seconds per
attempt), DEFAULT_RETRIES (extra attempts after a timeout or connection
failure) and DEFAULT_RETRY_BASE (first backoff in seconds, doubled per retry);
each request reads them when it is made.

Requests go over persistent HTTP/1.1 connections through http.client: each
thread keeps one open connection, to the server it last posted to, and
closes it when it posts to another. A kept connection the server has closed
in the meantime fails before any response arrives; the request is then sent
once more on a fresh connection, and that reopening is not a retry. Proxies
follow the environment as urllib reads it (http_proxy, https_proxy,
no_proxy): an http request goes to the proxy with the absolute URL as its
target, an https request through a CONNECT tunnel. Credentials in a proxy
URL are not sent. A request to localhost or a loopback IP address is never
proxied and never reads the proxy environment. A request's body is encoded
once, as GenerationRequest.body; each reply is checked where it arrives.

embed() sends one /api/embeddings request per text, concurrently, through one
process-wide pool of EMBED_CONCURRENCY threads, made at import and started by
the first request. The bound holds across all callers: two sweep workers
embedding at once share the same EMBED_CONCURRENCY requests in flight, over
at most EMBED_CONCURRENCY connections. A bound per call would multiply with
the callers and overflow a small server listen queue, where each dropped
connection waits out a 1 s SYN retransmit. It returns one row per text, the
server's numbers as sent; a reply whose "embedding" is not a list of finite
numbers is a ProtocolError. Scaling the rows and checking their shape and
norm is left to retrieval.VectorIndex. The client needs nothing beyond the
standard library.
"""

from __future__ import annotations

import http.client
import ipaddress
import json
import os
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .inputs import InputError, check_object

DEFAULT_TIMEOUT = 120.0
DEFAULT_RETRIES = 3
DEFAULT_RETRY_BASE = 0.5  # seconds; doubles per retry

ENDPOINT_ENV_VAR = "EXTRACTOR_LM_ENDPOINT"

EMBED_CONCURRENCY = 8  # embedding requests in flight, per process

_EMBED_POOL = ThreadPoolExecutor(max_workers=EMBED_CONCURRENCY, thread_name_prefix="reportex-embed")
_embed_submit_lock = threading.Lock()

_thread = threading.local()  # .kept: this thread's _KeptConnection, if any


class LmClientError(Exception):
    """Base class for model-server client failures."""


class TransportError(LmClientError):
    """Connection-level failure that persisted through all retries."""


class RequestTimeout(LmClientError):
    """The server did not answer within the configured timeout."""


class ProtocolError(LmClientError):
    """Non-2xx response or malformed response body."""

    def __init__(self, status: int, body: str):
        super().__init__(f"server returned status {status}: {body[:200]}")
        self.status = status
        self.body = body


def check_sampling(temperature: float, top_k: int, top_p: float) -> None:
    """ValueError unless sampling options of the right types are in the ranges a server accepts."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")


# The sampling options a request body carries; `seed` only when it is set.
_OPTIONS = (("temperature", float, True), ("top_k", int, True), ("top_p", float, True),
            ("seed", int, False))


@dataclass(frozen=True)
class GenerationRequest:
    model: str
    prompt: str
    json_mode: bool = False
    temperature: float = 0.0
    top_k: int = 40
    top_p: float = 0.9
    seed: int | None = None

    def __post_init__(self):
        check_object(self.to_payload()["options"], _OPTIONS)
        check_sampling(self.temperature, self.top_k, self.top_p)

    def to_payload(self) -> dict:
        options: dict = {"temperature": self.temperature, "top_k": self.top_k, "top_p": self.top_p}
        if self.seed is not None:
            options["seed"] = self.seed
        payload: dict = {"model": self.model, "prompt": self.prompt, "stream": False, "options": options}
        if self.json_mode:
            payload["format"] = "json"
        return payload

    @cached_property
    def body(self) -> bytes:
        """The request's wire bytes, encoded once."""
        return json.dumps(self.to_payload()).encode("utf-8")


@dataclass(frozen=True)
class GenerationResponse:
    raw_text: str  # returned verbatim; postprocessing owns all cleaning
    latency_ms: float
    model_echo: str


def resolve_endpoint(configured: str | None) -> str:
    """The endpoint to use, EXTRACTOR_LM_ENDPOINT first; an http(s) URL with a
    host, a valid port other than 0 and no query or fragment, or LmClientError."""
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or configured
    if not endpoint:
        raise LmClientError(f"no endpoint configured and {ENDPOINT_ENV_VAR} is unset")
    try:  # urlsplit refuses a malformed IPv6 host, .port a port not in 0-65535
        parts = urllib.parse.urlsplit(endpoint)
        parts.port
    except ValueError as e:
        raise LmClientError(f"endpoint {endpoint!r}: {e}") from e
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise LmClientError(f"endpoint must be an http:// or https:// URL: {endpoint!r}")
    if "?" in endpoint or "#" in endpoint or parts.port == 0:  # every request would fail
        raise LmClientError(f"endpoint must have no query, no fragment and no port 0: {endpoint!r}")
    return endpoint.rstrip("/")


class _KeptConnection:
    """A thread's open connection and the route it was opened for. It is
    closed when the thread replaces it or ends."""

    def __init__(self, route: tuple, conn: http.client.HTTPConnection):
        self.route = route
        self.conn = conn

    def __del__(self):
        self.conn.close()


def _loopback(host: str) -> bool:
    try:
        return host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:  # a name, not an address
        return False


def _connection(url: str) -> tuple[http.client.HTTPConnection, str]:
    """This thread's connection to the server of `url` (or to its proxy), and
    the request target to send on it."""
    parts = urllib.parse.urlsplit(url)
    target = parts.path  # resolve_endpoint refuses a query
    proxy = None if _loopback(parts.hostname) else urllib.request.getproxies().get(parts.scheme)
    if proxy and urllib.request.proxy_bypass(parts.netloc):
        proxy = None
    route = (parts.scheme, parts.hostname, parts.port, proxy)
    kept = getattr(_thread, "kept", None)
    if kept is None or kept.route != route:
        if kept is not None:
            kept.conn.close()
        cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        if proxy is None:
            conn = cls(parts.hostname, parts.port)
        else:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
            conn = cls(via.hostname, via.port)
            if parts.scheme == "https":
                conn.set_tunnel(parts.hostname, parts.port)
        kept = _thread.kept = _KeptConnection(route, conn)
    if proxy is not None and parts.scheme == "http":
        target = url  # absolute form, for the proxy to forward
    kept.conn.timeout = DEFAULT_TIMEOUT
    if kept.conn.sock is not None:
        kept.conn.sock.settimeout(DEFAULT_TIMEOUT)
    return kept.conn, target


def _post(url: str, body: bytes) -> tuple[int, str]:
    """One POST over this thread's connection: (status, body text). A kept
    connection that fails before any response arrives was closed by the
    server while idle, and the request is sent again on a fresh one."""
    conn, target = _connection(url)
    headers = {"Content-Type": "application/json"}
    reused = conn.sock is not None
    try:
        try:
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected included
            if not reused:
                raise
            conn.close()
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
        # http.client closes the connection itself when the response says it will close
        return response.status, response.read().decode("utf-8", "replace")
    except BaseException:
        conn.close()
        raise


_GENERATE_REPLY = (("response", str, True), ("model", str, False))
_EMBED_REPLY = (("embedding", tuple[float, ...], True),)


def _post_with_retries(url: str, body: bytes, table) -> dict:
    """POST the JSON `body`; the reply's fields, checked against `table`."""
    last_error: LmClientError | None = None
    for attempt in range(DEFAULT_RETRIES + 1):
        try:
            status, text = _post(url, body)
        except TimeoutError as e:
            last_error = RequestTimeout(f"{url}: timed out after {DEFAULT_TIMEOUT}s")
            last_error.__cause__ = e
        except (OSError, http.client.HTTPException) as e:
            last_error = TransportError(f"{url}: {e}")
            last_error.__cause__ = e
        else:
            if not 200 <= status < 300:
                raise ProtocolError(status, text)
            try:
                return check_object(json.loads(text), table, "reply body")
            except InputError as e:
                raise ProtocolError(status, str(e)) from e
            except ValueError as e:
                raise ProtocolError(status, f"non-JSON body: {text[:100]}") from e
        if attempt < DEFAULT_RETRIES:
            time.sleep(DEFAULT_RETRY_BASE * (2 ** attempt))
    assert last_error is not None
    raise last_error


def generate(endpoint: str, request: GenerationRequest) -> GenerationResponse:
    """One non-streaming generation call; transient transport failures are retried."""
    url = resolve_endpoint(endpoint) + "/api/generate"
    start = time.perf_counter()
    data = _post_with_retries(url, request.body, _GENERATE_REPLY)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return GenerationResponse(
        raw_text=data["response"],
        latency_ms=latency_ms,
        model_echo=data.get("model", ""),
    )


def _embedding(url: str, model: str, text: str) -> list[float]:
    """The server's row for `text`, its numbers as sent."""
    body = json.dumps({"model": model, "prompt": text}).encode("utf-8")
    return list(_post_with_retries(url, body, _EMBED_REPLY)["embedding"])


def embed(endpoint: str, model: str, texts: list[str]) -> list[list[float]]:
    """Embed each text through the server; one row per text, in input order.

    The requests run concurrently in the process-wide embedding pool. The
    first failure in input order is raised, and requests still queued are
    cancelled. Not to be called from inside that pool.
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    url = resolve_endpoint(endpoint) + "/api/embeddings"
    # One call's requests queue together, so that the first caller's rows come
    # back first instead of every caller's last row arriving at the end.
    with _embed_submit_lock:
        rows = _EMBED_POOL.map(_embedding, repeat(url), repeat(model), texts)
    return list(rows)  # map cancels the queued requests when one raises
