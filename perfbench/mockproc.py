"""The benchmark's mock model server: MockModel with fixed generate and embedding
delays and per-request timing, served through the unchanged MockLmServer.

Run as a script it serves one corpus in its own process, so the client under
test does not share an interpreter lock with the mock:

    python3 perfbench/mockproc.py --corpus FILE --delay-ms 50 --embed-delay-ms 30

It prints one JSON line {"endpoint", "index_build_s"} once it is listening.
Then each "stats" line on stdin is answered with one JSON line of the timings
recorded since the previous one. End of input stops the server.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reportex.corpus import BUILTIN_SCHEMAS, load_corpus  # noqa: E402
from reportex.mock_server import MockLmServer, MockMode, MockModel  # noqa: E402


class TimedMockModel(MockModel):
    """MockModel that sleeps `delay_s` after each real completion and
    `embed_delay_s` after each embedding, modelling a latency-bound server, and
    records how long each request took to handle."""

    def __init__(self, *args, delay_s: float = 0.0, embed_delay_s: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay_s = delay_s
        self.embed_delay_s = embed_delay_s
        self._reset()

    def _reset(self) -> None:
        self.complete_s: list[float] = []  # MockModel.complete alone
        self.handled_s: list[float] = []  # complete plus the injected delay
        self.embeddings_s: list[float] = []

    def complete(self, payload: dict) -> dict:
        start = time.perf_counter()
        out = super().complete(payload)
        done = time.perf_counter()
        if self.delay_s:
            time.sleep(self.delay_s)
        self.complete_s.append(done - start)
        self.handled_s.append(time.perf_counter() - start)
        return out

    def embeddings(self, payload: dict) -> dict:
        start = time.perf_counter()
        out = super().embeddings(payload)
        self.embeddings_s.append(time.perf_counter() - start)
        if self.embed_delay_s:
            time.sleep(self.embed_delay_s)
        return out

    def take_stats(self) -> dict:
        stats = {"complete_s": self.complete_s, "handled_s": self.handled_s,
                 "embeddings_s": self.embeddings_s}
        self._reset()
        return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--delay-ms", type=float, default=0.0, help="added to each generate")
    parser.add_argument("--embed-delay-ms", type=float, default=0.0, help="added to each embedding")
    args = parser.parse_args()
    reports, annotations = load_corpus(args.corpus)
    gold = {a.report_id: a.label for a in annotations}
    start = time.perf_counter()
    model = TimedMockModel(MockMode.ORACLE, gold, BUILTIN_SCHEMAS[reports[0].task], reports,
                           delay_s=args.delay_ms / 1000.0,
                           embed_delay_s=args.embed_delay_ms / 1000.0)
    build_s = time.perf_counter() - start
    with MockLmServer(model) as server:
        print(json.dumps({"endpoint": server.endpoint, "index_build_s": build_s}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(model.take_stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
