"""Benchmark of the reportex sweep harness on one workload.

    python3 perfbench/run.py --workload rad-grid-wire --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from the seed and sets up several times.
After one untimed warm-up iteration it repeats the timed iteration (a sweep, then its report) for --seconds,
checking every iteration's outputs. It prints one line per metric and, as the
last line, one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are the end-to-end ones, medians over the iterations.
With --trace 1 they are the per-layer ones, from spans recorded around the
program's layer functions. --out also writes the result with the machine it
ran on. Workloads and metrics are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run; setup_s is their median


def unit_of(name: str) -> str:
    words = re.split(r"[._]", name)
    if words[-1] == "ratio":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    for word, unit in (("ms", "ms"), ("us", "us"), ("s", "s"), ("mb", "MB"), ("chars", "chars")):
        if word in words:
            return unit
    return "count"


class RssSampler:
    """Peak resident set size of this process while the block runs."""

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        with open("/proc/self/statm") as fh:
            rss = int(fh.read().split()[1]) * self._page
        self.peak_bytes = max(self.peak_bytes, rss)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def run_iterations(workload, seconds: float) -> list:
    """Timed iterations until `seconds` have passed; at least one."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        gc.collect()
        iterations.append(workload.iterate())
    return iterations


def end_to_end(workload, setups: list[dict], seconds: float) -> tuple[dict, list]:
    with RssSampler() as rss:
        iterations = run_iterations(workload, seconds)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pairs_per_s": statistics.median(i.pairs / i.sweep_s for i in iterations),
        "first_record_s": statistics.median(i.first_record_s for i in iterations),
        "peak_rss_mb": rss.peak_bytes / 2**20,
    }
    return metrics, iterations


def per_layer(workload, setups: list[dict], seconds: float, work: Path, seed: int) -> tuple[dict, list]:
    from layers import Scope, install, layer_metrics, probe
    from tracing import Tracer
    from workloads import PARALLELISM, BenchError

    # Untraced and traced iterations alternate, so that their wall-time ratio,
    # the tracing overhead, compares iterations run under like conditions.
    tracer = Tracer()
    plain, iterations = [], []
    server: dict[str, list] = {}
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        gc.collect()
        plain.append(workload.iterate())
        workload.take_server_stats()
        gc.collect()
        install(tracer)
        try:
            iterations.append(workload.iterate())
        finally:
            tracer.restore()
        for key, values in workload.take_server_stats().items():
            server.setdefault(key, []).extend(values)
    n = len(iterations)
    scope = Scope(sweeps=n, pairs=sum(i.pairs for i in iterations),
                  reports=n * len(workload.reports),
                  report_chars=n * sum(len(r.text) for r in workload.reports),
                  parallelism=PARALLELISM)
    metrics = layer_metrics(tracer, server, scope)
    del tracer
    fallback, baseline = probe(work, seed)
    for name, value in metrics.items():
        if value is None:
            metrics[name] = fallback[name]
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise BenchError(f"no measurement for {missing}")
    metrics["mock_server.index_build_s"] = statistics.median(s["index_build_s"] for s in setups)
    metrics["corpus.generate_s"] = statistics.median(s["corpus_s"] for s in setups)
    # The report step runs on one CPU, so its time follows that CPU's speed
    # swings too closely for a bound; it is reported here, untraced.
    metrics["sweep.report_ms"] = statistics.median(i.report_s for i in plain) * 1e3
    metrics["trace.wall_ratio"] = (statistics.median(i.sweep_s + i.report_s for i in iterations)
                                   / statistics.median(i.sweep_s + i.report_s for i in plain))
    metrics.update(baseline)
    return metrics, plain + iterations


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": sha}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result and the machine to this JSON file")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the mock process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "reportex").is_dir():
        print(f"perfbench: no reportex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        setups = [workload.setup() for _ in range(SETUPS)]
        # One untimed iteration, its outputs checked, so that the timed ones
        # start with the mock, the connections and the interpreter warm.
        workload.iterate()
        gc.collect()
        steal, total = cpu_ticks()
        if args.trace:
            metrics, iterations = per_layer(workload, setups, args.seconds, work, args.seed)
        else:
            metrics, iterations = end_to_end(workload, setups, args.seconds)
        # CPU time the hypervisor gave to other guests: a noise diagnostic, not a metric
        steal, total = (now - then for now, then in zip(cpu_ticks(), (steal, total)))
        steal_share = steal / total if total else 0.0
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(i.pairs for i in iterations)
    failed = sum(i.failed for i in iterations)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload:18s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:18s} {'failed_ratio':42s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} pairs, {len(iterations)} iterations)")
    if not args.trace:
        report_s = statistics.median(i.report_s for i in iterations)
        print(f"{args.workload:18s} {'report_s':42s} {report_s:14.6g} s (per layer: sweep.report_ms)")
    print(f"{args.workload:18s} {'cpu_steal_share':42s} {steal_share:14.6g} ratio (diagnostic)")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "iterations": len(iterations), "cpu_steal_share": steal_share,
            "wall_s": time.perf_counter() - started, "machine": machine(), "result": result,
        }, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
