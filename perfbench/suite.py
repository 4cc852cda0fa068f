"""Run every workload of BENCHMARK.json, one seed after another, and summarise.

    python3 perfbench/suite.py --seeds 1 2 3 [--trace-seeds 1] [--out perfbench/results/BENCH_x.json]

For each workload and seed it runs run.py untraced, then prints each
end-to-end metric's median and its spread: the distance between the first and
third quartile of the seeds' values, as a share of the median. Runs traced
with --trace-seeds give the per-layer metrics, the tracing overhead, and the
ROADMAP re-anchor baseline, compared figure by figure. --out writes all of it,
with the machine, as one results file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP re-anchor baseline (2 CPUs, Python 3.11.7, in-process MockHashEmbedder).
REANCHOR = {
    "baseline.select_context_ms.off": 0.001,
    "baseline.select_context_ms.dense": 1.53,
    "baseline.select_context_ms.hybrid": 1.77,
    "baseline.select_context_ms.sequential": 1.35,
    "baseline.build_prompt_us": 7.0,
    "baseline.complete_ms": 0.39,
    "baseline.parse_label_us": 12.0,
    "baseline.append_us": 96.0,
    "baseline.open_us_per_record": 7.5,
    "baseline.wire_generate_ms": 2.0,
}
FLAG_SHARE = 0.1  # a re-measured figure further than this from the re-anchor is flagged


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=work) as out:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                        "--out", out.name], check=True, stdout=subprocess.DEVNULL)
        return json.loads(Path(out.name).read_text())


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name, first in names.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "unit": first["unit"], "values": values}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[],
                        help="seeds of the traced runs")
    parser.add_argument("--out", help="write the results file here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    results: dict = {"seeds": args.seeds, "trace_seeds": args.trace_seeds,
                     "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        plain = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"end_to_end": summarise(plain),
                 "cpu_steal_share": [r["cpu_steal_share"] for r in plain]}
        results["machine"] = plain[0]["machine"]
        print(f"\n{workload}  ({len(args.seeds)} seeds, {seconds} s runs)")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            mark = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:24s} median {s['median']:12.6g} {s['unit']:6s} spread {s['spread']:.3f}"
                  f" (bound {bound}){mark}")
            print("    " + " ".join(f"{v:.4g}" for v in s["values"]))
        print("  cpu steal share: " + " ".join(f"{v:.3f}" for v in entry["cpu_steal_share"]))
        if args.trace_seeds:
            traced = [run(workload, seed, seconds, 1) for seed in args.trace_seeds]
            entry["per_layer"] = summarise(traced)
            entry["trace_overhead"] = {
                "iteration_wall_ratio": entry["per_layer"]["trace.wall_ratio"]["median"],
                "run_wall_s": {"untraced": statistics.median(r["wall_s"] for r in plain),
                               "traced": statistics.median(r["wall_s"] for r in traced)},
            }
            print(f"  tracing overhead: traced iteration wall / untraced = "
                  f"{entry['trace_overhead']['iteration_wall_ratio']:.3f}")
        results["workloads"][workload] = entry

    if args.trace_seeds:
        layers = [w["per_layer"] for w in results["workloads"].values()]
        comparison = {}
        print("\nROADMAP re-anchor baseline, re-measured (median over all traced runs):")
        for name, then in REANCHOR.items():
            now = statistics.median(v for lay in layers for v in lay[name]["values"])
            flagged = abs(now - then) > FLAG_SHARE * then
            comparison[name] = {"reanchor": then, "measured": now, "ratio": now / then,
                                "differs_by_more_than_a_tenth": flagged}
            print(f"  {name:40s} re-anchor {then:9.4g}  now {now:9.4g}  x{now / then:5.2f}"
                  f"{'  FLAG' if flagged else ''}")
        results["reanchor_comparison"] = comparison
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
