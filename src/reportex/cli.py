"""Command-line entry point: corpus generation, single extraction, sweeps, reports.

Exit codes: 0 success, 2 usage error, a malformed or invalid input file or an
output path that cannot be written (a store that fails partway through a sweep
included), 3 backend error, 4 incomplete data, 141 a closed stdout (quietly, as a
process that SIGPIPE ended). An invalid extraction is data, not a failure
(exit 0); `extract` exits 3 when the pair failed, that is when its record
carries an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import sweep as sweep_mod
from .corpus import CorpusError, CorpusSpec, default_corpus_spec, load_corpus, load_schema, make_report
from .inputs import check_object, dataclass_fields
from .lm_client import LmClientError
from .metrics import INVALID_LABEL, MetricsError
from .prompting import PromptError, check_strategies
from .sweep import (
    MissingRecordsError,
    PipelineBackends,
    PipelineConfig,
    ResultStore,
    StoreCorruptError,
    SweepError,
    SweepGrid,
    enumerate_configs,
    extract_one,
    run_sweep,
    sample_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INCOMPLETE = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


@contextmanager
def _writing(path: str):
    """Reword an OSError from writing the output file `path` to name it."""
    try:
        yield
    except OSError as e:
        raise OSError(f"{path}: cannot write ({e.strerror or e})") from e


# A spec file names the task; each other CorpusSpec field it sets overrides
# the task's default. A `comment` is ignored, and any other key is refused.
_SPEC_FIELDS = (*((name, kind, name == "task") for name, kind, _ in dataclass_fields(CorpusSpec)),
                ("comment", str, False))


def cmd_generate_corpus(args) -> int:
    try:
        given = check_object(json.loads(Path(args.spec).read_text(encoding="utf-8")),
                             _SPEC_FIELDS, "spec", closed=True)
        given.pop("comment", None)
        if args.seed is not None:
            given["seed"] = args.seed
        spec = replace(default_corpus_spec(given["task"], n_reports=1000, seed=0), **given)
        reports, annotations = corpus_mod.generate_synthetic_corpus(spec)
    except (OSError, ValueError) as e:
        raise CorpusError(f"{args.spec}: invalid corpus spec ({e})") from e
    with _writing(args.out):
        corpus_mod.save_corpus(args.out, reports, annotations)
    counts = Counter(a.label for a in annotations)
    print(f"wrote {len(reports)} reports to {args.out}")
    for label in sorted(counts):
        print(f"  {label}: {counts[label]} ({counts[label] / len(reports):.2%})")
    return EXIT_OK


# A report given as a JSON object; its `task`, which defaults to the
# schema's, must be the schema's.
_REPORT_FIELDS = (("id", str, False), ("task", str, False), ("text", str, True))


def _read_report(path_or_dash: str, schema) -> corpus_mod.Report:
    """The report an input that is a JSON object holds, else the whole input as text."""
    try:
        text = sys.stdin.read() if path_or_dash == "-" else Path(path_or_dash).read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
        if not isinstance(obj, dict):
            return make_report("stdin", schema.task, text)
        obj = check_object(obj, _REPORT_FIELDS)
        report = make_report(obj.get("id", "stdin"), obj.get("task", schema.task), obj["text"])
        if report.task is not schema.task:
            raise CorpusError(f"report task {report.task.value!r} is not the schema's "
                              f"task {schema.task.value!r}")
        return report
    except ValueError as e:
        raise CorpusError(f"{path_or_dash}: {e}") from e


def cmd_extract(args) -> int:
    schema = load_schema(args.schema)
    try:
        config = PipelineConfig.from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    except ValueError as e:  # the config file is not UTF-8, JSON or a pipeline config
        raise SweepError(f"{args.config}: {e}") from e
    report = _read_report(args.report, schema)
    backends = PipelineBackends.remote(args.endpoint)
    check_strategies(schema, [config.prompt])
    record = extract_one(report, schema, config, backends)
    if record.error is not None:  # a server's error body may span lines
        return _fail(EXIT_BACKEND, " ".join(record.error.splitlines()))
    out = {
        "report_id": record.report_id,
        "label": record.parsed.label if record.parsed.is_valid else INVALID_LABEL,
        "rag_used": record.rag_used,
    }
    if not record.parsed.is_valid:
        out["invalid_reason"] = record.parsed.reason.value
    if args.show_raw:
        out["raw_output"] = record.raw_output
    print(json.dumps(out, ensure_ascii=False))
    return EXIT_OK


def _load_inputs(args):
    schema = load_schema(args.schema)
    reports, annotations = load_corpus(args.corpus)
    grid = SweepGrid.from_file(args.grid)
    try:
        configs = enumerate_configs(grid)  # checks each axis value as its config field
    except SweepError as e:
        raise SweepError(f"{args.grid}: {e}") from e
    return schema, reports, annotations, grid, configs


def cmd_sweep(args) -> int:
    schema, reports, _, grid, configs = _load_inputs(args)
    if grid.sample_n is not None:
        seed = args.seed if args.seed is not None else grid.sample_seed
        reports = sample_reports(reports, grid.sample_n, seed)
    elif args.seed is not None:
        raise SweepError(f"{args.grid}: --seed overrides the grid's sample seed, "
                         "but the grid has no sample")
    backends = PipelineBackends.remote(args.endpoint)
    total = len(reports) * len(configs)
    print(f"sweeping {len(configs)} configs over {len(reports)} reports "
          f"({total} pairs) -> {args.store}")

    def progress(done: int, pending: int) -> None:
        if done % 50 == 0 or done == pending:
            print(f"  {done}/{pending} new records", file=sys.stderr)

    # run_sweep refuses a store that cannot take appends before any pair, as a
    # SweepError; an OSError it raises later is an append that failed partway.
    with _writing(args.store):
        store = run_sweep(reports, configs, None, args.store, schema,
                          parallelism=args.parallelism, backends=backends,
                          no_timestamps=args.no_timestamps, progress=progress)
    print(f"store complete: {len(store)} records")
    return EXIT_OK


def cmd_report(args) -> int:
    schema, reports, annotations, grid, configs = _load_inputs(args)
    store = ResultStore.open(args.store)
    gold = {a.report_id: a.label for a in annotations}
    result = sweep_mod.aggregate(store, gold, schema, configs,
                                 compare_axes=tuple(args.compare or ()))

    comparisons = json.dumps(result.comparisons_json(), indent=2) + "\n"
    for path, text in ((args.csv, result.to_csv()), (args.json, comparisons)):
        if not path:
            print(text, end="")
            continue
        with _writing(path):
            Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}")

    print(f"\ntop {min(args.top, len(result.rows))} configurations by accuracy, then macro F1:")
    header = f"{'config':18s} {'model':22s} {'accuracy':>9s} {'macro_f1':>9s}"
    print(header)
    for config, report in result.rows[: args.top]:
        print(f"{config.config_hash:18s} {config.model_name:22s} "
              f"{report.accuracy:9.4f} {report.macro_f1:9.4f}")
    return EXIT_OK


def count(text: str) -> int:
    """An argparse type: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reportex",
        description="Extract categorical datapoints from diagnostic reports with a "
                    "local model server; benchmark configurations against gold labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-corpus", help="write a synthetic labeled corpus")
    p.add_argument("--spec", required=True, help="corpus spec JSON file")
    p.add_argument("--out", required=True, help="output corpus JSONL path")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_generate_corpus)

    p = sub.add_parser("extract", help="run one report through the pipeline")
    p.add_argument("report", help="report file (JSON or raw text), or - for stdin")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--schema", required=True, help="label schema JSON file")
    p.add_argument("--endpoint", default=None, help="model server endpoint")
    p.add_argument("--show-raw", action="store_true", help="include raw model output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", help="run or resume a configuration sweep")
    p.add_argument("--grid", required=True, help="sweep grid JSON file")
    p.add_argument("--corpus", required=True, help="corpus JSONL file")
    p.add_argument("--schema", required=True, help="label schema JSON file")
    p.add_argument("--store", required=True, help="result store JSONL path")
    p.add_argument("--endpoint", default=None, help="model server endpoint")
    p.add_argument("--parallelism", type=int, default=4, help="max in-flight generations")
    p.add_argument("--seed", type=int, default=None, help="override the grid sample seed")
    p.add_argument("--no-timestamps", action="store_true", help="zero volatile fields")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate a sweep store into tables and comparisons")
    p.add_argument("--store", required=True, help="result store JSONL path")
    p.add_argument("--corpus", required=True, help="corpus JSONL file with gold labels")
    p.add_argument("--schema", required=True, help="label schema JSON file")
    p.add_argument("--grid", required=True, help="sweep grid JSON file (names the configs)")
    p.add_argument("--csv", default=None, help="write the metric table CSV here")
    p.add_argument("--json", default=None, help="write the comparisons JSON here")
    p.add_argument("--top", type=count, default=10, help="rows in the plain-text table")
    p.add_argument("--compare", action="append", default=None,
                   help="binary config axis to compare (repeatable), e.g. retrieval.mode")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one place that maps a refused input or a failed store to its exit code;
    # a command that rewords an error raises the reworded one.
    try:
        return args.func(args)
    except MissingRecordsError as e:
        return _fail(EXIT_INCOMPLETE, str(e))
    except BrokenPipeError:  # a closed stdout is not an output path: entry() ends on it
        raise
    except (OSError, CorpusError, SweepError, StoreCorruptError, PromptError, LmClientError,
            MetricsError) as e:  # MetricsError: a corpus or store label outside the schema
        return _fail(EXIT_CONFIG, str(e))


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # buffered output to a closed pipe fails only here
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit, and would print a second
        # BrokenPipeError; see the note on SIGPIPE in the signal module's docs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE, as a shell reports a process that signal ended
    sys.exit(code)


if __name__ == "__main__":
    entry()
