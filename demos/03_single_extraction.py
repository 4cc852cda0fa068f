"""Run single reports through the full pipeline against the mock model server:
context selection, prompt construction, the HTTP wire protocol, and
postprocessing of raw completions back to validated labels."""

from reportex.corpus import RADIOLOGY_SCHEMA, Task, default_corpus_spec, generate_synthetic_corpus
from reportex.mock_server import MockLmServer, MockMode, MockModel
from reportex.postprocess import parse_label
from reportex.prompting import FewShot, PromptStrategy, PromptStyle, build_prompt
from reportex.retrieval import MockHashEmbedder, RetrievalSettings, TokenOverlapReranker, select_context
from reportex.sweep import PipelineBackends, PipelineConfig, extract_one

reports, annotations = generate_synthetic_corpus(default_corpus_spec(Task.RADIOLOGY, 50, seed=13))
gold = {a.report_id: a.label for a in annotations}
report = next(r for r in reports if gold[r.id] not in ("NR",))

config = PipelineConfig(
    model_name="mock-8b",
    prompt=PromptStrategy(PromptStyle.COMPLEX, FewShot.POSITIVE_AND_NEGATIVE, True),
    json_mode=True,
    retrieval=RetrievalSettings(mode="off"),
)

ctx = select_context(report, RADIOLOGY_SCHEMA, config.retrieval,
                     MockHashEmbedder(), TokenOverlapReranker())
prompt = build_prompt(ctx, RADIOLOGY_SCHEMA, config.prompt)
print("=== rendered prompt (truncated) ===")
print(prompt[:600] + " ...\n")

model = MockModel(MockMode.ORACLE, gold, RADIOLOGY_SCHEMA, reports)
with MockLmServer(model) as server:
    backends = PipelineBackends.remote(server.endpoint)
    record = extract_one(report, RADIOLOGY_SCHEMA, config, backends, no_timestamps=True)
    print("=== oracle server over HTTP ===")
    print(f"gold={gold[report.id]} raw={record.raw_output!r} parsed={record.parsed.label}")

    # a garbage-mode server returns prose; postprocessing defaults to invalid
    garbage = MockModel(MockMode.GARBAGE, gold, RADIOLOGY_SCHEMA, reports)
    with MockLmServer(garbage) as bad_server:
        bad = extract_one(report, RADIOLOGY_SCHEMA, config,
                          PipelineBackends.remote(bad_server.endpoint), no_timestamps=True)
        print("\n=== garbage server: invalid is data, not an error ===")
        print(f"raw={bad.raw_output!r}")
        print(f"parsed valid={bad.parsed.is_valid} reason={bad.parsed.reason.value}")

print("\n=== postprocessing recovers labels from noisy completions ===")
for raw in [
    '{"score": "3b"}',
    "```json\n{'score': '3b'}\n```",
    'Sure thing! {"score": "BT-RADS 3b"} Let me know if you need more.',
    '{"score": null}',
    "I cannot determine the score.",
]:
    parsed = parse_label(raw, RADIOLOGY_SCHEMA)
    outcome = parsed.label if parsed.is_valid else f"INVALID ({parsed.reason.value})"
    print(f"  {raw[:58]!r:60s} -> {outcome}")
