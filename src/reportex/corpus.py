"""Report data model, text normalization, synthetic corpus generation, persistence.

The built-in label schemas RADIOLOGY_SCHEMA and PATHOLOGY_SCHEMA are the
shipped files data/radiology_schema.json and data/pathology_schema.json,
loaded at import.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .inputs import InputError, check_object, dataclass_fields, from_json


class CorpusError(ValueError):
    """Invalid corpus spec, schema, or corpus file."""


class Task(str, Enum):
    RADIOLOGY = "radiology"
    PATHOLOGY = "pathology"


def normalize_text(raw: str) -> str:
    """Collapse all whitespace runs (including newlines) to single spaces and strip.

    Idempotent; preserves every non-whitespace character in order. Newlines after
    a sentence-ending period and mid-sentence newlines both become one space, so
    the result is a single newline-free paragraph.
    """
    return " ".join(raw.split())


def _check_fields(obj, **json_form) -> None:
    """Set a frozen dataclass's `task` to its Task, then check its fields as
    their JSON form is checked; `json_form` gives a field's JSON value where it
    is not the field itself. An unknown task or a mismatch is a CorpusError."""
    try:
        object.__setattr__(obj, "task", Task(obj.task))
    except ValueError:
        raise CorpusError(f"unknown task {obj.task!r}") from None
    try:
        check_object({**vars(obj), **json_form}, dataclass_fields(type(obj)))
    except InputError as e:
        raise CorpusError(str(e)) from e


@dataclass(frozen=True)
class Report:
    id: str
    task: Task
    text: str

    def __post_init__(self):
        _check_fields(self)
        if not self.id:
            raise CorpusError("report id must be nonempty")
        if "\n" in self.text or "\r" in self.text:
            raise CorpusError(f"report {self.id}: text contains newline characters")

    @property
    def word_count(self) -> int:
        return len(self.text.split())


def make_report(report_id: str, task: Task, raw_text: str) -> Report:
    """Build a Report from raw text, normalizing whitespace."""
    return Report(id=report_id, task=task, text=normalize_text(raw_text))


@dataclass(frozen=True)
class GoldAnnotation:
    report_id: str
    label: str


# The pseudo-class invalid predictions are tallied as; no schema label may fold to it.
INVALID_LABEL = "INVALID"


@dataclass(frozen=True)
class LabelSchema:
    task: Task
    valid_labels: tuple[str, ...]
    nr_label: str
    answer_key: str
    retrieval_keywords: str

    def __post_init__(self):
        labels = self.valid_labels
        _check_fields(self, valid_labels=list(labels) if isinstance(labels, tuple) else labels)
        object.__setattr__(self, "valid_labels", tuple(labels))
        if not self.answer_key:
            raise CorpusError("answer_key must be nonempty")
        folded = {l.strip().casefold(): l for l in self.valid_labels}
        if len(folded) != len(self.valid_labels):
            raise CorpusError("valid_labels must be unique after case-folding/trimming")
        if INVALID_LABEL.casefold() in folded:
            raise CorpusError(f"valid_labels must not fold to {INVALID_LABEL}, the invalid-output class")
        if self.nr_label not in self.valid_labels:
            raise CorpusError(f"nr_label {self.nr_label!r} not in valid_labels")
        object.__setattr__(self, "_folded", folded)

    def folded_lookup(self) -> dict[str, str]:
        """Map case-folded label text to the canonical spelling; one shared table, read-only."""
        return self._folded


def save_schema(path, schema: LabelSchema) -> None:
    Path(path).write_text(json.dumps(asdict(schema), indent=2) + "\n", encoding="utf-8")


def load_schema(path) -> LabelSchema:
    try:
        return from_json(LabelSchema, json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as e:
        raise CorpusError(f"{path}: invalid schema file ({e})") from e


RADIOLOGY_SCHEMA = load_schema(resources.files("reportex.data") / "radiology_schema.json")
PATHOLOGY_SCHEMA = load_schema(resources.files("reportex.data") / "pathology_schema.json")
BUILTIN_SCHEMAS = {Task.RADIOLOGY: RADIOLOGY_SCHEMA, Task.PATHOLOGY: PATHOLOGY_SCHEMA}

# Reference class distributions for the two tasks. The radiology percentages are
# published rounded and sum to 1.0001; CorpusSpec renormalizes internally.
RADIOLOGY_DISTRIBUTION = {
    "1": 0.0007, "1a": 0.0280, "1b": 0.0170, "2": 0.1174, "2a": 0.0154,
    "2b": 0.0014, "3": 0.0121, "3a": 0.0064, "3b": 0.0400, "3c": 0.0529,
    "4": 0.0511, "NR": 0.6577,
}
PATHOLOGY_DISTRIBUTION = {"positive": 0.0715, "negative": 0.7238, "NR": 0.2047}

_DISTRIBUTION_SUM_TOL = 5e-3


@dataclass(frozen=True)
class CorpusSpec:
    task: Task
    n_reports: int
    class_distribution: dict[str, float]
    length_mean_words: float
    length_sd_words: float
    distractor_rate: float
    seed: int

    def __post_init__(self):
        _check_fields(self)
        if self.n_reports < 1:
            raise CorpusError("n_reports must be >= 1")
        if self.length_mean_words <= 0 or self.length_sd_words <= 0:
            raise CorpusError("length parameters must be positive")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise CorpusError("distractor_rate must be in [0, 1]")
        if any(p < 0 for p in self.class_distribution.values()):
            raise CorpusError("class probabilities must be nonnegative")
        total = sum(self.class_distribution.values())
        if abs(total - 1.0) > _DISTRIBUTION_SUM_TOL:
            raise CorpusError(f"class distribution sums to {total}, expected 1")

    def normalized_distribution(self) -> dict[str, float]:
        total = sum(self.class_distribution.values())
        return {k: v / total for k, v in self.class_distribution.items()}


def default_corpus_spec(task: Task, n_reports: int, seed: int) -> CorpusSpec:
    """Spec parameterized from the reference datasets for the given task."""
    task = Task(task)
    if task is Task.RADIOLOGY:
        return CorpusSpec(task, n_reports, dict(RADIOLOGY_DISTRIBUTION), 265.0, 66.0, 0.1, seed)
    return CorpusSpec(task, n_reports, dict(PATHOLOGY_DISTRIBUTION), 2504.0, 2563.0, 0.5, seed)


# Filler vocabularies deliberately exclude the retrieval keywords and the words
# used by the answer/distractor sentence templates, so keyword retrieval and the
# mock backend's text matching stay unambiguous on synthetic corpora.
_RADIOLOGY_VOCAB = (
    "signal", "lesion", "margin", "stable", "examination", "contrast", "axial",
    "sequence", "imaging", "region", "frontal", "parietal", "temporal", "occipital",
    "white", "matter", "ventricle", "midline", "cavity", "resection", "gliosis",
    "edema", "restricted", "diffusion", "flair", "hyperintensity", "postsurgical",
    "unchanged", "craniotomy", "enhancement", "periventricular", "subcortical",
    "foci", "chronic", "blood", "products", "susceptibility", "artifact",
    "interval", "comparison", "prior", "study", "demonstrates", "without",
    "residual", "mass", "effect", "sulci", "cisterns", "patent", "sinuses",
    "clear", "orbits", "unremarkable", "brainstem", "cerebellum", "hemisphere",
    "cortex", "volume", "loss", "encephalomalacia", "treated", "radiation",
    "changes", "dural", "thickening", "overlying", "scalp", "soft", "tissue",
)
_PATHOLOGY_VOCAB = (
    "specimen", "received", "formalin", "labeled", "fragments", "tumor", "cells",
    "atypical", "nuclei", "mitotic", "figures", "necrosis", "vascular",
    "proliferation", "infiltrating", "glioma", "astrocytic", "morphology",
    "immunostains", "performed", "index", "elevated", "gfap", "reactive",
    "chromatin", "cytoplasm", "eosinophilic", "sections", "show", "hypercellular",
    "pleomorphic", "hyperchromatic", "microvascular", "palisading", "consistent",
    "grade", "diagnosis", "comment", "molecular", "testing", "pending",
    "additional", "material", "submitted", "block", "frozen", "section",
    "intraoperative", "consultation", "permanent", "evaluation", "microscopic",
    "description", "gross", "tan-white", "soft", "measuring", "aggregate",
    "cassette", "entirely", "portions", "cerebral", "white-matter", "infiltrate",
)

_MAX_SENTENCE_CHARS = 66  # keeps every generated sentence inside one retrieval chunk


def answer_sentence(task: Task, label: str) -> str:
    """The templated sentence that embeds a gold label in a synthetic report."""
    task = Task(task)
    if task is Task.RADIOLOGY:
        return f"BT-RADS follow-up score: {label}."
    qualifier = "mutant" if label == "positive" else "wildtype"
    return f"IDH1/IDH2 mutation status: {label} ({qualifier} detected)."


def distractor_sentence(task: Task) -> str:
    """A mention of the target concept that does not carry the answer."""
    if Task(task) is Task.RADIOLOGY:
        return "The prior BT-RADS category was reviewed with the team."
    return "Immunohistochemistry for IDH was requested during review."


def _filler_sentences(getrandbits, vocab: tuple[str, ...], target_words: int) -> list[str]:
    """Filler sentences of 4 to 7 vocab words, until they hold target_words words.

    Each length and word is drawn from `getrandbits` by the rule of CPython's
    Random._randbelow, which rng.randint(4, 7) and rng.choice(vocab) apply:
    take k = n.bit_length() bits and draw again while the value is >= n. So
    the Mersenne Twister output is consumed exactly as those calls consume it.
    """
    n_vocab = len(vocab)
    k = n_vocab.bit_length()
    sentences: list[str] = []
    count = 0
    while count < target_words:
        extra = getrandbits(3)  # randint(4, 7) is 4 + _randbelow(4)
        while extra >= 4:
            extra = getrandbits(3)
        words = []
        for _ in range(4 + extra):
            i = getrandbits(k)
            while i >= n_vocab:
                i = getrandbits(k)
            words.append(vocab[i])
        body = " ".join(words)
        while len(body) + 1 > _MAX_SENTENCE_CHARS and len(words) > 2:
            words.pop()
            body = " ".join(words)
        sentences.append(words[0].capitalize() + body[len(words[0]):] + ".")
        count += len(words)
    return sentences


def generate_synthetic_corpus(spec: CorpusSpec) -> tuple[list[Report], list[GoldAnnotation]]:
    """Generate a labeled synthetic corpus, deterministic given spec.seed.

    Each report is a single paragraph of filler sentences. Non-NR reports embed
    the task's answer sentence at a random position; with probability
    distractor_rate a non-answer mention of the target concept is inserted.

    One random.Random(spec.seed) drives every draw. Per report: the label
    (rng.choices), the length target (rng.gauss, floored at 30 words), the
    filler sentences, then the answer and distractor positions (rng.randrange)
    and the distractor coin (rng.random). Filler lengths and words are drawn
    straight from rng.getrandbits under Random._randbelow's rejection rule
    (see _filler_sentences), which consumes the generator exactly as
    rng.randint(4, 7) and rng.choice(vocab) do. Corpora are therefore
    byte-identical to those of earlier versions for every spec and seed.
    """
    schema = BUILTIN_SCHEMAS[spec.task]
    unknown = set(spec.class_distribution) - set(schema.valid_labels)
    if unknown:
        raise CorpusError(f"distribution references labels outside the schema: {sorted(unknown)}")

    dist = spec.normalized_distribution()
    labels = sorted(dist)
    weights = [dist[l] for l in labels]
    vocab = _RADIOLOGY_VOCAB if spec.task is Task.RADIOLOGY else _PATHOLOGY_VOCAB
    prefix = "rad" if spec.task is Task.RADIOLOGY else "path"

    rng = random.Random(spec.seed)
    reports: list[Report] = []
    annotations: list[GoldAnnotation] = []
    for i in range(spec.n_reports):
        label = rng.choices(labels, weights)[0]
        target_words = max(30, round(rng.gauss(spec.length_mean_words, spec.length_sd_words)))
        sentences = _filler_sentences(rng.getrandbits, vocab, target_words)
        if label != schema.nr_label:
            sentences.insert(rng.randrange(len(sentences) + 1), answer_sentence(spec.task, label))
        if rng.random() < spec.distractor_rate:
            sentences.insert(rng.randrange(len(sentences) + 1), distractor_sentence(spec.task))
        # Single-spaced by construction: vocab words, labels and templates hold
        # no whitespace runs, so make_report's normalize_text would change nothing.
        report = Report(f"{prefix}-{i:06d}", schema.task, " ".join(sentences))
        reports.append(report)
        annotations.append(GoldAnnotation(report.id, label))
    return reports, annotations


def save_corpus(path, reports: list[Report], annotations: list[GoldAnnotation]) -> None:
    """Write a corpus as JSON lines: {"id", "task", "text", "label"?}."""
    labels = {a.report_id: a.label for a in annotations}
    seen: set[str] = set()
    lines = []
    for r in reports:
        if r.id in seen:
            raise CorpusError(f"duplicate report id {r.id!r}")
        seen.add(r.id)
        obj: dict = {"id": r.id, "task": r.task.value, "text": r.text}
        if r.id in labels:
            obj["label"] = labels[r.id]
        lines.append(json.dumps(obj, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


_CORPUS_LINE_FIELDS = (("id", str, True), ("task", Task, True), ("text", str, True),
                       ("label", str, False))


def load_corpus(path) -> tuple[list[Report], list[GoldAnnotation]]:
    """Load a JSONL corpus; errors cite the offending 1-based line number."""
    reports: list[Report] = []
    annotations: list[GoldAnnotation] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = check_object(json.loads(line.decode("utf-8")), _CORPUS_LINE_FIELDS)
                report = Report(id=obj["id"], task=obj["task"], text=obj["text"])
            except ValueError as e:
                raise CorpusError(f"{path}: line {lineno}: {e}") from e
            if report.id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate report id {report.id!r}")
            seen.add(report.id)
            reports.append(report)
            if "label" in obj:
                annotations.append(GoldAnnotation(report.id, obj["label"]))
    return reports, annotations
