"""Recover a validated categorical label from arbitrary raw model output.

Every function here is total: malformed input maps to an Invalid reason,
never an exception. The JSON payload of a completion is the object that the
standard-library decoder parses from the first "{" where it can parse one.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

from .corpus import LabelSchema, Task


class InvalidReason(str, Enum):
    NO_JSON = "no_json"
    WRONG_KEY = "wrong_key"
    NULL_VALUE = "null_value"
    NOT_IN_SCHEMA = "not_in_schema"
    EMPTY = "empty"


@dataclass(frozen=True)
class ParsedLabel:
    label: str | None
    reason: InvalidReason | None = None
    alt_key: str | None = None  # set when the label was recovered from a non-answer key

    @property
    def is_valid(self) -> bool:
        return self.label is not None

    @classmethod
    def valid(cls, label: str, alt_key: str | None = None) -> "ParsedLabel":
        return cls(label=label, reason=None, alt_key=alt_key)

    @classmethod
    def invalid(cls, reason: InvalidReason) -> "ParsedLabel":
        return cls(label=None, reason=reason)

    def to_dict(self) -> dict:
        d: dict = {"label": self.label}
        if self.reason is not None:
            d["reason"] = self.reason.value
        if self.alt_key is not None:
            d["alt_key"] = self.alt_key
        return d


_FENCE_RE = re.compile(r"```[a-zA-Z]*")
_CURLY_QUOTES = str.maketrans({"“": '"', "”": '"', "„": '"', "‘": "'", "’": "'", "‚": "'"})
_SINGLE_QUOTED_RE = re.compile(r"([\{\[,:]\s*)'([^']*)'(?=\s*[:,\}\]])")


def clean_artifacts(raw: str) -> str:
    """Remove newline/whitespace artifacts, code fences, and nonstandard quoting.

    Idempotent. Single-quoted strings are rewritten to double quotes only in
    JSON-syntax positions, so prose apostrophes survive.
    """
    s = _FENCE_RE.sub(" ", raw)
    s = s.translate(_CURLY_QUOTES)
    s = " ".join(s.split())
    s = _SINGLE_QUOTED_RE.sub(r'\1"\2"', s)
    return s


_DECODER = json.JSONDecoder()


def _first_object(cleaned: str) -> tuple[dict, int, int] | None:
    """The first JSON object in cleaned with its [start, end) span, or None.

    A "{" where the decoder fails (bad syntax, an over-long integer, nesting
    past the recursion limit) starts no object, and neither does one after the
    last "}", so the scan stops there.
    """
    last = cleaned.rfind("}")
    start = cleaned.find("{", 0, max(last, 0))
    while start != -1:
        try:
            obj, end = _DECODER.raw_decode(cleaned, start)
            return obj, start, end
        except (ValueError, RecursionError):
            start = cleaned.find("{", start + 1, last)
    return None


@lru_cache(maxsize=None)
def _alias_table(task: Task) -> dict[str, str]:
    data = json.loads(
        resources.files("reportex.data").joinpath("canonicalization.json").read_text("utf-8")
    )
    return data[task.value]


_STRIP_CHARS = string.whitespace + ".,;:!?\"'()[]<>*_"


def canonicalize_value(value: str, schema: LabelSchema) -> str | None:
    """Map a raw string to a schema label, or None when it cannot be canonicalized."""
    s = value.strip(_STRIP_CHARS).casefold()
    for prefix in ("bt-rads", "btrads", "bt rads"):
        if s.startswith(prefix):
            s = s[len(prefix) :].strip(_STRIP_CHARS)
            break
    s = _alias_table(schema.task).get(s, s)
    return schema.folded_lookup().get(s.strip().casefold())


def _stringify(value) -> str | None:
    """Coerce scalar JSON values to text for canonicalization; None if impossible."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else str(value)
    return None


def parse_label(raw: str, schema: LabelSchema) -> ParsedLabel:
    """Full postprocessing pipeline: clean, extract JSON, read the answer key, validate.

    Total over arbitrary input strings; every failure mode maps to an
    InvalidReason rather than an exception.
    """
    if not isinstance(raw, str) or not raw.strip():
        return ParsedLabel.invalid(InvalidReason.EMPTY)
    cleaned = clean_artifacts(raw)
    found = _first_object(cleaned)
    if found is None:
        return ParsedLabel.invalid(InvalidReason.NO_JSON)
    obj = found[0]

    alt_key = None
    if schema.answer_key in obj:
        value = obj[schema.answer_key]
    else:
        # Recovery rule: accept a lone string-valued field whose value
        # canonicalizes into the schema; anything else is a wrong key.
        candidates = [(k, v) for k, v in obj.items() if isinstance(v, str)]
        if len(candidates) == 1 and canonicalize_value(candidates[0][1], schema) is not None:
            alt_key, value = candidates[0]
        else:
            return ParsedLabel.invalid(InvalidReason.WRONG_KEY)

    if value is None:
        return ParsedLabel.invalid(InvalidReason.NULL_VALUE)
    text = _stringify(value)
    if text is None:
        return ParsedLabel.invalid(InvalidReason.NOT_IN_SCHEMA)
    if not text.strip(_STRIP_CHARS):
        return ParsedLabel.invalid(InvalidReason.EMPTY)
    label = canonicalize_value(text, schema)
    if label is None:
        return ParsedLabel.invalid(InvalidReason.NOT_IN_SCHEMA)
    return ParsedLabel.valid(label, alt_key=alt_key)


def load_noise_wrappers() -> list[dict]:
    """The documented recoverable noise-wrapper corpus (shared by tests and docs)."""
    data = json.loads(
        resources.files("reportex.data").joinpath("noise_wrappers.json").read_text("utf-8")
    )
    return data["wrappers"]


def render_wrapped(wrapper: dict, answer_key: str, label: str) -> str:
    """Render a noise wrapper around a JSON answer payload for the given label."""
    quote = wrapper.get("quote", "double")
    q = {"double": '"', "single": "'", "curly": None}[quote]
    if quote == "curly":
        payload = f"{{“{answer_key}”: “{label}”}}"
    else:
        payload = f"{{{q}{answer_key}{q}: {q}{label}{q}}}"
    if wrapper.get("spread"):
        payload = payload.replace(": ", ":\n  ").replace("{", "{\n  ").replace("}", "\n}")
    return wrapper.get("prefix", "") + payload + wrapper.get("suffix", "")
