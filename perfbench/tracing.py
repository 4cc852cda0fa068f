"""In-memory span tracer that wraps module and class attributes from outside.

A span is (name, start, end, span_id, parent_id, note). Parents come from a
per-thread stack, so spans opened by one call chain nest; spans in worker
threads have no parent in the calling thread. `note` is a small dict a wrapper
may attach from the call's arguments and result.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    note: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


Note = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append(Span(name, start, end, span_id, parent,
                              note(args, kwargs, result) if note else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, note: Note | None = None) -> None:
        """Replace owner.attr (a module global, method, classmethod or property)
        with a traced version; restore() puts the original back."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, note))
        elif isinstance(raw, property):
            new = property(self.wrap(raw.fget, name, note))
        else:
            new = self.wrap(raw, name, note)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the time covered by its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.duration
        return {s.span_id: s.duration - child_time[s.span_id] for s in self.spans}
