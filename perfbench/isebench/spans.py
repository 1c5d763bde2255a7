"""In-memory spans around the benchmark's calls into the library.

A span records its name, start and end (``time.perf_counter`` seconds), its
parent span, and an operation id that every span of one operation shares
(one algorithm call, one service job).  Spans stay in memory and are written
out as JSONL once the run ends, so recording one costs a list append.  A
disabled recorder still times each span — end-to-end numbers and spans read
the same clock — but keeps nothing.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path


class Span:
    """Context manager timing one call; ``seconds`` is valid after exit."""

    __slots__ = ("_recorder", "_record", "start", "end")

    def __init__(self, recorder: SpanRecorder | None, record: dict | None):
        self._recorder = recorder
        self._record = record
        self.start = self.end = 0.0

    def __enter__(self) -> Span:
        if self._recorder is not None:
            stack = self._recorder._stack
            self._record["parent"] = stack[-1] if stack else None
            stack.append(self._record["id"])
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.end = time.perf_counter()
        if self._recorder is not None:
            self._recorder._stack.pop()
            self._record.update(start=self.start, end=self.end)
            if exc_type is not None:
                self._record["error"] = exc_type.__name__
            self._recorder.records.append(self._record)
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans when *enabled*; otherwise its spans only time."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, op: str | None = None, **attrs) -> Span:
        if not self.enabled:
            return Span(None, None)
        return Span(self, {"id": next(self._ids), "name": name, "op": op, **attrs})

    def add(self, name: str, start: float, end: float, op: str | None = None, **attrs) -> None:
        """Record a span timed elsewhere (a set-up child process)."""
        if self.enabled:
            self.records.append(
                {"id": next(self._ids), "name": name, "op": op, "parent": None,
                 "start": start, "end": end, **attrs}
            )

    def seconds(self, name: str, **match) -> list[float]:
        """Durations of the spans called *name* whose attributes match."""
        return [
            record["end"] - record["start"]
            for record in self.records
            if record["name"] == name
            and all(record.get(key) == value for key, value in match.items())
        ]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
