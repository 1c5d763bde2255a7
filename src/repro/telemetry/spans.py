"""Hierarchical span tracer with a JSONL event sink.

The tracer is deliberately zero-dependency (stdlib only) and built
around one hard requirement: when tracing is disabled, ``span(...)``
must cost essentially nothing.  The disabled path is a module-global
``None`` check followed by returning a shared no-op context-manager
singleton — no allocation, no clock read, no string formatting.

Event model (one JSON object per line):

    {"type": "span",   "name": ..., "ts": <epoch start>, "dur": <seconds>,
     "pid": ..., "tid": ..., "id": ..., "parent": <id|null>,
     "attrs": {...}, "error": <bool, only when true>}
    {"type": "event",  "name": ..., "ts": ..., "pid": ..., "tid": ...,
     "attrs": {...}}
    {"type": "metrics","scope": ..., "ts": ..., "pid": ..., "tid": ...,
     "values": {...}}

Spans are emitted on *exit* (they carry their duration), so a trace file
is an append-only log and concurrent writers never need coordination
beyond ``O_APPEND``.  Each flush issues a single ``os.write`` of whole
lines, which is atomic in practice for the sizes involved; the reader
side (``repro.telemetry.report``) tolerates torn or foreign lines.

Process model: the global tracer is configured from ``ISEGEN_TRACE`` at
import time (so library code traced under pytest needs no plumbing) or
explicitly via :func:`configure`.  Forked children (the default
``multiprocessing`` start method on Linux) inherit the tracer; an
``os.register_at_fork`` hook drops inherited buffers and per-thread span
stacks so events are neither duplicated nor parented across the process
boundary.  When the configured path is a *directory*, every process
writes its own ``trace-<host>-<pid>.jsonl`` instead of sharing one file.
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable

TRACE_ENV_VAR = "ISEGEN_TRACE"

_FLUSH_EVERY = 64


class _NoopSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class FileSink:
    """Append JSONL lines to a file opened with ``O_APPEND``.

    A single ``os.write`` per flush keeps concurrent writers (threads
    and processes sharing the same path) from interleaving mid-line in
    practice; the report reader drops torn lines regardless.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None

    def _ensure_open(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def write_lines(self, lines: list[str]) -> None:
        if not lines:
            return
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        os.write(self._ensure_open(), payload)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def forget(self) -> None:
        """Drop the inherited fd after fork without closing the parent's."""
        # The fd *object* is shared with the parent post-fork; closing it
        # here would be safe (fork dups the descriptor) but reopening in
        # the child keeps the append offsets independent of parent state.
        self._fd = None

    def describe(self) -> str:
        return str(self.path)


#: Lines per :class:`StorageSink` segment.
SEGMENT_LINES = 256


class StorageSink:
    """Write an event log through a ``StorageBackend`` in bounded segments.

    Object stores have no append, so every flush rewrites the open segment
    via ``put_atomic``.  The first :data:`SEGMENT_LINES` lines live at
    *key* itself (``host-a.jsonl``), each later run of that many at
    ``<stem>/<seq>.jsonl`` (``host-a/000001.jsonl``): a flush costs the
    same after ten thousand events as after one.  :func:`storage_logs`
    groups the segments back into logs.  The log doubles as a sweep
    worker's liveness beacon (its most recent event timestamp is the "last
    seen" age shown by ``sweep status --telemetry``).

    A sink owns its log: its first write drops the segments that an
    earlier sink of the same key left, as a rewrite of one blob would.
    """

    def __init__(self, backend: Any, key: str) -> None:
        self.backend = backend
        self.key = key
        self._stem, self._suffix = os.path.splitext(key)
        self._lines: list[str] = []
        self._segment: int | None = None  # None until the first write

    def _segment_key(self) -> str:
        if not self._segment:
            return self.key
        return f"{self._stem}/{self._segment:06d}{self._suffix}"

    def write_lines(self, lines: list[str]) -> None:
        if not lines:
            return
        if self._segment is None:
            self._segment = 0
            for stale in self.backend.list_keys(f"{self._stem}/"):
                self.backend.delete(stale)
        lines = list(lines)
        while lines:
            if len(self._lines) >= SEGMENT_LINES:
                self._segment += 1
                self._lines = []
            room = SEGMENT_LINES - len(self._lines)
            self._lines.extend(lines[:room])
            del lines[:room]
            payload = ("\n".join(self._lines) + "\n").encode("utf-8")
            self.backend.put_atomic(self._segment_key(), payload)

    def close(self) -> None:
        return None

    def forget(self) -> None:
        self._lines = []

    def describe(self) -> str:
        return f"storage:{self.key}"


def storage_logs(backend: Any) -> dict[str, list[str]]:
    """Map each ``.jsonl`` :class:`StorageSink` log on *backend* to its
    segment keys, oldest first.  A log written before segmenting is one
    segment."""
    logs: dict[str, list[str]] = {}
    for key in sorted(backend.list_keys()):
        if not key.endswith(".jsonl"):
            continue
        stem, _, segment = key.partition("/")
        if not segment:
            logs.setdefault(key, []).insert(0, key)
        elif "/" not in segment:
            logs.setdefault(f"{stem}.jsonl", []).append(key)
    return logs


class _Span:
    """Live span context manager; emits one record on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_id", "_parent", "_start_ts", "_start_pc")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any] | None) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        """Attach attributes to an already-open span."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        self._id = tracer._next_id()
        stack.append(self._id)
        self._start_ts = time.time()
        self._start_pc = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration = time.perf_counter() - self._start_pc
        tracer = self._tracer
        stack = tracer._stack()
        # Exception safety: unwind even if emit fails, and never mask the
        # caller's exception with our own bookkeeping.
        try:
            if stack and stack[-1] == self._id:
                stack.pop()
            elif self._id in stack:  # pragma: no cover - defensive
                stack.remove(self._id)
        finally:
            record: dict[str, Any] = {
                "type": "span",
                "name": self.name,
                "ts": round(self._start_ts, 6),
                "dur": round(duration, 9),
                "pid": tracer.pid,
                "tid": threading.get_ident(),
                "id": self._id,
                "parent": self._parent,
            }
            if self.attrs:
                record["attrs"] = self.attrs
            if exc_type is not None:
                record["error"] = True
            tracer.emit(record)
        return False


class Tracer:
    """Thread-safe span/metric recorder writing JSONL events to a sink."""

    def __init__(
        self,
        sink: FileSink | StorageSink,
        *,
        flush_every: int = _FLUSH_EVERY,
    ) -> None:
        self.sink = sink
        self.flush_every = max(1, int(flush_every))
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._pending: list[str] = []
        self._local = threading.local()
        self._id_counter = 0

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            # Namespace ids by (pid, tid) so merged multi-process files
            # never collide: the report keys parents by (pid, tid, id).
            return self._id_counter

    def span(self, name: str, attrs: dict[str, Any] | None = None) -> _Span:
        return _Span(self, name, attrs)

    # -- event emission ---------------------------------------------------

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=False, default=str)
        with self._lock:
            self._pending.append(line)
            if len(self._pending) >= self.flush_every:
                self._flush_locked()

    def event(self, name: str, **attrs: Any) -> None:
        self.emit(
            {
                "type": "event",
                "name": name,
                "ts": round(time.time(), 6),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
        )

    def emit_metrics(self, scope: str, values: dict[str, Any]) -> None:
        self.emit(
            {
                "type": "metrics",
                "scope": scope,
                "ts": round(time.time(), 6),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "values": values,
            }
        )

    # -- lifecycle --------------------------------------------------------

    def _flush_locked(self) -> None:
        pending, self._pending = self._pending, []
        try:
            self.sink.write_lines(pending)
        except OSError:  # pragma: no cover - sink gone at interpreter exit
            pass

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        self.flush()
        self.sink.close()

    def _after_fork(self) -> None:
        """Reset inherited state in a forked child."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._pending = []
        self._local = threading.local()
        self.sink.forget()


# ---------------------------------------------------------------------------
# Module-global tracer
# ---------------------------------------------------------------------------

_tracer: Tracer | None = None
_atexit_registered = False


def _resolve_sink(path: str | Path) -> FileSink:
    target = Path(path)
    if target.is_dir() or str(path).endswith(os.sep) or str(path).endswith("/"):
        host = socket.gethostname().split(".")[0]
        target = target / f"trace-{host}-{os.getpid()}.jsonl"
    return FileSink(target)


def configure(
    path: str | Path | None,
    *,
    flush_every: int = _FLUSH_EVERY,
    sink: FileSink | StorageSink | None = None,
) -> Tracer | None:
    """Install (or with ``path=None``, remove) the global tracer.

    ``path`` may be a file (shared by all processes via ``O_APPEND``) or
    a directory (one ``trace-<host>-<pid>.jsonl`` per process).
    """
    global _tracer, _atexit_registered
    previous = _tracer
    if previous is not None:
        previous.close()
    if path is None and sink is None:
        _tracer = None
        return None
    _tracer = Tracer(sink if sink is not None else _resolve_sink(path), flush_every=flush_every)
    if not _atexit_registered:
        atexit.register(_shutdown_at_exit)
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork_in_child)
        _atexit_registered = True
    return _tracer


def maybe_configure_from_env() -> Tracer | None:
    """Configure from ``ISEGEN_TRACE`` if set and not already configured."""
    if _tracer is not None:
        return _tracer
    target = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not target:
        return None
    return configure(target)


def _shutdown_at_exit() -> None:
    tracer = _tracer
    if tracer is not None:
        tracer.close()


def _after_fork_in_child() -> None:
    tracer = _tracer
    if tracer is not None:
        tracer._after_fork()


def shutdown() -> None:
    """Flush and remove the global tracer."""
    configure(None)


def flush() -> None:
    tracer = _tracer
    if tracer is not None:
        tracer.flush()


def tracing_enabled() -> bool:
    return _tracer is not None


def active_tracer() -> Tracer | None:
    return _tracer


def span(name: str, **attrs: Any) -> _Span | _NoopSpan:
    """Open a span under the global tracer; free no-op when disabled."""
    tracer = _tracer
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, attrs or None)


def event(name: str, **attrs: Any) -> None:
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, **attrs)


def clock() -> tuple[float, float]:
    """``(wall, perf_counter)`` pair for :func:`record_span` call sites."""
    return (time.time(), time.perf_counter())


def record_span(name: str, started: tuple[float, float], **attrs: Any) -> None:
    """Emit a completed span from a ``clock()`` pair taken at its start.

    For flat sequential phases (K-L passes, enumeration rounds) where a
    ``with`` block would force deep reindentation.  The span parents to
    whatever ``with telemetry.span(...)`` is currently open on this
    thread; spans opened *during* the phase parent to that enclosing
    span too (they cannot nest under a record_span).  No-op when
    disabled.
    """
    tracer = _tracer
    if tracer is None:
        return
    wall, perf = started
    stack = tracer._stack()
    record: dict[str, Any] = {
        "type": "span",
        "name": name,
        "ts": round(wall, 6),
        "dur": round(time.perf_counter() - perf, 9),
        "pid": tracer.pid,
        "tid": threading.get_ident(),
        "id": tracer._next_id(),
        "parent": stack[-1] if stack else None,
    }
    if attrs:
        record["attrs"] = attrs
    tracer.emit(record)


def emit_metrics(scope: str, values: dict[str, Any]) -> None:
    """Record a metrics snapshot event (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.emit_metrics(scope, values)


def emit_metrics_lazy(scope: str, producer: Callable[[], dict[str, Any]]) -> None:
    """Like :func:`emit_metrics` but only builds the mapping when enabled."""
    tracer = _tracer
    if tracer is not None:
        tracer.emit_metrics(scope, producer())


# Library code traced under a parent that exported ISEGEN_TRACE (CI's
# trace cell, pool children on spawn-based platforms) needs no explicit
# configure call: pick the env up at import time.
maybe_configure_from_env()
