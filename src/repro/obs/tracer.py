"""Lightweight hierarchical span tracing for the containment stack.

A *span* is one named, timed unit of work — a batch, one pair's pipeline
advancement, one block-LP chunk, one row-generation round — with a parent
span, free-form attributes, and monotonic-clock timing
(:func:`time.perf_counter`).  A :class:`Tracer` collects finished spans into
a flat list of picklable :class:`SpanRecord` objects; trees are rebuilt from
``(span_id, parent_id)`` by the summary tooling.

Tracing is strictly opt-in and built to cost nothing when off: the
instrumentation sites call the module-level helpers (:func:`span`,
:func:`start_span`), which check one process-global and fall straight
through when no tracer is active.  ``repro batch --trace FILE`` activates a
tracer around one batch and exports the spans as JSONL.

Threads
-------
Each thread keeps its own span stack (``threading.local``), so spans
opened on different threads (a daemon's connection handlers, say) nest
correctly without sharing state; a span may also name an explicit
``parent`` span id to attach under work that is not on the stack (the
engine parents each advancement under its pair's span this way).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Union


@dataclass
class SpanRecord:
    """One finished span.  Picklable and JSON-ready.

    ``start`` is seconds since the tracer's epoch (its construction time on
    a monotonic clock); ``duration`` is the span's wall time.  ``attrs``
    values should be JSON-serializable scalars.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(record["span"]),
            parent_id=None if record.get("parent") is None else int(record["parent"]),
            name=str(record["name"]),
            start=float(record["start"]),
            duration=float(record["duration"]),
            attrs=dict(record.get("attrs") or {}),
        )


class Span:
    """A live (unfinished) span handle.

    Returned by :meth:`Tracer.start` / yielded by :meth:`Tracer.span`;
    :meth:`set` attaches attributes while the span is open, :meth:`finish`
    stamps the duration and files the record.  ``id`` is stable from the
    start, so children can reference the span before it finishes.
    """

    __slots__ = ("_tracer", "id", "parent_id", "name", "attrs", "_started", "_done")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: Optional[int],
                 name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._started = time.perf_counter()
        self._done = False

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs: object) -> None:
        if self._done:  # pragma: no cover - defensive; double finish is a bug
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        now = time.perf_counter()
        self._tracer._file(
            SpanRecord(
                span_id=self.id,
                parent_id=self.parent_id,
                name=self.name,
                start=self._started - self._tracer.epoch,
                duration=now - self._started,
                attrs=self.attrs,
            )
        )


class _NullSpan:
    """The do-nothing span handle returned while tracing is off."""

    __slots__ = ()
    id = None

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def finish(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; thread-safe; one per traced batch."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._next_id = 1
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _allocate(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _file(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def current_id(self) -> Optional[int]:
        """The calling thread's innermost open span id (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(
        self, name: str, parent: Optional[int] = None, **attrs: object
    ) -> Span:
        """Open a span *without* touching the thread's stack.

        Used for spans that do not nest on one stack (a batch's pair spans
        are all opened when the batch starts and each is finished when its
        result lands).  ``parent=None`` attaches under the calling thread's
        innermost open span, if any.
        """
        if parent is None:
            parent = self.current_id()
        return Span(self, self._allocate(), parent, name, dict(attrs))

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs: object):
        """Context-manager span, pushed on the calling thread's stack."""
        handle = self.start(name, parent=parent, **attrs)
        stack = self._stack()
        stack.append(handle.id)
        try:
            yield handle
        finally:
            stack.pop()
            handle.finish()

    def record(
        self,
        name: str,
        started: float,
        duration: float,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """File a span retrospectively from explicit timings.

        ``started`` is a :func:`time.perf_counter` stamp.  Used by hot loops
        (the row-generation rounds) that measure with two clock reads and
        only pay for span bookkeeping when the round is over — the no-trace
        path stays a single ``None`` check.  Returns the new span id.
        """
        if parent is None:
            parent = self.current_id()
        span_id = self._allocate()
        self._file(
            SpanRecord(
                span_id=span_id,
                parent_id=parent,
                name=name,
                start=started - self.epoch,
                duration=duration,
                attrs=dict(attrs),
            )
        )
        return span_id

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write one span per line; returns the number of spans written."""
        records = sorted(self.records(), key=lambda r: r.start)
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        for record in records:
            target.write(json.dumps(record.to_dict()) + "\n")
        return len(records)


def read_spans_jsonl(source: Union[str, IO[str], Iterable[str]]) -> List[SpanRecord]:
    """Load spans back from a ``--trace`` JSONL file (or line iterable).

    A line that is not a JSON span record raises :class:`ValueError` naming
    its line number.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_spans_jsonl(handle)
    records: List[SpanRecord] = []
    for number, line in enumerate(source, start=1):
        line = line.strip()
        if line:
            try:
                records.append(SpanRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"line {number} is not a JSON span record") from None
    return records


# --------------------------------------------------------------------- #
# The process-global active tracer (the instrumentation hook points)
# --------------------------------------------------------------------- #
_ACTIVE: Optional[Tracer] = None
_ACTIVE_LOCK = threading.Lock()


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global active tracer."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already active in this process")
        _ACTIVE = tracer
    return tracer


def deactivate() -> Optional[Tracer]:
    """Remove and return the active tracer (``None`` when none was active)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """``with tracing() as tracer:`` — activate for the block, always clean up."""
    tracer = tracer if tracer is not None else Tracer()
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()


@contextmanager
def span(name: str, parent: Optional[int] = None, **attrs: object):
    """A span on the active tracer; free no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        yield NULL_SPAN
        return
    with tracer.span(name, parent=parent, **attrs) as handle:
        yield handle


def start_span(
    name: str, parent: Optional[int] = None, **attrs: object
) -> Union[Span, _NullSpan]:
    """Open an unstacked span on the active tracer (no-op handle when off)."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.start(name, parent=parent, **attrs)


def record_span(
    name: str,
    started: float,
    duration: float,
    parent: Optional[int] = None,
    **attrs: object,
) -> None:
    """Retrospectively file a span on the active tracer (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.record(name, started, duration, parent=parent, **attrs)
