"""Lightweight operation tracing: nested spans, trace ring, slow-op log.

A :class:`Tracer` keeps one span stack per thread; ``tracer.span(name,
**tags)`` (or the module-level :func:`trace_span` on the default
tracer) opens a :class:`Span` timed with ``time.perf_counter``.  When a
*root* span closes it is appended to a bounded in-memory ring
(``tracer.recent()``) so the last N operations are always inspectable;
non-root spans attach to their parent, producing a nested timing tree::

    with trace_span("commit", op="batch"):
        with trace_span("wal_append"):
            ...
        with trace_span("apply"):
            ...

Because the stacks are thread-local, spans emitted concurrently from
committing writer threads and snapshot readers can never interleave
into each other's traces; the ring append is the only shared mutation
and happens under a lock.

A tracer constructed with ``slow_op_seconds=t`` emits one structured
line through ``logging.getLogger("repro.obs.trace")`` when a root span
exceeds the threshold -- the "why was that commit slow" breadcrumb,
with the per-child breakdown inline.  A disabled tracer hands out a
shared no-op span, mirroring the null-handle design of the metrics
registry.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "Span",
    "Tracer",
    "default_tracer",
    "set_default_tracer",
    "trace_span",
]

_LOGGER = logging.getLogger("repro.obs.trace")

_trace_ids = itertools.count(1)


class Span:
    """One timed operation, possibly with nested child spans."""

    __slots__ = ("name", "tags", "start", "end", "children",
                 "thread_id", "thread_name", "trace_id")

    def __init__(self, name: str, tags: Dict[str, object],
                 trace_id: Optional[int] = None) -> None:
        self.name = name
        self.tags = tags
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List[Span] = []
        current = threading.current_thread()
        self.thread_id = current.ident
        self.thread_name = current.name
        self.trace_id = trace_id

    @property
    def duration_s(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1000.0, 4),
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["thread"] = self.thread_name
        if self.children:
            record["children"] = [c.to_dict() for c in self.children]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_s * 1000.0:.3f}ms, "
                f"children={len(self.children)})")


class _SpanContext:
    """Context manager pairing a span with its tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)


class _NullSpanContext:
    """Shared no-op: resolved once at wiring time on a disabled tracer."""

    __slots__ = ()
    span = None

    def __call__(self, name: str, **tags) -> "_NullSpanContext":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Per-thread span stacks feeding a bounded ring of recent traces."""

    def __init__(
        self,
        ring_size: int = 256,
        slow_op_seconds: Optional[float] = None,
        logger: Optional[logging.Logger] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.slow_op_seconds = slow_op_seconds
        self._logger = logger or _LOGGER
        self._local = threading.local()
        self._ring: deque = deque(maxlen=ring_size)
        self._ring_lock = threading.Lock()

    # -- span lifecycle -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **tags):
        """Open a span; use as ``with tracer.span("commit", op=...)``."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        stack = self._stack()
        trace_id = next(_trace_ids) if not stack else None
        span = Span(name, tags, trace_id=trace_id)
        stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # Unwind to this span even if an inner span leaked (e.g. an
        # exception skipped a __exit__ on a generator-held context).
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = span.end
            if top is span:
                break
        if stack:
            stack[-1].children.append(span)
            return
        with self._ring_lock:
            self._ring.append(span)
        threshold = self.slow_op_seconds
        if threshold is not None and span.duration_s >= threshold:
            self._log_slow(span)

    def _log_slow(self, span: Span) -> None:
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        breakdown = " ".join(
            f"{child.name}={child.duration_s * 1000.0:.3f}ms"
            for child in span.children
        )
        self._logger.warning(
            "slow-op trace=%s name=%s duration_ms=%.3f thread=%s%s%s",
            span.trace_id,
            span.name,
            span.duration_s * 1000.0,
            span.thread_name,
            f" {tags}" if tags else "",
            f" [{breakdown}]" if breakdown else "",
        )

    # -- inspection -----------------------------------------------------
    def recent(self, limit: Optional[int] = None) -> List[Span]:
        """The most recent root spans, oldest first."""
        with self._ring_lock:
            spans = list(self._ring)
        if limit is not None:
            spans = spans[-limit:]
        return spans

    def clear(self) -> None:
        with self._ring_lock:
            self._ring.clear()


#: The always-disabled tracer; ``span()`` returns a shared no-op.
NULL_TRACER = Tracer(enabled=False)

_default_tracer = Tracer()


def default_tracer() -> Tracer:
    """The process-global tracer :func:`trace_span` uses."""
    return _default_tracer


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def trace_span(name: str, **tags):
    """Open a span on the process-global default tracer."""
    return _default_tracer.span(name, **tags)
