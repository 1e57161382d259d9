"""Nested spans, point events, and the context-local current tracer.

A :class:`Tracer` records a tree of timed spans (monotonic wall clock,
optionally tracemalloc memory deltas) plus point events and a
:class:`~repro.telemetry.metrics.MetricsRegistry`.  Instrumented code
never takes a tracer argument: it asks :func:`current_tracer` — a
``contextvars``-backed lookup that defaults to the shared
:data:`NOOP_TRACER`, whose spans, events and instruments all discard
their input.  Enabling telemetry is therefore a caller-side decision::

    tracer = Tracer()
    with use_tracer(tracer):
        result = algo.discover(relation)
    print(format_trace(tracer))

and with no tracer installed the instrumentation sites cost one
attribute lookup and a no-op call each.
"""

from __future__ import annotations

import contextvars
import time
import tracemalloc
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import NOOP_METRICS, MetricsRegistry


class Span:
    """One completed (or still-open) section of a traced run."""

    __slots__ = (
        "name",
        "attrs",
        "start",
        "duration",
        "children",
        "events",
        "memory_delta_bytes",
        "memory_peak_bytes",
    )

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        #: Seconds since the tracer's origin.
        self.start: float = 0.0
        #: Seconds; ``None`` while the span is still open.
        self.duration: Optional[float] = None
        self.children: List["Span"] = []
        self.events: List["TraceEvent"] = []
        #: tracemalloc current-memory delta over the span (None untracked).
        self.memory_delta_bytes: Optional[int] = None
        #: tracemalloc global peak observed at span exit (None untracked).
        self.memory_peak_bytes: Optional[int] = None

    def annotate(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first ``(span, depth)`` traversal of this subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:
        timing = "open" if self.duration is None else f"{self.duration:.6f}s"
        return f"Span({self.name}, {timing}, {len(self.children)} children)"


class TraceEvent:
    """A point-in-time event with attributes (e.g. one ratio decision)."""

    __slots__ = ("name", "time", "span", "attrs")

    def __init__(
        self, name: str, when: float, span: Optional[str], attrs: Dict[str, object]
    ):
        self.name = name
        #: Seconds since the tracer's origin.
        self.time = when
        #: Name of the span open when the event fired (None at top level).
        self.span = span
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"TraceEvent({self.name} @ {self.time:.6f}s)"


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects spans, events and metrics for one run.

    Args:
        track_memory: also record tracemalloc deltas per span.  Starts
            tracemalloc if nothing else did (call :meth:`close` — or use
            the tracer as a context manager — to stop it again).
        clock: monotonic time source, injectable for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        track_memory: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._clock = clock
        self._origin = clock()
        self.roots: List[Span] = []
        self.events: List[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self._stack: List[Span] = []
        self.track_memory = track_memory
        self._started_tracemalloc = False
        if track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a nested span: ``with tracer.span("validation", level=2):``"""
        return _SpanContext(self, Span(name, attrs))

    def event(self, name: str, **attrs: object) -> TraceEvent:
        """Record a point event under the currently open span."""
        parent = self._stack[-1].name if self._stack else None
        record = TraceEvent(name, self._clock() - self._origin, parent, attrs)
        self.events.append(record)
        if self._stack:
            self._stack[-1].events.append(record)
        return record

    def counter(self, name: str):
        """Shorthand for ``tracer.metrics.counter(name)``."""
        return self.metrics.counter(name)

    def gauge(self, name: str):
        """Shorthand for ``tracer.metrics.gauge(name)``."""
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        """Shorthand for ``tracer.metrics.histogram(name)``."""
        return self.metrics.histogram(name)

    # ------------------------------------------------------------------
    # Span lifecycle (called by _SpanContext)
    # ------------------------------------------------------------------

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if self.track_memory and tracemalloc.is_tracing():
            span.memory_delta_bytes = -tracemalloc.get_traced_memory()[0]
        span.start = self._clock() - self._origin

    def _close(self, span: Span) -> None:
        span.duration = self._clock() - self._origin - span.start
        if self.track_memory and span.memory_delta_bytes is not None:
            current, peak = tracemalloc.get_traced_memory()
            span.memory_delta_bytes += current
            span.memory_peak_bytes = peak
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first ``(span, depth)`` traversal over all root spans."""
        for root in self.roots:
            yield from root.walk()

    def span_names(self) -> List[str]:
        """Every span name in traversal order (duplicates kept)."""
        return [span.name for span, _ in self.walk()]

    def find_spans(self, name: str) -> List[Span]:
        """All spans called ``name`` anywhere in the tree."""
        return [span for span, _ in self.walk() if span.name == name]

    def find_events(self, name: str) -> List[TraceEvent]:
        """All events called ``name``."""
        return [event for event in self.events if event.name == name]

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def __enter__(self) -> "Tracer":
        self._token = _current_tracer.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _current_tracer.reset(self._token)
        self.close()
        return False


class _NoopSpan:
    """Shared do-nothing span/context-manager for the no-op tracer."""

    __slots__ = ()
    name = "noop"
    attrs: Dict[str, object] = {}
    start = 0.0
    duration = 0.0
    children: List[Span] = []
    events: List[TraceEvent] = []
    memory_delta_bytes = None
    memory_peak_bytes = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Tracer twin that records nothing; the module default.

    Every method is safe to call and returns a shared inert object, so
    instrumentation sites need no ``if tracing:`` guards.
    """

    enabled = False
    track_memory = False
    roots: Tuple[Span, ...] = ()
    events: Tuple[TraceEvent, ...] = ()
    metrics = NOOP_METRICS

    __slots__ = ()

    def span(self, name: str, **attrs: object) -> _NoopSpan:
        return _NOOP_SPAN

    def event(self, name: str, **attrs: object) -> None:
        return None

    def counter(self, name: str):
        return NOOP_METRICS.counter(name)

    def gauge(self, name: str):
        return NOOP_METRICS.gauge(name)

    def histogram(self, name: str):
        return NOOP_METRICS.histogram(name)

    def walk(self) -> Iterator[Tuple[Span, int]]:
        return iter(())

    def span_names(self) -> List[str]:
        return []

    def find_spans(self, name: str) -> List[Span]:
        return []

    def find_events(self, name: str) -> List[TraceEvent]:
        return []

    def close(self) -> None:
        pass


NOOP_TRACER = NoopTracer()

_current_tracer: contextvars.ContextVar = contextvars.ContextVar(
    "repro_current_tracer", default=NOOP_TRACER
)


def current_tracer():
    """The context-local tracer (the no-op tracer unless one is active)."""
    return _current_tracer.get()


def set_current_tracer(tracer) -> contextvars.Token:
    """Install ``tracer`` as current; returns a token for manual reset."""
    return _current_tracer.set(tracer if tracer is not None else NOOP_TRACER)


class _UseTracer:
    """``with use_tracer(t):`` — install a tracer, restore the old one."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer):
        self._tracer = tracer if tracer is not None else NOOP_TRACER

    def __enter__(self):
        self._token = _current_tracer.set(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _current_tracer.reset(self._token)
        return False


def use_tracer(tracer) -> _UseTracer:
    """Context manager making ``tracer`` current for the enclosed block.

    ``None`` installs the no-op tracer (i.e. disables telemetry inside).
    """
    return _UseTracer(tracer)
