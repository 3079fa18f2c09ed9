"""Tracing spans: nested timed stages, a bounded ring of recent traces.

A :class:`Span` is one timed stage of a run — ``pack`` / ``dispatch`` /
``decision`` inside :func:`repro.engine.batch.run_batch`, ``generate`` /
``evaluate`` / ``fold`` inside a fleet round — opened with the
:func:`span` context manager and nested through a thread-local stack, so
concurrent service threads and worker rounds never interleave their trees.

Spans *always* time themselves (``time.perf_counter`` start/stop — this
module is the repository's sanctioned wall-clock home, see rule ``OBS001``),
so instrumented code can read ``span.duration_s`` for its own reporting
(the fleet round latency is exactly its root span's duration).  What the
enable flag (:func:`repro.obs.metrics.set_enabled`) gates is *recording*:
when disabled, spans do not attach to a parent and finished roots are not
appended to the trace ring, so the disabled cost is two clock reads and
one small allocation.

A stage that runs on another thread — one worker's device slice of a
fanned-out fleet round — opens its span with :func:`span_under`, naming
its parent explicitly: the span attaches to that parent instead of
starting a tree of its own, and spans nested inside it on the worker
thread attach to it through the worker's own stack.

Finished **root** spans land in a bounded ring (``deque(maxlen=...)``) of
recent traces; :meth:`Tracer.export` renders them as JSON-ready dicts —
the payload behind the CLI's ``--trace <path>`` flag.  The export schema
per span::

    {"name": str, "start_s": float,     # relative to its root's start
     "duration_s": float, "attributes": {...},
     "error": str | null, "children": [...]}
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics

# Bound once: every span reads the clock twice.
_perf_counter = time.perf_counter

__all__ = [
    "Span", "Tracer", "TRACER", "span", "span_under", "trace", "export_traces",
    "clear_traces",
]

#: Default bound of the recent-trace ring: enough to hold a whole CLI run's
#: batch/round roots, small enough that a long-lived service stays O(1).
DEFAULT_TRACE_CAPACITY = 128


class Span:
    """One timed stage; children nest through the thread-local stack.

    A span is its own context manager.  Entering it pushes it onto its
    tracer's stack for this thread (when recording is enabled) and starts
    the clock; leaving it stops the clock, pops it and hands a finished
    root to the trace ring.  A span with an explicit ``parent`` attaches
    to it rather than to the top of this thread's stack, and is never a
    root.
    """

    __slots__ = (
        "name", "attributes", "children", "start_s", "duration_s", "error",
        "_tracer", "_stack", "_parent",
    )

    def __init__(
        self,
        name: str,
        attributes: Dict[str, object],
        tracer: Optional["Tracer"] = None,
        parent: Optional["Span"] = None,
    ):
        self.name = name
        self.attributes = attributes
        self.children: List["Span"] = []
        self.start_s = 0.0
        self.duration_s = 0.0
        self.error: Optional[str] = None
        self._tracer = tracer
        # The stack this span was pushed on, kept so leaving the span needs
        # no second thread-local lookup (None: not recording).
        self._stack: Optional[List["Span"]] = None
        self._parent = parent

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None and _metrics._enabled:
            stack = tracer._stack()
            parent = self._parent if self._parent is not None else (
                stack[-1] if stack else None
            )
            if parent is not None:
                # list.append is atomic, so sibling workers may attach to
                # one parent concurrently.
                parent.children.append(self)
            stack.append(self)
            self._stack = stack
        self.start_s = _perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.duration_s = _perf_counter() - self.start_s
        if exc_type is not None:
            self.error = getattr(exc_type, "__name__", str(exc_type))
        stack = self._stack
        if stack is not None:
            self._stack = None
            # The span we pushed is still on top (with statements unwind in
            # LIFO order even under exceptions).
            stack.pop()
            if not stack and self._parent is None:
                self._tracer._record(self)  # type: ignore[union-attr]

    def to_dict(self, origin_s: Optional[float] = None) -> Dict[str, object]:
        """JSON-ready span tree; start times are relative to the root."""
        origin = self.start_s if origin_s is None else origin_s
        return {
            "name": self.name,
            "start_s": self.start_s - origin,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "error": self.error,
            "children": [child.to_dict(origin) for child in self.children],
        }

    def stage_names(self) -> List[str]:
        """Every span name in this tree, depth-first (test/debug helper)."""
        names = [self.name]
        for child in self.children:
            names.extend(child.stage_names())
        return names

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration_s={self.duration_s:.6f}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Thread-local span stacks over a shared bounded ring of recent traces."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._traces: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            stack: List[Span] = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        return stack

    def _record(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)

    # --------------------------------------------------------------- API
    def span(self, name: str, **attributes: object) -> Span:
        """Open a (possibly nested) timed span as a context manager."""
        return Span(name, attributes, self)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def traces(self) -> Tuple[Span, ...]:
        """The recent finished root spans, oldest first."""
        with self._lock:
            return tuple(self._traces)

    def export(self) -> List[Dict[str, object]]:
        """JSON-ready dicts of the recent traces (oldest first)."""
        return [root.to_dict() for root in self.traces()]

    def clear(self) -> None:
        """Drop the recorded traces (open spans are unaffected)."""
        with self._lock:
            self._traces.clear()


#: The process-wide default tracer every instrumented module records into.
TRACER = Tracer()


def span(name: str, **attributes: object) -> Span:
    """Open a span on the default tracer (nests under any open span)."""
    return Span(name, attributes, TRACER)


def span_under(parent: Span, name: str, **attributes: object) -> Span:
    """Open a span on the default tracer as a child of ``parent``.

    Usable from any thread: the span attaches to ``parent`` (typically a
    root span opened on the thread that fanned the work out) and spans
    opened inside it on this thread nest beneath it.
    """
    return Span(name, attributes, TRACER, parent)


#: Alias emphasising intent at call sites that open a run's *root* span.
trace = span


def export_traces() -> List[Dict[str, object]]:
    """The default tracer's recent traces as JSON-ready dicts."""
    return TRACER.export()


def clear_traces() -> None:
    """Drop the default tracer's recorded traces."""
    TRACER.clear()
