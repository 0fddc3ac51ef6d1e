"""Tracing: nested spans with wall + CPU time and a thread-local context.

A :class:`Tracer` produces :class:`Span` records.  ``tracer.span(name)`` is
a context manager: it pushes the span onto the calling thread's context
stack (so spans opened inside it become children), measures monotonic wall
time (``perf_counter``) and CPU time (``process_time``), and appends the
finished record to a bounded ring buffer.  :meth:`Tracer.emit` records an
already-measured interval as a completed span — the hook for code that
already times itself (the pass manager's records, the simulator's plan
compiler).

Identity: span ids are sequential integers rendered with an optional
per-tracer prefix (worker processes prefix with their worker id so merged
traces never collide), and every span carries the ``trace_id`` of its root.
Under a fixed seed (``Tracer(seed=...)`` resets the counter) the ids of a
deterministic workload are themselves deterministic, so tests can golden
parent/child structure exactly.

Cost model: a *disabled* tracer hands out one shared no-op span — no
allocation, no clock reads — so always-on instrumentation is safe in hot
loops; the benchmark gate (``benchmarks/bench_telemetry.py``) pins both
modes.  Cross-process: workers drain their finished spans per lease
(:meth:`Tracer.drain`), ship them as dicts, and the parent re-roots them
under its own span via :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = ["Span", "NULL_SPAN", "Tracer", "get_tracer", "configure_tracing"]

#: Ring-buffer cap on finished spans a tracer retains (drop-oldest beyond).
DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished (or in-flight) operation.

    Attributes:
        name: Operation name, dot-namespaced (``"engine.run"``,
            ``"transpiler.pass"``, ``"worker.lease"``).
        span_id / parent_id / trace_id: Identity; ``parent_id`` is ``None``
            for roots and ``trace_id`` equals the root's span id.
        start: Wall-clock start (``time.time()``).
        duration: Wall seconds (monotonic clock difference).
        cpu: CPU seconds consumed by the process during the span.
        process / thread: Origin coordinates (worker id string, thread name).
        attributes: Flat str/int/float payload.
        status: ``"ok"`` or ``"error"`` (exception escaped the block).
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    start: float = 0.0
    duration: float = 0.0
    cpu: float = 0.0
    process: str = ""
    thread: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    _t0: float = field(default=0.0, repr=False)
    _cpu0: float = field(default=0.0, repr=False)
    recording: bool = True

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "duration": self.duration,
            "cpu": self.cpu,
            "process": self.process,
            "thread": self.thread,
            "attributes": dict(self.attributes),
            "status": self.status,
        }


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()
    recording = False
    name = ""
    span_id = ""
    parent_id = None
    trace_id = ""
    attributes: Dict[str, Any] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager pairing one span with the thread's context stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span._t0 = time.perf_counter()
        self._span._cpu0 = time.process_time()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration = time.perf_counter() - span._t0
        span.cpu = time.process_time() - span._cpu0
        if exc_type is not None:
            span.status = "error"
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(span)
        return False


class Tracer:
    """Produces, contextualises and retains spans for one process.

    Args:
        enabled: When False every :meth:`span` call returns the shared
            :data:`NULL_SPAN` — the zero-overhead mode the benchmark gate
            pins.  Togglable at runtime via :attr:`enabled`.
        seed: When given, the span-id counter restarts at 1 — a fixed seed
            plus a deterministic workload yields byte-identical span ids,
            which is what lets tests golden traces.  (The seed does not feed
            an RNG; determinism, not unpredictability, is the goal.)
        id_prefix: Prepended to every span id — worker processes pass their
            worker id so ids stay unique across a merged multi-process trace.
        max_spans: Ring-buffer cap; the oldest spans are dropped beyond it
            and counted in :attr:`dropped`.  Assigning :attr:`max_spans`
            rebuilds the buffer, keeping the newest spans.
    """

    def __init__(
        self,
        enabled: bool = True,
        seed: Optional[int] = None,
        id_prefix: str = "",
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.enabled = bool(enabled)
        self.id_prefix = id_prefix
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: deque = deque(maxlen=int(max_spans))
        self._local = threading.local()
        self.dropped = 0
        if seed is not None:
            self.reseed(seed)

    @property
    def max_spans(self) -> int:
        return self._finished.maxlen

    @max_spans.setter
    def max_spans(self, value: int) -> None:
        with self._lock:
            self.dropped += max(0, len(self._finished) - int(value))
            self._finished = deque(self._finished, maxlen=int(value))

    # ------------------------------------------------------------------
    # context plumbing
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost span open on this thread (``None`` outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(span)

    def _next_id(self) -> str:
        return f"{self.id_prefix}{next(self._ids)}"

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Open a nested span as a context manager.

        Returns a context manager yielding the :class:`Span` (or the shared
        :data:`NULL_SPAN` when disabled — same interface, no cost).
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self.current_span()
        span_id = self._next_id()
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            start=time.time(),
            process=f"pid-{os.getpid()}",
            thread=threading.current_thread().name,
            attributes=dict(attributes),
        )
        return _SpanContext(self, span)

    def emit(
        self,
        name: str,
        duration: float,
        cpu: float = 0.0,
        start: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Record an already-measured interval as a completed child span.

        The span parents under the thread's current context.  ``start``
        defaults to "``duration`` seconds ago".  Returns the span, or
        ``None`` when disabled.
        """
        if not self.enabled:
            return None
        parent = self.current_span()
        span_id = self._next_id()
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            start=time.time() - duration if start is None else start,
            duration=duration,
            cpu=cpu,
            process=f"pid-{os.getpid()}",
            thread=threading.current_thread().name,
            attributes=dict(attributes),
        )
        self._record(span)
        return span

    # ------------------------------------------------------------------
    # retention / merging
    # ------------------------------------------------------------------
    def finished(self, trace_id: Optional[str] = None) -> List[Span]:
        """Finished spans in completion order, optionally one trace only."""
        with self._lock:
            spans = list(self._finished)
        if trace_id is None:
            return spans
        return [span for span in spans if span.trace_id == trace_id]

    def drain(self) -> List[Span]:
        """Pop and return every finished span (what a worker ships per lease)."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
        return spans

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    def reset_context(self) -> None:
        """Drop every thread's open-span stack.

        Needed in worker-process initialisation under the ``fork`` start
        method: the child's surviving thread inherits the parent's context
        stack, and without a reset worker roots would parent under spans
        that finished in another process.
        """
        self._local = threading.local()

    def reseed(self, seed: int) -> None:
        """Restart the id counter (fixed seed => reproducible span ids)."""
        self._ids = itertools.count(1)
        self.clear()

    def adopt(
        self,
        span_dicts: Iterable[Mapping[str, Any]],
        parent: Optional[Span] = None,
    ) -> List[Span]:
        """Merge spans from another process into this tracer's buffer.

        Spans arriving without a parent (worker-side roots) are re-parented
        under ``parent`` (or the current span), and every adopted span is
        moved onto the parent's trace — a multi-process sweep becomes one
        coherent trace.  Ids are kept verbatim (workers prefix theirs), so
        intra-batch parent links survive.
        """
        if not self.enabled:
            return []
        anchor = parent if parent is not None else self.current_span()
        adopted: List[Span] = []
        for data in span_dicts:
            payload = dict(data)
            payload.pop("recording", None)
            span = Span(**payload)
            if span.parent_id is None and anchor is not None:
                span.parent_id = anchor.span_id
            if anchor is not None:
                span.trace_id = anchor.trace_id
            adopted.append(span)
        with self._lock:
            self.dropped += max(0, len(self._finished) + len(adopted) - self._finished.maxlen)
            self._finished.extend(adopted)
        return adopted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(enabled={self.enabled}, finished={len(self._finished)}, "
            f"dropped={self.dropped})"
        )


#: The process-wide default tracer every subsystem records into.
_DEFAULT = Tracer(enabled=True)


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return _DEFAULT


def configure_tracing(
    enabled: Optional[bool] = None,
    seed: Optional[int] = None,
    id_prefix: Optional[str] = None,
    max_spans: Optional[int] = None,
) -> Tracer:
    """Reconfigure the process-wide tracer in place; returns it.

    Used by the CLI (``--trace`` enables + reseeds) and by worker-process
    initialisation (sets the worker's id prefix).
    """
    tracer = get_tracer()
    if enabled is not None:
        tracer.enabled = bool(enabled)
    if id_prefix is not None:
        tracer.id_prefix = id_prefix
    if max_spans is not None:
        tracer.max_spans = int(max_spans)
    if seed is not None:
        tracer.reseed(seed)
    return tracer
