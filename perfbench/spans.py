"""Spans recorded from outside the library, around calls into each layer.

A :class:`Tracer` keeps spans in memory (name, start, end, parent, request
id) and writes them out when the run ends.  :func:`instrument_session`
replaces a session's layer entry points *on that instance only* with timing
wrappers, so the library code under test is unchanged:

* ``Session.compile``            -> ``api.compile``
* ``Session.plan``               -> ``api.plan`` (and wraps the returned
  plan's inner ``execute`` as ``engine.execute``)
* ``session.safety.decide``      -> ``safety.guard``
* ``session.domain.decide``      -> ``domains.decide`` (outermost call only)

Spans nest on a per-thread stack.  A call made on a thread with no open span
(a server worker thread) takes its parent and request id from the session's
:class:`Context`, which the client sets before each request.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional
from contextlib import contextmanager

__all__ = ["Context", "Span", "Tracer", "instrument_session"]


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    """Where spans opened on a thread without an open span belong."""

    parent: Optional[int] = None
    request: Optional[int] = None


class Tracer:
    """An in-memory span recorder, safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        context: Optional[Context] = None,
        *,
        request: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Record ``name`` around the ``with`` body; yields the open span.

        The parent is the innermost open span on this thread, else the
        context's; a root span takes ``request`` as its request id.
        """
        stack = self._stack()
        parent: Optional[int] = None
        if stack:
            parent, request = stack[-1].span_id, stack[-1].request
        elif context is not None:
            parent, request = context.parent, context.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent, request, name, time.perf_counter(), 0.0, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        return {s.span_id: s.duration - children.get(s.span_id, 0.0) for s in self.spans}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own[span.span_id]
        return table

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        """One JSON line per span (with its self time), then the summary."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent,
                    "request": span.request, "name": span.name,
                    "start": span.start, "end": span.end,
                    "self_s": own[span.span_id], **span.attrs,
                }) + "\n")
            handle.write(json.dumps({"summary": self.summary()}) + "\n")


def _wrap(
    tracer: Tracer,
    target: Any,
    attribute: str,
    name: str,
    context: Context,
    on_result: Optional[Callable[[Dict[str, Any], Any], None]] = None,
) -> None:
    """Shadow ``target.attribute`` with a span-recording wrapper."""
    original = getattr(target, attribute)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name, context) as span:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(span.attrs, result)
            return result

    try:
        setattr(target, attribute, wrapper)
    except AttributeError:  # frozen or slotted object: leave it untimed
        pass


def instrument_session(tracer: Tracer, session: Any, context: Context) -> None:
    """Time the layers of one :class:`repro.api.Session` from outside."""
    _wrap(tracer, session, "compile", "api.compile", context)

    def wrap_plan(attrs: Dict[str, Any], plan: Any) -> None:
        target = getattr(plan, "inner", plan)
        attrs["plan"] = type(target).__name__
        _wrap(tracer, target, "execute", "engine.execute", context)

    _wrap(tracer, session, "plan", "api.plan", context, wrap_plan)
    if session.safety is not None:
        def record_verdict(attrs: Dict[str, Any], verdict: Any) -> None:
            attrs["verdict"] = verdict.status.value

        _wrap(tracer, session.safety, "decide", "safety.guard", context, record_verdict)

    # A decision procedure may re-enter itself through the instance
    # attribute; only the outermost call counts, so time is not doubled.
    domain = session.domain
    original = domain.decide
    depth = threading.local()

    def decide(*args: Any, **kwargs: Any) -> Any:
        if getattr(depth, "value", 0):
            return original(*args, **kwargs)
        depth.value = 1
        try:
            with tracer.span("domains.decide", context):
                return original(*args, **kwargs)
        finally:
            depth.value = 0

    domain.decide = decide
