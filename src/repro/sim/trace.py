"""Structured event tracing.

Tests and experiments often need to assert on *sequences* of protocol events
(e.g. "the receiver delivered packets 1..6 in order, then skipped channel 0
in round 6").  Components emit :class:`TraceEvent` records into a
:class:`Tracer`; tests filter and assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped protocol event."""

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.6f}] {self.source}: {self.kind} {parts}"


class Tracer:
    """Collects trace events; cheap no-op when disabled."""

    def __init__(self, enabled: bool = True, max_events: Optional[int] = None) -> None:
        self.enabled = enabled
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Record one event (if enabled and under the cap)."""
        if not self.enabled:
            return
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, source, kind, detail))

    def filter(
        self, kind: Optional[str] = None, source: Optional[str] = None
    ) -> Iterator[TraceEvent]:
        """Iterate events matching the given kind and/or source."""
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if source is not None and event.source != source:
                continue
            yield event

    def count(self, kind: Optional[str] = None, source: Optional[str] = None) -> int:
        return sum(1 for _ in self.filter(kind, source))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


class NullTracer(Tracer):
    """A tracer that can never record anything.

    Hot paths default to :data:`NULL_TRACER` and additionally guard emit
    calls with ``if tracer.enabled:`` so the per-event kwargs dict is never
    even built when tracing is off; an unguarded call site gets
    :meth:`Tracer.emit`'s constant-time return.  ``enabled`` is a plain
    attribute (the guards read it per packet) that refuses to be set: a
    shared module-level instance must stay inert.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled" and value:
            raise ValueError(
                "NULL_TRACER is shared and cannot be enabled; "
                "create a Tracer() instead"
            )
        super().__setattr__(name, value)


#: A shared disabled tracer components can default to.
NULL_TRACER = NullTracer()
