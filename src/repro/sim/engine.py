"""Discrete-event simulation engine.

A minimal, deterministic event loop.  Scheduled work is kept in a binary
heap of plain list entries ``[time, seq, callback, args]`` — lists compare
element-wise in C on ``(time, seq)``, so heap sifting never calls back into
Python the way an ``Event.__lt__`` would.  Ties on time are broken by
insertion order, so a simulation run is fully reproducible.

The engine deliberately has no notion of "processes" — components schedule
plain callbacks.  This keeps the core small and makes event ordering easy to
reason about in tests.

Two scheduling surfaces coexist:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle that supports cancellation — the general-purpose
  API used by timers (retransmit, ARP retry, keepalive).
* :meth:`Simulator.schedule_call` is the *slot-free fast path*: the entry
  carries its callback and arguments, allocates no handle, and cannot be
  cancelled.  A slot-free callback that returns a time is run again at
  that time (it *re-arms*), which is how a channel's delivery train
  (:mod:`repro.sim.channel`) walks from one arrival instant to the next;
  a lossy channel's per-packet transmit and delivery events are
  slot-free entries too.

Cancelled events are skipped when popped; on top of that the heap is
*lazily compacted*: once more than half of a non-trivial heap is dead, the
dead entries are filtered out and the heap rebuilt in one O(n) pass, so
long timer-heavy runs (retransmit/marker timers that are almost always
cancelled before firing) cannot leak memory.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

#: Heap entry slots: [time, seq, callback, args].  A cancelled entry has
#: its callback slot set to None and is dropped when popped (or compacted).
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: Slot-free entries carry this token as a fifth element: only they may
#: re-arm by return value.  Heap comparisons never reach index 4:
#: ``(time, seq)`` is unique per entry.
_SLOT_FREE = object()

#: Compaction threshold: rebuild once the heap is larger than this *and*
#: more than half of it is cancelled entries.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A cancellable handle to a scheduled callback.

    Returned by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.
    The handle shares the underlying heap entry with the engine: cancelling
    nulls the entry's callback slot, so the engine skips it on pop and the
    compactor can reclaim it.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        entry = self._entry
        if entry[_CALLBACK] is not None:
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entry = self._entry
        if entry[_CALLBACK] is None:
            return f"<Event t={entry[_TIME]:.9f} #{entry[_SEQ]} (cancelled)>"
        name = getattr(entry[_CALLBACK], "__qualname__", repr(entry[_CALLBACK]))
        return f"<Event t={entry[_TIME]:.9f} #{entry[_SEQ]} {name} (pending)>"


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fired at", sim.now))
        sim.run(until=10.0)

    Time is in simulated seconds.  ``run`` processes events in
    ``(time, insertion order)`` order until the heap is empty, the ``until``
    horizon is passed, or ``max_events`` events have run.
    """

    def __init__(self) -> None:
        #: current simulated time in seconds: a plain attribute, read on
        #: every hot path; only the engine assigns it
        self.now: float = 0.0
        self._heap: List[list] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._cancelled: int = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    # ------------------------------------------------------------------ #
    # scheduling

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return Event(entry, self)

    def schedule_call(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Slot-free fast path: ``callback(*args)`` at absolute ``time``.

        No :class:`Event` handle is allocated, so the event cannot be
        cancelled.  If ``callback`` returns a time (not None) it is run
        again at that time, with the same arguments — see :meth:`run`.
        The channel schedules its transmit and delivery events this way.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(
            self._heap, [time, self._seq, callback, args, _SLOT_FREE]
        )
        self._seq += 1

    # ------------------------------------------------------------------ #
    # cancellation bookkeeping

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN and self._cancelled * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap in one pass.

        Compacts *in place* (same list object): ``run`` holds a
        local alias to the heap while executing callbacks, and a callback
        may trigger compaction via :meth:`Event.cancel`.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[_CALLBACK] is not None]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------ #
    # execution

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        batch: bool = False,
    ) -> int:
        """Run the event loop.

        Args:
            until: stop once the next event would fire strictly after this
                time; the clock is then advanced to ``until``.
            max_events: stop after this many events (safety valve).  With
                ``batch=True`` the budget is checked between timestamp
                batches, so a batch that straddles the budget completes.
            batch: pop all events sharing the earliest timestamp at once
                (FIFO within the batch) instead of one heap pop per event.
                Semantically identical to the default loop — same
                ``(time, seq)`` order, cancellations honored at execution
                time — but cheaper when many events share a timestamp.
                A timestamp that holds one event runs it directly, as the
                default loop does.

        A slot-free callback (:meth:`schedule_call`) that returns a time
        is run again at that time, on the heap entry it already has and
        with the ``(time, seq)`` a ``schedule_call`` as the callback's
        last act would have drawn: both ways of coming back order every
        event identically, returning only skips the call and the entry.

        Returns:
            The number of events processed during this call.
        """
        processed = self._execute(until, max_events, batch)
        if until is not None and self.now < until:
            self.now = until
        return processed

    def _execute(
        self, until: Optional[float], max_events: Optional[int], batch: bool
    ) -> int:
        """The loop behind :meth:`run`; leaves the clock
        at the last event run."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        rest: List[list] = []
        try:
            while heap:
                entry = heap[0]
                if entry[_CALLBACK] is None:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if max_events is not None and processed >= max_events:
                    break
                time = entry[_TIME]
                if until is not None and time > until:
                    break
                pop(heap)
                self.now = time
                if batch and heap and heap[0][_TIME] == time:
                    # Pop the rest of the same-timestamp batch, then run
                    # it FIFO.  Callbacks may cancel later batch members
                    # (the callback slot is re-checked at execution) or
                    # schedule new events at this same timestamp (they
                    # have higher seq, so they form the next batch — same
                    # order as the unbatched loop).
                    while heap and heap[0][_TIME] == time:
                        rest.append(pop(heap))
                    rest.reverse()
                # ``rest`` is empty for the only event of its timestamp
                # (always, unbatched): it runs without touching the list.
                while True:
                    callback = entry[_CALLBACK]
                    if callback is None:
                        self._cancelled -= 1
                    else:
                        again = callback(*entry[_ARGS])
                        processed += 1
                        if again is not None and entry[-1] is _SLOT_FREE:
                            if again < time:
                                raise SimulationError(
                                    f"cannot re-arm at {again} before "
                                    f"current time {time}"
                                )
                            entry[_TIME] = again
                            entry[_SEQ] = self._seq
                            self._seq += 1
                            push(heap, entry)
                    if not rest:
                        break
                    entry = rest.pop()
        finally:
            self._running = False
            self._events_processed += processed
        return processed
