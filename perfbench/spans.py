"""In-memory span log for the traced repetition.

A span is one call across a boundary the rig wires itself (see
``rigs.py``): name, parent, start and end in ``perf_counter_ns``.  Spans are
kept in four parallel lists while the repetition runs and reduced (or
written out) afterwards.  A span's *self time* is its duration minus the
time its direct children cover; because every span nests strictly inside
its parent (one thread, synchronous calls), the self times of all spans
sum to the root span's duration.
"""

from __future__ import annotations

import gzip
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: the ladder, root first.  ``engine_channel`` is the timed region itself
#: (``Simulator.run`` plus, on ``fabric_fanin``, the t=0 burst), so its self
#: time is the event engine, the channels and the protocol timers.
SPAN_NAMES = (
    "engine_channel",
    "rx",
    "app",
    "ack_tx",
    "ack_rx",
    "tx_pump",
    "chan_enqueue",
    "source",
    "tx_submit",
)


class SpanLog:
    """Records spans; ``wrap`` turns a callable into a traced one."""

    def __init__(self) -> None:
        self.name_ids: List[int] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self._open = -1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = SPAN_NAMES.index(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        clock = perf_counter_ns

        def traced(*args: Any) -> Any:
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(self._open)
            ends.append(0)
            self._open = index
            starts.append(clock())
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                self._open = parents[index]

        return traced

    def self_times(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (self_ns, calls)}`` over every recorded span."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                covered[parent] += duration
        self_ns = [0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for name_id, duration, child_ns in zip(
            self.name_ids, durations, covered
        ):
            self_ns[name_id] += duration - child_ns
            calls[name_id] += 1
        return {
            name: (self_ns[i], calls[i]) for i, name in enumerate(SPAN_NAMES)
        }

    def write(self, path: str) -> None:
        """Dump every span as gzipped CSV: name,parent,start_ns,end_ns."""
        with gzip.open(path, "wt") as out:
            out.write("name,parent,start_ns,end_ns\n")
            for row in zip(self.name_ids, self.parents, self.starts, self.ends):
                out.write(f"{SPAN_NAMES[row[0]]},{row[1]},{row[2]},{row[3]}\n")
