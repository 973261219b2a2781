"""Throughput / latency measurement helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


def mbps(bytes_count: float, seconds: float) -> float:
    """Bytes over an interval → megabits per second."""
    if seconds <= 0:
        return 0.0
    return bytes_count * 8.0 / seconds / 1e6


@dataclass
class ThroughputWindow:
    """Measures goodput of a monotonically increasing byte counter over a
    warmup-excluded window.

    Usage::

        window = ThroughputWindow(lambda: receiver.bytes_delivered)
        window.open(sim.now)   # after warmup
        ...run...
        window.close(sim.now)
        window.mbps
    """

    counter: Callable[[], int]
    _start_time: Optional[float] = None
    _start_bytes: int = 0
    _end_time: Optional[float] = None
    _end_bytes: int = 0

    def open(self, now: float) -> None:
        self._start_time = now
        self._start_bytes = self.counter()

    def close(self, now: float) -> None:
        if self._start_time is None:
            raise RuntimeError("window was never opened")
        self._end_time = now
        self._end_bytes = self.counter()

    @property
    def bytes(self) -> int:
        return self._end_bytes - self._start_bytes

    @property
    def seconds(self) -> float:
        if self._start_time is None or self._end_time is None:
            return 0.0
        return self._end_time - self._start_time

    @property
    def mbps(self) -> float:
        return mbps(self.bytes, self.seconds)


@dataclass
class LatencyStats:
    """Streaming latency statistics (Welford's algorithm + extrema)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    if not values:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class DeliveryLog:
    """Records (time, seq, size) for each delivered packet."""

    times: List[float] = field(default_factory=list)
    seqs: List[int] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)

    def record(self, time: float, seq: int, size: int) -> None:
        self.times.append(time)
        self.seqs.append(seq)
        self.sizes.append(size)

    @property
    def count(self) -> int:
        return len(self.times)

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes)

    def goodput_mbps(self, start: float, end: float) -> float:
        span_bytes = sum(
            size
            for time, size in zip(self.times, self.sizes)
            if start <= time <= end
        )
        return mbps(span_bytes, end - start)
