"""Traffic generators.

The paper's workloads:

* "a random mixture of small and large packets" (Figure 15's TCP driver) —
  :class:`RandomMixSizes` / :func:`random_mix_packets`.
* "packets were sent in deterministic fashion, with the bigger (1000
  bytes) packets alternating with the smaller (200 bytes) ones" (the GRR
  worst case) — :class:`AlternatingSizes`.
* backlogged senders for the fairness analysis — :func:`backlogged_packets`.
* Poisson / CBR arrival processes for the event-driven experiments.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import inf, isfinite
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.sim.engine import Simulator


class RandomMixSizes:
    """Draws packet sizes from a discrete mix (defaults: small and large).

    A weighted mix draws exactly what ``rng.choices(sizes, weights)`` would
    (one ``rng.random()`` per draw, bisected into the running totals) and
    an unweighted one exactly what ``rng.choice(sizes)`` would
    (``getrandbits`` until below the count), so a seed yields the same size
    sequence; both draw in this object's own frame, with the tables built
    once here rather than once per draw.  ``sizes`` and ``weights`` are
    read-only tuples so the tables cannot go stale; ``rng`` may be
    reassigned.

    Raises:
        ValueError: empty or non-positive ``sizes``; ``weights`` of another
            length than ``sizes``, with a negative or non-finite entry, or
            summing to zero.
    """

    def __init__(
        self,
        sizes: Sequence[int] = (200, 1000, 1460),
        weights: Optional[Sequence[float]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError("sizes must be positive")
        self._sizes = tuple(sizes)
        self._weights = tuple(weights) if weights is not None else None
        self.rng = rng if rng is not None else random.Random(0)
        self._bits = len(self._sizes).bit_length()
        if self._weights is not None:
            if len(self._weights) != len(self._sizes):
                raise ValueError(
                    "the number of weights does not match the number of sizes"
                )
            if any(not (0 <= w < inf) for w in self._weights):
                raise ValueError("weights must be finite and non-negative")
            # What random.choices computes per call: running totals, the
            # float total, and a bisect bound that keeps the last size
            # reachable only through its own weight.
            self._cum = list(accumulate(self._weights))
            self._total = self._cum[-1] + 0.0
            self._hi = len(self._sizes) - 1
            if self._total <= 0.0:
                raise ValueError("total of weights must be greater than zero")
            if not isfinite(self._total):
                raise ValueError("total of weights must be finite")

    @property
    def sizes(self) -> Tuple[int, ...]:
        return self._sizes

    @property
    def weights(self) -> Optional[Tuple[float, ...]]:
        return self._weights

    def __call__(self) -> int:
        rng = self.rng
        sizes = self._sizes
        if self._weights is not None:
            return sizes[bisect(self._cum, rng.random() * self._total, 0, self._hi)]
        if type(rng) is not random.Random:
            # A subclass may have replaced the bit source; only its own
            # ``choice`` knows which stream it draws from.
            return rng.choice(sizes)
        n = len(sizes)
        bits = self._bits
        draw = rng.getrandbits(bits)
        while draw >= n:
            draw = rng.getrandbits(bits)
        return sizes[draw]


class AlternatingSizes:
    """Deterministic big/small alternation — the GRR adversary."""

    def __init__(self, big: int = 1000, small: int = 200) -> None:
        if big <= 0 or small <= 0:
            raise ValueError("sizes must be positive")
        self.big = big
        self.small = small
        self._next_big = True

    def __call__(self) -> int:
        size = self.big if self._next_big else self.small
        self._next_big = not self._next_big
        return size


class UniformSizes:
    """Uniformly random sizes in [lo, hi]."""

    def __init__(self, lo: int, hi: int, rng: Optional[random.Random] = None) -> None:
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        self.lo = lo
        self.hi = hi
        self.rng = rng if rng is not None else random.Random(0)

    def __call__(self) -> int:
        return self.rng.randint(self.lo, self.hi)


class ConstantSizes:
    """Always the same size (CBR-style payloads)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size

    def __call__(self) -> int:
        return self.size


def backlogged_packets(
    count: int, size_fn: Callable[[], int], flow: object = None
) -> List[Packet]:
    """A burst of ``count`` packets with harness sequence numbers."""
    return [
        Packet(size=size_fn(), seq=i, flow=flow) for i in range(count)
    ]


def random_mix_packets(
    count: int,
    sizes: Sequence[int] = (200, 1000, 1460),
    seed: int = 0,
) -> List[Packet]:
    """Convenience: ``count`` packets with a seeded random size mix."""
    return backlogged_packets(count, RandomMixSizes(sizes, rng=random.Random(seed)))


def alternating_packets(count: int, big: int = 1000, small: int = 200) -> List[Packet]:
    """Convenience: the paper's alternating 1000/200-byte adversary."""
    return backlogged_packets(count, AlternatingSizes(big, small))


class PacedSource:
    """Event-driven source: submits packets to a sink at timed intervals.

    Args:
        sim: event engine.
        sink: ``callable(Packet)`` receiving each generated packet.
        size_fn: packet size generator.
        interval_fn: seconds until the next packet (e.g. exponential for
            Poisson, constant for CBR).
        count: stop after this many packets (None = until sim horizon).
    """

    def __init__(
        self,
        sim: Simulator,
        sink: Callable[[Packet], None],
        size_fn: Callable[[], int],
        interval_fn: Callable[[], float],
        count: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.sink = sink
        self.size_fn = size_fn
        self.interval_fn = interval_fn
        self.count = count
        self.generated = 0
        self._stopped = False

    def start(self, delay: float = 0.0) -> None:
        self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.count is not None and self.generated >= self.count:
            return
        packet = Packet(size=self.size_fn(), seq=self.generated)
        self.generated += 1
        self.sink(packet)
        self.sim.schedule(max(0.0, self.interval_fn()), self._tick)


def poisson_intervals(rate_pps: float, rng: random.Random) -> Callable[[], float]:
    """Exponential inter-arrival generator for a given packet rate."""
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    return lambda: rng.expovariate(rate_pps)


def cbr_intervals(rate_pps: float) -> Callable[[], float]:
    """Constant inter-arrival generator."""
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    period = 1.0 / rate_pps
    return lambda: period


class ClosedLoopSource:
    """Keeps a striper's input backlog topped up (a backlogged sender).

    Generates packets only while the striper backlog is below ``target``,
    re-checking every ``check_interval`` seconds and whenever :meth:`poke`
    is called.  This is the §6.3 sender: always data to send, but flow
    control (credits) can throttle it without unbounded queues.

    Two optional hot-loop accelerations, both behavior-neutral:

    * ``submit_many``: a batched submit callable.  Each refill computes the
      whole backlog deficit and hands it over in one call (one pump per
      refill instead of one per packet).  Simulated time does not advance
      inside a refill, so the packets, their order, and their timestamps
      are identical to per-packet submission.
    * ``pool``: a :class:`~repro.core.packet.PacketPool` to acquire packets
      from instead of constructing them.
    """

    def __init__(
        self,
        sim: Simulator,
        submit: Callable[[Packet], None],
        backlog_fn: Callable[[], int],
        size_fn: Callable[[], int],
        target: int = 20,
        check_interval: float = 0.001,
        count: Optional[int] = None,
        submit_many: Optional[Callable[[list], None]] = None,
        pool: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.submit = submit
        self.backlog_fn = backlog_fn
        self.size_fn = size_fn
        self.target = target
        self.check_interval = check_interval
        self.count = count
        self.submit_many = submit_many
        self.pool = pool
        self.generated = 0
        self._stopped = False

    def start(self, delay: float = 0.0) -> None:
        self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _make(self) -> Packet:
        size = self.size_fn()
        seq = self.generated
        self.generated += 1
        if self.pool is not None:
            return self.pool.acquire(size, seq=seq)
        return Packet(size=size, seq=seq)

    def _fill(self) -> None:
        if self.submit_many is not None:
            while not self._stopped:
                deficit = self.target - self.backlog_fn()
                if self.count is not None:
                    deficit = min(deficit, self.count - self.generated)
                if deficit <= 0:
                    return
                # One refill, no per-packet frame: the same draws, seqs
                # and packets as ``deficit`` calls of :meth:`_make`.
                size_fn = self.size_fn
                first = self.generated
                seqs = range(first, first + deficit)
                if self.pool is not None:
                    acquire = self.pool.acquire
                    batch = [acquire(size_fn(), seq) for seq in seqs]
                else:
                    batch = [Packet(size=size_fn(), seq=seq) for seq in seqs]
                self.generated = first + deficit
                self.submit_many(batch)
            return
        while self.backlog_fn() < self.target:
            if self._stopped or (
                self.count is not None and self.generated >= self.count
            ):
                return
            self.submit(self._make())

    #: refill now (the wake-up a sender calls as its channels drain): the
    #: refill itself, not a frame that calls it
    poke = _fill

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.count is not None and self.generated >= self.count:
            return
        self._fill()
        self.sim.schedule(self.check_interval, self._tick)
