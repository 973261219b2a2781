"""The scheduler kernel: one mutable, batch-capable stepping engine.

The paper's central observation is that *one* causal FQ algorithm drives
both ends of the stripe (Theorems 3.1 / 4.1): the sender steps it to pick
output channels, the receiver steps the very same algorithm to predict
arrival channels.  The ``(s0, f, g)`` algebra of
:class:`~repro.core.cfq.CausalFQ` over frozen
:class:`~repro.core.srr.SRRState` values is the specification and the test
oracle; stepping it allocates a state object per packet, so the data path
steps a :class:`SchedulerKernel` instead: a *mutable* engine with

* in-place :meth:`~SchedulerKernel.step` — account one packet, return the
  channel it goes to,
* batched :meth:`~SchedulerKernel.assign_many` — assign a whole burst of
  packet sizes in one tight loop (:meth:`SRRKernel.assign_admitted` is
  the sender pump's form: one step per packet its port can take),
* explicit :meth:`~SchedulerKernel.snapshot` / :meth:`~SchedulerKernel.restore`
  — immutable state capture, preserving the ``(R, D)`` implicit-numbering
  and marker-adoption semantics of sections 4–5 (an :class:`SRRKernel`
  snapshot *is* an :class:`~repro.core.srr.SRRState`).

There is one kernel and one adapter.  :func:`kernel_for` builds the native
:class:`SRRKernel` for the SRR family (SRR / RR / GRR share one engine via
the unified cost function) and a :class:`CFQKernelAdapter` wrapping
``select``/``update`` for every other causal algorithm (e.g. the seeded
randomized schemes), so every layer can hold a kernel without caring which
algorithm is underneath.
"""

from __future__ import annotations

import abc
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.cfq import CausalFQ
from repro.core.srr import SRR, SRRState


class SchedulerKernel(abc.ABC):
    """A mutable stepping engine for a causal scheduling algorithm.

    Unlike :class:`~repro.core.cfq.CausalFQ` (pure ``select``/``update``
    over immutable states), a kernel owns its state and mutates it in
    place.  The immutable semantics are recovered exactly through
    :meth:`snapshot` / :meth:`restore`, which is what the marker machinery
    and session reset use.
    """

    @property
    @abc.abstractmethod
    def n_channels(self) -> int:
        """Number of channels the kernel schedules over."""

    @abc.abstractmethod
    def peek(self) -> int:
        """Channel the next packet will be assigned to (no state change)."""

    @abc.abstractmethod
    def step(self, size: int) -> int:
        """Account one packet of ``size`` bytes; returns its channel.

        Mutates the kernel in place.  The returned channel always equals
        what :meth:`peek` returned immediately before the call (causality:
        the choice is committed before the packet is seen).
        """

    def assign_many(self, sizes: Sequence[int]) -> List[int]:
        """Assign a burst of packet sizes; returns one channel per size.

        Equivalent to calling :meth:`step` per size, but implemented as a
        single tight loop by native kernels.  This is the batch API the
        offline drivers and benchmarks use.
        """
        return [self.step(size) for size in sizes]

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """An immutable capture of the current state."""

    @abc.abstractmethod
    def restore(self, snapshot: Any) -> None:
        """Install a state previously captured with :meth:`snapshot`."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return to the algorithm's initial state ``s0``."""


class SRRKernel(SchedulerKernel):
    """Native mutable kernel for the SRR family (SRR / RR / GRR).

    Exposes the live ``ptr`` / ``round_number`` / ``dc`` fields directly —
    the striper reads ``(ptr, round_number)`` before and after each step to
    detect marker-position crossings without materializing a snapshot.

    Snapshots are :class:`~repro.core.srr.SRRState` instances, so they are
    interchangeable with the immutable path: a receiver can adopt a kernel
    snapshot (marker adoption, section 5) and a kernel can restore a state
    produced by ``CausalFQ.update``.
    """

    __slots__ = ("algorithm", "quanta", "count_packets", "ptr",
                 "round_number", "dc")

    def __init__(self, algorithm: SRR) -> None:
        if not isinstance(algorithm, SRR):
            raise TypeError("SRRKernel requires an SRR-family algorithm")
        self.algorithm = algorithm
        self.quanta: Tuple[float, ...] = algorithm.quanta
        self.count_packets = algorithm.count_packets
        self.reset()

    @property
    def n_channels(self) -> int:
        return len(self.quanta)

    def reset(self) -> None:
        self.ptr = 0
        self.round_number = 1
        self.dc = [0.0] * len(self.quanta)
        self.dc[0] = self.quanta[0]

    def peek(self) -> int:
        return self.ptr

    def step(self, size: int) -> int:
        channel = self.ptr
        dc = self.dc
        d = dc[channel] - (1.0 if self.count_packets else size)
        dc[channel] = d
        if d <= 0:
            ptr = channel
            rnd = self.round_number
            quanta = self.quanta
            n = len(quanta)
            while True:
                ptr += 1
                if ptr == n:
                    ptr = 0
                    rnd += 1
                d = dc[ptr] + quanta[ptr]
                dc[ptr] = d
                if d > 0:
                    break
            self.ptr = ptr
            self.round_number = rnd
        return channel

    def assign_many(self, sizes: Sequence[int]) -> List[int]:
        out: List[int] = []
        append = out.append
        ptr = self.ptr
        rnd = self.round_number
        dc = self.dc
        quanta = self.quanta
        n = len(quanta)
        count_packets = self.count_packets
        for size in sizes:
            append(ptr)
            d = dc[ptr] - (1.0 if count_packets else size)
            dc[ptr] = d
            if d <= 0:
                while True:
                    ptr += 1
                    if ptr == n:
                        ptr = 0
                        rnd += 1
                    d = dc[ptr] + quanta[ptr]
                    dc[ptr] = d
                    if d > 0:
                        break
        self.ptr = ptr
        self.round_number = rnd
        return out

    def assign_admitted(
        self,
        queue: Iterable[Any],
        capacity: Sequence[Callable[[], int]],
        position: int = -1,
        due: int = 0,
        room: Optional[int] = None,
    ) -> Tuple[List[int], int]:
        """Assign the head of ``queue`` for as long as its ports have room.

        The sender pump's kernel contract: one step per packet sent,
        nothing speculative, nothing undone.  Packets of ``queue`` (read
        for ``size``, not consumed) are stepped in order while the pointer
        channel has a free slot; ``capacity[c]()`` is channel ``c``'s free
        slots, asked when the pointer first lands on ``c`` in this call
        and counted down from there.  With ``due > 0`` the call also stops
        after the step that takes the pointer into channel ``position``
        for the ``due``-th time — a marker batch is owed there — counting
        every entry, including each one of a hop over several channels or
        rounds that a deep overdraw makes in one step.  ``room``, when
        given, is what the caller already got from ``capacity[ptr]()``
        for the pointer channel; it is not asked again.

        Returns ``(channels, crossings)``: the channel of each packet
        stepped and how often the pointer entered ``position``.
        """
        out: List[int] = []
        append = out.append
        ptr = self.ptr
        rnd = self.round_number
        dc = self.dc
        quanta = self.quanta
        n = len(quanta)
        count_packets = self.count_packets
        rooms: Dict[int, int] = {}
        if room is None:
            room = capacity[ptr]()
        crossings = 0
        for packet in queue:
            if room <= 0:
                break
            room -= 1
            append(ptr)
            d = dc[ptr] - (1.0 if count_packets else packet.size)
            dc[ptr] = d
            if d <= 0:
                rooms[ptr] = room
                while True:
                    ptr += 1
                    if ptr == n:
                        ptr = 0
                        rnd += 1
                    if ptr == position:
                        crossings += 1
                    d = dc[ptr] + quanta[ptr]
                    dc[ptr] = d
                    if d > 0:
                        break
                if crossings >= due > 0:
                    break
                room = rooms.get(ptr)
                if room is None:
                    room = capacity[ptr]()
        self.ptr = ptr
        self.round_number = rnd
        return out, crossings

    def snapshot(self) -> SRRState:
        return SRRState(self.ptr, self.round_number, tuple(self.dc))

    def restore(self, snapshot: SRRState) -> None:
        if len(snapshot.dc) != len(self.quanta):
            raise ValueError(
                f"snapshot has {len(snapshot.dc)} channels, "
                f"kernel has {len(self.quanta)}"
            )
        self.ptr = snapshot.ptr
        self.round_number = snapshot.round_number
        self.dc = list(snapshot.dc)

    # ------------------------------------------------------------------ #
    # marker support (section 5): same semantics as SRR, off the live state

    def implicit_number(self) -> Tuple[int, float]:
        """The ``(R, D)`` implicit number of the next packet to be sent."""
        return (self.round_number, self.dc[self.ptr])

    def next_numbers(self) -> List[Tuple[int, float]]:
        """Every channel's next implicit number ``(r, d)``, in one pass.

        This is what one marker batch carries, a marker per channel; see
        :meth:`repro.core.srr.SRR.next_number_for_channel`.
        """
        ptr, this_round, dc = self.ptr, self.round_number, self.dc
        out: List[Tuple[int, float]] = []
        for channel, quantum in enumerate(self.quanta):
            rnd, d = this_round, dc[channel]
            if channel != ptr:
                # Visited later this round, or not before the next one.
                if channel < ptr:
                    rnd += 1
                d += quantum
                while d <= 0:
                    rnd += 1
                    d += quantum
            out.append((rnd, d))
        return out


class CFQKernelAdapter(SchedulerKernel):
    """Kernel over any immutable :class:`~repro.core.cfq.CausalFQ`.

    Holds the algorithm's current state and advances it through
    ``select``/``update``.  Slower than a native kernel (every step still
    allocates a new state object) but gives arbitrary CFQ algorithms —
    seeded randomized schemes, user-defined ones — the same stepping,
    batching, and snapshot surface.
    """

    __slots__ = ("algorithm", "state")

    def __init__(self, algorithm: CausalFQ, state: Any = None) -> None:
        self.algorithm = algorithm
        self.state = state if state is not None else algorithm.initial_state()

    @property
    def n_channels(self) -> int:
        return self.algorithm.n_channels

    def peek(self) -> int:
        return self.algorithm.select(self.state)

    def step(self, size: int) -> int:
        channel = self.algorithm.select(self.state)
        self.state = self.algorithm.update(self.state, size)
        return channel

    def snapshot(self) -> Any:
        return self.state

    def restore(self, snapshot: Any) -> None:
        self.state = snapshot

    def reset(self) -> None:
        self.state = self.algorithm.initial_state()


def kernel_for(algorithm: CausalFQ) -> SchedulerKernel:
    """The fastest kernel available for ``algorithm``.

    SRR-family algorithms (SRR, and RR / GRR via :func:`~repro.core.srr.make_rr`
    / :func:`~repro.core.srr.make_grr`) get the native :class:`SRRKernel`;
    every other :class:`~repro.core.cfq.CausalFQ` is wrapped in a
    :class:`CFQKernelAdapter`.
    """
    if isinstance(algorithm, SRR):
        return SRRKernel(algorithm)
    if isinstance(algorithm, CausalFQ):
        return CFQKernelAdapter(algorithm)
    raise TypeError(f"no kernel available for {algorithm!r}")
