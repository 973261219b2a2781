"""Surplus Round Robin (SRR) — the paper's workhorse CFQ algorithm.

SRR (section 3.5) is a variant of Deficit Round Robin in which a queue may
*overdraw* its deficit counter: when a queue is selected, its deficit
counter (DC) is incremented by its quantum, and packets are sent while the
DC is *positive*; the DC is decremented by each packet's size, possibly
going negative ("surplus"), in which case the queue is penalized by that
amount in the next round.  Unlike classic DRR, SRR never needs to look at
the size of the *next* packet — which is exactly what makes it **causal**
and therefore usable for striping with logical reception.

This module also expresses ordinary Round Robin (RR) and Generalized Round
Robin (GRR, integer-weighted packet counting) as members of the SRR family:
they are SRR with every packet costing one unit.  That unification means
the marker synchronization machinery of section 5 works for all three.

State / implicit numbering
--------------------------
An :class:`SRRState` satisfies the invariant that ``dc[ptr] > 0`` and
already includes the quantum for the current visit, so the *next* packet
goes to channel ``ptr`` and carries the implicit number
``(round_number, dc[ptr])`` — the ``(R, D)`` pair of section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.cfq import Capabilities, CausalFQ, NonCausalFQ


@dataclass(frozen=True)
class SRRState:
    """Immutable SRR state.

    Attributes:
        ptr: channel currently being served.
        round_number: the global round number ``G``; a round is one scan of
            all channels, and ``G`` increments when the pointer wraps to
            channel 0.
        dc: per-channel deficit counters.  ``dc[ptr]`` includes the quantum
            for the current visit and is positive; for other channels the
            value is the (possibly negative) surplus carried to their next
            visit.
    """

    ptr: int
    round_number: int
    dc: Tuple[float, ...]


class SRR(CausalFQ):
    """Surplus Round Robin over ``n`` channels.

    Args:
        quanta: per-channel quantum of service.  For byte-counting SRR this
            is in bytes per round and should be proportional to channel
            bandwidth (weighted fair sharing); the paper recommends
            ``quantum_i >= max packet size`` so no channel is ever skipped
            for lack of deficit (assumption of Theorem 5.1).
        count_packets: if True, every packet costs 1 unit regardless of its
            byte size.  ``SRR([1]*n, count_packets=True)`` is ordinary RR;
            integer quanta with ``count_packets=True`` is GRR.
    """

    capabilities = Capabilities(
        fifo_delivery="quasi",
        load_sharing="good",
        environment="At all levels",
    )

    def __init__(
        self, quanta: Sequence[float], count_packets: bool = False
    ) -> None:
        if not quanta:
            raise ValueError("need at least one channel")
        if any(q <= 0 for q in quanta):
            raise ValueError(f"quanta must be positive, got {list(quanta)}")
        self.quanta: Tuple[float, ...] = tuple(float(q) for q in quanta)
        self.count_packets = count_packets

    @property
    def n_channels(self) -> int:
        return len(self.quanta)

    def cost(self, size: int) -> float:
        """Deficit cost of transmitting a packet of ``size`` bytes."""
        return 1.0 if self.count_packets else float(size)

    def initial_state(self) -> SRRState:
        """All DCs start at 0; channel 0 is selected and gets its quantum.

        Matches the paper's Figure 5: "the DC of channel 1 is initially the
        quantum size".  Rounds are numbered from 1.
        """
        dc = [0.0] * self.n_channels
        dc[0] = self.quanta[0]
        return SRRState(ptr=0, round_number=1, dc=tuple(dc))

    def select(self, state: SRRState) -> int:
        return state.ptr

    def update(self, state: SRRState, size: int) -> SRRState:
        dc = list(state.dc)
        dc[state.ptr] -= self.cost(size)
        if dc[state.ptr] > 0:
            return SRRState(state.ptr, state.round_number, tuple(dc))
        ptr, round_number = self.advance(state.ptr, state.round_number, dc)
        return SRRState(ptr, round_number, tuple(dc))

    def advance(
        self, ptr: int, round_number: int, dc: List[float]
    ) -> Tuple[int, int]:
        """Move the round-robin pointer to the next serviceable channel.

        Mutates ``dc`` in place, adding one quantum per visit; channels
        whose DC stays non-positive even after their quantum (deep
        overdraw, only possible when ``quantum < max packet``) are skipped,
        which may span multiple rounds.  Returns the new
        ``(ptr, round_number)``.
        """
        n = self.n_channels
        while True:
            ptr = (ptr + 1) % n
            if ptr == 0:
                round_number += 1
            dc[ptr] += self.quanta[ptr]
            if dc[ptr] > 0:
                return ptr, round_number

    # ------------------------------------------------------------------ #
    # marker support (section 5)

    def next_number_for_channel(
        self, state: SRRState, channel: int
    ) -> Tuple[int, float]:
        """The implicit number ``(r, d)`` of the next packet on ``channel``.

        This is what a marker for ``channel`` carries: the round number and
        deficit-counter value the channel will have when its next data
        packet is sent.  For the currently served channel that is the
        current ``(G, dc)``; for others we roll the state forward through
        future quantum additions until the channel's DC would be positive.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        if channel == state.ptr:
            # Invariant: dc[ptr] > 0, so the next packet is in this round.
            return (state.round_number, state.dc[channel])
        dc = state.dc[channel]
        if channel > state.ptr:
            round_number = state.round_number  # visited later this round
        else:
            round_number = state.round_number + 1  # next round
        dc += self.quanta[channel]
        while dc <= 0:
            round_number += 1
            dc += self.quanta[channel]
        return (round_number, dc)


def make_rr(n: int) -> SRR:
    """Ordinary round robin: one packet per channel per round."""
    rr = SRR([1.0] * n, count_packets=True)
    rr.capabilities = Capabilities(
        fifo_delivery="may_reorder",
        load_sharing="poor",
        environment="At all levels",
    )
    return rr


def make_grr(weights: Sequence[int]) -> SRR:
    """Generalized round robin: ``weights[i]`` packets on channel i per round.

    The paper's GRR "allocates packets to interfaces based on the closest
    integer ratio of their bandwidths" (section 6.2).
    """
    if any(w < 1 or int(w) != w for w in weights):
        raise ValueError(f"GRR weights must be positive integers, got {weights}")
    grr = SRR([float(w) for w in weights], count_packets=True)
    grr.capabilities = Capabilities(
        fifo_delivery="may_reorder",
        load_sharing="poor",
        environment="At all levels",
    )
    return grr


def grr_weights_for_bandwidths(
    bandwidths: Sequence[float], max_denominator: int = 8
) -> List[int]:
    """Closest small-integer ratio of channel bandwidths, for GRR.

    The paper's GRR "allocates packets to interfaces based on the closest
    integer ratio of their bandwidths": e.g. (10e6, 5e6) -> [2, 1] and
    (10e6, 13.8e6) -> [5, 7].  We approximate each bandwidth relative to
    the smallest with a bounded-denominator fraction and put the weights
    over a common denominator.
    """
    from fractions import Fraction
    from math import gcd

    if not bandwidths or any(b <= 0 for b in bandwidths):
        raise ValueError("bandwidths must be positive")
    smallest = min(bandwidths)
    fractions = [
        Fraction(b / smallest).limit_denominator(max_denominator)
        for b in bandwidths
    ]
    common = 1
    for f in fractions:
        common = common * f.denominator // gcd(common, f.denominator)
    weights = [max(1, int(f * common)) for f in fractions]
    divisor = weights[0]
    for w in weights[1:]:
        divisor = gcd(divisor, w)
    return [w // divisor for w in weights]


class DRR(NonCausalFQ):
    """Classic Deficit Round Robin [Shreedhar & Varghese 1994].

    DRR differs from SRR in that a queue sends a packet only if its deficit
    *covers* the packet — so the algorithm must peek at the head-of-line
    packet size before deciding, making it **non-causal**.  It serves here
    as the contrast case showing why the paper modified DRR into SRR for
    striping: a receiver cannot simulate DRR without seeing packets it has
    not received.
    """

    def __init__(self, quanta: Sequence[float]) -> None:
        if not quanta or any(q <= 0 for q in quanta):
            raise ValueError("quanta must be positive")
        self.quanta = tuple(float(q) for q in quanta)

    @property
    def n_queues(self) -> int:
        return len(self.quanta)

    def initial_state(self) -> Tuple[int, Tuple[float, ...]]:
        """``(ptr, deficits)``: ``dc[ptr]`` already includes this visit's quantum."""
        dc = [0.0] * self.n_queues
        dc[0] = self.quanta[0]
        return (0, tuple(dc))

    def next(
        self,
        state: Tuple[int, Tuple[float, ...]],
        head_sizes: Sequence[Optional[int]],
    ) -> Tuple[int, Tuple[int, Tuple[float, ...]]]:
        ptr, deficits = state
        dc = list(deficits)
        n = self.n_queues
        # Walk until the current queue's head fits in its deficit.  Each
        # move to a new queue banks that queue's quantum.  Bounded walk:
        # after enough visits every backlogged queue's deficit exceeds its
        # head (deficits grow by a quantum per visit).
        max_head = max((h for h in head_sizes if h is not None), default=0)
        min_quantum = min(self.quanta)
        visits_needed = n * (2 + int(max_head / min_quantum))
        for _ in range(visits_needed + n):
            head = head_sizes[ptr]
            if head is not None and head <= dc[ptr]:
                return ptr, (ptr, tuple(dc))
            if head is None:
                dc[ptr] = 0.0  # empty queue forfeits its deficit
            ptr = (ptr + 1) % n
            dc[ptr] += self.quanta[ptr]
        raise RuntimeError("DRR walk failed to find a serviceable queue")

    def update(
        self,
        state: Tuple[int, Tuple[float, ...]],
        queue: int,
        size: int,
    ) -> Tuple[int, Tuple[float, ...]]:
        ptr, deficits = state
        dc = list(deficits)
        dc[queue] -= size
        return (ptr, tuple(dc))
