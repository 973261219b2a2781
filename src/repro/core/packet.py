"""Packet types used throughout the library.

Two kinds of packets cross a striped channel group:

* :class:`Packet` — ordinary data packets.  Crucially, the striping protocol
  never modifies them: no sequence number or striping header is added (this
  is the paper's headline constraint, section 2.1).
* :class:`MarkerPacket` — the periodic synchronization markers of section 5.
  Markers are distinguished from data by a *codepoint* at the link layer
  (e.g. a distinct Ethernet type field), not by modifying data packets.

Packets carry a monotonically increasing ``seq`` assigned by the test/
experiment harness at the *sender input*.  The protocol itself never reads
``seq`` — it exists purely so that tests and metrics can check FIFO
delivery.  (Think of it as the experimenter writing numbers on the outside
of envelopes.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional, Tuple


class Codepoint:
    """Link-layer demultiplexing codepoints.

    The paper requires only that "the lower level protocol provides a
    distinct codepoint... for the marker packets" (section 5).
    """

    DATA = "data"
    MARKER = "marker"
    CREDIT = "credit"
    ACK = "ack"
    #: erasure-coded parity for a stripe group (:mod:`repro.transport.fec`);
    #: like markers, parity is distinguished by codepoint so data packets
    #: stay unmodified (section 2.1).
    PARITY = "parity"


# The wire types are built once or more per packet, so constructing one
# costs a single frame: the uid factory is a C call, and a type that must
# validate has a hand-written ``__init__`` doing so inline instead of a
# generated one plus ``__post_init__``.  Fields, ``eq``, ``repr`` and slots
# stay the dataclass decorator's.


@dataclass(frozen=True, init=False)
class SackInfo:
    """Selective-acknowledgment state for the reliability layer.

    ``cum_ack`` is the lowest bundle sequence number (``rseq``) not yet
    received in order: every rseq below it has been delivered.  ``blocks``
    are absolute ``[start, end)`` ranges of rseqs received out of order
    above ``cum_ack`` (most recently touched first, per RFC 2018 custom).
    ``acks`` is how many acks this one stands for: the receiver merges
    the acks one simulated instant earns into one, and the sender counts
    each toward its fast-retransmit threshold.  It rides reserved header
    space, as the ack's ``epoch`` does.
    """

    cum_ack: int
    blocks: Tuple[Tuple[int, int], ...] = ()
    acks: int = 1

    def __init__(
        self,
        cum_ack: int,
        blocks: Tuple[Tuple[int, int], ...] = (),
        acks: int = 1,
    ) -> None:
        for start, end in blocks:
            if not cum_ack <= start < end:
                raise ValueError(
                    f"bad SACK block [{start}, {end}) for cum {cum_ack}"
                )
        object.__setattr__(self, "cum_ack", cum_ack)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "acks", acks)


_packet_ids = itertools.count()


@dataclass(slots=True, init=False)
class Packet:
    """An ordinary, unmodified data packet.

    Attributes:
        size: total size in bytes (as seen by the striping layer).
        seq: harness-assigned input order (not carried on the wire, never
            read by the protocol).
        label: optional human-readable id, e.g. ``"a"`` in the paper's
            Figure 2 example.
        flow: optional flow key (src/dst) used by the address-hashing
            baseline and by per-flow metrics.
        payload: opaque upper-layer object (e.g. an IP packet or an
            application message).
        uid: unique object id for tracing.
    """

    size: int
    seq: Optional[int] = None
    label: Optional[str] = None
    flow: Optional[Any] = None
    payload: Optional[Any] = None
    uid: int = field(default_factory=_packet_ids.__next__)
    codepoint: str = Codepoint.DATA
    #: bundle sequence number assigned by the reliability layer
    #: (:mod:`repro.transport.reliability`); None in best-effort and
    #: quasi-FIFO modes.  Like ``seq`` it is end-to-end state above the
    #: striper — the striping layer itself never reads it, preserving the
    #: no-header-on-data property of section 2.1.
    rseq: Optional[int] = None
    #: FEC group sequence number assigned by :class:`~repro.transport.fec.
    #: FecSender`; None outside the fec/hybrid reliability modes.  End-to-end
    #: state like ``seq``/``rseq`` — never read by the striper.
    fseq: Optional[int] = None
    #: True for packets reconstructed by the FEC receiver rather than
    #: received off a channel.  Synthesized packets carry fresh uids and are
    #: barred from re-entering a :class:`PacketPool` (the original may still
    #: be in flight or in an ARQ retransmit buffer).
    synthesized: bool = False

    def __init__(
        self, size: int, seq: Optional[int] = None,
        label: Optional[str] = None, flow: Optional[Any] = None,
        payload: Optional[Any] = None, uid: Optional[int] = None,
        codepoint: str = Codepoint.DATA, rseq: Optional[int] = None,
        fseq: Optional[int] = None, synthesized: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.size = size
        self.seq = seq
        self.label = label
        self.flow = flow
        self.payload = payload
        self.uid = next(_packet_ids) if uid is None else uid
        self.codepoint = codepoint
        self.rseq = rseq
        self.fseq = fseq
        self.synthesized = synthesized

    def __repr__(self) -> str:
        tag = self.label if self.label is not None else self.seq
        return f"Packet({tag}, {self.size}B)"


@dataclass(slots=True)
class MarkerPacket:
    """A synchronization marker for one channel (section 5).

    Attributes:
        channel: the sender's number for the channel this marker travels on
            (carried so the receiver adopts the sender's channel numbering —
            condition C2).
        round_number: round number ``r`` of the *next* data packet the
            sender will send on this channel.
        deficit: deficit-counter value ``d`` that channel will have when
            that next packet is sent (the packet's implicit number is the
            pair ``(r, d)``).
        credit: optional piggybacked flow-control credit (section 6.3 /
            Kung-Chapman FCVC), in packets.
        size: bytes on the wire, the same for every marker: the length of
            :func:`~repro.core.markers.encode_marker`'s frame
            (``MARKER_WIRE_BYTES``).
    """

    size: ClassVar[int] = 32
    channel: int
    round_number: int
    deficit: float
    credit: Optional[int] = None
    uid: int = field(default_factory=_packet_ids.__next__)
    codepoint: str = Codepoint.MARKER

    def __repr__(self) -> str:
        return (
            f"Marker(ch={self.channel}, G={self.round_number}, "
            f"DC={self.deficit})"
        )


def is_marker(packet: Any) -> bool:
    """True if ``packet`` is a synchronization marker."""
    return getattr(packet, "codepoint", Codepoint.DATA) == Codepoint.MARKER


#: packets a :class:`PacketPool` keeps on its free list
POOL_MAX_SIZE = 4096


class PacketPool:
    """A free-list allocator for :class:`Packet` objects.

    High-rate closed-loop sources allocate (and the engine then discards)
    one :class:`Packet` per message; at millions of packets per run the
    constructor + garbage-collector cost is a measurable share of the hot
    loop.  The pool recycles retired packets instead: :meth:`acquire`
    reinitializes a packet off the free list (falling back to a fresh
    construction when the list is empty) and :meth:`release` retires one.

    Lifecycle rules — the pool is a pure memory optimization and must
    never change observable behavior:

    * only release a packet once **no** reference to it can resurface:
      after final delivery, or after a transmit-side drop, on paths where
      the packet cannot be retransmitted.  The reliability layer keeps
      unacknowledged packets in its retransmit buffer, so reliable-mode
      harnesses only pool when the run is loss-free.
    * **marker-free receive** (hash-synchronized disciplines, reception
      mode ``"direct"``): delivery happens *at arrival* with structurally
      zero receiver buffering, so release-at-delivery is always safe —
      no resequencer ever holds a reference past the delivery callback,
      and reliable mode (the one path that would) is unavailable without
      a marker stream.  This is the cheapest pooling contract of any
      reception mode and is asserted by the fast-path stats tests.
    * a reacquired packet gets a **fresh** ``uid``, so tracing and dedup
      logic see it as the new logical packet it is.
    * releasing the **same object twice** is refused (counted in
      ``double_releases``): a ``duplicate`` fault delivers one packet
      object through two delivery callbacks, and pooling it twice would
      hand the same storage to two independent acquirers.  The guard is
      uid-based, so a recycled-and-reacquired packet (fresh uid) releases
      normally.
    """

    __slots__ = (
        "_free",
        "_free_uids",
        "allocated",
        "reused",
        "released",
        "double_releases",
    )

    def __init__(self) -> None:
        self._free: list = []
        self._free_uids: set = set()
        #: fresh constructions (free list was empty)
        self.allocated = 0
        #: packets served from the free list
        self.reused = 0
        #: packets retired into the free list
        self.released = 0
        #: release attempts refused because the packet was already pooled
        self.double_releases = 0

    def acquire(
        self,
        size: int,
        seq: Optional[int] = None,
        flow: Optional[Any] = None,
        payload: Optional[Any] = None,
    ) -> Packet:
        """A data packet, recycled when possible."""
        free = self._free
        if free:
            packet = free.pop()
            self._free_uids.discard(packet.uid)
            packet.size = size
            packet.seq = seq
            packet.label = None
            packet.flow = flow
            packet.payload = payload
            packet.uid = next(_packet_ids)
            packet.codepoint = Codepoint.DATA
            packet.rseq = None
            packet.fseq = None
            packet.synthesized = False
            self.reused += 1
            return packet
        self.allocated += 1
        return Packet(size=size, seq=seq, flow=flow, payload=payload)

    def release(self, packet: Any) -> None:
        """Retire a packet whose lifecycle has provably ended.

        Receiver-synthesized (FEC-reconstructed) packets are refused: the
        original sender-side packet they stand in for may still live in an
        ARQ retransmit buffer or arrive late off a channel, so recycling
        the reconstruction could alias two live logical packets.

        A packet already sitting in the free list (same uid) is refused —
        a ``duplicate`` fault delivers one object twice, and accepting
        both releases would alias two future acquisitions.
        """
        if (
            type(packet) is Packet
            and not packet.synthesized
            and len(self._free) < POOL_MAX_SIZE
        ):
            if packet.uid in self._free_uids:
                self.double_releases += 1
                return
            self.released += 1
            self._free.append(packet)
            self._free_uids.add(packet.uid)
