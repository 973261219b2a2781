"""Fast-path transport striping: direct channel ports, no UDP/IP stack.

The reference path of :mod:`repro.transport.socket_striping` walks every
packet through the full UDP/IP/Ethernet stack — socket ``sendto``, routing
lookup, ARP check, Ethernet encapsulation — and pays one engine event plus
one Python callback chain per packet per hop.  All of that plumbing is
*synchronous in simulated time*: it adds framing bytes but no delay.  The
fast path therefore strips it away:

* :class:`FastChannelPort` talks to a :class:`~repro.sim.channel.Channel`
  directly; its burst surface (``send_burst`` / ``free_capacity``) lets
  the striper's pump hand each channel all the packets it has room for
  as one burst.
* :func:`bind_fast_receiver` points the channels' deliveries at a
  receiver pipeline and installs :func:`wire_size` as their ``size_of``
  hook — the framing the stack would have added — so wire timing is
  bit-identical to the reference path; :func:`wire_fast_ack_path` does the
  same for the reverse ack flow.

Determinism contract: the fast path produces the *identical delivery
sequence* as the reference path, and for loss-free runs the identical
``(time, seq)`` delivery records — the property tests in
``tests/properties/test_fast_path_equivalence.py`` check both.  Counters
sampled at the horizon (``sent``, ``markers_sent``,
``marker_overhead_fraction``) are *not* part of the contract: they can
differ by up to one transmit queue per channel (the burst-mode buffering
described in :mod:`repro.sim.channel`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.packet import Codepoint, SackInfo
from repro.headers import (
    ETHERNET_MIN_PAYLOAD,
    ETHERNET_OVERHEAD,
    IP_HEADER_BYTES,
    UDP_HEADER_BYTES,
)
from repro.sim.channel import Channel
from repro.transport.reliability import AckPacket

__all__ = [
    "FastAckPort",
    "FastChannelPort",
    "bind_fast_receiver",
    "wire_fast_ack_path",
    "wire_size",
]


#: ``free_capacity`` of an unbounded queue: larger than any backlog
_UNBOUNDED = 1 << 30
_WIRE_HEADERS = IP_HEADER_BYTES + UDP_HEADER_BYTES
_WIRE_MIN = ETHERNET_MIN_PAYLOAD
_WIRE_OVERHEAD = ETHERNET_OVERHEAD


def wire_size(packet: Any) -> int:
    """Ethernet wire bytes for a transport payload sent via UDP/IP.

    Exactly what the reference path's encapsulation chain computes:
    UDP header + IP header + Ethernet framing (with minimum-payload
    padding) — the arithmetic of :func:`ethernet_wire_size`, inlined
    because this runs once per wire packet on the fast path.  Installing
    this as a fast channel's ``size_of`` makes the direct-to-channel
    path time-identical to the full-stack path.
    """
    payload = _WIRE_HEADERS + packet.size
    if payload < _WIRE_MIN:
        payload = _WIRE_MIN
    return payload + _WIRE_OVERHEAD


class FastChannelPort:
    """Striper port writing straight into a simulated channel."""

    __slots__ = ("channel", "sent_data", "sent_markers")

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.sent_data = 0
        self.sent_markers = 0

    def send(self, packet: Any, force: bool = False) -> bool:
        # is_marker(packet), without its frame
        if getattr(packet, "codepoint", None) == Codepoint.MARKER:
            self.sent_markers += 1
            return self.channel.send(packet, True)
        self.sent_data += 1
        return self.channel.send(packet, force)

    def send_burst(self, packets: Sequence[Any]) -> None:
        self.sent_data += len(packets)
        self.channel.send_burst(packets)

    def can_accept(self) -> bool:
        return self.channel.can_accept()

    def free_capacity(self) -> int:
        """Transmit-queue slots a non-forced send could still fill."""
        channel = self.channel
        limit = channel.queue_limit
        if limit is None:
            return _UNBOUNDED
        free = limit - len(channel._queue)
        return free if free > 0 else 0

    @property
    def queue_length(self) -> int:
        return len(self.channel._queue)  # Channel.queue_length, one frame


def bind_fast_receiver(channels: Sequence[Channel], receiver: Any) -> None:
    """Channel *i*'s deliveries feed ``receiver`` directly.

    Transport payloads ride the channels without the UDP/IP/Ethernet
    plumbing: the stack's framing bytes are folded into ``size_of`` so
    wire timing is unchanged, and arrivals skip the interface demux chain.
    """
    for index, channel in enumerate(channels):
        channel.fast = True
        channel.size_of = wire_size
        channel.on_deliver = receiver.channel_handler(index)


class FastAckPort:
    """Reverse-path ack transmitter writing straight into a channel.

    The reference stack sends each :class:`AckPacket` as a UDP datagram on
    the dedicated ack flow — one ``sendto``, a routing lookup, Ethernet
    encapsulation, all with zero simulated delay.  The fast counterpart
    enqueues the ack directly on the reverse channel (``force=True``, like
    the reference ``sendto`` on the control flow), with :func:`wire_size`
    as the channel's ``size_of`` so serialization timing is identical.
    """

    __slots__ = ("channel", "acks_sent")

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.acks_sent = 0

    def send_sack(self, sack: SackInfo) -> None:
        self.acks_sent += 1
        self.channel.send(AckPacket(sack=sack), force=True)


def wire_fast_ack_path(channel: Channel, sender: Any) -> FastAckPort:
    """Wire ``channel`` as the fast reverse ack path into ``sender``.

    Installs :func:`wire_size` as the channel's ``size_of`` (matching the
    reference ack flow's UDP/IP/Ethernet framing), enables the channel's
    fast mode, and points its delivery callback at the sender's ack input
    with the same SACK filter the reference datagram handler applies.
    Returns the :class:`FastAckPort` whose :meth:`~FastAckPort.send_sack`
    the receiver should use as its ``send_ack``.
    """
    channel.size_of = wire_size
    channel.fast = True

    def deliver(packet: Any) -> None:
        if getattr(packet, "sack", None) is not None:
            sender.on_ack(packet)

    channel.on_deliver = deliver
    return FastAckPort(channel)
