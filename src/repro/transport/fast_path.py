"""Fast-path transport striping: batched pump over direct channel ports.

The slow (reference) path of :mod:`repro.transport.socket_striping` walks
every packet through the full UDP/IP/Ethernet stack — socket ``sendto``,
routing lookup, ARP check, Ethernet encapsulation — and pays one engine
event plus one Python callback chain per packet per hop.  All of that
plumbing is *synchronous in simulated time*: it adds framing bytes but no
delay.  The fast path therefore strips it away:

* :class:`FastChannelPort` talks to a :class:`~repro.sim.channel.Channel`
  directly and accounts for the framing the stack would have added via the
  channel's ``size_of`` hook (:func:`wire_size`), so wire timing is
  bit-identical to the reference path.
* :class:`~repro.transport.endpoint.FastStriper` (re-exported here)
  replaces the per-packet choose/send/notify loop with a batched pump:
  snapshot the SRR kernel, assign a whole chunk of the input queue with
  :meth:`~repro.core.kernel.SRRKernel.assign_many`, cut the chunk at the
  first head-of-line block or marker emission point, and hand each channel
  its packets as one burst (:meth:`~repro.sim.channel.Channel.send_burst`).
* :class:`FastStripedSender` / :class:`FastStripedReceiver` are thin
  adapters over the shared endpoint pipelines
  (:class:`~repro.transport.endpoint.StripeSenderPipeline` /
  :class:`~repro.transport.endpoint.StripeReceiverPipeline`): the port
  capabilities select the batched pump automatically, and the surface
  (ports with ``sent_data``/``sent_markers``, ``submit_packet``,
  ``backlog``, per-channel arrival handlers) matches the striped-socket
  stack, so the experiment harness can swap them in behind a ``fast=True``
  flag.

Determinism contract: for any configuration the harness builds (it
rejects a receiver buffer cap or credit flow control on this path), the
fast path produces the *identical delivery sequence* as the reference
path, and for loss-free runs the identical ``(time, seq)`` delivery
records — the property tests in
``tests/properties/test_fast_path_equivalence.py`` check both.  Counters
sampled at the horizon (``sent``, ``markers_sent``,
``marker_overhead_fraction``) are *not* part of the contract: they can
differ by up to one transmit queue per channel (the burst-mode buffering
described in :mod:`repro.sim.channel`).
The batched pump reconstructs marker-position crossings from the
``assign_many`` channel vector; if the pointer trajectory cannot be
reconstructed exactly (a deep-overdraw multi-channel hop, only possible
when a packet exceeds the smallest quantum), it falls back to the exact
per-packet pump for that chunk.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.cfq import CausalFQ
from repro.core.packet import SackInfo, is_marker
from repro.core.striper import MarkerPolicy
from repro.net.ethernet import ETHERNET_MIN_PAYLOAD, ETHERNET_OVERHEAD
from repro.net.ip import IP_HEADER_BYTES
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    _UNBOUNDED,
    FastStriper,
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.reliability import AckPacket
from repro.transport.udp import UDP_HEADER_BYTES

__all__ = [
    "FastAckPort",
    "FastChannelPort",
    "FastStripedReceiver",
    "FastStripedSender",
    "FastStriper",
    "wire_fast_ack_path",
    "wire_size",
]


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
        if is_marker(packet):
            self.sent_markers += 1
            return self.channel.send(packet, force=True)
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
        return self.channel.queue_length


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


class FastStripedSender(StripeSenderPipeline):
    """Drop-in fast replacement for ``StripedSocketSender``.

    Same submission surface and per-port counters, but packets go straight
    to the channels through :class:`FastChannelPort`, whose burst support
    makes the shared pipeline pick the batched
    :class:`~repro.transport.endpoint.FastStriper`.  No credit flow
    control — the FCVC experiments measure per-packet control-plane
    behaviour and stay on the reference path.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: Sequence[Channel],
        algorithm: CausalFQ,
        marker_policy: Optional[MarkerPolicy] = None,
        reliability: str = "quasi_fifo",
        reliability_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            [FastChannelPort(channel) for channel in channels],
            algorithm,
            marker_policy=marker_policy,
            sim=sim,
            reliability=reliability,
            reliability_options=reliability_options,
        )

    def stats(self) -> Dict[str, Any]:
        """Fast-path perf counters: batched pump plus (if any) ARQ stats."""
        stats: Dict[str, Any] = dict(self.striper.stats())
        if self.reliable is not None:
            arq = self.reliable.stats
            stats["burst_submits"] = arq.burst_submits
            stats["sack_scans"] = arq.sack_scans
            stats["sack_visits"] = arq.sack_visits
            stats["fast_retransmissions"] = arq.fast_retransmissions
            stats["batched_retransmissions"] = arq.batched_retransmissions
        return stats


class FastStripedReceiver(StripeReceiverPipeline):
    """Drop-in fast replacement for ``StripedSocketReceiver``.

    Channel arrivals are plain transport payloads (no datagram wrapper);
    :meth:`~repro.transport.endpoint.StripeReceiverPipeline.channel_handler`
    builds the per-channel callback to install as the channel's
    ``on_deliver``.  The resequencing modes and the physical buffer-cap
    drop rule come from the shared pipeline and match the reference
    receiver exactly.
    """

    def __init__(
        self,
        sim: Simulator,
        n_channels: int,
        algorithm: CausalFQ,
        mode: str = "marker",
        on_message: Optional[Callable[[Any], None]] = None,
        buffer_packets: Optional[int] = None,
        reliability: str = "quasi_fifo",
        send_ack: Optional[Callable[[Any], None]] = None,
        reliability_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            n_channels,
            algorithm,
            mode=mode,
            on_message=on_message,
            buffer_packets=buffer_packets,
            sim=sim,
            reliability=reliability,
            send_ack=send_ack,
            reliability_options=reliability_options,
        )
