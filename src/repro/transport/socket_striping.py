"""Transport-level striping across UDP sockets (section 6.3).

"In addition to implementing the strIPe protocol in the NetBSD kernel, a
striping protocol was also implemented at the transport layer by striping
packets across multiple application sockets using the same SRR striping
and resequencing algorithm."

One striped *channel* here is a UDP flow (a socket pair on a dedicated
port), and the UDP transport is a port type plus the functions that build
and bind it — the pipelines themselves are
:class:`~repro.transport.endpoint.StripeSenderPipeline` /
:class:`~repro.transport.endpoint.StripeReceiverPipeline`, unmodified:

* :class:`UdpChannelPort` maps one UDP flow onto the
  :class:`~repro.transport.endpoint.ChannelPort` protocol (ARP, FCVC
  credit and full-egress-queue stalls resume the pump through
  ``on_unblocked``);
* :func:`udp_ports` builds the N sender-side ports,
  :func:`bind_udp_receiver` binds the N arrival sockets to
  ``receiver.push``;
* :func:`udp_flow` / :func:`udp_listen` are the two ends of a reverse
  control flow, and :func:`udp_credit_flow` + :func:`credit_listener`,
  :func:`udp_ack_flow` + :func:`ack_listener` specialise them for FCVC
  credit advertisements and reliability acknowledgments (credits can
  also piggyback on reverse-direction markers — see
  :mod:`repro.transport.duplex`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.markers import piggybacked_credit
from repro.core.packet import is_marker
from repro.net.addresses import IPAddress
from repro.net.stack import Stack
from repro.transport.credit import CreditPacket, CreditSender
from repro.transport.reliability import AckPacket
from repro.transport.udp import UdpLayer, UdpSocket


class UdpChannelPort:
    """Endpoint channel port sending over one UDP flow, with credits."""

    def __init__(
        self,
        socket: UdpSocket,
        dst: IPAddress,
        dst_port: int,
        src_ip: Optional[IPAddress],
        channel_index: int,
        credit_sender: Optional[CreditSender],
    ) -> None:
        self.socket = socket
        self.dst = dst
        self.dst_port = dst_port
        self.src_ip = src_ip
        self.channel_index = channel_index
        self.credit_sender = credit_sender
        self.sent_data = 0
        self.sent_markers = 0
        #: filled by the owning pipeline; called when an ARP stall resolves
        #: or the egress queue frees a slot
        self.on_unblocked = None
        self._arp_hooked = False

    def send(self, packet: Any, force: bool = False) -> bool:
        if not is_marker(packet) and self.credit_sender is not None:
            self.credit_sender.on_send(self.channel_index)
            self.sent_data += 1
        elif is_marker(packet):
            self.sent_markers += 1
        else:
            self.sent_data += 1
        return self.socket.sendto(
            packet, packet.size, self.dst, self.dst_port,
            src=self.src_ip, force=force or is_marker(packet),
        )

    def can_accept(self) -> bool:
        if self.credit_sender is not None and not self.credit_sender.can_send(
            self.channel_index
        ):
            return False
        stack = self.socket.layer.stack
        route = stack.routing.lookup(self.dst)
        if route is None:
            return False
        iface = route.interface
        # An unresolved Ethernet next hop behaves as backpressure: kick the
        # ARP exchange and wait rather than queueing unboundedly behind it.
        next_hop = route.next_hop if route.next_hop is not None else self.dst
        resolved = getattr(iface, "resolved", None)
        if resolved is not None and not resolved(next_hop):
            iface.start_resolution(next_hop)
            if not self._arp_hooked and self.on_unblocked is not None:
                self._arp_hooked = True
                iface.on_arp_resolved.append(lambda ip: self.on_unblocked())
            return False
        # The channel's free slots resume the pump, unless its owner
        # already listens for space.  Armed at the first ask, not at the
        # first full queue: a recovery-mode sender stops asking at its
        # channel's high-water mark, long before the egress queue fills.
        channel = getattr(iface, "channel_out", None)
        if (
            channel is not None and channel.on_space is None
            and self.on_unblocked is not None
        ):
            channel.on_space = lambda: self.on_unblocked()
        return iface.can_accept()

    def close(self) -> None:
        self.socket.close()

    @property
    def queue_length(self) -> int:
        stack = self.socket.layer.stack
        route = stack.routing.lookup(self.dst)
        return route.interface.queue_length if route else 0

    @property
    def drained(self) -> int:
        """Cumulative frames that left this port's egress queue.

        The stall monitor's progress signal: at saturation the queue
        length sits pinned at its limit even while frames flow, so queue
        depth cannot distinguish a healthy saturated channel from a
        wedged one — transmission completions can.  (Losses count as
        drain: a lossy-but-transmitting link is the receiver-side
        detector's problem, not a sender-side stall.)
        """
        stack = self.socket.layer.stack
        route = stack.routing.lookup(self.dst)
        channel = getattr(route.interface, "channel_out", None) if route else None
        if channel is None:
            return 0
        return channel.stats.delivered_packets + channel.stats.lost_packets


def udp_ports(
    stack: Stack,
    destinations: Sequence[Tuple[IPAddress | str, int]],
    credit: Optional[CreditSender] = None,
) -> List[UdpChannelPort]:
    """One :class:`UdpChannelPort` per ``(dst_ip, dst_port)`` pair, each on
    its own socket; ``credit`` is the FCVC sender every port charges its
    data sends to."""
    layer = _udp_layer_for(stack)
    return [
        UdpChannelPort(
            layer.bind(), IPAddress.parse(dst_ip), dst_port, None, index,
            credit,
        )
        for index, (dst_ip, dst_port) in enumerate(destinations)
    ]


def udp_listen(
    stack: Stack, port: int, on_payload: Callable[[Any], Any]
) -> UdpSocket:
    """Bind ``port`` on ``stack``; every datagram's payload goes to
    ``on_payload``."""
    return _udp_layer_for(stack).bind(
        port, on_datagram=lambda datagram, src: on_payload(datagram.payload)
    )


def bind_udp_receiver(
    stack: Stack, receiver: Any, base_port: int
) -> List[UdpSocket]:
    """Channel *i* of ``receiver`` arrives on ``base_port + i``."""
    return [
        udp_listen(stack, base_port + index, partial(receiver.push, index))
        for index in range(receiver.n_channels)
    ]


def udp_flow(
    stack: Stack, to: IPAddress | str, port: int, force: bool = False
) -> Callable[[Any], bool]:
    """``send(packet)`` over a dedicated UDP flow to ``(to, port)``;
    ``force`` bypasses egress queue limits (control traffic)."""
    socket = _udp_layer_for(stack).bind()
    to = IPAddress.parse(to)
    return lambda packet: socket.sendto(
        packet, packet.size, to, port, force=force
    )


def udp_credit_flow(
    stack: Stack, to: IPAddress | str, port: int
) -> Callable[[int, int], None]:
    """A :class:`~repro.transport.credit.CreditReceiver` ``send_credit``
    advertising over a dedicated reverse UDP flow."""
    send = udp_flow(stack, to, port)
    return lambda channel, limit: send(
        CreditPacket(channel=channel, limit=limit)
    )


def credit_listener(credit: CreditSender) -> Callable[[Any], None]:
    """The sender end of a credit flow: standalone advertisements, or
    credits piggybacked on reverse-direction markers."""

    def on_payload(payload: Any) -> None:
        if isinstance(payload, CreditPacket):
            credit.on_credit(payload.channel, payload.limit)
        else:
            piggyback = piggybacked_credit(payload)
            if piggyback is not None:
                credit.on_credit(*piggyback)

    return on_payload


def udp_ack_flow(
    stack: Stack, to: IPAddress | str, port: int
) -> Callable[[Any], None]:
    """A receiver pipeline ``send_ack`` over a dedicated reverse UDP flow
    (like the credit one): each ack an
    :class:`~repro.transport.reliability.AckPacket`."""
    send = udp_flow(stack, to, port, force=True)
    return lambda sack: send(AckPacket(sack=sack))


def ack_listener(sender: Any) -> Callable[[Any], None]:
    """The sender end of an ack flow: every ack reaches
    ``sender.on_ack``."""

    def on_payload(payload: Any) -> None:
        if getattr(payload, "sack", None) is not None:
            sender.on_ack(payload)

    return on_payload


def _udp_layer_for(stack: Stack) -> UdpLayer:
    """Get or create the stack's UDP layer."""
    existing = getattr(stack, "_udp_layer", None)
    if existing is not None:
        return existing
    layer = UdpLayer(stack)
    stack._udp_layer = layer  # type: ignore[attr-defined]
    return layer
