"""The strIPe virtual interface (section 6.1).

strIPe sits between IP and the real data-link interfaces: to IP it looks
like one more interface; internally it runs the sender striping algorithm
and the receiver resequencing algorithm over its *member* interfaces.
Striped data and markers travel under dedicated link-layer codepoints
(``STRIPE_DATA`` / ``STRIPE_MARKER``), so member interfaces hand them to
the strIPe layer instead of IP — and data packets are never modified.

The interface's MTU is the minimum of the member MTUs, as the paper
requires for any striping scheme that does not fragment internally.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.cfq import CausalFQ
from repro.core.packet import is_marker
from repro.core.resequencer import make_resequencer
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy, Striper
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.net.fragmentation import FragmentingStriper, Reassembler
from repro.net.addresses import IPAddress
from repro.net.ethernet import EthernetInterface
from repro.net.interface import Frame, FrameType, NetworkInterface
from repro.sim.engine import Simulator

#: Receiver modes for the strIPe layer.
RESEQ_MARKER = "marker"  # logical reception + marker recovery (the paper)
RESEQ_PLAIN = "plain"  # logical reception, no loss recovery (Theorem 4.1)
RESEQ_NONE = "none"  # no resequencing (the Figure 15 ablation)


class StripeMemberPort:
    """Adapts a member interface to the striper's :class:`ChannelPort`.

    Also folds ARP into backpressure: until the member's next hop resolves,
    the port reports "cannot accept" and kicks resolution, so the causal
    striper simply waits instead of reordering.
    """

    def __init__(self, interface: NetworkInterface, peer_ip: IPAddress) -> None:
        self.interface = interface
        self.peer_ip = peer_ip

    def send(self, packet: Any, force: bool = False) -> bool:
        codepoint = (
            FrameType.STRIPE_MARKER if is_marker(packet) else FrameType.STRIPE_DATA
        )
        return self.interface.send_with_codepoint(  # type: ignore[attr-defined]
            packet, codepoint, self.peer_ip, force=force
        )

    def can_accept(self) -> bool:
        iface = self.interface
        if isinstance(iface, EthernetInterface) and not iface.resolved(self.peer_ip):
            iface.start_resolution(self.peer_ip)
            return False
        return iface.can_accept()

    @property
    def queue_length(self) -> int:
        return self.interface.queue_length


class StripeInterface(NetworkInterface):
    """A virtual IP interface that stripes across member interfaces.

    Args:
        sim: event engine.
        name: interface label (the paper's "interface C").
        ip_address: the address IP uses to talk to this interface.
        members: ``(interface, peer_ip)`` pairs — each member link and the
            receiver's address on that link.
        algorithm: the CFQ algorithm (SRR family for marker mode).
        resequencing: one of :data:`RESEQ_MARKER`, :data:`RESEQ_PLAIN`,
            :data:`RESEQ_NONE`.
        marker_policy: marker emission policy (marker mode only).
        input_queue_limit: max packets in the striper's input queue;
            overflow is dropped (kernel ifqueue semantics) so TCP sees
            congestion.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip_address: IPAddress | str,
        members: Sequence[Tuple[NetworkInterface, IPAddress | str]],
        algorithm: CausalFQ,
        resequencing: str = RESEQ_MARKER,
        marker_policy: Optional[MarkerPolicy] = None,
        input_queue_limit: int = 200,
        fragmentation: bool = False,
    ) -> None:
        if not members:
            raise ValueError("strIPe needs at least one member interface")
        if len(members) != algorithm.n_channels:
            raise ValueError(
                f"algorithm expects {algorithm.n_channels} channels, "
                f"got {len(members)} members"
            )
        # Without internal fragmentation the bundle is stuck at the
        # smallest member MTU (the paper's §6.2 restriction); with it, the
        # largest member MTU is usable.
        if fragmentation:
            mtu = max(iface.mtu for iface, _ in members)
        else:
            mtu = min(iface.mtu for iface, _ in members)
        super().__init__(sim, name, ip_address, mtu)
        self.fragmentation = fragmentation
        self.members: List[NetworkInterface] = [iface for iface, _ in members]
        self.peer_ips: List[IPAddress] = [
            IPAddress.parse(peer) for _, peer in members
        ]
        self.algorithm = algorithm
        self.resequencing = resequencing
        self.input_queue_limit = input_queue_limit
        self.input_drops = 0

        # --- sender side -------------------------------------------------
        self.ports = [
            StripeMemberPort(iface, peer)
            for iface, peer in zip(self.members, self.peer_ips)
        ]
        sharer: LoadSharer = TransformedLoadSharer(algorithm)
        if resequencing == RESEQ_MARKER:
            if marker_policy is None:
                marker_policy = MarkerPolicy()
            if not isinstance(algorithm, SRR):
                raise ValueError("marker mode requires an SRR-family algorithm")
        else:
            marker_policy = None
        if fragmentation:
            self.striper: Striper = FragmentingStriper(
                sharer, self.ports,
                mtus=[iface.mtu for iface in self.members],
                marker_policy=marker_policy,
            )
            self._reassembler: Optional[Reassembler] = Reassembler(
                on_packet=self._deliver_up
            )
        else:
            self.striper = Striper(sharer, self.ports, marker_policy)
            self._reassembler = None

        # --- receiver side ------------------------------------------------
        deliver = (
            self._reassembler.push if self._reassembler is not None
            else self._deliver_up
        )
        self.receiver: Any = make_resequencer(
            algorithm, resequencing,
            on_deliver=deliver, clock=lambda: self.sim.now,
        )

        # --- wiring --------------------------------------------------------
        self._member_index = {id(iface): i for i, iface in enumerate(self.members)}
        for iface in self.members:
            iface.demux[FrameType.STRIPE_DATA] = self._rx_striped
            iface.demux[FrameType.STRIPE_MARKER] = self._rx_striped
            if iface.channel_out is not None:
                iface.channel_out.on_space = self._on_member_space
            resolved_hook = getattr(iface, "on_arp_resolved", None)
            if resolved_hook is not None:
                resolved_hook.append(lambda ip: self.striper.pump())

    # ------------------------------------------------------------------ #
    # sender path

    def encapsulate(
        self, payload: Any, codepoint: str, next_hop: Optional[IPAddress]
    ) -> Optional[Frame]:
        raise NotImplementedError("strIPe is virtual; members do the framing")

    def send_ip(
        self, packet: Any, next_hop: Optional[IPAddress], force: bool = False
    ) -> bool:
        if packet.size > self.mtu:  # MTU = whole IP datagram on the link
            raise ValueError(
                f"packet of {packet.size}B exceeds strIPe MTU {self.mtu}"
            )
        if self.striper.backlog >= self.input_queue_limit:
            self.input_drops += 1
            return False
        self.tx_frames += 1
        self.tx_bytes += packet.size
        self.striper.submit(packet)
        return True

    def can_accept(self) -> bool:
        return self.striper.backlog < self.input_queue_limit

    @property
    def queue_length(self) -> int:
        return self.striper.backlog

    def _on_member_space(self) -> None:
        self.striper.pump()

    # ------------------------------------------------------------------ #
    # receiver path

    def _rx_striped(self, payload: Any, member: NetworkInterface) -> None:
        index = self._member_index.get(id(member))
        if index is None:
            return  # frame from an unknown member; ignore
        self.receiver.push(index, payload)

    def _deliver_up(self, packet: Any) -> None:
        self.rx_frames += 1
        self.rx_bytes += getattr(packet, "size", 0)
        if self.stack is not None:
            self.stack.ip_input(packet, self)
