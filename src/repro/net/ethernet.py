"""Ethernet interface: broadcast LAN framing, ARP, distinct type fields.

The paper's receiver-side trick needs nothing more from Ethernet than "a
different packet type field" for striped packets and markers (section 5) —
which is exactly the ``codepoint`` on our frames.

Framing overhead is the real 18 bytes (14 header + 4 FCS); minimum payload
is padded to 46 bytes.  The default MTU is 1500.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.headers import ETHERNET_MIN_PAYLOAD, ETHERNET_OVERHEAD
from repro.net.addresses import IPAddress, MACAddress, fresh_mac
from repro.net.arp import ARP_REPLY, ARP_REQUEST, ArpCache, ArpPacket
from repro.net.interface import Frame, FrameType, NetworkInterface
from repro.sim.engine import Simulator

ETHERNET_MTU = 1500


def ethernet_wire_size(payload_bytes: int) -> int:
    """Bytes on the wire for a given payload size (padding + overhead)."""
    return max(payload_bytes, ETHERNET_MIN_PAYLOAD) + ETHERNET_OVERHEAD


class EthernetInterface(NetworkInterface):
    """An Ethernet NIC on a (two-party or multi-party) LAN segment.

    ARP is performed lazily: IP packets to an unresolved next hop are
    queued per-address while a broadcast request is outstanding.  For
    striping members, :meth:`resolved` participates in backpressure: the
    striper simply waits until the peer's MAC is known.
    """

    #: Max packets parked behind one unresolved ARP entry (kernels keep
    #: very few; excess is dropped and counted).
    ARP_PENDING_LIMIT = 32

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip_address: IPAddress | str,
        mac: Optional[MACAddress] = None,
    ) -> None:
        super().__init__(sim, name, ip_address, ETHERNET_MTU)
        self.mac = mac if mac is not None else fresh_mac()
        self.arp_cache = ArpCache()
        self._pending_arp: Dict[IPAddress, Deque[Any]] = {}
        self.arp_requests_sent = 0
        self.arp_replies_sent = 0
        self.arp_pending_drops = 0
        #: callbacks invoked as fn(resolved_ip) when an ARP entry is
        #: learned — lets senders blocked on resolution (strIPe backpressure)
        #: resume without polling.
        self.on_arp_resolved: list = []

    # ------------------------------------------------------------------ #
    # framing

    def encapsulate(
        self, payload: Any, codepoint: str, next_hop: Optional[IPAddress]
    ) -> Optional[Frame]:
        if next_hop is None:
            raise ValueError("Ethernet encapsulation requires a next hop")
        dst_mac = self.arp_cache.lookup(next_hop)
        if dst_mac is None:
            return None
        size = ethernet_wire_size(payload.size)
        return Frame(
            codepoint=codepoint,
            payload=payload,
            size=size,
            dst_mac=dst_mac,
            src_mac=self.mac,
        )

    def send_ip(
        self, packet: Any, next_hop: Optional[IPAddress], force: bool = False
    ) -> bool:
        return self.send_with_codepoint(packet, FrameType.IPV4, next_hop, force=force)

    def send_with_codepoint(
        self,
        packet: Any,
        codepoint: str,
        next_hop: Optional[IPAddress],
        force: bool = False,
    ) -> bool:
        """Send a packet; queue it behind an ARP exchange if unresolved."""
        target = next_hop if next_hop is not None else getattr(packet, "dst", None)
        if target is None:
            raise ValueError("cannot determine next hop for packet")
        frame = self.encapsulate(packet, codepoint, target)
        if frame is None:
            self._queue_for_arp(target, (packet, codepoint, force))
            return True  # queued, will go out after resolution
        return self.transmit_frame(frame, force=force)

    # ------------------------------------------------------------------ #
    # ARP

    def resolved(self, next_hop: IPAddress) -> bool:
        """True if the next hop's MAC is cached (no ARP stall pending)."""
        return self.arp_cache.lookup(next_hop) is not None

    def start_resolution(self, next_hop: IPAddress) -> None:
        """Kick off an ARP request if one is not already outstanding."""
        if next_hop not in self._pending_arp and not self.resolved(next_hop):
            self._pending_arp[next_hop] = deque()
            self._send_arp_request(next_hop)

    def _queue_for_arp(self, target: IPAddress, entry: Any) -> None:
        pending = self._pending_arp.get(target)
        if pending is None:
            pending = deque()
            self._pending_arp[target] = pending
            self._send_arp_request(target)
        if len(pending) >= self.ARP_PENDING_LIMIT:
            self.arp_pending_drops += 1
            return
        pending.append(entry)

    #: seconds between ARP request retries while unresolved
    ARP_RETRY_S = 0.25

    def _send_arp_request(self, target: IPAddress) -> None:
        request = ArpPacket(
            op=ARP_REQUEST,
            sender_ip=self.ip_address,
            sender_mac=self.mac,
            target_ip=target,
        )
        frame = Frame(
            codepoint=FrameType.ARP,
            payload=request,
            size=ethernet_wire_size(request.size),
            dst_mac=MACAddress.broadcast(),
            src_mac=self.mac,
        )
        self.arp_requests_sent += 1
        self.transmit_frame(frame, force=True)
        # Requests (or replies) can be lost; retry while still unresolved.
        self.sim.schedule(self.ARP_RETRY_S, self._arp_retry, target)

    def _arp_retry(self, target: IPAddress) -> None:
        if target in self._pending_arp and not self.resolved(target):
            self._send_arp_request(target)

    def handle_frame(self, frame: Frame) -> None:
        # Ethernet address filter: accept broadcast or our own MAC.
        if (
            frame.dst_mac is not None
            and not frame.dst_mac.is_broadcast
            and frame.dst_mac != self.mac
        ):
            return
        if frame.codepoint == FrameType.ARP:
            self.rx_frames += 1
            self.rx_bytes += frame.size
            self._handle_arp(frame.payload)
            return
        super().handle_frame(frame)

    def _handle_arp(self, packet: ArpPacket) -> None:
        # Learn the sender either way (standard ARP behaviour).
        self.arp_cache.install(packet.sender_ip, packet.sender_mac, self.sim.now)
        self._flush_pending(packet.sender_ip)
        for callback in list(self.on_arp_resolved):
            callback(packet.sender_ip)
        if packet.op == ARP_REQUEST and packet.target_ip == self.ip_address:
            reply = ArpPacket(
                op=ARP_REPLY,
                sender_ip=self.ip_address,
                sender_mac=self.mac,
                target_ip=packet.sender_ip,
                target_mac=packet.sender_mac,
            )
            frame = Frame(
                codepoint=FrameType.ARP,
                payload=reply,
                size=ethernet_wire_size(reply.size),
                dst_mac=packet.sender_mac,
                src_mac=self.mac,
            )
            self.arp_replies_sent += 1
            self.transmit_frame(frame, force=True)

    def _flush_pending(self, resolved_ip: IPAddress) -> None:
        pending = self._pending_arp.pop(resolved_ip, None)
        if not pending:
            return
        for packet, codepoint, force in pending:
            frame = self.encapsulate(packet, codepoint, resolved_ip)
            if frame is not None:
                self.transmit_frame(frame, force=force)
