"""ARP — the Ethernet convergence layer's address resolution.

Section 6.1: "The convergence layer is responsible for mapping IP addresses
to data link addresses... For example, for Ethernet interfaces, the
convergence layer performs ARP."

We implement a real request/reply exchange over the simulated LAN: the
first packet to an unresolved next hop queues while a broadcast request is
outstanding; the reply fills the cache and flushes the queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.addresses import IPAddress, MACAddress

ARP_REQUEST = "request"
ARP_REPLY = "reply"

#: Size of an ARP packet inside an Ethernet frame (padded minimum payload).
ARP_PACKET_BYTES = 46


@dataclass
class ArpPacket:
    """An ARP request or reply."""

    op: str
    sender_ip: IPAddress
    sender_mac: MACAddress
    target_ip: IPAddress
    target_mac: Optional[MACAddress] = None
    size: int = ARP_PACKET_BYTES

    def __repr__(self) -> str:
        return (
            f"ArpPacket({self.op} {self.sender_ip}/{self.sender_mac} -> "
            f"{self.target_ip})"
        )


@dataclass
class ArpEntry:
    mac: MACAddress
    installed_at: float


class ArpCache:
    """Per-interface IP→MAC cache; entries never expire."""

    def __init__(self) -> None:
        self._entries: Dict[IPAddress, ArpEntry] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, ip: IPAddress) -> Optional[MACAddress]:
        entry = self._entries.get(ip)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.mac

    def install(self, ip: IPAddress, mac: MACAddress, now: float = 0.0) -> None:
        self._entries[ip] = ArpEntry(mac, now)

    def __len__(self) -> int:
        return len(self._entries)
