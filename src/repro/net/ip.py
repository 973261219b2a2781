"""The IP packet model and protocol numbers.

An :class:`IPPacket` is what the strIPe layer stripes: a self-contained
datagram with a 20-byte header, a source/destination address, an upper-layer
protocol number and an opaque payload.  Consistent with the paper's headline
constraint, the striping layer never adds anything to these packets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.headers import IP_HEADER_BYTES
from repro.net.addresses import IPAddress

#: Upper-layer protocol numbers (real IANA values where they exist).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_ip_ids = itertools.count(1)


@dataclass
class IPPacket:
    """A simulated IPv4 datagram.

    Attributes:
        src, dst: endpoint addresses.
        proto: upper-layer protocol number (see PROTO_*).
        payload: opaque transport segment (must expose ``size`` in bytes,
            or set ``payload_size`` explicitly).
        payload_size: payload length in bytes.
        ttl: decremented on forwarding; packet dies at 0.
        ident: IP identification field (unique per packet here).
    """

    src: IPAddress
    dst: IPAddress
    proto: int
    payload: Any = None
    payload_size: Optional[int] = None
    ttl: int = 64
    ident: int = field(default_factory=lambda: next(_ip_ids))
    #: harness-only input sequence (never read by the protocol; for metrics)
    seq: Optional[int] = None

    def __post_init__(self) -> None:
        self.src = IPAddress.parse(self.src)
        self.dst = IPAddress.parse(self.dst)
        if self.payload_size is None:
            size = getattr(self.payload, "size", None)
            if size is None:
                raise ValueError(
                    "payload has no size; pass payload_size explicitly"
                )
            self.payload_size = int(size)
        if self.payload_size < 0:
            raise ValueError("payload_size must be >= 0")

    @property
    def size(self) -> int:
        """Total datagram size in bytes (header + payload)."""
        return IP_HEADER_BYTES + int(self.payload_size)

    def __repr__(self) -> str:
        return (
            f"IPPacket(#{self.ident} {self.src}->{self.dst} "
            f"proto={self.proto} {self.size}B)"
        )
