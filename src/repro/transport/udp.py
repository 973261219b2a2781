"""UDP over the simulated stack.

Minimal but real: a per-stack :class:`UdpLayer` demultiplexes by
destination port to bound :class:`UdpSocket` objects.  Used by the
section 6.3 experiments (transport-level striping over UDP channels) and
by the video workload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.headers import UDP_HEADER_BYTES
from repro.net.addresses import IPAddress
from repro.net.ip import IPPacket, PROTO_UDP
from repro.net.stack import Stack

_dgram_ids = itertools.count(1)


@dataclass
class UdpDatagram:
    """A UDP datagram (header + opaque payload)."""

    src_port: int
    dst_port: int
    payload: Any
    payload_size: int
    uid: int = field(default_factory=lambda: next(_dgram_ids))

    @property
    def size(self) -> int:
        return UDP_HEADER_BYTES + self.payload_size

    def __repr__(self) -> str:
        return f"UdpDatagram({self.src_port}->{self.dst_port} {self.size}B)"


class UdpLayer:
    """Registers as protocol 17 on a stack and demuxes to sockets."""

    def __init__(self, stack: Stack) -> None:
        self.stack = stack
        self.sockets: Dict[int, "UdpSocket"] = {}
        self._ephemeral = itertools.count(49152)
        stack.register_protocol(PROTO_UDP, self._input)
        self.received = 0
        self.no_socket_drops = 0

    def bind(
        self,
        port: Optional[int] = None,
        on_datagram: Optional[Callable[[UdpDatagram, IPAddress], None]] = None,
    ) -> "UdpSocket":
        """Create a socket bound to ``port`` (or an ephemeral one)."""
        if port is None:
            port = next(self._ephemeral)
            while port in self.sockets:
                port = next(self._ephemeral)
        if port in self.sockets:
            raise ValueError(f"port {port} already bound on {self.stack.name}")
        socket = UdpSocket(self, port, on_datagram)
        self.sockets[port] = socket
        return socket

    def close(self, socket: "UdpSocket") -> None:
        self.sockets.pop(socket.port, None)

    def _input(self, packet: IPPacket, interface: Any) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        self.received += 1
        socket = self.sockets.get(datagram.dst_port)
        if socket is None:
            self.no_socket_drops += 1
            return
        socket._deliver(datagram, packet.src)


class UdpSocket:
    """A bound UDP endpoint."""

    def __init__(
        self,
        layer: UdpLayer,
        port: int,
        on_datagram: Optional[Callable[[UdpDatagram, IPAddress], None]] = None,
    ) -> None:
        self.layer = layer
        self.port = port
        self.on_datagram = on_datagram
        self.sent = 0
        self.received = 0

    def sendto(
        self,
        payload: Any,
        payload_size: int,
        dst: IPAddress | str,
        dst_port: int,
        src: Optional[IPAddress | str] = None,
        force: bool = False,
    ) -> bool:
        """Send one datagram.  Returns False if the egress queue dropped it.

        ``force`` bypasses egress queue limits (control traffic).
        """
        stack = self.layer.stack
        source = (
            IPAddress.parse(src)
            if src is not None
            else stack.local_addresses()[0]
        )
        datagram = UdpDatagram(
            src_port=self.port,
            dst_port=dst_port,
            payload=payload,
            payload_size=payload_size,
        )
        packet = IPPacket(
            src=source,
            dst=IPAddress.parse(dst),
            proto=PROTO_UDP,
            payload=datagram,
        )
        ok = stack.ip_output(packet, force=force)
        if ok:
            self.sent += 1
        return ok

    def close(self) -> None:
        self.layer.close(self)

    def _deliver(self, datagram: UdpDatagram, src: IPAddress) -> None:
        self.received += 1
        if self.on_datagram is not None:
            self.on_datagram(datagram, src)
