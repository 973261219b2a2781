"""The per-host IP stack: interfaces, routing, protocol demux, CPU model.

A :class:`Stack` is one host.  It owns a routing table, a set of
interfaces, and upper-layer protocol handlers (TCP/UDP bind here).  If a
:class:`~repro.sim.host.HostCPU` is attached, every received frame flows
through the NIC-queue/interrupt model before reaching the stack — the
mechanism behind Figure 15's throughput ceiling.

:class:`Link` is the convenience wrapper joining two interfaces with a pair
of simulated FIFO channels.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.addresses import IPAddress
from repro.net.interface import Frame, NetworkInterface
from repro.net.ip import IPPacket
from repro.net.routing import RoutingTable
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.host import HostCPU


class Stack:
    """A simulated host's network stack."""

    def __init__(self, sim: Simulator, name: str, cpu: Optional[HostCPU] = None) -> None:
        self.sim = sim
        self.name = name
        self.routing = RoutingTable()
        self.interfaces: List[NetworkInterface] = []
        self.protocols: Dict[int, Callable[[IPPacket, NetworkInterface], None]] = {}
        self.cpu = cpu
        self._nic_by_name: Dict[str, NetworkInterface] = {}
        if cpu is not None:
            cpu.on_packet = self._cpu_done
        self.ip_sent = 0
        self.ip_received = 0
        self.ip_forwarded = 0
        self.ip_dropped = 0

    # ------------------------------------------------------------------ #
    # configuration

    def add_interface(
        self, interface: NetworkInterface, use_cpu: bool = True
    ) -> NetworkInterface:
        """Register an interface; optionally route its RX through the CPU."""
        interface.stack = self
        self.interfaces.append(interface)
        if self.cpu is not None and use_cpu:
            nic_queue = self.cpu.new_nic(interface.name)
            interface.use_cpu(nic_queue)
            self._nic_by_name[interface.name] = interface
        return interface

    def register_protocol(
        self, proto: int, handler: Callable[[IPPacket, NetworkInterface], None]
    ) -> None:
        """Bind an upper-layer protocol (e.g. TCP=6, UDP=17)."""
        self.protocols[proto] = handler

    def local_addresses(self) -> List[IPAddress]:
        return [iface.ip_address for iface in self.interfaces]

    # ------------------------------------------------------------------ #
    # data path

    def ip_output(self, packet: IPPacket, force: bool = False) -> bool:
        """Route and transmit a locally generated datagram.

        ``force`` lets small control packets (markers, credits) bypass the
        egress queue limit.
        """
        route = self.routing.lookup(packet.dst)
        if route is None:
            self.ip_dropped += 1
            return False
        next_hop = route.next_hop if route.next_hop is not None else packet.dst
        self.ip_sent += 1
        return route.interface.send_ip(packet, next_hop, force=force)

    def ip_input(self, packet: IPPacket, interface: NetworkInterface) -> None:
        """A datagram arrived (post-resequencing for strIPe members)."""
        if packet.dst in self.local_addresses():
            self.ip_received += 1
            handler = self.protocols.get(packet.proto)
            if handler is not None:
                handler(packet, interface)
            return
        # Not ours: forward (decrement TTL, re-route).
        if packet.ttl <= 1:
            self.ip_dropped += 1
            return
        packet.ttl -= 1
        self.ip_forwarded += 1
        self.ip_output(packet)

    def _cpu_done(self, frame: Frame, nic_name: str) -> None:
        interface = self._nic_by_name.get(nic_name)
        if interface is not None:
            interface.handle_frame(frame)


class Link:
    """A bidirectional link: two FIFO channels joining two interfaces.

    Both directions run at ``bandwidth_bps`` with ``prop_delay`` and
    ``queue_limit``; ``loss_ab`` is the A->B channel's loss model, and the
    B->A channel loses nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        a: NetworkInterface,
        b: NetworkInterface,
        bandwidth_bps: float,
        prop_delay: float,
        *,
        queue_limit: Optional[int],
        loss_ab: Any = None,
        name: Optional[str] = None,
    ) -> None:
        label = name if name is not None else f"{a.name}<->{b.name}"
        self.ab = Channel(
            sim,
            bandwidth_bps,
            prop_delay,
            name=f"{label}:ab",
            queue_limit=queue_limit,
            loss_model=loss_ab,
        )
        self.ba = Channel(
            sim,
            bandwidth_bps,
            prop_delay,
            name=f"{label}:ba",
            queue_limit=queue_limit,
        )
        a.attach(channel_out=self.ab, channel_in=self.ba)
        b.attach(channel_out=self.ba, channel_in=self.ab)

    def set_rate(self, bandwidth_bps: float, both_directions: bool = True) -> None:
        """Change the link rate (Figure 15's PVC knob)."""
        self.ab.bandwidth_bps = bandwidth_bps
        if both_directions:
            self.ba.bandwidth_bps = bandwidth_bps
