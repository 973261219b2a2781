"""Unit tests for Ethernet and ATM interfaces (framing, ARP, codepoints)."""

from repro.net.atm import (
    ATM_CELL_BYTES,
    AtmInterface,
    aal5_cell_count,
    aal5_wire_size,
)
from repro.net.ethernet import (
    ETHERNET_MIN_PAYLOAD,
    ETHERNET_OVERHEAD,
    EthernetInterface,
    ethernet_wire_size,
)
from repro.net.ip import IPPacket
from repro.net.stack import Link, Stack


class TestFramingMath:
    def test_ethernet_overhead(self):
        assert ethernet_wire_size(1500) == 1500 + ETHERNET_OVERHEAD

    def test_ethernet_min_padding(self):
        assert ethernet_wire_size(10) == ETHERNET_MIN_PAYLOAD + ETHERNET_OVERHEAD

    def test_aal5_single_cell(self):
        # 40 bytes payload + 8 trailer = 48 -> exactly one cell
        assert aal5_wire_size(40) == ATM_CELL_BYTES
        assert aal5_cell_count(40) == 1

    def test_aal5_padding_to_cell_boundary(self):
        # 41 bytes + 8 = 49 -> two cells
        assert aal5_cell_count(41) == 2
        assert aal5_wire_size(41) == 2 * ATM_CELL_BYTES

    def test_aal5_1500_byte_packet(self):
        # (1500 + 8) / 48 = 31.4 -> 32 cells = 1696 bytes: ~88% efficiency
        assert aal5_cell_count(1500) == 32
        assert aal5_wire_size(1500) == 32 * 53


def two_hosts(sim):
    s = Stack(sim, "S")
    r = Stack(sim, "R")
    a = EthernetInterface(sim, "eth0", "10.0.1.1")
    b = EthernetInterface(sim, "eth0", "10.0.1.2")
    s.add_interface(a)
    r.add_interface(b)
    link = Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
                queue_limit=50)
    s.routing.add("10.0.1.0", 24, a)
    r.routing.add("10.0.1.0", 24, b)
    return s, r, a, b, link


class TestArp:
    def test_first_packet_triggers_request_then_flows(self, sim):
        s, r, a, b, link = two_hosts(sim)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p))
        packet = IPPacket(
            src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
        )
        s.ip_output(packet)
        sim.run(until=0.1)
        assert len(received) == 1
        assert a.arp_requests_sent == 1
        assert b.arp_replies_sent == 1

    def test_cache_avoids_second_request(self, sim):
        s, r, a, b, link = two_hosts(sim)
        for _ in range(3):
            s.ip_output(IPPacket(
                src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
            ))
        sim.run(until=0.1)
        assert a.arp_requests_sent == 1

    def test_reply_resolves_pending_queue_in_order(self, sim):
        s, r, a, b, link = two_hosts(sim)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p.ident))
        idents = []
        for _ in range(5):
            packet = IPPacket(
                src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
            )
            idents.append(packet.ident)
            s.ip_output(packet)
        sim.run(until=0.1)
        assert received == idents

    def test_pending_limit_drops(self, sim):
        s, r, a, b, link = two_hosts(sim)
        for _ in range(EthernetInterface.ARP_PENDING_LIMIT + 10):
            s.ip_output(IPPacket(
                src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
            ))
        assert a.arp_pending_drops == 10

    def test_retry_after_lost_request(self, sim):
        from repro.sim.loss import DeterministicLoss

        s, r, a, b, link = two_hosts(sim)
        link.ab.loss_model = DeterministicLoss([0])  # first frame (the ARP) lost
        received = []
        r.register_protocol(200, lambda p, i: received.append(p))
        s.ip_output(IPPacket(
            src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
        ))
        sim.run(until=2.0)
        assert len(received) == 1
        assert a.arp_requests_sent >= 2

    def test_unicast_filter_rejects_foreign_mac(self, sim):
        """Frames addressed to another MAC are dropped by the filter."""
        s, r, a, b, link = two_hosts(sim)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p))
        # Poison S's ARP cache with a wrong MAC for R.
        from repro.net.addresses import MACAddress

        a.arp_cache.install(b.ip_address, MACAddress(0x02000000FFFF))
        s.ip_output(IPPacket(
            src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
        ))
        sim.run(until=0.1)
        assert received == []


class TestAtmInterface:
    def test_cells_accounted(self, sim):
        s = Stack(sim, "S")
        r = Stack(sim, "R")
        a = AtmInterface(sim, "atm0", "10.0.2.1")
        b = AtmInterface(sim, "atm0", "10.0.2.2")
        s.add_interface(a)
        r.add_interface(b)
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.001,
             queue_limit=50)
        s.routing.add("10.0.2.0", 24, a)
        r.routing.add("10.0.2.0", 24, b)
        packet = IPPacket(
            src=a.ip_address, dst=b.ip_address, proto=200, payload_size=1480
        )
        s.ip_output(packet)  # 1500B IP packet -> 32 cells
        assert a.cells_sent == 32

    def test_no_arp_needed(self, sim):
        s = Stack(sim, "S")
        r = Stack(sim, "R")
        a = AtmInterface(sim, "atm0", "10.0.2.1")
        b = AtmInterface(sim, "atm0", "10.0.2.2")
        s.add_interface(a)
        r.add_interface(b)
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.001,
             queue_limit=50)
        s.routing.add("10.0.2.0", 24, a)
        r.routing.add("10.0.2.0", 24, b)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p))
        s.ip_output(IPPacket(
            src=a.ip_address, dst=b.ip_address, proto=200, payload_size=100
        ))
        sim.run(until=0.1)
        assert len(received) == 1


class TestStackBehaviour:
    def test_protocol_demux(self, sim):
        s, r, a, b, link = two_hosts(sim)
        tcp_like = []
        udp_like = []
        r.register_protocol(6, lambda p, i: tcp_like.append(p))
        r.register_protocol(17, lambda p, i: udp_like.append(p))
        s.ip_output(IPPacket(src=a.ip_address, dst=b.ip_address, proto=6,
                             payload_size=10))
        s.ip_output(IPPacket(src=a.ip_address, dst=b.ip_address, proto=17,
                             payload_size=10))
        sim.run(until=0.1)
        assert len(tcp_like) == 1 and len(udp_like) == 1

    def test_no_route_drops(self, sim):
        s, r, a, b, link = two_hosts(sim)
        ok = s.ip_output(IPPacket(
            src=a.ip_address, dst="99.0.0.1", proto=6, payload_size=10
        ))
        assert ok is False
        assert s.ip_dropped == 1

    def test_forwarding_decrements_ttl(self, sim):
        """Three hosts in a line: S - M - R; M forwards."""
        s = Stack(sim, "S")
        m = Stack(sim, "M")
        r = Stack(sim, "R")
        s1 = EthernetInterface(sim, "eth0", "10.0.1.1")
        m1 = EthernetInterface(sim, "eth0", "10.0.1.254")
        m2 = EthernetInterface(sim, "eth1", "10.0.2.254")
        r1 = EthernetInterface(sim, "eth0", "10.0.2.2")
        s.add_interface(s1)
        m.add_interface(m1)
        m.add_interface(m2)
        r.add_interface(r1)
        Link(sim, s1, m1, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=50)
        Link(sim, m2, r1, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=50)
        s.routing.add("10.0.2.0", 24, s1, next_hop="10.0.1.254")
        s.routing.add("10.0.1.0", 24, s1)
        m.routing.add("10.0.1.0", 24, m1)
        m.routing.add("10.0.2.0", 24, m2)
        r.routing.add("10.0.2.0", 24, r1)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p))
        packet = IPPacket(src=s1.ip_address, dst="10.0.2.2", proto=200,
                          payload_size=64, ttl=5)
        s.ip_output(packet)
        sim.run(until=0.5)
        assert len(received) == 1
        assert received[0].ttl == 4
        assert m.ip_forwarded == 1

    def test_expired_ttl_dropped(self, sim):
        s, r, a, b, link = two_hosts(sim)
        # Receiver treats a packet not addressed to it with ttl 1 as
        # unforwardable.
        packet = IPPacket(src=a.ip_address, dst="10.0.1.99", proto=200,
                          payload_size=10, ttl=1)
        r.ip_input(packet, b)
        assert r.ip_dropped == 1
