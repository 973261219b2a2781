"""Unit tests for UDP sockets."""

import pytest

from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.transport.udp import UDP_HEADER_BYTES, UdpDatagram, UdpLayer


def udp_pair(sim):
    s = Stack(sim, "S")
    r = Stack(sim, "R")
    a = EthernetInterface(sim, "eth0", "10.0.1.1")
    b = EthernetInterface(sim, "eth0", "10.0.1.2")
    s.add_interface(a)
    r.add_interface(b)
    Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
         queue_limit=50)
    s.routing.add("10.0.1.0", 24, a)
    r.routing.add("10.0.1.0", 24, b)
    return UdpLayer(s), UdpLayer(r)


class TestSockets:
    def test_basic_delivery(self, sim):
        us, ur = udp_pair(sim)
        got = []
        ur.bind(5000, on_datagram=lambda d, src: got.append((d.payload, str(src))))
        us.bind().sendto("hello", 50, "10.0.1.2", 5000)
        sim.run(until=0.1)
        assert got == [("hello", "10.0.1.1")]

    def test_datagram_size_includes_header(self):
        datagram = UdpDatagram(1, 2, None, payload_size=100)
        assert datagram.size == 100 + UDP_HEADER_BYTES

    def test_port_demux(self, sim):
        us, ur = udp_pair(sim)
        a, b = [], []
        ur.bind(5000, on_datagram=lambda d, s: a.append(d.payload))
        ur.bind(5001, on_datagram=lambda d, s: b.append(d.payload))
        sock = us.bind()
        sock.sendto("for-a", 10, "10.0.1.2", 5000)
        sock.sendto("for-b", 10, "10.0.1.2", 5001)
        sim.run(until=0.1)
        assert a == ["for-a"] and b == ["for-b"]

    def test_unbound_port_drops(self, sim):
        us, ur = udp_pair(sim)
        us.bind().sendto("x", 10, "10.0.1.2", 9999)
        sim.run(until=0.1)
        assert ur.no_socket_drops == 1

    def test_duplicate_bind_rejected(self, sim):
        us, _ = udp_pair(sim)
        us.bind(5000)
        with pytest.raises(ValueError):
            us.bind(5000)

    def test_ephemeral_ports_unique(self, sim):
        us, _ = udp_pair(sim)
        a = us.bind()
        b = us.bind()
        assert a.port != b.port
        assert a.port >= 49152

    def test_close_releases_port(self, sim):
        us, _ = udp_pair(sim)
        sock = us.bind(5000)
        sock.close()
        us.bind(5000)  # no error

    def test_counters(self, sim):
        us, ur = udp_pair(sim)
        rx = ur.bind(5000, on_datagram=lambda d, s: None)
        tx = us.bind()
        for _ in range(3):
            tx.sendto("x", 10, "10.0.1.2", 5000)
        sim.run(until=0.1)
        assert tx.sent == 3
        assert rx.received == 3
        assert ur.received == 3
