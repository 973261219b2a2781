"""Tests for the host-CPU receive path and remaining stack/interface edges."""

import pytest

from repro.net.ethernet import EthernetInterface
from repro.net.interface import Frame, FrameType
from repro.net.ip import IPPacket
from repro.net.stack import Link, Stack
from repro.sim.host import HostCPU


def cpu_pair(sim, per_packet=1e-4, per_interrupt=1e-4, ring=None):
    cpu = HostCPU(sim, per_packet, per_interrupt, None)
    s = Stack(sim, "S")
    r = Stack(sim, "R", cpu=cpu)
    a = EthernetInterface(sim, "eth0", "10.0.1.1")
    b = EthernetInterface(sim, "eth0", "10.0.1.2")
    s.add_interface(a)
    r.add_interface(b)
    if ring is not None and b.nic_queue is not None:
        b.nic_queue.queue_limit = ring
    Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
         queue_limit=50)
    s.routing.add("10.0.1.0", 24, a)
    r.routing.add("10.0.1.0", 24, b)
    a.arp_cache.install(b.ip_address, b.mac)
    b.arp_cache.install(a.ip_address, a.mac)
    return s, r, a, b, cpu


class TestCpuReceivePath:
    def test_frames_flow_through_cpu(self, sim):
        s, r, a, b, cpu = cpu_pair(sim)
        got = []
        r.register_protocol(200, lambda p, i: got.append(p.ident))
        for _ in range(10):
            s.ip_output(IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                                 payload_size=100))
        sim.run(until=0.5)
        assert len(got) == 10
        assert cpu.total_packets >= 10
        assert cpu.total_interrupts >= 1

    def test_cpu_delay_observable(self, sim):
        """With a slow CPU, delivery completes later than the wire time."""
        s, r, a, b, cpu = cpu_pair(sim, per_packet=0.05)
        times = []
        r.register_protocol(200, lambda p, i: times.append(sim.now))
        s.ip_output(IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                             payload_size=100))
        sim.run(until=1.0)
        assert times and times[0] > 0.05

    def test_ring_overflow_drops_frames(self, sim):
        s, r, a, b, cpu = cpu_pair(sim, per_packet=0.01, ring=3)
        got = []
        r.register_protocol(200, lambda p, i: got.append(p))
        for _ in range(50):
            s.ip_output(IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                                 payload_size=1400))
        sim.run(until=5.0)
        assert b.nic_queue.drops > 0
        assert len(got) < 50

    def test_interface_without_cpu_bypasses(self, sim):
        cpu = HostCPU(sim, 1.0, 1.0, None)  # pathologically slow
        s = Stack(sim, "S")
        r = Stack(sim, "R", cpu=cpu)
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        b = EthernetInterface(sim, "eth0", "10.0.1.2")
        s.add_interface(a)
        r.add_interface(b, use_cpu=False)  # direct path
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=50)
        s.routing.add("10.0.1.0", 24, a)
        r.routing.add("10.0.1.0", 24, b)
        a.arp_cache.install(b.ip_address, b.mac)
        b.arp_cache.install(a.ip_address, a.mac)
        got = []
        r.register_protocol(200, lambda p, i: got.append(sim.now))
        s.ip_output(IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                             payload_size=100))
        sim.run(until=0.1)
        assert got and got[0] < 0.01  # not delayed by the slow CPU


class TestDemuxEdges:
    def test_custom_codepoint_handler(self, sim):
        s, r, a, b, cpu = cpu_pair(sim)
        seen = []
        b.demux["experimental"] = lambda payload, iface: seen.append(payload)
        frame = Frame(codepoint="experimental", payload="hello", size=64,
                      dst_mac=b.mac, src_mac=a.mac)
        a.transmit_frame(frame)
        sim.run(until=0.1)
        assert seen == ["hello"]

    def test_unknown_codepoint_silently_dropped(self, sim):
        s, r, a, b, cpu = cpu_pair(sim)
        frame = Frame(codepoint="martian", payload="x", size=64,
                      dst_mac=b.mac, src_mac=a.mac)
        a.transmit_frame(frame)
        sim.run(until=0.1)  # no exception, no delivery
        assert r.ip_received == 0

    def test_unattached_interface_rejects_send(self, sim):
        iface = EthernetInterface(sim, "ethX", "10.9.9.9")
        frame = Frame(codepoint=FrameType.IPV4, payload=None, size=64)
        with pytest.raises(RuntimeError):
            iface.transmit_frame(frame)

    def test_stats_counters(self, sim):
        s, r, a, b, cpu = cpu_pair(sim)
        r.register_protocol(200, lambda p, i: None)
        for _ in range(5):
            s.ip_output(IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                                 payload_size=100))
        sim.run(until=0.5)
        assert a.tx_frames == 5
        assert b.rx_frames == 5
        assert a.tx_bytes == b.rx_bytes > 0
