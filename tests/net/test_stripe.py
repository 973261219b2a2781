"""Unit tests for the strIPe virtual interface."""

import pytest

from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.net.atm import AtmInterface
from repro.net.ethernet import EthernetInterface
from repro.net.ip import IPPacket
from repro.net.stack import Link, Stack
from repro.net.stripe import (
    RESEQ_MARKER,
    RESEQ_NONE,
    RESEQ_PLAIN,
    StripeInterface,
)


def striped_pair(sim, reseq=RESEQ_MARKER, queue_limit=50):
    """Two hosts joined by two Ethernet links with strIPe on both ends."""
    s = Stack(sim, "S")
    r = Stack(sim, "R")
    interfaces = {}
    for index, net in enumerate(("10.0.1", "10.0.2")):
        a = EthernetInterface(sim, f"eth{index}", f"{net}.1")
        b = EthernetInterface(sim, f"eth{index}", f"{net}.2")
        s.add_interface(a)
        r.add_interface(b)
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=queue_limit)
        interfaces[f"s{index}"] = a
        interfaces[f"r{index}"] = b

    def algo():
        return SRR([1500.0, 1500.0])

    policy = MarkerPolicy(interval_rounds=1)
    stripe_s = StripeInterface(
        sim, "stripe0", "10.0.1.1",
        [(interfaces["s0"], "10.0.1.2"), (interfaces["s1"], "10.0.2.2")],
        algo(), resequencing=reseq,
        marker_policy=policy if reseq == RESEQ_MARKER else None,
    )
    stripe_r = StripeInterface(
        sim, "stripe0", "10.0.1.2",
        [(interfaces["r0"], "10.0.1.1"), (interfaces["r1"], "10.0.2.1")],
        algo(), resequencing=reseq,
        marker_policy=policy if reseq == RESEQ_MARKER else None,
    )
    s.add_interface(stripe_s)
    r.add_interface(stripe_r)
    s.routing.add_host_route("10.0.1.2", stripe_s)
    s.routing.add_host_route("10.0.2.2", stripe_s)
    r.routing.add_host_route("10.0.1.1", stripe_r)
    r.routing.add_host_route("10.0.2.1", stripe_r)
    return s, r, stripe_s, stripe_r


class TestConstruction:
    def test_mtu_is_minimum_of_members(self, sim):
        s = Stack(sim, "S")
        a = EthernetInterface(sim, "eth0", "10.0.1.1")  # 1500
        b = AtmInterface(sim, "atm0", "10.0.2.1", mtu=9180)
        s.add_interface(a)
        s.add_interface(b)
        stripe = StripeInterface(
            sim, "stripe0", "10.0.1.1",
            [(a, "10.0.1.2"), (b, "10.0.2.2")],
            SRR([1500.0, 1500.0]), resequencing=RESEQ_PLAIN,
        )
        assert stripe.mtu == 1500

    def test_channel_count_must_match(self, sim):
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        with pytest.raises(ValueError):
            StripeInterface(
                sim, "stripe0", "10.0.1.1", [(a, "10.0.1.2")],
                SRR([1500.0, 1500.0]),
            )

    def test_marker_mode_requires_srr(self, sim):
        from repro.core.schemes import SeededRandomFQ

        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        b = EthernetInterface(sim, "eth1", "10.0.2.1")
        with pytest.raises(ValueError):
            StripeInterface(
                sim, "stripe0", "10.0.1.1",
                [(a, "10.0.1.2"), (b, "10.0.2.2")],
                SeededRandomFQ(2), resequencing=RESEQ_MARKER,
            )

    def test_unknown_mode_rejected(self, sim):
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        b = EthernetInterface(sim, "eth1", "10.0.2.1")
        with pytest.raises(ValueError):
            StripeInterface(
                sim, "stripe0", "10.0.1.1",
                [(a, "10.0.1.2"), (b, "10.0.2.2")],
                SRR([1500.0, 1500.0]), resequencing="bogus",
            )

    def test_oversized_packet_rejected(self, sim):
        _, _, stripe_s, _ = striped_pair(sim)
        with pytest.raises(ValueError):
            stripe_s.send_ip(
                IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                         payload_size=2000),
                None,
            )


class TestDataPath:
    def test_fifo_delivery_over_stripe(self, sim):
        s, r, stripe_s, stripe_r = striped_pair(sim)
        received = []
        r.register_protocol(200, lambda p, i: received.append(p.seq))
        for i in range(100):
            packet = IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                              payload_size=200 + (i * 37) % 1200)
            packet.seq = i
            s.ip_output(packet)
        sim.run(until=2.0)
        assert received == list(range(100))

    def test_both_links_carry_traffic(self, sim):
        s, r, stripe_s, stripe_r = striped_pair(sim)
        r.register_protocol(200, lambda p, i: None)
        for i in range(100):
            packet = IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                              payload_size=1000)
            s.ip_output(packet)
        sim.run(until=2.0)
        assert stripe_s.members[0].tx_frames > 20
        assert stripe_s.members[1].tx_frames > 20

    def test_input_queue_overflow_counts(self, sim):
        s, r, stripe_s, stripe_r = striped_pair(sim)
        stripe_s.input_queue_limit = 5
        accepted = 0
        for i in range(50):
            packet = IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                              payload_size=1400)
            if s.ip_output(packet):
                accepted += 1
        assert stripe_s.input_drops == 50 - accepted
        assert stripe_s.input_drops > 0

    def test_none_mode_can_reorder(self, sim):
        """Without resequencing, different link delays reorder delivery."""
        s, r, stripe_s, stripe_r = striped_pair(sim, reseq=RESEQ_NONE)
        # Make link 1 slower to create skew.
        stripe_s.members[1].channel_out.prop_delay = 0.05
        received = []
        r.register_protocol(200, lambda p, i: received.append(p.seq))
        for i in range(40):
            packet = IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                              payload_size=1000)
            packet.seq = i
            s.ip_output(packet)
        sim.run(until=2.0)
        assert sorted(received) == list(range(40))
        assert received != list(range(40))

    def test_plain_mode_resequences_skew(self, sim):
        s, r, stripe_s, stripe_r = striped_pair(sim, reseq=RESEQ_PLAIN)
        stripe_s.members[1].channel_out.prop_delay = 0.05
        received = []
        r.register_protocol(200, lambda p, i: received.append(p.seq))
        for i in range(40):
            packet = IPPacket(src="10.0.1.1", dst="10.0.1.2", proto=200,
                              payload_size=1000)
            packet.seq = i
            s.ip_output(packet)
        sim.run(until=2.0)
        assert received == list(range(40))
