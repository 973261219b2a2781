"""Tests for striping over TCP connections (transport channels, §2)."""

import pytest

from repro.experiments.socket_harness import build_two_hosts
from repro.experiments.tcp_channels import build_tcp_striped
from repro.net.ethernet import EthernetInterface
from repro.net.stack import Stack
from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer


class TestTcpChannelStriping:
    def test_guaranteed_fifo_no_markers(self, sim):
        sender, receiver, _ = build_tcp_striped(sim)
        sim.run(until=2.0)
        seqs = [p.seq for p in receiver.delivered]
        assert len(seqs) > 300
        assert seqs == sorted(seqs)
        # no marker machinery anywhere
        assert sender.striper.markers_sent == 0

    def test_aggregate_exceeds_single_channel(self, sim):
        sender, receiver, _ = build_tcp_striped(sim, n_channels=3)
        sim.run(until=2.0)
        delivered_bytes = sum(p.size for p in receiver.delivered)
        mbps = delivered_bytes * 8 / 2.0 / 1e6
        assert mbps > 1.7 * 9.0  # well past one 10 Mbps link

    def test_fifo_survives_channel_packet_loss(self, sim):
        """TCP repairs losses inside each channel, so the striped stream
        stays *guaranteed* FIFO even over lossy links — the reliability
        is inherited from the channel, exactly the paper's point."""
        sender, receiver, _ = build_tcp_striped(sim, loss=0.05, seed=3)
        sim.run(until=4.0)
        seqs = [p.seq for p in receiver.delivered]
        assert len(seqs) > 200
        assert seqs == sorted(seqs)
        # losses really happened inside the channels
        assert any(port.sender.retransmits > 0 for port in sender.ports)

    def test_message_boundaries_preserved(self, sim):
        sender, receiver, _ = build_tcp_striped(
            sim, message_sizes=(137, 1460, 999)
        )
        sim.run(until=1.0)
        assert receiver.delivered
        assert {p.size for p in receiver.delivered} <= {137, 1460, 999}

    def test_backpressure_bounds_connection_queue(self, sim):
        sender, receiver, _ = build_tcp_striped(sim, link_mbps=1.0)
        sim.run(until=1.0)
        for port in sender.ports:
            assert port.sender.queued_message_bytes <= 64 * 1024 + 1460


class TestMessageModeUnit:
    def test_write_message_roundtrip(self, sim):
        a, b, _ = build_two_hosts(sim, 1)
        ts, tr = TcpLayer(a, sim), TcpLayer(b, sim)
        got = []
        BulkReceiver(tr, 80, on_message=got.append)
        tx = BulkSender(ts, b.local_addresses()[0], 80, 1000)
        tx.start()
        sim.run(until=0.05)
        from repro.core.packet import Packet

        messages = [Packet(700 + i, seq=i) for i in range(5)]
        for message in messages:
            tx.write_message(message, message.size)
        sim.run(until=1.0)
        assert got == messages

    def test_small_messages_pack_into_one_segment(self, sim):
        a, b, _ = build_two_hosts(sim, 1)
        ts, tr = TcpLayer(a, sim), TcpLayer(b, sim)
        got = []
        BulkReceiver(tr, 80, on_message=got.append)
        tx = BulkSender(ts, b.local_addresses()[0], 80, 1000, mss=1460)
        tx.start()
        sim.run(until=0.05)
        segments_before = tx.segments_sent
        from repro.core.packet import Packet

        for i in range(4):
            tx.write_message(Packet(100, seq=i), 100)
        sim.run(until=0.5)
        assert len(got) == 4
        assert tx.segments_sent - segments_before <= 2  # packed tightly

    def test_message_mode_conflicts_with_size_fn(self, sim):
        s = Stack(sim, "S")
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        s.add_interface(a)
        ts = TcpLayer(s, sim)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000,
                        segment_size_fn=lambda: 100)
        with pytest.raises(RuntimeError):
            tx.write_message(object(), 10)

    def test_invalid_message_size(self, sim):
        s = Stack(sim, "S")
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        s.add_interface(a)
        ts = TcpLayer(s, sim)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        with pytest.raises(ValueError):
            tx.write_message(object(), 0)
