"""Unit tests for the simplified TCP."""

import pytest

from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.sim.loss import DeterministicLoss
from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer, TcpSegment


def tcp_pair(sim, bandwidth=10e6, queue_limit=50, loss_ab=None):
    s = Stack(sim, "S")
    r = Stack(sim, "R")
    a = EthernetInterface(sim, "eth0", "10.0.1.1")
    b = EthernetInterface(sim, "eth0", "10.0.1.2")
    s.add_interface(a)
    r.add_interface(b)
    link = Link(sim, a, b, bandwidth_bps=bandwidth, prop_delay=0.0005,
                queue_limit=queue_limit, loss_ab=loss_ab)
    s.routing.add("10.0.1.0", 24, a)
    r.routing.add("10.0.1.0", 24, b)
    return TcpLayer(s, sim), TcpLayer(r, sim), link


class TestHandshake:
    def test_connection_establishes(self, sim):
        ts, tr, _ = tcp_pair(sim)
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.start()
        sim.run(until=0.1)
        assert tx.state == "ESTABLISHED"
        assert rx.established

    def test_lost_syn_retried(self, sim):
        ts, tr, _ = tcp_pair(sim, loss_ab=DeterministicLoss([0]))
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.start()
        sim.run(until=5.0)
        assert tx.state == "ESTABLISHED"

    def test_double_start_rejected(self, sim):
        ts, tr, _ = tcp_pair(sim)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.start()
        with pytest.raises(RuntimeError):
            tx.start()

    def test_duplicate_port_rejected(self, sim):
        ts, tr, _ = tcp_pair(sim)
        BulkReceiver(tr, 80)
        with pytest.raises(ValueError):
            BulkReceiver(tr, 80)


class TestTransfer:
    def test_finite_transfer_completes(self, sim):
        ts, tr, _ = tcp_pair(sim)
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 200_000)  # a finite transfer
        tx.start()
        sim.run(until=5.0)
        assert rx.bytes_delivered == 200_000
        assert rx.rcv_nxt == 200_000

    def test_goodput_near_line_rate(self, sim):
        ts, tr, _ = tcp_pair(sim)
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.start()
        sim.run(until=3.0)
        mbps = rx.bytes_delivered * 8 / 3.0 / 1e6
        assert mbps > 8.0  # 10 Mbps line, ~9.6 theoretical max

    def test_variable_segment_sizes(self, sim):
        sizes = iter([100, 900, 50, 1460, 333] * 1000)
        ts, tr, _ = tcp_pair(sim)
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000,
                        segment_size_fn=lambda: next(sizes))
        tx.start()
        sim.run(until=1.0)
        assert rx.bytes_delivered > 0
        # stream is contiguous despite mixed sizes
        assert rx.rcv_nxt == rx.bytes_delivered

    def test_cwnd_grows_in_slow_start(self, sim):
        ts, tr, _ = tcp_pair(sim, queue_limit=2000)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        initial_cwnd = tx.cwnd
        tx.start()
        sim.run(until=0.2)
        assert tx.cwnd > initial_cwnd


class TestLossRecovery:
    def test_recovers_from_single_loss(self, sim):
        # segment index 10 lost (plus handshake offset); transfer completes.
        ts, tr, _ = tcp_pair(sim, loss_ab=DeterministicLoss([12]))
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 300_000)  # a finite transfer
        tx.start()
        sim.run(until=10.0)
        assert rx.bytes_delivered == 300_000
        assert tx.retransmits >= 1

    def test_recovers_from_loss_burst(self, sim):
        ts, tr, _ = tcp_pair(
            sim, loss_ab=DeterministicLoss(range(20, 35))
        )
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 300_000)  # a finite transfer
        tx.start()
        sim.run(until=20.0)
        assert rx.bytes_delivered == 300_000

    def test_fast_retransmit_triggered_by_dupacks(self, sim):
        ts, tr, _ = tcp_pair(sim, loss_ab=DeterministicLoss([15]))
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 400_000)  # a finite transfer
        tx.start()
        sim.run(until=10.0)
        assert tx.fast_retransmits >= 1
        assert rx.bytes_delivered == 400_000

    def test_loss_halves_cwnd(self, sim):
        ts, tr, _ = tcp_pair(sim)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.start()
        sim.run(until=3.0)
        # The 50-frame queue forces periodic AIMD loss events.
        assert tx.fast_retransmits + tx.timeouts >= 1

    def test_receiver_tracks_reorder_events(self, sim):
        ts, tr, _ = tcp_pair(sim, loss_ab=DeterministicLoss([15]))
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 200_000)  # a finite transfer
        tx.start()
        sim.run(until=10.0)
        # The retransmission arrives after later segments: one reorder.
        assert rx.reorder_events >= 1
        assert rx.ooo_segments >= 1


class TestSegment:
    def test_size_includes_header(self):
        segment = TcpSegment(1, 2, 0, 0, frozenset(), payload_size=100)
        assert segment.size == 120

    def test_flags(self):
        segment = TcpSegment(1, 2, 0, 0, frozenset({"SYN"}))
        assert segment.has("SYN") and not segment.has("ACK")

    def test_rtt_estimator_updates(self, sim):
        ts, tr, _ = tcp_pair(sim)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, "10.0.1.2", 80, 1000)
        tx.write_message(None, 50_000)  # a finite transfer
        tx.start()
        sim.run(until=2.0)
        assert tx.rto.srtt is not None
        assert 0 < tx.rto.srtt < 0.5
        assert tx.rto.rto >= tx.MIN_RTO
