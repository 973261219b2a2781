"""Deeper TCP recovery-path tests: RTO backoff, Karn's rule, go-back-N."""

import pytest

from repro.experiments.socket_harness import build_two_hosts
from repro.sim.loss import BernoulliLoss, DeterministicLoss
from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer
import random

DST = "10.10.0.2"


def tcp_pair(sim, loss_ab=None, loss_ba=None, bandwidth=10e6, queue_limit=50):
    a, b, _ = build_two_hosts(
        sim, 1, link_mbps=(bandwidth / 1e6,), queue_frames=queue_limit,
        loss_ab=[loss_ab], loss_ba=[loss_ba],
    )
    return TcpLayer(a, sim), TcpLayer(b, sim)


class TestRtoBehaviour:
    def test_rto_backs_off_exponentially(self, sim):
        """With the forward path dead, successive timeouts double the RTO."""
        ts, tr = tcp_pair(sim)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000)  # unbounded transfer
        tx.start()
        sim.run(until=0.05)  # establish + get some data out
        assert tx.state == "ESTABLISHED"
        # Kill the forward path entirely.
        route = ts.stack.routing.lookup(DST)
        route.interface.channel_out.loss_model = BernoulliLoss(1.0)
        rto_before = tx.rto
        sim.run(until=10.0)
        assert tx.timeouts >= 3
        assert tx.rto > 2 * rto_before

    def test_karns_rule_no_rtt_sample_from_retransmits(self, sim):
        """Retransmitted segments must not poison the RTT estimator: after
        a retransmission-heavy episode the smoothed RTT stays near the true
        path RTT rather than absorbing timeout-length samples."""
        ts, tr = tcp_pair(
            sim, loss_ab=DeterministicLoss(range(12, 18))
        )
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000, total_bytes=400_000)
        tx.start()
        sim.run(until=15.0)
        assert rx.bytes_delivered == 400_000
        assert tx.retransmits >= 5
        assert tx.srtt is not None
        assert tx.srtt < 0.1  # true RTT is ~1-50 ms; timeouts are >= 200 ms

    def test_reverse_path_loss_recovers(self, sim):
        """Lost ACKs are covered by later cumulative ACKs (no stall)."""
        ts, tr = tcp_pair(
            sim, loss_ba=BernoulliLoss(0.3, rng=random.Random(5))
        )
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000, total_bytes=300_000)
        tx.start()
        sim.run(until=20.0)
        assert rx.bytes_delivered == 300_000

    def test_heavy_random_loss_still_completes(self, sim):
        ts, tr = tcp_pair(
            sim, loss_ab=BernoulliLoss(0.1, rng=random.Random(9))
        )
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000, total_bytes=200_000)
        tx.start()
        sim.run(until=60.0)
        assert rx.bytes_delivered == 200_000
        assert rx.rcv_nxt == 200_000


class TestGoBackN:
    def test_timeout_replays_preserved_boundaries(self, sim):
        """After an RTO the retransmissions reuse the original segment
        boundaries (receiver sees consistent (seq, len) pairs)."""
        sizes = iter([500, 700, 300, 900, 400] * 1000)
        ts, tr = tcp_pair(sim, loss_ab=DeterministicLoss(range(10, 22)))
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(
            ts, DST, 80, 1000,
            segment_size_fn=lambda: next(sizes), total_bytes=100_000,
        )
        tx.start()
        sim.run(until=30.0)
        assert rx.bytes_delivered == 100_000
        # a contiguous stream implies boundary-consistent retransmissions
        assert rx.rcv_nxt == 100_000

    def test_cwnd_collapses_to_one_mss_on_timeout(self, sim):
        ts, tr = tcp_pair(sim)
        BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000)
        tx.start()
        sim.run(until=0.3)
        route = ts.stack.routing.lookup(DST)
        route.interface.channel_out.loss_model = BernoulliLoss(1.0)
        sim.run(until=2.0)
        assert tx.timeouts >= 1
        assert tx.cwnd == pytest.approx(float(tx.mss))


class TestStatCoherence:
    def test_counters_consistent_on_clean_run(self, sim):
        ts, tr = tcp_pair(sim, queue_limit=2000)
        rx = BulkReceiver(tr, 80)
        tx = BulkSender(ts, DST, 80, 1000, total_bytes=150_000)
        tx.start()
        sim.run(until=5.0)
        assert rx.bytes_delivered == 150_000
        assert tx.retransmits == 0
        assert rx.duplicate_segments == 0
        assert rx.reorder_events == 0
        assert tx.bytes_sent == 150_000
