"""Tests for duplex striping with marker-piggybacked credits."""

import pytest

from repro.core.srr import SRR
from repro.experiments.socket_harness import build_two_hosts
from repro.net.stack import Stack
from repro.transport.duplex import connect_duplex
from repro.workloads.generators import ClosedLoopSource, ConstantSizes


def duplex_hosts(sim, **link_options):
    """Hosts A and B, two links, and each side's data targets."""
    a, b, links = build_two_hosts(sim, 2, **link_options)
    a_targets = [(ip, 7100 + i) for i, ip in enumerate(b.local_addresses())]
    b_targets = [(ip, 7000 + i) for i, ip in enumerate(a.local_addresses())]
    return a, b, links, a_targets, b_targets


def build_duplex(sim, link_mbps=(10.0, 10.0), buffer_packets=16,
                 message_bytes=1000, reliability="quasi_fifo",
                 data_loss=(0.0, 0.0)):
    """Two hosts, two bidirectional links, duplex striped session.

    ``data_loss`` installs per-direction Bernoulli loss on data-sized
    frames only (markers — and the credits/SACKs they carry — survive),
    the regime where piggybacked-ack recovery is observable in isolation.
    """
    import random

    from repro.sim.loss import BernoulliLoss, SizeGatedLoss

    def gated(p, seed):
        if p <= 0.0:
            return None
        return SizeGatedLoss(
            BernoulliLoss(p, rng=random.Random(seed)), min_size=500
        )

    a, b, links, a_targets, b_targets = duplex_hosts(
        sim, link_mbps=link_mbps,
        loss_ab=[gated(data_loss[0], 100 + index) for index in range(2)],
        loss_ba=[gated(data_loss[1], 200 + index) for index in range(2)],
    )
    end_a, end_b = connect_duplex(
        sim, a, b, a_targets, b_targets,
        algorithm_factory=lambda: SRR([float(message_bytes)] * 2),
        buffer_packets=buffer_packets,
        reliability=reliability,
    )

    # Closed-loop sources both ways; wake on link drain both directions.
    def backlog_fn(endpoint):
        def backlog():
            if not endpoint.sender.can_submit():
                return 1 << 30  # ARQ window full: read as backlogged
            return endpoint.sender.backlog

        return backlog

    src_a = ClosedLoopSource(
        sim, end_a.sender.submit_packet, backlog_fn(end_a),
        ConstantSizes(message_bytes), target=8,
    )
    src_b = ClosedLoopSource(
        sim, end_b.sender.submit_packet, backlog_fn(end_b),
        ConstantSizes(message_bytes), target=8,
    )
    src_a.start()
    src_b.start()
    for link in links:
        link.ab.on_space = lambda: (end_a.sender.pump(), src_a.poke())
        link.ba.on_space = lambda: (end_b.sender.pump(), src_b.poke())
    return end_a, end_b, links


class TestDuplexCredits:
    def test_both_directions_fifo(self, sim):
        end_a, end_b, _ = build_duplex(sim)
        sim.run(until=1.0)
        for endpoint in (end_a, end_b):
            seqs = [p.seq for p in endpoint.receiver.delivered]
            assert len(seqs) > 100
            assert seqs == sorted(seqs)

    def test_credits_ride_markers_only(self, sim):
        """Flow control works with zero standalone credit packets."""
        end_a, end_b, _ = build_duplex(sim)
        sim.run(until=1.0)
        # Both senders consumed credit grants (flow control active)...
        assert end_a.sender.credit.limits[0] > 16
        assert end_b.sender.credit.limits[0] > 16
        # ...that arrived exclusively on markers (no credit sockets exist).
        assert end_a.receiver.credit.send_credit is None
        assert end_b.receiver.credit.send_credit is None

    def test_mismatched_rates_no_buffer_overflow(self, sim):
        end_a, end_b, _ = build_duplex(
            sim, link_mbps=(10.0, 2.0), buffer_packets=12
        )
        sim.run(until=1.5)
        assert end_a.receiver.buffer_drops == 0
        assert end_b.receiver.buffer_drops == 0
        assert end_a.sender.credit.stalls > 0  # throttling happened

class TestDuplexReliable:
    def test_exactly_once_both_directions_under_loss(self, sim):
        """Reliable duplex: both directions survive data loss with
        exactly-once in-order delivery, acks riding markers only."""
        end_a, end_b, _ = build_duplex(
            sim, reliability="reliable", data_loss=(0.08, 0.08)
        )
        sim.run(until=2.0)
        # Stop the sources so the windows can drain, then let the
        # retransmission machinery finish.
        end_a.sender.reliable.on_window_open = None
        end_b.sender.reliable.on_window_open = None
        sim.run(until=4.0)
        for endpoint, peer in ((end_a, end_b), (end_b, end_a)):
            seqs = [p.seq for p in endpoint.receiver.delivered]
            assert len(seqs) > 100
            assert seqs == sorted(seqs)  # in order
            assert len(seqs) == len(set(seqs))  # exactly once
            # Losses were real and repaired.
            assert peer.sender.reliable.stats.retransmissions > 0

    def test_acks_ride_markers_only(self, sim):
        """Duplex mode has no standalone ack path at all: every SACK
        that reached a sender was piggybacked on a reverse marker."""
        end_a, end_b, _ = build_duplex(
            sim, reliability="reliable", data_loss=(0.05, 0.05)
        )
        sim.run(until=1.0)
        for endpoint in (end_a, end_b):
            assert endpoint.receiver.credit.send_credit is None
            # The senders did consume acks (the windows move)...
            assert endpoint.sender.reliable.stats.acked > 100
            # ...which only markers could have carried.
            assert endpoint.receiver.reliable.stats.acks_sent > 0

    def test_quasi_fifo_duplex_unaffected(self, sim):
        """Default mode builds no ARQ state on either side."""
        end_a, end_b, _ = build_duplex(sim)
        sim.run(until=0.5)
        for endpoint in (end_a, end_b):
            assert endpoint.sender.reliable is None
            assert endpoint.receiver.reliable is None
            assert len(endpoint.receiver.delivered) > 50


class TestValidation:
    def test_channel_count_mismatch_rejected(self, sim):
        a = Stack(sim, "A")
        b = Stack(sim, "B")
        with pytest.raises(ValueError):
            connect_duplex(
                sim, a, b, [("10.0.0.2", 7100)], [],
                algorithm_factory=lambda: SRR([1000.0]),
                buffer_packets=8,
            )

    @pytest.mark.parametrize("rejected", [{}, {"buffer_packets": 0}])
    def test_rejected_buffer_binds_nothing(self, sim, rejected):
        """A missing or zero ``buffer_packets`` is refused before any
        socket is bound: the retry on the same stacks succeeds (it used
        to die with ``port 7000 already bound``)."""
        a, b, _, a_targets, b_targets = duplex_hosts(sim)

        def connect(**kwargs):
            return connect_duplex(
                sim, a, b, a_targets, b_targets,
                algorithm_factory=lambda: SRR([1000.0] * 2), **kwargs,
            )

        with pytest.raises(ValueError, match="buffer_packets"):
            connect(**rejected)
        end_a, end_b = connect(buffer_packets=8)
        for size in (1000,) * 20:
            end_a.sender.send_message(size)
        sim.run(until=0.2)
        assert [p.seq for p in end_b.receiver.delivered] == list(range(20))

    def test_zero_buffer_means_the_same_without_markers(self, sim):
        """0 is not "no cap" on the marker-free branch and "invalid" on
        the marker branch: it is invalid on both, None is "no cap"."""
        a, b, _, a_targets, b_targets = duplex_hosts(sim)
        with pytest.raises(ValueError, match="buffer_packets"):
            connect_duplex(
                sim, a, b, a_targets, b_targets,
                discipline="sprinklers", buffer_packets=0,
            )
        end_a, end_b = connect_duplex(
            sim, a, b, a_targets, b_targets,
            discipline="sprinklers",
        )
        assert end_a.receiver.buffer_packets is None
