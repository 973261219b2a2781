"""Tests for duplex striping with marker-piggybacked credits."""

import sys

import pytest

from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.experiments.socket_harness import build_two_hosts
from repro.net.stack import Stack
from repro.transport.duplex import connect_duplex
from repro.transport.reliability import AckPacket
from repro.workloads.generators import ClosedLoopSource, ConstantSizes


def duplex_hosts(sim, **link_options):
    """Hosts A and B, two links, and each side's data targets."""
    a, b, links = build_two_hosts(sim, 2, **link_options)
    a_targets = [(ip, 7100 + i) for i, ip in enumerate(b.local_addresses())]
    b_targets = [(ip, 7000 + i) for i, ip in enumerate(a.local_addresses())]
    return a, b, links, a_targets, b_targets


def build_duplex(sim, link_mbps=(10.0, 10.0), buffer_packets=16,
                 message_bytes=1000, reliability="quasi_fifo",
                 data_loss=(0.0, 0.0), discipline=None):
    """Two hosts, two bidirectional links, duplex striped session (SRR,
    or the registry ``discipline``).

    ``data_loss`` installs per-direction Bernoulli loss on data-sized
    frames only (markers, the credits they carry, and acks survive), the
    regime where ARQ recovery is observable in isolation.
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
    )
    for index, link in enumerate(links):  # the B->A direction
        loss = gated(data_loss[1], 200 + index)
        if loss is not None:
            link.ba.loss_model = loss
    if discipline is None:
        algorithm = {
            "algorithm_factory": lambda: SRR([float(message_bytes)] * 2)
        }
    else:
        algorithm = {"discipline": discipline}
    end_a, end_b = connect_duplex(
        sim, a, b, a_targets, b_targets,
        buffer_packets=buffer_packets,
        reliability=reliability,
        **algorithm,
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


def exactly_once_both_ways_under_loss(sim, discipline=None):
    """Reliable duplex at 8% data loss: both directions deliver
    exactly once and in order, and the losses were repaired."""
    end_a, end_b, _ = build_duplex(
        sim, reliability="reliable", data_loss=(0.08, 0.08),
        discipline=discipline,
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


class TestDuplexReliable:
    def test_exactly_once_both_directions_under_loss(self, sim):
        exactly_once_both_ways_under_loss(sim)

    def test_marker_free_duplex_is_reliable_too(self, sim):
        """Acks need no marker stream to ride: the marker-free variant
        (Sprinklers) is exactly-once both ways under the same loss."""
        exactly_once_both_ways_under_loss(sim, "sprinklers")

    def test_acks_arrive_as_ack_packets(self, sim):
        """Every ack a duplex sender consumes arrives as an AckPacket on
        the ack flow, and no ack forces a marker batch: only the
        keepalive calls ``force_marker_batch``."""
        end_a, end_b, _ = build_duplex(
            sim, reliability="reliable", data_loss=(0.05, 0.05)
        )
        consumed, forced_by = [], []
        for endpoint in (end_a, end_b):
            reliable, striper = endpoint.sender.reliable, endpoint.sender.striper

            def on_ack(ack, on_ack=reliable.on_ack):
                consumed.append(type(ack))
                on_ack(ack)

            def force(force=striper.force_marker_batch):
                forced_by.append(sys._getframe(1).f_code.co_name)
                force()

            reliable.on_ack = on_ack
            striper.force_marker_batch = force
        sim.run(until=1.0)
        for endpoint in (end_a, end_b):
            assert endpoint.receiver.credit.send_credit is None
            # The senders did consume acks (the windows move).
            assert endpoint.sender.reliable.stats.acked > 100
            assert endpoint.receiver.reliable.stats.acks_sent > 0
        assert 0 < len(consumed) <= sum(
            endpoint.receiver.reliable.stats.acks_sent
            for endpoint in (end_a, end_b)
        )
        assert set(consumed) == {AckPacket}
        assert set(forced_by) <= {"_keepalive_tick"}

    def test_quasi_fifo_duplex_unaffected(self, sim):
        """Default mode builds no ARQ state on either side."""
        end_a, end_b, _ = build_duplex(sim)
        sim.run(until=0.5)
        for endpoint in (end_a, end_b):
            assert endpoint.sender.reliable is None
            assert endpoint.receiver.reliable is None
            assert len(endpoint.receiver.delivered) > 50


class TestDuplexRepumpsItself:
    @pytest.mark.parametrize(
        "reliability, srr",
        [("reliable", False), ("quasi_fifo", False), ("reliable", True)],
        ids=["reliable", "quasi_fifo", "reliable-srr"],
    )
    def test_full_egress_resumes_unwired(self, sim, reliability, srr):
        """200 messages per side at t=0 and no ``on_space`` wiring by the
        rig: each UDP port arms its channel's free-slot wake-up when it is
        first asked for room, so every message leaves and arrives exactly
        once (the unwired rig used to strand 22 of them per side in the
        striper reliably, 159 in quasi_fifo).  Under SRR a reliable sender
        stops at its channel's high-water mark, before the egress queue
        is full, and the same wake-up resumes it (armed only at a full
        queue, it stranded 58 per side)."""
        a, b, links, a_targets, b_targets = duplex_hosts(sim)
        if srr:
            algorithm = {
                "algorithm_factory": lambda: SRR([1000.0] * 2),
                "buffer_packets": 16,
            }
        else:
            algorithm = {"discipline": "sprinklers"}
        end_a, end_b = connect_duplex(
            sim, a, b, a_targets, b_targets, reliability=reliability,
            **algorithm,
        )
        for endpoint in (end_a, end_b):
            endpoint.sender.submit_packets(
                [Packet(size=1000, seq=i) for i in range(200)]
            )
        sim.run(until=20.0)
        for endpoint, peer in ((end_a, end_b), (end_b, end_a)):
            assert endpoint.sender.backlog == 0
            seqs = [p.seq for p in peer.receiver.delivered]
            assert sorted(seqs) == list(range(200))


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
