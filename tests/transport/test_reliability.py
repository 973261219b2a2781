"""Selective-repeat ARQ over the bundle: unit and end-to-end tests.

Unit layers: the RFC 6298-shaped :class:`RtoEstimator`, the
:class:`ReliableSender` window/ack/timer machinery (backpressure, Karn's
rule, SACK fast retransmit, escalation), and the
:class:`ReliableReceiver` resequencing/ack generation.

End to end: under seeded 10% *persistent* loss (the regime quasi-FIFO
striping alone cannot survive), ``reliability="reliable"`` delivers every
submitted message exactly once in FIFO order on both the socket stack and
the session stack, and the sender's retransmission state fully drains.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.packet import Packet, SackInfo
from repro.sim.engine import Simulator
from repro.transport.reliability import (
    FAST_RETRANSMIT_HINTS,
    AckPacket,
    ReliableReceiver,
    ReliableSender,
    RtoEstimator,
)
from tests.transport.arq_oracles import (
    FullScanSender,
    receiver_blocks,
    sack_blocks,
    unsacked_index,
)


@pytest.fixture
def sim():
    return Simulator()


def sack(cum, *blocks):
    return SackInfo(cum_ack=cum, blocks=tuple(blocks))


# ---------------------------------------------------------------------- #
# RTO estimator


class TestRtoEstimator:
    def test_initial_rto_used_before_any_sample(self):
        rto = RtoEstimator(initial_rto=0.3)
        assert rto.rto == 0.3
        assert rto.srtt is None

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            RtoEstimator(initial_rto=0.01, min_rto=0.02)
        with pytest.raises(ValueError):
            RtoEstimator(initial_rto=3.0, max_rto=2.0)

    def test_first_sample_seeds_srtt_and_var(self):
        rto = RtoEstimator()
        rto.sample(0.1)
        assert rto.srtt == pytest.approx(0.1)
        assert rto.rttvar == pytest.approx(0.05)
        # RFC 6298: RTO = SRTT + K * RTTVAR
        assert rto.rto == pytest.approx(0.1 + 4.0 * 0.05)

    def test_ewma_update(self):
        rto = RtoEstimator()
        rto.sample(0.1)
        rto.sample(0.2)
        assert rto.rttvar == pytest.approx(0.75 * 0.05 + 0.25 * 0.1)
        assert rto.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)
        assert rto.samples == 2

    def test_min_clamp(self):
        rto = RtoEstimator(min_rto=0.02)
        rto.sample(1e-4)
        assert rto.rto == 0.02

    def test_backoff_doubles_and_caps(self):
        rto = RtoEstimator(initial_rto=0.8, max_rto=2.0)
        rto.backoff()
        assert rto.rto == pytest.approx(1.6)
        rto.backoff()
        assert rto.rto == 2.0  # capped
        assert rto.backoffs == 2

    def test_sample_collapses_backoff(self):
        rto = RtoEstimator(initial_rto=0.2, max_rto=2.0)
        rto.backoff()
        rto.backoff()
        rto.sample(0.01)
        assert rto.rto == pytest.approx(0.01 + 4.0 * 0.005)

    def test_negative_sample_ignored(self):
        rto = RtoEstimator()
        rto.sample(-1.0)
        assert rto.samples == 0
        assert rto.srtt is None

    def test_consecutive_doublings_capped(self):
        rto = RtoEstimator(initial_rto=0.1, max_rto=1000.0, backoff_cap=3)
        for _ in range(6):
            rto.backoff()
        # Three doublings applied, three refused — but every timeout is
        # still counted (harnesses assert on ``backoffs``).
        assert rto.rto == pytest.approx(0.8)
        assert rto.backoffs == 6
        assert rto.capped_backoffs == 3

    def test_sample_reopens_the_doubling_budget(self):
        rto = RtoEstimator(initial_rto=0.1, max_rto=1000.0, backoff_cap=2)
        rto.backoff()
        rto.backoff()
        rto.backoff()  # refused
        assert rto.capped_backoffs == 1
        rto.sample(0.1)
        rto.backoff()  # streak reset: doubles again
        assert rto.rto == pytest.approx(2 * (0.1 + 4.0 * 0.05))

    def test_reset_backoff_restores_smoothed_estimate(self):
        rto = RtoEstimator(initial_rto=0.2, max_rto=1000.0)
        rto.sample(0.1)
        base = rto.rto
        rto.backoff()
        rto.backoff()
        assert rto.rto > base
        rto.reset_backoff()
        assert rto.rto == pytest.approx(base)

    def test_reset_backoff_without_samples_uses_initial(self):
        rto = RtoEstimator(initial_rto=0.2, max_rto=1000.0)
        rto.backoff()
        rto.reset_backoff()
        assert rto.rto == pytest.approx(0.2)

    def test_backoff_cap_validated(self):
        with pytest.raises(ValueError):
            RtoEstimator(backoff_cap=0)


# ---------------------------------------------------------------------- #
# sender harness: "striping" = record the packet, then report the
# transmission back like a recording port would.


class SenderHarness:
    """A ReliableSender whose stripe path transmits instantly on channel 0.

    ``auto_send=False`` models a striper that queued the packet but has
    not transmitted it yet (``note_sent`` never fires).
    """

    def __init__(
        self, sim, auto_send=True, channel=0, sender_cls=ReliableSender,
        **options
    ):
        self.sent = []
        self.auto_send = auto_send
        self.channel = channel
        self.suspects = []
        self.window_opens = 0
        options.setdefault("on_channel_suspect", self.suspects.append)
        options.setdefault(
            "on_window_open",
            lambda: setattr(self, "window_opens", self.window_opens + 1),
        )
        self.sender = sender_cls(self._stripe, sim, **options)

    def _stripe(self, packet):
        self.sent.append(packet)
        if self.auto_send:
            self.sender.note_sent(self.channel, packet)

    def submit(self, n, size=100):
        return [
            self.sender.submit(Packet(size=size, seq=i)) for i in range(n)
        ]


class TestSenderWindow:
    def test_rseq_assigned_in_submit_order(self, sim):
        h = SenderHarness(sim)
        h.submit(3)
        assert [p.rseq for p in h.sent] == [0, 1, 2]
        assert h.sender.next_rseq == 3

    def test_window_full_parks_submits(self, sim):
        h = SenderHarness(sim, window_packets=2)
        h.submit(5)
        assert len(h.sent) == 2  # only the window's worth was striped
        assert h.sender.backlog == 3
        assert not h.sender.can_submit()
        assert h.sender.stats.backpressure_stalls == 3

    def test_ack_refills_window_in_order(self, sim):
        h = SenderHarness(sim, window_packets=2)
        h.submit(5)
        h.sender.on_ack(sack(2))  # rseq 0, 1 retired
        assert [p.rseq for p in h.sent] == [0, 1, 2, 3]
        assert h.sender.backlog == 1
        h.sender.on_ack(sack(4))
        assert [p.rseq for p in h.sent] == [0, 1, 2, 3, 4]
        assert h.sender.can_submit()

    def test_window_open_fires_once_drained(self, sim):
        h = SenderHarness(sim, window_packets=2)
        h.submit(3)
        assert h.window_opens == 0
        h.sender.on_ack(sack(2))
        # overflow replayed and there is room again
        assert h.window_opens == 1
        assert h.sender.stats.acked == 2

    def test_ack_packet_and_bare_sack_both_accepted(self, sim):
        h = SenderHarness(sim)
        h.submit(2)
        h.sender.on_ack(AckPacket(sack=sack(1)))
        h.sender.on_ack(sack(2))
        assert not h.sender.unacked

    def test_stale_cum_ack_is_harmless(self, sim):
        h = SenderHarness(sim)
        h.submit(2)
        h.sender.on_ack(sack(2))
        h.sender.on_ack(sack(1))  # reordered older ack
        assert h.sender.stats.acked == 2
        assert not h.sender.unacked

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ReliableSender(lambda p: None, sim, window_packets=0)
        with pytest.raises(ValueError):
            ReliableSender(lambda p: None, sim, max_retries=0)


class TestKarnSampling:
    def test_single_transmission_sampled(self, sim):
        h = SenderHarness(sim)
        h.submit(1)
        sim.schedule_at(0.05, lambda: h.sender.on_ack(sack(1)))
        sim.run(until=0.1)
        assert h.sender.stats.rtt_samples == 1
        assert h.sender.rto.srtt == pytest.approx(0.05)

    def test_retransmitted_packet_not_sampled(self, sim):
        h = SenderHarness(sim, rto=RtoEstimator(initial_rto=0.05))
        h.submit(1)
        sim.run(until=0.2)  # RTO fires, packet retransmitted
        assert h.sender.stats.timeouts >= 1
        h.sender.on_ack(sack(1))
        assert h.sender.stats.rtt_samples == 0  # Karn's rule

    def test_sacked_packet_sampled_once(self, sim):
        h = SenderHarness(sim)
        h.submit(3)
        sim.schedule_at(
            0.02, lambda: h.sender.on_ack(sack(0, (2, 3)))
        )
        sim.schedule_at(0.03, lambda: h.sender.on_ack(sack(3)))
        sim.run(until=0.1)
        # one sample per packet: 2 at cum-ack time, 1 at sack time
        assert h.sender.stats.rtt_samples == 3


class TestFastRetransmit:
    def test_hole_retransmitted_after_dupthresh_hints(self, sim):
        h = SenderHarness(sim)
        h.submit(6)
        # rseq 0 is lost; SACKs report ever newer data behind it.  The
        # SRTT gate needs a round trip of silence per hint, so space the
        # acks a full (seeded) SRTT apart.
        h.sender.rto.sample(0.001)
        for i in range(FAST_RETRANSMIT_HINTS):
            sim.schedule_at(
                0.01 * (i + 1),
                lambda i=i: h.sender.on_ack(sack(0, (1, 2 + i))),
            )
        sim.run(until=0.01 * FAST_RETRANSMIT_HINTS + 0.001)
        assert h.sender.stats.fast_retransmissions == 1
        assert [p.rseq for p in h.sent].count(0) == 2

    def test_no_retransmit_while_repair_in_flight(self, sim):
        h = SenderHarness(sim)
        h.submit(6)
        h.sender.rto.sample(0.05)  # srtt 50 ms
        # Same-instant ack burst: only the first hint can accrue.
        for i in range(5):
            h.sender.on_ack(sack(0, (1, 2 + i)))
        assert h.sender.stats.fast_retransmissions == 0

    def test_sacked_records_not_retransmitted(self, sim):
        h = SenderHarness(sim)
        h.submit(4)
        h.sender.rto.sample(0.001)
        for i in range(FAST_RETRANSMIT_HINTS + 1):
            sim.schedule_at(
                0.01 * (i + 1),
                lambda: h.sender.on_ack(sack(0, (1, 4))),
            )
        sim.run(until=0.1)
        # Only the hole (rseq 0) ever went out twice.
        counts = {r: [p.rseq for p in h.sent].count(r) for r in range(4)}
        assert counts[0] == 2
        assert counts[1] == counts[2] == counts[3] == 1


class TestTimerAndEscalation:
    def test_timeout_retransmits_and_backs_off(self, sim):
        h = SenderHarness(sim, rto=RtoEstimator(initial_rto=0.1))
        h.submit(1)
        sim.run(until=0.35)  # 0.1 then backed-off 0.2
        assert h.sender.stats.timeouts == 2
        assert h.sender.rto.backoffs == 2
        assert len(h.sent) == 3
        assert h.sender.stats.retransmissions == 2

    def test_timer_quiesces_when_all_acked(self, sim):
        h = SenderHarness(sim, rto=RtoEstimator(initial_rto=0.1))
        h.submit(2)
        h.sender.on_ack(sack(2))
        sim.run(until=1.0)
        assert h.sender.stats.timeouts == 0
        assert not h.sent[3:]

    def test_unsent_packet_not_retransmitted(self, sim):
        # The striper accepted the packet but never transmitted it (all
        # channels wedged): there is nothing to time out yet.
        h = SenderHarness(sim, auto_send=False,
                          rto=RtoEstimator(initial_rto=0.05))
        h.submit(1)
        sim.run(until=0.5)
        assert h.sender.stats.timeouts == 0
        assert len(h.sent) == 1

    def test_escalation_reports_last_channel_once(self, sim):
        h = SenderHarness(
            sim, channel=2, max_retries=3,
            rto=RtoEstimator(initial_rto=0.02, min_rto=0.02, max_rto=0.04),
        )
        h.submit(1)
        sim.run(until=2.0)
        assert h.sender.stats.escalations == 1
        assert h.suspects == [2]
        # Escalation does not abandon the data: retries continue.
        assert h.sender.stats.retransmissions > 3
        # Late ack still retires it.
        h.sender.on_ack(sack(1))
        assert not h.sender.unacked

    def test_retransmissions_tracked_per_channel(self, sim):
        h = SenderHarness(sim, rto=RtoEstimator(initial_rto=0.05))
        h.submit(1, size=123)
        sim.run(until=0.2)  # two timeouts (t=0.05, then backed-off t=0.15)
        assert h.sender.retransmitted_bytes == {0: 2 * 123}

    def test_channel_rejoin_collapses_inflated_rto(self, sim):
        """Regression (channel rejoin satellite): after an outage inflates
        the shared RTO, an ack-triggered rejoin collapses it — the next
        retry fires at the smoothed estimate, not the backed-off timer."""
        h = SenderHarness(
            sim, rto=RtoEstimator(initial_rto=0.05, max_rto=30.0)
        )
        h.submit(1)
        h.sender.rto.sample(0.05)
        base = h.sender.rto.rto
        sim.run(until=2.0)  # several unanswered timeouts back the timer off
        assert h.sender.rto.backoffs >= 3
        inflated = h.sender.rto.rto
        assert inflated > 2 * base
        sent_before = len(h.sent)

        h.sender.on_channel_rejoin()
        assert h.sender.rto.rto == pytest.approx(base)
        # The single retransmission timer was re-armed at the collapsed
        # timeout: the pending packet goes out again within ~base, far
        # sooner than the inflated timer would have allowed.
        sim.run(until=sim.now + 2 * base)
        assert len(h.sent) > sent_before

    def test_channel_rejoin_with_nothing_outstanding_is_noop(self, sim):
        h = SenderHarness(sim, rto=RtoEstimator(initial_rto=0.05))
        h.submit(1)
        h.sender.on_ack(sack(1))
        h.sender.on_channel_rejoin()
        sim.run(until=1.0)
        assert h.sender.stats.timeouts == 0


# ---------------------------------------------------------------------- #
# receiver


class ReceiverHarness:
    def __init__(self, sim=None, **options):
        self.delivered = []
        self.acks = []
        options.setdefault("send_ack", self.acks.append)
        self.receiver = ReliableReceiver(
            self.delivered.append, sim=sim, **options
        )

    def push(self, rseq, seq=None):
        packet = Packet(size=100, seq=seq if seq is not None else rseq)
        packet.rseq = rseq
        self.receiver.push(packet)
        return packet


class TestReceiverOrdering:
    def test_in_order_stream_delivered(self):
        h = ReceiverHarness()
        for i in range(5):
            h.push(i)
        assert [p.rseq for p in h.delivered] == [0, 1, 2, 3, 4]
        assert h.receiver.stats.out_of_order == 0

    def test_gap_held_back_until_filled(self):
        h = ReceiverHarness()
        h.push(0)
        h.push(2)
        h.push(3)
        assert [p.rseq for p in h.delivered] == [0]
        h.push(1)  # retransmission arrives
        assert [p.rseq for p in h.delivered] == [0, 1, 2, 3]

    def test_duplicates_dropped(self):
        h = ReceiverHarness()
        h.push(0)
        h.push(0)          # below cum
        h.push(2)
        h.push(2)          # already buffered
        assert h.receiver.stats.duplicates == 2
        assert [p.rseq for p in h.delivered] == [0]

    def test_beyond_window_dropped(self):
        h = ReceiverHarness(window_packets=4)
        h.push(0)
        h.push(100)
        assert h.receiver.stats.window_drops == 1
        h.push(1)
        assert [p.rseq for p in h.delivered] == [0, 1]

    def test_unsequenced_packet_passes_through(self):
        h = ReceiverHarness()
        packet = Packet(size=100, seq=7)  # rseq is None
        h.receiver.push(packet)
        assert h.delivered == [packet]
        assert h.receiver.stats.received == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliableReceiver(lambda p: None, window_packets=0)
        with pytest.raises(ValueError):
            ReliableReceiver(lambda p: None, ack_every=0)


class TestReceiverAcks:
    def test_every_nth_in_order_delivery_acked(self):
        h = ReceiverHarness(ack_every=2)
        h.push(0)
        assert len(h.acks) == 0
        h.push(1)
        assert len(h.acks) == 1
        assert h.acks[-1] == SackInfo(cum_ack=2)

    def test_out_of_order_acks_immediately(self):
        h = ReceiverHarness(ack_every=100)
        h.push(0)
        h.push(2)
        assert len(h.acks) == 1
        assert h.acks[-1] == SackInfo(cum_ack=1, blocks=((2, 3),))

    def test_duplicate_acks_immediately(self):
        h = ReceiverHarness(ack_every=100)
        h.push(0)
        h.push(0)
        assert len(h.acks) == 1  # the loss signal must not wait

    def test_delayed_ack_fires(self, sim):
        h = ReceiverHarness(sim=sim, ack_every=10, ack_delay_s=0.005)
        h.push(0)
        assert len(h.acks) == 0
        sim.run(until=0.01)
        assert len(h.acks) == 1
        assert h.acks[-1].cum_ack == 1
        # and does not re-fire with nothing new to ack
        sim.run(until=0.05)
        assert len(h.acks) == 1

    def test_sack_blocks_coalesced_newest_edge_first(self):
        h = ReceiverHarness()
        for rseq in (2, 3, 6, 5):
            h.push(rseq)
        info = h.receiver.sack_info()
        # {2,3} and {5,6} coalesce; 5 was the most recent out-of-order
        # arrival, so its block is reported first.
        assert info.cum_ack == 0
        assert info.blocks == ((5, 7), (2, 4))

    def test_sack_truncation_keeps_freshest(self):
        h = ReceiverHarness()
        for rseq in (2, 5, 8):
            h.push(rseq)
        info = h.receiver.sack_info(max_blocks=2)
        # newest arrival (8) first, then newest edge of the rest
        assert info.blocks == ((8, 9), (5, 6))


# ---------------------------------------------------------------------- #
# loopback: sender and receiver glued through a lossy "bundle"


class TestLoopback:
    def run_loopback(
        self, sim, lose, n=50, delay=0.002, window=64,
        sender_cls=ReliableSender,
    ):
        """Stripe sender->receiver with per-copy drop decisions."""
        h = SenderHarness(
            sim, auto_send=False, sender_cls=sender_cls,
            window_packets=window,
        )
        hr = ReceiverHarness(
            sim=sim, ack_every=2, ack_delay_s=0.004,
        )
        copies = iter(range(1 << 20))

        def stripe(packet):
            h.sent.append(packet)
            h.sender.note_sent(0, packet)
            if not lose(next(copies)):
                sim.schedule(delay, hr.receiver.push, packet)

        h.sender._submit = stripe
        hr.receiver.send_ack = lambda info: sim.schedule(
            delay, h.sender.on_ack, info
        )
        for i in range(n):
            h.sender.submit(Packet(size=100, seq=i))
        sim.run(until=5.0)
        return h, hr

    def test_lossless_loopback(self, sim):
        h, hr = self.run_loopback(sim, lose=lambda i: False)
        assert [p.seq for p in hr.delivered] == list(range(50))
        assert not h.sender.unacked
        assert h.sender.stats.retransmissions == 0

    def test_every_fifth_copy_lost_still_exactly_once(self, sim):
        h, hr = self.run_loopback(sim, lose=lambda i: i % 5 == 0)
        assert [p.seq for p in hr.delivered] == list(range(50))
        assert not h.sender.unacked
        assert h.sender.stats.retransmissions > 0

    def test_ack_cost_tracks_changes_not_the_window(self):
        """Window 512 at 5% loss: an ack examines the holes and what it
        newly covers, far fewer records than the window holds.  Counted,
        not timed; the full-scan reference on the same traffic shows the
        bound is one a scan of the window does not meet."""
        window = 512
        per_ack = {}
        for sender_cls in (ReliableSender, FullScanSender):
            sim = Simulator()
            rng = random.Random(5)
            h, hr = self.run_loopback(
                sim, lose=lambda i: rng.random() < 0.05, n=4000,
                window=window, sender_cls=sender_cls,
            )
            assert [p.seq for p in hr.delivered] == list(range(4000))
            stats = h.sender.stats
            assert stats.retransmissions > 0
            per_ack[sender_cls] = stats.sack_visits / stats.sack_scans
        assert per_ack[ReliableSender] < window / 4
        assert per_ack[FullScanSender] > window / 4


# ---------------------------------------------------------------------- #
# end to end on the real stacks, under persistent loss


def drain(sim, testbed, until, settle):
    sim.run(until=until)
    testbed.source.stop()
    sim.run(until=until + settle)


@pytest.mark.parametrize("seed", [3, 11])
def test_socket_stack_reliable_under_persistent_loss(seed):
    from repro.experiments.socket_harness import (
        SocketTestbedConfig,
        build_socket_testbed,
    )

    sim = Simulator()
    testbed = build_socket_testbed(
        sim,
        SocketTestbedConfig(
            n_channels=3, link_mbps=(10.0,), prop_delay_s=(0.5e-3,),
            loss_rates=(0.1,),  # persistent: never switched off
            reliability="reliable", seed=seed,
        ),
    )
    drain(sim, testbed, until=1.0, settle=2.0)

    seqs = testbed.delivered_seqs()
    generated = testbed.source.generated
    assert generated > 1000
    assert seqs == sorted(set(seqs)), "not exactly-once in order"
    assert set(seqs) == set(range(generated)), "a submitted message was lost"
    arq = testbed.sender.reliable
    assert not arq.unacked and not arq.backlog
    assert arq.stats.retransmissions > 0


def test_socket_stack_quasi_fifo_unchanged_by_default():
    """The default mode has no ARQ state and loses packets under loss."""
    from repro.experiments.socket_harness import (
        SocketTestbedConfig,
        build_socket_testbed,
    )

    sim = Simulator()
    testbed = build_socket_testbed(
        sim,
        SocketTestbedConfig(
            n_channels=3, link_mbps=(10.0,), prop_delay_s=(0.5e-3,),
            loss_rates=(0.1,), seed=3,
        ),
    )
    assert testbed.sender.reliable is None
    assert testbed.receiver.reliable is None
    drain(sim, testbed, until=1.0, settle=1.0)
    seqs = testbed.delivered_seqs()
    assert len(seqs) == len(set(seqs))
    assert len(seqs) < testbed.source.generated  # loss is real


@pytest.mark.parametrize("seed", [0])
def test_session_stack_reliable_under_persistent_loss(seed):
    from repro.experiments.fault_tolerance import build_session_testbed

    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.1,),
        seed=seed, reliability="reliable",
    )
    drain(sim, testbed, until=1.0, settle=2.0)

    seqs = [seq for _, seq in testbed.deliveries]
    generated = testbed.source.generated
    assert generated > 1000
    assert seqs == sorted(set(seqs)), "not exactly-once in order"
    assert set(seqs) == set(range(generated)), "a submitted message was lost"
    arq = testbed.sender.reliable
    assert not arq.unacked and not arq.backlog
    assert arq.stats.retransmissions > 0


def test_session_stack_escalation_excludes_dead_channel():
    """A channel that goes fully dark: ARQ escalation feeds the session's
    exclusion machinery, and the stream still delivers everything."""
    from repro.experiments.fault_tolerance import build_session_testbed

    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
        reliability="reliable",
        reliability_options={"sender": {"max_retries": 3}},
    )
    sim.schedule_at(
        0.3, lambda: setattr(testbed.loss_models[1], "p", 1.0)
    )
    drain(sim, testbed, until=1.2, settle=2.0)

    arq = testbed.sender.reliable
    assert arq.stats.escalations >= 1
    assert testbed.sender_session.resets_completed >= 1
    assert 1 not in testbed.sender_session.config.active_channels
    seqs = [seq for _, seq in testbed.deliveries]
    assert seqs == sorted(set(seqs))
    assert set(seqs) == set(range(testbed.source.generated))
    assert not arq.unacked and not arq.backlog


# ---------------------------------------------------------------------- #
# batched ARQ surface: submit_many / note_burst / batched retransmissions


class BurstHarness:
    """SenderHarness analog whose stripe path takes whole bursts.

    Models the fast path's recording burst port: ``submit_many`` bursts
    arrive through one ``_stripe_many`` call and are reported back with
    one ``note_burst``.
    """

    def __init__(self, sim, sender_cls=ReliableSender, **options):
        self.sent = []
        self.bursts = []
        self.sender = sender_cls(
            self._stripe, sim, submit_many=self._stripe_many, **options
        )

    def _stripe(self, packet):
        self.sent.append(packet)
        self.sender.note_sent(0, packet)

    def _stripe_many(self, packets):
        burst = list(packets)
        self.bursts.append(burst)
        self.sent.extend(burst)
        self.sender.note_burst(0, burst)

    def submit_burst(self, n, size=100):
        packets = [Packet(size=size, seq=i) for i in range(n)]
        self.sender.submit_many(packets)
        return packets


class TestBatchedArq:
    def test_submit_many_equivalent_to_per_packet_submits(self, sim):
        a = SenderHarness(sim)
        a.submit(6)
        b = BurstHarness(sim)
        b.submit_burst(6)
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert list(b.sender.unacked) == list(a.sender.unacked)
        assert b.sender.next_rseq == a.sender.next_rseq
        assert len(b.bursts) == 1  # one striper call, not six
        assert b.sender.stats.burst_submits == 1
        assert b.sender.stats.submitted == 6

    def test_submit_many_respects_window_backpressure(self, sim):
        a = SenderHarness(sim, window_packets=4)
        a.submit(6)
        b = BurstHarness(sim, window_packets=4)
        b.submit_burst(6)
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert b.sender.backlog == a.sender.backlog == 2
        assert b.sender.stats.backpressure_stalls == 2
        a.sender.on_ack(sack(2))
        b.sender.on_ack(sack(2))
        # acks replay the parked tail identically on both harnesses
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert b.sender.backlog == a.sender.backlog == 0

    def test_note_burst_equivalent_to_note_sent_loop(self, sim):
        a = SenderHarness(sim)
        a.submit(4)
        b = BurstHarness(sim)
        b.submit_burst(4)
        for rseq, ra in a.sender.unacked.items():
            rb = b.sender.unacked[rseq]
            assert (
                rb.transmissions, rb.first_sent, rb.last_sent,
                rb.last_channel, rb.rtx_pending,
            ) == (
                ra.transmissions, ra.first_sent, ra.last_sent,
                ra.last_channel, ra.rtx_pending,
            )

    def test_multi_hole_repair_goes_out_as_one_burst(self, sim):
        h = BurstHarness(sim)
        h.submit_burst(8)
        # rseq 0 and 1 are both lost; SACKs report ever newer data.
        h.sender.rto.sample(0.001)
        for i in range(FAST_RETRANSMIT_HINTS):
            sim.schedule_at(
                0.01 * (i + 1),
                lambda i=i: h.sender.on_ack(sack(0, (2, 4 + i))),
            )
        sim.run(until=0.01 * FAST_RETRANSMIT_HINTS + 0.001)
        assert h.sender.stats.fast_retransmissions == 2
        assert h.sender.stats.batched_retransmissions == 2
        # both holes repaired through one striper burst
        assert sorted(p.rseq for p in h.bursts[-1]) == [0, 1]
        assert h.sender.stats.sack_scans == FAST_RETRANSMIT_HINTS
        assert h.sender.stats.retransmissions == 2
        assert h.sender.retransmitted_bytes[0] == 200


# ---------------------------------------------------------------------- #
# derived ack-path state against from-scratch references: the receiver's
# SACK interval set and the sender's un-sacked index (arq_oracles.py)

RX_WINDOW = 12

receiver_steps = st.lists(
    st.one_of(
        # in-order, out-of-order, duplicate and beyond-window arrivals
        st.tuples(st.just("push"), st.integers(-3, RX_WINDOW + 3)),
        st.tuples(st.just("adopt_base"), st.integers(0, 8)),
        st.tuples(
            st.just("restore_window"),
            st.integers(0, 40),
            st.sets(st.integers(1, RX_WINDOW - 1)),
            st.one_of(st.none(), st.integers(0, RX_WINDOW - 1)),
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(receiver_steps)
def test_sack_blocks_equal_a_from_scratch_rebuild(steps):
    h = ReceiverHarness(window_packets=RX_WINDOW, send_ack=None)
    rx = h.receiver
    for step in steps:
        if step[0] == "push":
            h.push(rx.next_expected + step[1])
        elif step[0] == "adopt_base":
            rx.adopt_base(rx.next_expected + step[1])
        else:
            _, base, offsets, last = step
            rx.restore_window(
                base,
                {base + off: Packet(size=100, seq=0) for off in offsets},
                last_ooo=None if last is None else base + last,
            )
        assert (rx._starts, rx._ends) == receiver_blocks(rx)
        for max_blocks in (1, 2, 4):
            assert rx.sack_info(max_blocks) == SackInfo(
                cum_ack=rx.next_expected,
                blocks=sack_blocks(rx._ooo, rx._last_ooo, max_blocks),
            )


class ArqTwin:
    """One input stream fed to a sender and to its full-scan reference.

    Each side has its own simulator and packets; ``step`` applies one
    input to both.  A real receiver fed from the sender's transmissions
    produces the acks, which the steps then deliver late, twice, out of
    order or not at all.
    """

    def __init__(self, batched):
        self.sides = []
        for sender_cls in (ReliableSender, FullScanSender):
            sim = Simulator()
            harness = (BurstHarness if batched else SenderHarness)(
                sim, sender_cls=sender_cls, window_packets=8, max_retries=2
            )
            self.sides.append((sim, harness))
        self.sender = self.sides[0][1].sender
        self.rx = ReliableReceiver(lambda packet: None, window_packets=16)
        self.in_flight = []
        self.acks = []
        self.seen = 0

    def _collect_transmissions(self):
        sent = self.sides[0][1].sent
        self.in_flight.extend(p.rseq for p in sent[self.seen:])
        self.seen = len(sent)

    def step(self, step):
        kind = step[0]
        if kind == "submit":
            for _, harness in self.sides:
                packets = [Packet(size=100, seq=i) for i in range(step[1])]
                if step[2]:
                    harness.sender.submit_many(packets)
                else:
                    for packet in packets:
                        harness.sender.submit(packet)
        elif kind == "arrive" and self.in_flight:
            packet = Packet(size=100, seq=0)
            packet.rseq = self.in_flight.pop(step[1] % len(self.in_flight))
            self.rx.push(packet)
            self.acks.append(self.rx.sack_info(step[2]))
        elif kind == "lose" and self.in_flight:
            self.in_flight.pop(step[1] % len(self.in_flight))
        elif kind == "lose_ack" and self.acks:
            self.acks.pop(step[1] % len(self.acks))
        elif kind == "ack" and self.acks:
            index = step[1] % len(self.acks)
            ack = self.acks[index] if step[2] else self.acks.pop(index)
            for _, harness in self.sides:
                harness.sender.on_ack(ack)
        elif kind == "advance":
            for sim, _ in self.sides:
                sim.run(until=sim.now + step[1])
        elif kind == "reconcile":
            if step[1]:  # the receiver restarted without its buffer
                self.rx.restore_window(self.rx.next_expected, {})
            report = self.rx.sack_info(64)
            self.acks.clear()  # the old incarnation's acks are fenced off
            for _, harness in self.sides:
                harness.sender.reconcile(report.cum_ack, report.blocks)
        self._collect_transmissions()

    @staticmethod
    def observe(harness):
        sender = harness.sender
        stats = dataclasses.asdict(sender.stats)
        del stats["sack_visits"]  # the two sides differ in it by design
        return (
            [
                (
                    rseq, r.sacked, r.dup_hints, r.transmissions,
                    r.rtx_pending, r.last_sent, r.escalated,
                )
                for rseq, r in sender.unacked.items()
            ],
            stats,  # rtt_samples, fast_retransmissions, timeouts, ...
            [p.rseq for p in harness.sent],  # retransmit order
            (sender.rto.srtt, sender.rto.rttvar, sender.rto.rto),
            sender.backlog,
            sender.retransmitted_bytes,
        )


arrive_step = st.tuples(
    st.just("arrive"), st.integers(0, 63), st.sampled_from((1, 2, 4))
)
# keep=True leaves the ack queued: it comes again later, stale
ack_step = st.tuples(st.just("ack"), st.integers(0, 63), st.booleans())
advance_step = st.tuples(
    st.just("advance"), st.sampled_from((0.001, 0.001, 0.05, 0.5))
)
# Arrivals and acks are drawn several times as often as the rest, so that
# most examples reach a partly sacked window, dup hints and fast
# retransmits rather than dying as a list of no-ops.
sender_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 6), st.booleans()),
        arrive_step, arrive_step, arrive_step, arrive_step,
        st.tuples(st.just("lose"), st.integers(0, 63)),
        ack_step, ack_step, ack_step, ack_step,
        st.tuples(st.just("lose_ack"), st.integers(0, 63)),
        advance_step, advance_step,
        st.tuples(st.just("reconcile"), st.booleans()),
    ),
    min_size=10,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(sender_steps, st.booleans())
@example(  # two holes ripen together: one batched fast retransmit
    [("arrive", 3, 4), ("advance", 0.001)] + [("ack", 0, True)] * 4
    + [("arrive", 0, 4), ("ack", 1, False), ("advance", 0.05)],
    True,
)
@example(  # SACK reneging: a restarted receiver lost what it had acked
    [("arrive", 2, 2), ("arrive", 3, 2), ("ack", 1, False),
     ("reconcile", True), ("arrive", 0, 4), ("ack", 0, False),
     ("advance", 0.5)],
    False,
)
def test_unsacked_index_equals_a_full_scan(steps, batched):
    twin = ArqTwin(batched)
    (_, indexed), (_, full_scan) = twin.sides
    for step in [("submit", 6, batched)] + steps:
        twin.step(step)
        assert twin.observe(indexed) == twin.observe(full_scan), step
        index = list(twin.sender._unsacked.items())
        expected = unsacked_index(twin.sender)
        assert index == expected
        assert all(a[1] is b[1] for a, b in zip(index, expected))
