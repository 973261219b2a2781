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

import copy
import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.packet import Packet, SackInfo
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.loss import DeterministicLoss, SizeGatedLoss
from repro.transport import FastChannelPort, wire_size
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fast_path import wire_fast_ack_path
from repro.transport.reliability import (
    FAST_RETRANSMIT_HINTS,
    MAX_RETRIES,
    MAX_SACK_BLOCKS,
    RECEIVE_WINDOW_PACKETS,
    AckPacket,
    ReliableReceiver,
    ReliableSender,
    RtoEstimator,
)
from tests.conftest import LimitedPort, RepairOrderWatch
from tests.session_rig import Loopback
from tests.transport.arq_oracles import (
    FullScanSender,
    PerEventAckReceiver,
    receiver_blocks,
    sack_blocks,
    tail_placement,
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

    Each batch the sender stripes is recorded in ``bursts`` and reported
    back with one ``note_sent``, like a recording burst port.
    ``auto_send=False`` models a striper that queued the packets but has
    not transmitted them yet (``note_sent`` never fires).
    """

    def __init__(
        self, sim, auto_send=True, channel=0, sender_cls=ReliableSender,
        **options
    ):
        self.sent = []
        self.bursts = []
        self.auto_send = auto_send
        self.channel = channel
        self.suspects = []
        self.window_opens = 0
        options.setdefault("on_channel_suspect", self.suspects.append)
        self.sender = sender_cls(self._stripe, sim, **options)
        self.sender.on_window_open = lambda: setattr(
            self, "window_opens", self.window_opens + 1
        )

    def _stripe(self, packets):
        burst = list(packets)
        self.bursts.append(burst)
        self.sent.extend(burst)
        if self.auto_send:
            self.sender.note_sent(self.channel, burst)

    def submit(self, n, size=100):
        """``n`` packets, submitted one at a time."""
        for i in range(n):
            self.sender.submit([Packet(size=size, seq=i)])

    def submit_burst(self, n, size=100):
        """``n`` packets, submitted in one call."""
        self.sender.submit([Packet(size=size, seq=i) for i in range(n)])


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
        assert h.sender.window_room() == 0
        assert h.sender.stats.backpressure_stalls == 3

    def test_ack_refills_window_in_order(self, sim):
        h = SenderHarness(sim, window_packets=2)
        h.submit(5)
        h.sender.on_ack(sack(2))  # rseq 0, 1 retired
        assert [p.rseq for p in h.sent] == [0, 1, 2, 3]
        assert h.sender.backlog == 1
        h.sender.on_ack(sack(4))
        assert [p.rseq for p in h.sent] == [0, 1, 2, 3, 4]
        assert h.sender.window_room() > 0

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


class TestKarnSampling:
    def test_single_transmission_sampled(self, sim):
        h = SenderHarness(sim)
        h.submit(1)
        sim.schedule_at(0.05, lambda: h.sender.on_ack(sack(1)))
        sim.run(until=0.1)
        assert h.sender.stats.rtt_samples == 1
        assert h.sender.rto.srtt == pytest.approx(0.05)

    def test_retransmitted_packet_not_sampled(self, sim):
        h = SenderHarness(sim)
        h.submit(1)
        sim.run(until=0.3)  # RTO fires, packet retransmitted
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

    @pytest.mark.parametrize("acks", [FAST_RETRANSMIT_HINTS - 1,
                                      FAST_RETRANSMIT_HINTS])
    def test_merged_ack_counts_every_ack(self, sim, acks):
        """One ack packet standing for dupthresh acks repairs the hole
        below the data it reports, where each ack once needed its own
        packet; one standing for fewer adds that many hints."""
        h = SenderHarness(sim)
        h.submit(6)
        h.sender.rto.sample(0.001)
        sim.run(until=0.01)
        h.sender.on_ack(AckPacket(SackInfo(0, ((1, 3),), acks=acks)))
        repaired = acks >= FAST_RETRANSMIT_HINTS
        assert h.sender.unacked[0].dup_hints == (0 if repaired else acks)
        assert h.sender.stats.fast_retransmissions == int(repaired)
        assert [p.rseq for p in h.sent].count(0) == 1 + repaired

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
        h = SenderHarness(sim)
        h.submit(1)
        sim.run(until=0.7)  # 0.2 then backed-off 0.4
        assert h.sender.stats.timeouts == 2
        assert h.sender.rto.backoffs == 2
        assert len(h.sent) == 3
        assert h.sender.stats.retransmissions == 2

    def test_timer_quiesces_when_all_acked(self, sim):
        h = SenderHarness(sim)
        h.submit(2)
        h.sender.on_ack(sack(2))
        sim.run(until=1.0)
        assert h.sender.stats.timeouts == 0
        assert not h.sent[3:]

    def test_unsent_packet_not_retransmitted(self, sim):
        # The striper accepted the packet but never transmitted it (all
        # channels wedged): there is nothing to time out yet.
        h = SenderHarness(sim, auto_send=False)
        h.submit(1)
        sim.run(until=0.5)
        assert h.sender.stats.timeouts == 0
        assert len(h.sent) == 1

    def test_escalation_reports_last_channel_once(self, sim):
        h = SenderHarness(sim, channel=2)
        h.submit(1)
        # Timeouts back off 0.2, 0.4, ... s to the 2 s ceiling: the
        # MAX_RETRIES-th retransmission goes out at 11 s.
        sim.run(until=14.0)
        assert h.sender.stats.escalations == 1
        assert h.suspects == [2]
        # Escalation does not abandon the data: retries continue.
        assert h.sender.stats.retransmissions > MAX_RETRIES
        # Late ack still retires it.
        h.sender.on_ack(sack(1))
        assert not h.sender.unacked

    def test_retransmissions_tracked_per_channel(self, sim):
        h = SenderHarness(sim)
        h.submit(1, size=123)
        sim.run(until=0.7)  # two timeouts (t=0.2, then backed-off t=0.6)
        assert h.sender.retransmitted_bytes == {0: 2 * 123}

    def test_channel_rejoin_collapses_inflated_rto(self, sim):
        """Regression (channel rejoin satellite): after an outage inflates
        the shared RTO, an ack-triggered rejoin collapses it — the next
        retry fires at the smoothed estimate, not the backed-off timer."""
        h = SenderHarness(sim)
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
        h = SenderHarness(sim)
        h.submit(1)
        h.sender.on_ack(sack(1))
        h.sender.on_channel_rejoin()
        sim.run(until=1.0)
        assert h.sender.stats.timeouts == 0


# ---------------------------------------------------------------------- #
# receiver


class ReceiverHarness:
    def __init__(self, sim=None, receiver_cls=ReliableReceiver, **options):
        self.delivered = []
        self.acks = []
        options.setdefault("send_ack", self.acks.append)
        self.receiver = receiver_cls(
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
        h = ReceiverHarness()
        h.push(0)
        h.push(1 + RECEIVE_WINDOW_PACKETS)
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

    def test_gap_fill_acks_at_once(self, sim):
        """A packet that fills a gap is acked in its own instant (RFC 5681
        §3.2), not after the delayed-ack timer."""
        h = ReceiverHarness(sim=sim, ack_every=16)
        sent = []
        h.receiver.send_ack = lambda info: sent.append((sim.now, info))
        for at_ms, rseq in ((1, 1), (2, 2), (3, 0), (4, 4), (10, 3)):
            sim.schedule_at(at_ms / 1000, h.push, rseq)
        sim.run(until=0.1)
        assert [round(t * 1000, 6) for t, _ in sent] == [1, 2, 3, 4, 10]
        assert [info.cum_ack for _, info in sent] == [0, 0, 3, 3, 5]
        assert [p.rseq for p in h.delivered] == [0, 1, 2, 3, 4]

    def test_one_ack_per_instant_standing_for_each_earned(self, sim):
        h = ReceiverHarness(sim=sim, ack_every=2)

        def drain():  # one resequencer drain: a gap, then its repair
            for rseq in (0, 2, 3, 2, 1, 4, 5):
                h.push(rseq)

        sim.schedule_at(0.001, drain)
        sim.run(until=0.001)
        # 2, 3 out of order, 2 again, 1 fills the gap, 5 is 2nd in order
        assert h.acks == [SackInfo(cum_ack=6, acks=5)]
        assert h.receiver.stats.acks_sent == 1
        assert [p.rseq for p in h.delivered] == [0, 1, 2, 3, 4, 5]

    def test_stop_sends_the_owed_ack_and_cancels_the_flush(self, sim):
        h = ReceiverHarness(sim=sim, ack_every=100)
        h.push(2)
        h.receiver.stop()
        assert h.acks == [SackInfo(cum_ack=0, blocks=((2, 3),))]
        assert sim.run() == 0
        assert len(h.acks) == 1

    def test_delayed_ack_fires(self, sim):
        h = ReceiverHarness(sim=sim, ack_every=10)
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
        for rseq in (2, 5, 8, 11, 14):
            h.push(rseq)
        # newest arrival (14) first, then newest edge of the rest; the
        # stalest block falls past MAX_SACK_BLOCKS
        assert MAX_SACK_BLOCKS == 4
        assert h.receiver.sack_info().blocks == (
            (14, 15), (11, 12), (8, 9), (5, 6),
        )
        h.push(3)  # the newest arrival displaces the stalest block
        assert h.receiver.sack_info().blocks == (
            (2, 4), (14, 15), (11, 12), (8, 9),
        )


# ---------------------------------------------------------------------- #
# loopback: sender and receiver glued through a lossy "bundle"


class TestLoopback:
    def run_loopback(
        self, sim, lose, n=50, delay=0.002, window=64,
        sender_cls=ReliableSender, receiver_cls=ReliableReceiver,
    ):
        """Stripe sender->receiver with per-copy drop decisions."""
        h = SenderHarness(
            sim, auto_send=False, sender_cls=sender_cls,
            window_packets=window,
        )
        hr = ReceiverHarness(sim=sim, receiver_cls=receiver_cls, ack_every=2)
        copies = iter(range(1 << 20))

        def stripe(packets):
            h.sent.extend(packets)
            h.sender.note_sent(0, packets)
            for packet in packets:
                if not lose(next(copies)):
                    sim.schedule(delay, hr.receiver.push, packet)

        h.sender._submit = stripe
        hr.receiver.send_ack = lambda info: sim.schedule(
            delay, h.sender.on_ack, info
        )
        for i in range(n):
            h.sender.submit([Packet(size=100, seq=i)])
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
        bound is one a scan of the window does not meet.  The receiver
        acks every event on its own (the per-event reference): this
        loopback lands a whole window in one instant, which a merged ack
        covers at once, and the claim is about what each ack changes."""
        window = 512
        per_ack = {}
        for sender_cls in (ReliableSender, FullScanSender):
            sim = Simulator()
            rng = random.Random(5)
            h, hr = self.run_loopback(
                sim, lose=lambda i: rng.random() < 0.05, n=4000,
                window=window, sender_cls=sender_cls,
                receiver_cls=PerEventAckReceiver,
            )
            assert [p.seq for p in hr.delivered] == list(range(4000))
            stats = h.sender.stats
            assert stats.retransmissions > 0
            per_ack[sender_cls] = stats.sack_visits / stats.sack_scans
        assert per_ack[ReliableSender] < window / 4
        assert per_ack[FullScanSender] > window / 4


# ---------------------------------------------------------------------- #
# a retransmission an ack answers while it waits in the striper's input
# queue is withdrawn before the kernel assigns it a channel


def data_sent(ports):
    """The sequenced data packets each port took, in order (rseqs)."""
    return [
        [p.rseq for p in port.sent if getattr(p, "rseq", None) is not None]
        for port in ports
    ]


class TestWithdrawal:
    def queued_repairs(self, sim):
        """Six packets out on two ports, then both ports full and a
        merged ack exposing holes 0 and 2: their fast retransmissions
        wait in the striper's input queue."""
        ports = [LimitedPort(), LimitedPort()]
        pipeline = StripeSenderPipeline(
            ports, SRR([100.0, 100.0]), sim=sim, reliability="reliable",
        )
        pipeline.submit_packets([Packet(size=100, seq=i) for i in range(6)])
        assert data_sent(ports) == [[0, 2, 4], [1, 3, 5]]
        for port in ports:
            port.limit = len(port.sent)
        pipeline.on_ack(SackInfo(0, ((1, 2), (3, 6)), 3))
        arq = pipeline.reliable
        assert arq.stats.fast_retransmissions == 2
        queue = pipeline.striper.input_queue
        assert [p.rseq for p in queue] == [0, 2]
        return ports, pipeline, [arq.unacked[0].packet, arq.unacked[2].packet]

    def drain(self, ports, pipeline):
        for port in ports:
            port.limit = None
        pipeline.pump()
        return data_sent(ports)

    def test_a_sack_covering_a_queued_copy_withdraws_it(self, sim):
        ports, pipeline, (zero, two) = self.queued_repairs(sim)
        # The original of 2 was late, not lost: the next ack covers it.
        pipeline.on_ack(SackInfo(0, ((1, 6),)))
        queue = pipeline.striper.input_queue
        assert list(queue) == [zero] and queue[0] is zero
        stats = pipeline.reliable.stats
        assert stats.withdrawn == 1
        assert self.drain(ports, pipeline) == [[0, 2, 4, 0], [1, 3, 5]]
        assert stats.retransmissions == 1  # only copies a channel took
        assert stats.late_copies == 0

    def test_a_cumulative_ack_retiring_a_queued_copy_withdraws_it(self, sim):
        ports, pipeline, (zero, two) = self.queued_repairs(sim)
        retired = []
        pipeline.reliable.on_retire = lambda packet: retired.append(
            (packet.rseq, any(p is packet for p in pipeline.striper.input_queue))
        )
        pipeline.on_ack(SackInfo(2, ((3, 6),)))
        # Out of the queue before the retire hook may recycle the packet.
        assert retired == [(0, False), (1, False)]
        assert list(pipeline.striper.input_queue) == [two]
        stats = pipeline.reliable.stats
        assert stats.withdrawn == 1
        assert self.drain(ports, pipeline) == [[0, 2, 4, 2], [1, 3, 5]]
        assert stats.retransmissions == 1
        assert stats.late_copies == 0

    def test_the_queue_is_searched_by_identity(self):
        striper = Striper(
            TransformedLoadSharer(SRR([100.0])), [LimitedPort(limit=0)]
        )
        first = Packet(size=100, seq=7)
        twin = copy.copy(first)  # another transmission of the same packet
        assert first == twin and first is not twin
        striper.submit_many([first, twin])
        assert striper.withdraw(twin)
        assert list(striper.input_queue) == [first]
        assert striper.input_queue[0] is first
        assert not striper.withdraw(twin)

    def test_an_ack_during_a_session_reset_keeps_the_copy_out_of_the_new_epoch(
        self, sim
    ):
        lb = Loopback(sim, reliability="reliable")
        lb.sender.submit_packets([Packet(size=100, seq=i) for i in range(6)])
        assert data_sent(lb.ports) == [[0, 2, 4], [1, 3, 5]]
        lb.sender_session.initiate_reset()
        held = lb.sender.striper
        assert held.held
        lb.sender.on_ack(SackInfo(0, ((1, 2), (3, 6)), 3))
        assert [p.rseq for p in held.input_queue] == [0, 2]
        lb.sender.on_ack(SackInfo(0, ((1, 6),)))
        assert [p.rseq for p in held.input_queue] == [0]
        lb.flush()  # the RESETs complete; restripe carries the queue
        assert lb.sender.striper is not held
        assert lb.sender_session.resets_completed == 1
        # The new epoch opens with a fresh kernel: channel 0 goes first.
        assert data_sent(lb.ports) == [[0, 2, 4, 0], [1, 3, 5]]
        lb.flush()
        assert lb.delivered == list(range(6))
        assert lb.sender.reliable.stats.withdrawn == 1

    @pytest.mark.parametrize("discipline", ["mppp", "bonding"])
    def test_wrapped_units_are_never_withdrawn(self, sim, discipline):
        # The recovery layers refuse a wrapping discipline outright ...
        with pytest.raises(ValueError, match="non-transforming"):
            StripeSenderPipeline(
                [LimitedPort(), LimitedPort()], discipline, sim=sim,
                reliability="reliable",
            )
        # ... and its striper queues the units, never the packet, so a
        # withdrawal finds nothing and every unit still goes out.
        ports = [LimitedPort(limit=0), LimitedPort(limit=0)]
        pipeline = StripeSenderPipeline(ports, discipline, sim=sim)
        packet = Packet(size=3000, seq=0)
        pipeline.submit_packet(packet)
        pipeline.flush()
        units = list(pipeline.striper.input_queue)
        assert units and all(unit is not packet for unit in units)
        assert not pipeline.striper.withdraw(packet)
        for port in ports:
            port.limit = None
        pipeline.pump()
        sent = [p for port in ports for p in port.sent]
        assert len(sent) == len(units)
        assert all(any(p is unit for p in sent) for unit in units)


# ---------------------------------------------------------------------- #
# proven losses leave first: a fast retransmission enters the striper's
# input queue ahead of the first transmissions waiting there; a timer
# retransmission keeps the tail; a hybrid hole waits for its parity


class TestRepairPlacement:
    def backed_up(self, sim, reliability="reliable", queued=4):
        """Six packets out on two ports, both ports then full, and
        ``queued`` first transmissions waiting in the striper."""
        ports = [LimitedPort(), LimitedPort()]
        pipeline = StripeSenderPipeline(
            ports, SRR([100.0, 100.0]), sim=sim, reliability=reliability,
        )
        pipeline.submit_packets([Packet(size=100, seq=i) for i in range(6)])
        assert data_sent(ports) == [[0, 2, 4], [1, 3, 5]]
        for port in ports:
            port.limit = len(port.sent)
        pipeline.submit_packets(
            [Packet(size=100, seq=6 + i) for i in range(queued)]
        )
        return ports, pipeline

    def queued_rseqs(self, pipeline):
        return [
            p.rseq for p in pipeline.striper.input_queue
            if getattr(p, "rseq", None) is not None
        ]

    def test_a_fast_retransmission_is_the_next_packet_assigned(self, sim):
        ports, pipeline = self.backed_up(sim)
        assert self.queued_rseqs(pipeline) == [6, 7, 8, 9]
        pipeline.on_ack(SackInfo(0, ((1, 6),), FAST_RETRANSMIT_HINTS))
        assert pipeline.reliable.stats.fast_retransmissions == 1
        assert self.queued_rseqs(pipeline) == [0, 6, 7, 8, 9]
        for port in ports:
            port.limit = None
        pipeline.pump()
        # The kernel's pointer stands on channel 0: the repair takes it.
        assert data_sent(ports) == [[0, 2, 4, 0, 7, 9], [1, 3, 5, 6, 8]]
        assert pipeline.striper.packets_sent == 11

    def test_later_repairs_queue_behind_earlier_ones(self, sim):
        """Mutant: ``expedite`` always inserting at the very head puts
        hole 2's repair ahead of hole 0's."""
        _, pipeline = self.backed_up(sim)
        pipeline.on_ack(SackInfo(0, ((1, 2),), FAST_RETRANSMIT_HINTS))
        pipeline.on_ack(
            SackInfo(0, ((1, 2), (3, 6)), FAST_RETRANSMIT_HINTS)
        )
        assert pipeline.reliable.stats.fast_retransmissions == 2
        assert self.queued_rseqs(pipeline) == [0, 2, 6, 7, 8, 9]

    def test_a_timer_retransmission_keeps_the_tail(self, sim):
        """Mutant: every retransmission through ``expedite`` (the timer's
        included) puts rseq 0 at the head."""
        _, pipeline = self.backed_up(sim)
        sim.run(until=pipeline.reliable.rto.rto * 1.5)
        assert pipeline.reliable.stats.timeouts == 1
        assert pipeline.reliable.stats.fast_retransmissions == 0
        assert self.queued_rseqs(pipeline) == [6, 7, 8, 9, 0]

    def test_an_ack_still_withdraws_a_queued_fast_retransmission(self, sim):
        ports, pipeline = self.backed_up(sim)
        pipeline.on_ack(SackInfo(0, ((1, 2),), FAST_RETRANSMIT_HINTS))
        pipeline.on_ack(
            SackInfo(0, ((1, 2), (3, 6)), FAST_RETRANSMIT_HINTS)
        )
        assert self.queued_rseqs(pipeline) == [0, 2, 6, 7, 8, 9]
        # The original of 2 was late, not lost.
        pipeline.on_ack(SackInfo(0, ((1, 6),)))
        assert self.queued_rseqs(pipeline) == [0, 6, 7, 8, 9]
        stats = pipeline.reliable.stats
        assert stats.withdrawn == 1
        # A repair proven after the withdrawal still queues behind 0.
        pipeline.on_ack(SackInfo(0, ((1, 6),), FAST_RETRANSMIT_HINTS))
        assert self.queued_rseqs(pipeline) == [0, 6, 7, 8, 9]
        pipeline.on_ack(SackInfo(1, ((2, 6),)))
        assert self.queued_rseqs(pipeline) == [6, 7, 8, 9]
        assert stats.withdrawn == 2
        for port in ports:
            port.limit = None
        pipeline.pump()
        assert data_sent(ports) == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]
        assert stats.retransmissions == 0 and stats.late_copies == 0

    def test_a_hybrid_hole_waits_for_the_data_behind_its_parity(self, sim):
        """Group 0-5 seals and its parity is striped before rseq 6: hole 0
        is held while acks report only its own group, and repaired once
        one reports rseq 6."""
        ports, pipeline = self.backed_up(sim, reliability="hybrid", queued=1)
        arq = pipeline.reliable
        assert [arq.unacked[r].horizon for r in range(7)] == [6] * 6 + [0]
        for _ in range(3):
            pipeline.on_ack(SackInfo(0, ((1, 6),), FAST_RETRANSMIT_HINTS))
        assert arq.stats.fast_retransmissions == 0
        pipeline.on_ack(SackInfo(0, ((1, 7),), FAST_RETRANSMIT_HINTS))
        assert arq.stats.fast_retransmissions == 1
        # Ahead of what still waits: the parity and rseq 6.
        assert pipeline.striper.input_queue[0] is arq.unacked[0].packet

    def test_a_held_hybrid_hole_is_still_repaired_by_the_timer(self, sim):
        """The data behind the parity never gets acked: the timer
        repairs the hole."""
        _, pipeline = self.backed_up(sim, reliability="hybrid", queued=1)
        arq = pipeline.reliable
        pipeline.on_ack(SackInfo(0, ((1, 6),), FAST_RETRANSMIT_HINTS))
        sim.run(until=1.0)
        assert arq.stats.fast_retransmissions == 0
        assert arq.stats.timeouts >= 1
        assert any(p is arq.unacked[0].packet
                   for p in pipeline.striper.input_queue)

    def test_a_hybrid_hole_with_no_data_behind_its_parity_is_not_held(
        self, sim
    ):
        """Nothing was submitted after the group: no ack can reach its
        horizon, so the hole is repaired as in reliable mode (a stream's
        last group, whose parity could otherwise only be waited out by a
        backed-off timer)."""
        _, pipeline = self.backed_up(sim, reliability="hybrid", queued=0)
        arq = pipeline.reliable
        assert arq.unacked[0].horizon == arq.next_rseq == 6
        pipeline.on_ack(SackInfo(0, ((1, 6),), FAST_RETRANSMIT_HINTS))
        assert arq.stats.fast_retransmissions == 1


def lossy_bundle(drops, placement=None, n=48):
    """``n`` packets submitted at t=0 to a reliable two-channel bundle
    whose three-slot queues back the rest up in the striper; channel
    ``i`` drops the data packets at the indices in ``drops[i]`` (markers
    pass).  Returns the delivered seqs, the sender's ARQ stats, the data
    packets the channels dropped and a :class:`RepairOrderWatch` on the
    sender (None under a ``placement``)."""
    sim = Simulator()
    channels = [
        Channel(
            sim, 10e6, (0.5 + 0.7 * i) * 1e-3, name=f"ch{i}",
            queue_limit=3, size_of=wire_size, fast=True,
            loss_model=SizeGatedLoss(DeterministicLoss(dropped), 100),
        )
        for i, dropped in enumerate(drops)
    ]
    sender = StripeSenderPipeline(
        [FastChannelPort(channel) for channel in channels],
        SRR([1000.0] * len(channels)),
        marker_policy=MarkerPolicy(interval_rounds=1), sim=sim,
        marker_keepalive_s=0.02, reliability="reliable",
    )
    watch = None
    if placement is not None:
        placement(sender.reliable)
    else:
        watch = RepairOrderWatch(sender)
    reverse = Channel(sim, 10e6, 0.5e-3, name="reverse")
    delivered = []
    receiver = StripeReceiverPipeline(
        len(channels), SRR([1000.0] * len(channels)), mode="marker",
        on_message=lambda packet: delivered.append(packet.seq), sim=sim,
        reliability="reliable",
        send_ack=wire_fast_ack_path(reverse, sender).send_sack,
    )
    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = sender.pump
    sender.submit_packets([Packet(size=1000, seq=i) for i in range(n)])
    sim.run(until=5.0)
    lost = sum(channel.stats.lost_packets for channel in channels)
    return delivered, sender.reliable.stats, lost, watch


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=30), max_size=6),
        min_size=2, max_size=2,
    )
)
@example([{1, 2, 3}, {0, 5}])
def test_repairs_first_and_at_the_tail_both_deliver_exactly_once(drops):
    """On the same loss script, repairs placed ahead of queued data and
    repairs placed behind it (the oracle) both deliver every packet
    exactly once and in order, and ahead of it no first transmission
    leaves while a fast retransmission waits.  Mutant: ``expedite``
    appending at the tail (``Striper.submit_many``) lets them pass."""
    ahead, stats, lost, watch = lossy_bundle(drops)
    behind, _, _, _ = lossy_bundle(drops, placement=tail_placement)
    assert ahead == list(range(48))
    assert behind == list(range(48))
    assert stats.retransmissions >= lost
    assert watch.passed == 0


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
    exclusion machinery, and the stream still delivers everything.

    With two channels the resequencer stalls on the dark one, so the
    oldest packet's copies alternate between the two channels unacked.
    Escalation reports the channel of the first copy, the dark one; the
    channel of the copy whose timeout escalates depends on the pointer's
    parity (MAX_RETRIES even and no repair withdrawn made it the dark
    one too).  Backoff puts that timeout near 7 s; the source keeps
    running past it so the recovered bundle carries fresh traffic."""
    from repro.experiments.fault_tolerance import build_session_testbed

    assert MAX_RETRIES % 2 == 0
    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=2, link_mbps=(10.0,), loss_rates=(0.0,),
        reliability="reliable",
    )
    sim.schedule_at(
        0.3, lambda: setattr(testbed.loss_models[1], "p", 1.0)
    )
    drain(sim, testbed, until=8.0, settle=2.0)

    arq = testbed.sender.reliable
    assert arq.stats.escalations >= 1
    assert testbed.sender_session.resets_completed >= 1
    assert 1 not in testbed.sender_session.config.active_channels
    seqs = [seq for _, seq in testbed.deliveries]
    assert seqs == sorted(set(seqs))
    assert set(seqs) == set(range(testbed.source.generated))
    assert not arq.unacked and not arq.backlog


# ---------------------------------------------------------------------- #
# batched ARQ surface: one submit, one note_sent, one retransmit path,
# each taking a batch; a burst must do what one-packet calls do


class TestBatchedArq:
    def test_submit_many_equivalent_to_per_packet_submits(self, sim):
        """A burst submit equals one-packet submits."""
        a = SenderHarness(sim)
        a.submit(6)
        b = SenderHarness(sim)
        b.submit_burst(6)
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert list(b.sender.unacked) == list(a.sender.unacked)
        assert b.sender.next_rseq == a.sender.next_rseq
        assert len(b.bursts) == 1  # one striper call, not six
        assert b.sender.stats.submitted == a.sender.stats.submitted == 6

    def test_submit_many_respects_window_backpressure(self, sim):
        a = SenderHarness(sim, window_packets=4)
        a.submit(6)
        b = SenderHarness(sim, window_packets=4)
        b.submit_burst(6)
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert b.sender.backlog == a.sender.backlog == 2
        assert b.sender.stats.backpressure_stalls == 2
        a.sender.on_ack(sack(2))
        b.sender.on_ack(sack(2))
        # acks replay the parked tail identically on both harnesses
        assert [p.rseq for p in b.sent] == [p.rseq for p in a.sent]
        assert b.sender.backlog == a.sender.backlog == 0
        assert len(b.bursts[-1]) == 2  # the parked tail went out as one

    def test_note_burst_equivalent_to_note_sent_loop(self, sim):
        """One ``note_sent`` of a burst equals a ``note_sent`` per packet."""
        a = SenderHarness(sim)
        a.submit(4)
        b = SenderHarness(sim)
        b.submit_burst(4)
        for rseq, ra in a.sender.unacked.items():
            rb = b.sender.unacked[rseq]
            assert (
                rb.transmissions, rb.first_sent, rb.last_sent,
                rb.first_channel, rb.rtx_pending,
            ) == (
                ra.transmissions, ra.first_sent, ra.last_sent,
                ra.first_channel, ra.rtx_pending,
            )

    def test_multi_hole_repair_goes_out_as_one_burst(self, sim):
        h = SenderHarness(sim)
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
        # both holes repaired through one striper burst
        assert sorted(p.rseq for p in h.bursts[-1]) == [0, 1]
        assert h.sender.stats.sack_scans == FAST_RETRANSMIT_HINTS
        assert h.sender.stats.retransmissions == 2
        assert h.sender.retransmitted_bytes[0] == 200


# ---------------------------------------------------------------------- #
# derived ack-path state against from-scratch references: the receiver's
# SACK interval set and the sender's un-sacked index (arq_oracles.py)

RX_WINDOW = RECEIVE_WINDOW_PACKETS

receiver_steps = st.lists(
    st.one_of(
        # in-order, out-of-order, duplicate and beyond-window arrivals
        st.tuples(
            st.just("push"),
            st.one_of(
                st.integers(-3, 15),
                st.integers(RX_WINDOW - 3, RX_WINDOW + 3),
            ),
        ),
        st.tuples(st.just("adopt_base"), st.integers(0, 8)),
        st.tuples(
            st.just("restore_window"),
            st.integers(0, 40),
            st.sets(st.integers(1, RX_WINDOW - 1), max_size=20),
            st.one_of(st.none(), st.integers(0, RX_WINDOW - 1)),
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(receiver_steps)
def test_sack_blocks_equal_a_from_scratch_rebuild(steps):
    h = ReceiverHarness(send_ack=None)
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
        info = rx.sack_info()
        assert info.cum_ack == rx.next_expected
        # the first k blocks are the k-block ack
        for max_blocks in (1, 2, MAX_SACK_BLOCKS):
            assert info.blocks[:max_blocks] == sack_blocks(
                rx._ooo, rx._last_ooo, max_blocks
            )


# One instant is a list of events at the same simulated time (channel
# deliveries), each a list of arrivals handed over in one call (a
# resequencer drain).  An arrival is relative to the cursor: in order (or
# filling the gap when something is buffered), out of order, below the
# cursor, or past the window.  Gaps between instants straddle ACK_DELAY_S,
# so delayed acks expire between some instants and are cut short in others.
arrival = st.one_of(
    st.just(("next",)),
    st.tuples(st.just("ahead"), st.integers(1, 10)),
    st.tuples(st.just("behind"), st.integers(1, 3)),
    st.tuples(st.just("beyond"), st.integers(0, 3)),
)
ack_scripts = st.lists(
    st.tuples(
        st.sampled_from((0.0005, 0.002, 0.004, 0.006, 0.02)),
        st.lists(st.lists(arrival, min_size=1, max_size=6), min_size=1,
                 max_size=3),
    ),
    min_size=1,
    max_size=25,
)


def run_ack_script(receiver_cls, ack_every, script):
    """``script`` against a fresh receiver: what it did, in order, as
    ``(time, "deliver", rseq)`` and ``(time, "ack", SackInfo)``."""
    sim = Simulator()
    log = []
    rx = receiver_cls(
        lambda packet: log.append((sim.now, "deliver", packet.rseq)),
        send_ack=lambda info: log.append((sim.now, "ack", info)),
        sim=sim, ack_every=ack_every,
    )

    def arrive(arrivals):
        for kind, *offset in arrivals:
            rseq = rx.next_expected
            if kind == "ahead":
                rseq += offset[0]
            elif kind == "behind":
                rseq -= offset[0]
            elif kind == "beyond":
                rseq += RECEIVE_WINDOW_PACKETS + offset[0]
            packet = Packet(size=100, seq=0)
            packet.rseq = rseq
            rx.push(packet)

    at = 0.0
    for gap, events in script:
        at += gap
        for arrivals in events:
            sim.schedule_at(at, arrive, arrivals)
    sim.run()
    return log


@settings(max_examples=200, deadline=None)
@given(ack_scripts, st.sampled_from((1, 2, 16)))
def test_one_merged_ack_per_instant_equals_the_per_event_acks(
    script, ack_every
):
    """The receiver sends at most one ack per instant, in exactly the
    instants the per-event rule acks in, and it stands for every ack the
    per-event rule sends then.  It carries the state at the end of the
    instant: the per-event rule's last ack of the instant plus the
    in-order deliveries that followed it, which earned no ack of their
    own.  Deliveries are the same."""
    merged = run_ack_script(ReliableReceiver, ack_every, script)
    per_event = run_ack_script(PerEventAckReceiver, ack_every, script)
    assert [e for e in merged if e[1] == "deliver"] == [
        e for e in per_event if e[1] == "deliver"
    ]
    acks = [(at, info) for at, kind, info in merged if kind == "ack"]
    # per instant: the per-event acks, then the deliveries after the last
    by_instant = {}
    for at, kind, value in per_event:
        if kind == "ack":
            entry = by_instant.setdefault(at, [[], 0])
            entry[0].append(value)
            entry[1] = 0
        elif at in by_instant:
            by_instant[at][1] += 1
    assert [at for at, _ in acks] == list(by_instant)
    for at, info in acks:
        sent, trailing = by_instant[at]
        assert info.blocks == sent[-1].blocks
        assert info.cum_ack == sent[-1].cum_ack + trailing
        assert info.acks == len(sent)


class ArqTwin:
    """One input stream fed to a sender and to its full-scan reference.

    Each side has its own simulator and packets; ``step`` applies one
    input to both.  A real receiver fed from the sender's transmissions
    produces the acks, which the steps then deliver late, twice, out of
    order or not at all.
    """

    def __init__(self):
        self.sides = []
        for sender_cls in (ReliableSender, FullScanSender):
            sim = Simulator()
            harness = SenderHarness(
                sim, sender_cls=sender_cls, window_packets=8
            )
            self.sides.append((sim, harness))
        self.sender = self.sides[0][1].sender
        self.rx = ReliableReceiver(lambda packet: None)
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
                    harness.sender.submit(packets)
                else:
                    for packet in packets:
                        harness.sender.submit([packet])
        elif kind == "arrive" and self.in_flight:
            packet = Packet(size=100, seq=0)
            packet.rseq = self.in_flight.pop(step[1] % len(self.in_flight))
            self.rx.push(packet)
            info = self.rx.sack_info(acks=step[3])  # cut to step[2] blocks
            self.acks.append(
                SackInfo(info.cum_ack, info.blocks[: step[2]], info.acks)
            )
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
            report = self.rx.sack_info()
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


# the ack an arrival produces has 1, 2 or 4 blocks and stands for 1 or 3
# acks (a merged ack)
arrive_step = st.tuples(
    st.just("arrive"), st.integers(0, 63), st.sampled_from((1, 2, 4)),
    st.sampled_from((1, 1, 3)),
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
    [("arrive", 3, 4, 1), ("advance", 0.001)] + [("ack", 0, True)] * 4
    + [("arrive", 0, 4, 1), ("ack", 1, False), ("advance", 0.05)],
    True,
)
@example(  # one merged ack ripens a hole on its own
    [("arrive", 3, 4, 3), ("advance", 0.05), ("ack", 0, False)],
    True,
)
@example(  # SACK reneging: a restarted receiver lost what it had acked
    [("arrive", 2, 2, 1), ("arrive", 3, 2, 1), ("ack", 1, False),
     ("reconcile", True), ("arrive", 0, 4, 1), ("ack", 0, False),
     ("advance", 0.5)],
    False,
)
def test_unsacked_index_equals_a_full_scan(steps, batched):
    twin = ArqTwin()
    (_, indexed), (_, full_scan) = twin.sides
    for step in [("submit", 6, batched)] + steps:
        twin.step(step)
        assert twin.observe(indexed) == twin.observe(full_scan), step
        index = list(twin.sender._unsacked.items())
        expected = unsacked_index(twin.sender)
        assert index == expected
        assert all(a[1] is b[1] for a, b in zip(index, expected))
