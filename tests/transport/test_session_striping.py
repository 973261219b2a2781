"""Integration tests for session-managed striping over simulated UDP."""


from functools import partial

from repro.core.packet import Packet, is_marker
from repro.core.striper import MarkerPolicy
from repro.experiments.fault_tolerance import (
    build_session_testbed,
    run_capacity_adaptation,
    run_link_failure,
    run_state_corruption,
)
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.transport.endpoint import FastStriper
from repro.transport.fast_path import FastChannelPort
from repro.transport.health import ChannelFailureDetector
from tests.session_rig import Loopback


class TestSessionDataPath:
    def test_lossless_fifo(self):
        sim = Simulator()
        testbed = build_session_testbed(sim, n_channels=2)
        sim.run(until=0.5)
        seqs = [seq for _, seq in testbed.deliveries]
        assert len(seqs) > 100
        assert seqs == sorted(seqs)

    def test_mid_run_reset_preserves_order(self):
        sim = Simulator()
        testbed = build_session_testbed(sim, n_channels=2)
        sim.schedule_at(0.25, testbed.sender_session.initiate_reset)
        sim.run(until=0.6)
        # Data keeps flowing across the reset; what is delivered in the new
        # epoch stays in order (a bounded set may be lost in flight).
        assert testbed.sender_session.resets_completed == 1
        after = [seq for t, seq in testbed.deliveries if t > 0.3]
        assert after == sorted(after)
        assert after[-1] > 200

    def test_reset_over_lossy_control_path_retries(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, loss_rates=(0.3,)
        )
        sim.schedule_at(0.2, testbed.sender_session.initiate_reset)
        sim.run(until=2.0)
        assert testbed.sender_session.resets_completed == 1
        assert testbed.sender_session.state == "running"


    def test_pure_fec_accounts_bytes_per_port_like_the_pipeline(self):
        """The session mounts the same recovery stack as the pipelines:
        pure ``fec`` records per-port data bytes (the fairness-envelope
        accounting), parity included, with no ARQ layer at all."""
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, reliability="fec"
        )
        sim.run(until=0.3)
        sender = testbed.sender
        assert sender.reliable is None and sender.fec is not None
        assert sender.fec.stats.parity_packets > 0
        sent = [port.data_bytes_sent for port in sender.ports]
        # Everything delivered was counted on the way out, plus parity.
        assert sum(sent) > 1000 * len(testbed.deliveries) > 0
        # SRR's equal quanta: the two ports carry the same bytes +- Max.
        assert abs(sent[0] - sent[1]) <= 3 * 1000


class TestLinkFailureScenario:
    def test_without_handling_stream_stalls(self):
        result = run_link_failure(fail_at=0.5, total_s=1.6)
        row = result.rows[0]
        assert not row.with_detector
        assert row.goodput_after < 0.5  # head-of-line blocked

    def test_with_detector_stream_survives(self):
        result = run_link_failure(fail_at=0.5, total_s=1.6)
        row = result.rows[1]
        assert row.with_detector
        assert row.surviving_channels == 2
        assert row.resets >= 1
        # roughly 2/3 of the 3-channel rate
        assert row.goodput_after > 0.5 * row.goodput_before

    def test_survivor_stream_is_fifo(self):
        sim = Simulator()
        detector = ChannelFailureDetector(sim, silence_threshold=0.2)
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            failure_detector=detector,
        )
        sim.schedule_at(
            0.5, lambda: setattr(testbed.loss_models[1], "p", 1.0)
        )
        sim.run(until=1.6)
        after = [seq for t, seq in testbed.deliveries if t > 1.0]
        assert after == sorted(after)
        assert len(after) > 100


class TestCorruptionScenario:
    def test_markers_alone_cannot_fix_round_corruption(self):
        result = run_state_corruption(corrupt_at=0.5, total_s=2.0)
        unchecked = result.rows[0]
        assert unchecked.ooo_after_window > 50

    def test_local_checker_corrects(self):
        result = run_state_corruption(corrupt_at=0.5, total_s=2.0)
        checked = result.rows[1]
        assert checked.violations > 0
        assert checked.resets >= 1
        # residual OOO is back at the quasi-FIFO background level
        assert checked.ooo_after_window < result.rows[0].ooo_after_window / 5


class TestAdaptationScenario:
    def test_adaptive_quanta_recover_throughput(self):
        result = run_capacity_adaptation(change_at=0.8, total_s=3.0)
        static = result.rows[0]
        adaptive = result.rows[1]
        assert adaptive.adaptations >= 1
        assert adaptive.goodput_after > 1.8 * static.goodput_after
        # learned weights approximate the true 4:1 capacity ratio
        ratio = adaptive.final_quanta[0] / adaptive.final_quanta[1]
        assert 2.5 < ratio < 6.0


class _PlainChannelPort:
    """A simulated channel behind the required port surface only (no
    ``send_burst`` / ``free_capacity``): the per-packet pump."""

    def __init__(self, channel):
        self.channel = channel

    def send(self, packet, force=False):
        return self.channel.send(packet, force or is_marker(packet))

    def can_accept(self):
        return self.channel.can_accept()

    @property
    def queue_length(self):
        return self.channel.queue_length


class TestSessionOverBurstPorts:
    """The controller drives whatever striper the pipeline picks: over
    burst-capable ports every epoch's pump is the batched one."""

    N_PACKETS = 600

    def _run(self, port_type):
        sim = Simulator()
        channels = [
            Channel(sim, 10e6, 1e-3, queue_limit=8) for _ in range(3)
        ]
        loop = Loopback(
            sim, ports=[port_type(channel) for channel in channels],
            quanta=(1000.0,) * 3,
            marker_policy=MarkerPolicy(interval_rounds=2),
        )
        for index, channel in enumerate(channels):
            channel.on_deliver = partial(loop.receiver_session.push, index)
            channel.on_space = loop.sender.pump
        for seq in range(self.N_PACKETS):
            loop.sender.submit_packet(Packet(1000, seq=seq))
        session = loop.sender_session
        sim.schedule_at(0.02, session.initiate_reset)
        sim.schedule_at(
            0.06, lambda: session.initiate_reset(session.config_without(1))
        )
        sim.schedule_at(
            0.10,
            lambda: session.initiate_reset(session.config_with(1, 1000.0)),
        )
        sim.run()
        assert session.resets_completed == 3
        assert session.config.active_channels == (0, 1, 2)
        return loop

    def test_reset_reconfigure_rejoin_keep_the_batched_pump(self):
        burst = self._run(FastChannelPort)
        striper = burst.sender.striper
        assert isinstance(striper, FastStriper)
        assert striper.fallback_pumps == 0
        assert striper.batched_packets > 0
        # Held through three resets, the queue lost and repeated nothing.
        assert burst.delivered == sorted(set(burst.delivered))
        assert burst.delivered[-1] == self.N_PACKETS - 1
        assert burst.delivered == self._run(_PlainChannelPort).delivered
