"""Unit tests for fault-tolerance internals (detector, adapter, sessions)."""

import pytest

from repro.experiments.fault_tolerance import (
    QuantaAdapter,
    build_session_testbed,
)
from repro.sim.engine import Simulator
from repro.transport.health import ChannelFailureDetector
from tests.session_rig import Loopback


class TestChannelFailureDetector:
    def test_reports_only_silent_channel(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            failure_detector=ChannelFailureDetector(
                sim, silence_threshold=0.15
            ),
        )
        detector = testbed.receiver_session.failure_detector
        sim.schedule_at(0.4, lambda: setattr(testbed.loss_models[2], "p", 1.0))
        sim.run(until=1.2)
        assert detector.failures_reported == [2]

    def test_no_false_positives_on_healthy_channels(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            failure_detector=ChannelFailureDetector(
                sim, silence_threshold=0.15
            ),
        )
        sim.run(until=1.5)
        assert testbed.receiver_session.failure_detector.failures_reported == []

    def test_total_outage_not_misreported(self):
        """If every channel goes silent (sender stopped), nothing is alive
        to compare against, so no channel is singled out."""
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0,), loss_rates=(0.0,),
            failure_detector=ChannelFailureDetector(
                sim, silence_threshold=0.15
            ),
        )
        sim.schedule_at(0.4, testbed.source.stop)
        sim.run(until=1.5)
        assert testbed.receiver_session.failure_detector.failures_reported == []


class TestQuantaAdapter:
    def test_no_adaptation_on_balanced_links(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0, 10.0), loss_rates=(0.0,),
        )
        adapter = QuantaAdapter(sim, testbed.sender_session, testbed.links)
        sim.run(until=2.0)
        assert adapter.adaptations == 0

    def test_adapts_towards_capacity_ratio(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0, 10.0), loss_rates=(0.0,),
        )
        adapter = QuantaAdapter(sim, testbed.sender_session, testbed.links)
        sim.schedule_at(0.5, lambda: testbed.links[1].set_rate(5e6))
        sim.run(until=3.0)
        assert adapter.adaptations >= 1
        quanta = testbed.sender_session.config.quanta
        assert 1.5 < quanta[0] / quanta[1] < 3.0

    def test_cooldown_limits_reset_rate(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0, 10.0), loss_rates=(0.0,),
        )
        adapter = QuantaAdapter(
            sim, testbed.sender_session, testbed.links, cooldown=10.0
        )
        sim.schedule_at(0.5, lambda: testbed.links[1].set_rate(2.5e6))
        sim.run(until=3.0)
        assert adapter.adaptations <= 1


class TestSenderSessionUnits:
    def test_config_without_validation(self, sim):
        sender = Loopback(sim).sender_session
        reduced = sender.config_without(0)
        assert reduced.active_channels == (1,)
        with pytest.raises(ValueError):
            sender.config_without(5)
        single = Loopback(sim, n_ports=1, quanta=(100.0,)).sender_session
        with pytest.raises(ValueError):
            single.config_without(0)

    def test_exclude_request_ignored_for_last_channel(self, sim):
        from repro.core.session import ResetRequestPacket

        sender = Loopback(sim, n_ports=1, quanta=(100.0,)).sender_session
        sender.on_control(
            ResetRequestPacket(reason="x", exclude_channel=0)
        )
        # falls back to a plain reset rather than dropping the only channel
        assert sender.config.n_channels == 1
        assert sender.epoch == 1
