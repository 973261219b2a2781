"""Channel lifecycle tests: fail -> probe -> revive -> rejoin.

Unit-level coverage of the three lifecycle actors — the receiver-side
:class:`ChannelLifecycleManager` state machine (hold-down, flap damping,
probe gating), the sender-side :class:`SenderHealthMonitor` (queue-stall
watch), and the :class:`ChannelProber` (exponential-backoff probes and
the rejoin RESET) — plus the end-to-end acceptance scenario: a channel
goes dark mid-run, is excluded, probed, and rejoined, and carries its
quantum share again right after the rejoin.
"""

from typing import Any, List, Optional

import pytest

from repro.core.session import ChannelProber, ProbeAckPacket, StripeConfig
from repro.experiments.fault_tolerance import build_session_testbed
from repro.transport.endpoint import (
    ChannelLifecycleManager,
    SenderHealthMonitor,
)


def feed(sim, detector, channel, start, stop, interval=0.02):
    """Schedule periodic arrivals on ``channel`` over ``[start, stop)``."""
    t = start
    while t < stop:
        sim.schedule_at(t, lambda c=channel: detector.note_arrival(c))
        t += interval


class TestChannelLifecycleManager:
    def make(self, sim, **kwargs):
        defaults = dict(
            silence_threshold=0.1,
            check_interval=0.02,
            revival_arrivals=3,
            min_down_time=0.1,
        )
        defaults.update(kwargs)
        mgr = ChannelLifecycleManager(sim, **defaults)
        self.failures: List[int] = []
        self.revivals: List[int] = []
        mgr.bind(2, self.failures.append, on_revival=self.revivals.append)
        return mgr

    def test_states_walk_active_failed_probing_revived(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.5, 1.0)
        sim.run(until=0.45)
        assert mgr.channel_state(1) == mgr.FAILED
        assert self.failures == [1]
        sim.run(until=0.52)
        # Life signs move it to probing before the threshold is met.
        assert mgr.channel_state(1) == mgr.PROBING
        sim.run(until=1.0)
        assert mgr.channel_state(1) == mgr.REVIVED
        assert self.revivals == [1]
        assert mgr.revivals_reported == [1]
        assert mgr.channel_state(0) == mgr.ACTIVE

    def test_hold_down_delays_revival(self, sim):
        mgr = self.make(sim, min_down_time=0.6)
        feed(sim, mgr, 0, 0.0, 1.5)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.4, 1.5)
        sim.run(until=0.6)
        # Plenty of life signs, but the hold-down has not elapsed.
        assert mgr.channel_state(1) == mgr.PROBING
        assert self.revivals == []
        sim.run(until=1.5)
        assert mgr.channel_state(1) == mgr.REVIVED

    def test_flap_doubles_hold_down(self, sim):
        mgr = self.make(sim, flap_window=2.0, flap_factor=2.0)
        feed(sim, mgr, 0, 0.0, 2.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.5, 0.7)  # revive...
        # ...then go dark again immediately: a flap.
        feed(sim, mgr, 1, 1.2, 2.0)
        sim.run(until=1.1)
        assert self.failures == [1, 1]
        assert mgr.flap_counts[1] == 1
        assert mgr.hold_down(1) == pytest.approx(0.2)
        sim.run(until=2.0)
        assert self.revivals == [1, 1]

    def test_flap_hold_down_is_capped(self, sim):
        mgr = self.make(sim, min_down_time=0.4, max_down_time=1.0)
        sim.run(until=0.01)
        mgr._revived_at[1] = sim.now
        for _ in range(5):
            mgr._note_failure(1)
        assert mgr.hold_down(1) == pytest.approx(1.0)

    def test_stable_failure_resets_hold_down(self, sim):
        mgr = self.make(sim, flap_window=0.5)
        feed(sim, mgr, 0, 0.0, 3.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.5, 1.5)  # revives, then stays up a while
        sim.run(until=1.0)
        assert mgr.channel_state(1) == mgr.REVIVED
        # The second death comes well outside the flap window: no damping.
        sim.run(until=2.0)
        assert self.failures == [1, 1]
        assert mgr.flap_counts[1] == 0
        assert mgr.hold_down(1) == pytest.approx(mgr.min_down_time)

    def test_note_probe_gates_on_threshold_and_hold_down(self, sim):
        mgr = self.make(sim, revival_arrivals=2, min_down_time=0.1)
        feed(sim, mgr, 0, 0.0, 1.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        sim.run(until=0.45)
        assert mgr.channel_state(1) == mgr.FAILED
        # One life sign is below the threshold: the probe is not acked.
        mgr.note_arrival(1)
        assert mgr.note_probe(1) is False
        # The second one clears it (hold-down long elapsed).
        mgr.note_arrival(1)
        assert mgr.note_probe(1) is True
        assert mgr.channel_state(1) == mgr.REVIVED
        # Healthy channels always ack.
        assert mgr.note_probe(0) is True

    def test_note_probe_bounds_check(self, sim):
        mgr = self.make(sim)
        with pytest.raises(ValueError, match="probe on port 5"):
            mgr.note_probe(5)
        with pytest.raises(ValueError):
            mgr.note_probe(-1)

    def test_note_rejoin_rearms_silence_watch(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.5)
        feed(sim, mgr, 1, 0.0, 0.2)
        sim.run(until=0.45)
        assert self.failures == [1]
        # A rejoin RESET re-admits channel 1; the stale last_arrival must
        # not instantly re-fail it, and a later death must re-report.
        mgr.note_rejoin([0, 1])
        assert mgr.channel_state(1) == mgr.ACTIVE
        assert 1 not in mgr.failed
        sim.run(until=0.5)
        assert self.failures == [1]  # not instantly re-failed
        sim.run(until=1.5)  # channel 1 stays silent: genuine second death
        assert self.failures == [1, 1]


class _StallPort:
    """A port whose queue/acceptance the test scripts directly."""

    def __init__(self) -> None:
        self.queue_length = 0
        self.accepting = True

    def can_accept(self) -> bool:
        return self.accepting


class TestSenderHealthMonitor:
    def make(self, sim, n=2, backlog=1, **kwargs):
        defaults = dict(stall_timeout=0.1, check_interval=0.02)
        defaults.update(kwargs)
        monitor = SenderHealthMonitor(sim, **defaults)
        self.ports = [_StallPort() for _ in range(n)]
        self.stalls: List[int] = []
        monitor.bind(
            self.ports, self.stalls.append, backlog_fn=lambda: backlog
        )
        return monitor

    def test_blocked_port_without_progress_stalls(self, sim):
        monitor = self.make(sim)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 5
        sim.run(until=0.3)
        assert self.stalls == [0]
        assert monitor.stalled == {0}

    def test_draining_port_never_stalls(self, sim):
        monitor = self.make(sim)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 50

        def drain():
            if self.ports[0].queue_length > 0:
                self.ports[0].queue_length -= 1
            sim.schedule(0.02, drain)

        sim.schedule_at(0.0, drain)
        sim.run(until=0.5)
        assert self.stalls == []

    def test_idle_sender_never_stalls(self, sim):
        self.make(sim, backlog=0)
        self.ports[0].accepting = False  # blocked but nothing pending
        sim.run(until=0.5)
        assert self.stalls == []

    def test_wedged_queue_counts_as_pending_traffic(self, sim):
        # Pipeline backlog can be zero while packets sit in the port.
        self.make(sim, backlog=0)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 3
        sim.run(until=0.3)
        assert self.stalls == [0]

    def test_clear_rearms_the_watch(self, sim):
        monitor = self.make(sim)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 5
        sim.run(until=0.3)
        assert self.stalls == [0]
        monitor.clear(0)
        assert monitor.stalled == set()
        sim.run(until=0.6)  # still wedged: reported again after the timeout
        assert self.stalls == [0, 0]

    def test_credit_starvation_blocks(self, sim):
        class Starved:
            def available(self, i: int) -> int:
                return 0

        monitor = SenderHealthMonitor(
            sim, stall_timeout=0.1, check_interval=0.02
        )
        port = _StallPort()
        port.queue_length = 1  # pending traffic, port itself would accept
        stalls: List[int] = []
        monitor.bind(
            [port], stalls.append, credit=Starved(), backlog_fn=lambda: 1
        )
        sim.run(until=0.3)
        assert stalls == [0]


class _ProbeRecorderPort:
    def __init__(self, sim) -> None:
        self.sim = sim
        self.sent: List[Any] = []
        self.send_times: List[float] = []

    def send(self, packet: Any, force: bool = False) -> bool:
        assert force, "probes must be forced past the queue limit"
        self.sent.append(packet)
        self.send_times.append(self.sim.now)
        return True


class _ProbeSession:
    """The minimal sender-session surface the prober drives."""

    RUNNING = "running"

    def __init__(self, sim, n=3, active=(0, 1, 2)) -> None:
        self.state = self.RUNNING
        self.all_ports = [_ProbeRecorderPort(sim) for _ in range(n)]
        self.config = StripeConfig(
            quanta=tuple(1000.0 for _ in active),
            active_channels=tuple(active),
        )
        self.on_probe_ack: Optional[Any] = None
        self.on_reset_complete: Optional[Any] = None
        self.resets: List[StripeConfig] = []

    def config_with(
        self, port_index: int, quantum: Optional[float] = None
    ) -> StripeConfig:
        if quantum is None:
            quantum = sum(self.config.quanta) / len(self.config.quanta)
        merged = sorted(
            zip(
                self.config.active_channels + (port_index,),
                self.config.quanta + (float(quantum),),
            )
        )
        return StripeConfig(
            quanta=tuple(q for _, q in merged),
            active_channels=tuple(c for c, _ in merged),
        )

    def initiate_reset(self, config: StripeConfig) -> None:
        self.resets.append(config)
        self.config = config
        if self.on_reset_complete is not None:
            self.on_reset_complete(len(self.resets))


class TestChannelProber:
    def test_probes_back_off_exponentially(self, sim):
        session = _ProbeSession(sim, active=(0, 2))
        prober = ChannelProber(
            sim, session,
            initial_interval=0.01, backoff=2.0, max_interval=0.08,
        )
        assert prober.probing_channels == [1]
        sim.run(until=0.5)
        times = session.all_ports[1].send_times
        assert len(times) >= 5
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Doubling until the cap, then steady at the cap.
        assert gaps[0] == pytest.approx(0.02)
        assert gaps[1] == pytest.approx(0.04)
        assert gaps[2] == pytest.approx(0.08)
        assert all(g == pytest.approx(0.08) for g in gaps[2:])
        assert session.all_ports[0].sent == []
        assert session.all_ports[2].sent == []

    def test_ack_triggers_rejoin_reset_with_remembered_quantum(self, sim):
        session = _ProbeSession(sim, active=(0, 1, 2))
        session.config = StripeConfig(
            quanta=(1000.0, 750.0, 1000.0), active_channels=(0, 1, 2)
        )
        prober = ChannelProber(sim, session, initial_interval=0.01)
        # The session drops channel 1 (e.g. stall exclusion).
        session.config = StripeConfig(
            quanta=(1000.0, 1000.0), active_channels=(0, 2)
        )
        session.on_reset_complete(1)
        assert prober.probing_channels == [1]
        sim.run(until=0.05)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=1))
        assert prober.rejoins == 1
        assert prober.probing_channels == []
        rejoined = session.resets[-1]
        assert rejoined.active_channels == (0, 1, 2)
        # Channel 1 re-enters with its pre-failure quantum, not the mean.
        assert rejoined.quanta == (1000.0, 750.0, 1000.0)

    def test_abandons_after_max_probes(self, sim):
        session = _ProbeSession(sim, active=(0, 2))
        prober = ChannelProber(
            sim, session, initial_interval=0.01, max_probes=3
        )
        sim.run(until=1.0)
        assert len(session.all_ports[1].sent) == 3
        assert prober.abandoned == [1]
        assert prober.probing_channels == []

    def test_flap_penalty_defers_rejoin(self, sim):
        session = _ProbeSession(sim, active=(0, 2))
        prober = ChannelProber(
            sim, session,
            initial_interval=0.01, flap_penalty=0.3, flap_window=2.0,
        )
        sim.run(until=0.05)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=1))
        assert prober.rejoins == 1
        # It flaps: excluded again right after rejoining.
        session.config = StripeConfig(
            quanta=(1000.0, 1000.0), active_channels=(0, 2)
        )
        session.on_reset_complete(2)
        assert prober.hold_down(1) == pytest.approx(0.3)
        down_at = sim.now
        sim.run(until=down_at + 0.1)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=2))
        assert prober.rejoins == 1  # damped: ack inside the hold-down
        sim.run(until=down_at + 0.4)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=3))
        assert prober.rejoins == 2

    def test_stale_ack_for_active_channel_is_ignored(self, sim):
        session = _ProbeSession(sim, active=(0, 1, 2))
        prober = ChannelProber(sim, session)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=1))
        assert prober.rejoins == 0
        assert session.resets == []


class TestEndToEndLifecycle:
    def test_fail_probe_rejoin_restores_quantum_share(self, sim):
        """The acceptance scenario: a dark channel is excluded, probed,
        and rejoined; right after the rejoin it carries its share again."""
        detector = ChannelLifecycleManager(
            sim, silence_threshold=0.15, check_interval=0.05,
            revival_arrivals=2, min_down_time=0.1,
        )
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=1000, failure_detector=detector,
            prober_options=dict(initial_interval=0.05, max_interval=0.2),
        )
        dark_at, heal_at = 0.6, 1.4
        sim.schedule_at(
            dark_at, lambda: setattr(testbed.loss_models[1], "p", 1.0)
        )
        sim.schedule_at(
            heal_at, lambda: setattr(testbed.loss_models[1], "p", 0.0)
        )
        timeline = []
        reset_done_at = []
        chained = testbed.sender_session.on_reset_complete

        def record_reset(epoch):
            reset_done_at.append(sim.now)
            chained(epoch)

        testbed.sender_session.on_reset_complete = record_reset

        def sample():
            timeline.append(
                (
                    sim.now,
                    tuple(testbed.sender_session.config.active_channels),
                    tuple(
                        link.ab.stats.delivered_packets
                        for link in testbed.links
                    ),
                )
            )
            sim.schedule(0.002, sample)

        sim.schedule_at(0.0, sample)
        sim.run(until=3.0)

        # Failure was detected and the channel excluded...
        assert detector.failures_reported == [1]
        assert any(active == (0, 2) for _, active, _ in timeline)
        # ...probes flowed, the lifecycle gated the ack, and it rejoined.
        assert testbed.prober.probes_sent >= 2
        assert testbed.prober.rejoins == 1
        assert detector.revivals_reported == [1]
        assert tuple(testbed.sender_session.config.active_channels) == (
            0, 1, 2,
        )
        # The rejoin is complete when its RESET handshake finishes.
        rejoin_t = max(t for t in reset_done_at if t > heal_at)
        # The revived channel carries traffic within two round times of
        # the rejoin (a 1000 B message at 10 Mbps is 0.8 ms per channel
        # per round), plus one sampling interval of slack.
        two_rounds = 2 * 3 * 1000 * 8 / 10e6
        frames = {t: per_link for t, _, per_link in timeline}
        at_rejoin = max(t for t in frames if t <= rejoin_t)
        soon = min(t for t in frames if t >= rejoin_t + two_rounds + 0.002)
        assert frames[soon][1] > frames[at_rejoin][1]
        # ...and over the steady window it carries ~its quantum share
        # (equal quanta: within tolerance of the surviving channels).
        late = max(t for t in frames)
        ch1 = frames[late][1] - frames[soon][1]
        others = [
            (frames[late][i] - frames[soon][i]) for i in (0, 2)
        ]
        assert ch1 >= 0.6 * min(others)
        # Delivery itself kept flowing through the outage...
        assert len(testbed.delivered_between(dark_at, heal_at)) > 100
        # ...and is sequence-exact overall (no duplicates ever).
        seqs = [seq for _, seq in testbed.deliveries]
        assert len(seqs) == len(set(seqs))

    def test_stalled_channel_excluded_by_health_monitor(self, sim):
        """Sender-side detection: a wedged queue is excluded without
        waiting for the receiver to notice silence."""
        monitor = SenderHealthMonitor(
            sim, stall_timeout=0.2, check_interval=0.05
        )
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=1000, health_monitor=monitor,
        )
        # Channel 1's link slows to a crawl: its queue wedges solid.
        sim.schedule_at(0.5, lambda: testbed.links[1].set_rate(1e3))
        sim.run(until=2.0)
        assert monitor.stalls_reported == [1]
        assert tuple(testbed.sender_session.config.active_channels) == (
            0, 2,
        )
        # Delivery continued on the survivors after the exclusion.
        assert len(testbed.delivered_between(1.2, 2.0)) > 100
