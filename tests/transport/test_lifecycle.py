"""Channel lifecycle tests: fail -> probe -> revive -> rejoin.

Unit-level coverage of the three lifecycle actors — the receiver-side
:class:`ChannelFailureDetector` state machine (hold-down, flap damping,
probe gating, rejoin re-arm, exclusions learned from the RESET), the
sender-side :class:`SenderHealthMonitor` (queue-stall watch), and the
:class:`ChannelProber` (exponential-backoff probes and the rejoin RESET)
— plus the end-to-end acceptance scenario: a channel goes dark mid-run,
is excluded, probed, and rejoined, and carries its quantum share again
right after the rejoin, and a channel that dies a second time after
rejoining is excluded again.
"""

from typing import Any, List, Optional

import pytest

from repro.core.control import ProbePacket, ResetPacket
from repro.core.markers import encode_marker
from repro.core.packet import MarkerPacket
from repro.core.session import (
    ChannelProber,
    ProbeAckPacket,
    StripeConfig,
    StripeReceiverSession,
)
from repro.core.srr import SRR
from repro.core.stabilize import (
    MAX_PROBE_INTERVAL_S,
    MAX_PROBES,
    PROBE_INTERVAL_S,
)
from repro.experiments.fault_tolerance import build_session_testbed
from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.transport.credit import CreditSender
from repro.transport.health import (
    FLAP_WINDOW_S,
    MAX_DOWN_TIME_S,
    MIN_DOWN_TIME_S,
    REVIVAL_ARRIVALS,
)
from repro.transport.endpoint import (
    ChannelFailureDetector,
    SenderHealthMonitor,
    StripeReceiverPipeline,
)
from repro.transport.socket_striping import udp_ports
from tests.session_rig import Loopback

#: the silence threshold the chaos experiment runs the detector at
SILENCE_S = 0.15


def feed(sim, detector, channel, start, stop, interval=0.02):
    """Schedule periodic arrivals on ``channel`` over ``[start, stop)``."""
    t = start
    while t < stop:
        sim.schedule_at(t, lambda c=channel: detector.note_arrival(c))
        t += interval


class TestChannelLifecycleManager:
    def make(self, sim):
        mgr = ChannelFailureDetector(sim, SILENCE_S)
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
        assert mgr.state[1] == mgr.FAILED
        assert self.failures == [1]
        sim.run(until=0.51)
        # Life signs move it to probing before the threshold is met.
        assert mgr.state[1] == mgr.PROBING
        sim.run(until=1.0)
        assert mgr.state[1] == mgr.REVIVED
        assert self.revivals == [1]
        assert mgr.revivals_reported == [1]
        assert mgr.state[0] == mgr.ACTIVE

    def test_hold_down_delays_revival(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.5)
        feed(sim, mgr, 1, 0.0, 0.2)  # fails at 0.35: hold-down to 0.45
        feed(sim, mgr, 1, 0.38, 1.5)
        sim.run(until=0.445)
        # Plenty of life signs, but the hold-down has not elapsed.
        assert mgr.state[1] == mgr.PROBING
        assert self.revivals == []
        sim.run(until=1.5)
        assert mgr.state[1] == mgr.REVIVED

    def test_flap_doubles_hold_down(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 2.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.5, 0.7)  # revive...
        # ...then go dark again immediately: a flap.
        feed(sim, mgr, 1, 1.2, 2.0)
        sim.run(until=1.1)
        assert self.failures == [1, 1]
        assert mgr.flap_counts[1] == 1
        assert mgr._hold_down[1] == pytest.approx(2 * MIN_DOWN_TIME_S)
        sim.run(until=2.0)
        assert self.revivals == [1, 1]

    def test_flap_hold_down_is_capped(self, sim):
        mgr = self.make(sim)
        sim.run(until=0.01)
        mgr._revived_at[1] = sim.now
        for _ in range(10):
            mgr._fail(1)
        assert mgr._hold_down[1] == pytest.approx(MAX_DOWN_TIME_S)

    def test_stable_failure_resets_hold_down(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 4.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        feed(sim, mgr, 1, 0.5, 3.0)  # revives, then stays up a while
        sim.run(until=1.0)
        assert mgr.state[1] == mgr.REVIVED
        # The second death comes well outside the flap window: no damping.
        sim.run(until=3.5)
        assert self.failures == [1, 1]
        assert mgr.flap_counts[1] == 0
        assert mgr._hold_down[1] == pytest.approx(MIN_DOWN_TIME_S)

    def test_note_probe_gates_on_threshold_and_hold_down(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        sim.run(until=0.45)
        assert mgr.state[1] == mgr.FAILED
        # One life sign is below the threshold: the probe is not acked.
        mgr.note_arrival(1)
        assert mgr.note_probe(1) is False
        # The second one clears it (hold-down long elapsed).
        mgr.note_arrival(1)
        assert mgr.note_probe(1) is True
        assert mgr.state[1] == mgr.REVIVED
        # Healthy channels always ack.
        assert mgr.note_probe(0) is True

    def test_note_probe_bounds_check(self, sim):
        mgr = self.make(sim)
        with pytest.raises(ValueError, match="probe on port 5"):
            mgr.note_probe(5)
        with pytest.raises(ValueError):
            mgr.note_probe(-1)

    def test_note_reset_rearms_silence_watch(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.5)
        feed(sim, mgr, 1, 0.0, 0.2)
        sim.run(until=0.45)
        assert self.failures == [1]
        # A rejoin RESET re-admits channel 1; the stale last_arrival must
        # not instantly re-fail it, and a later death must re-report.
        mgr.note_reset([0, 1])
        assert mgr.state[1] == mgr.ACTIVE
        sim.run(until=0.5)
        assert self.failures == [1]  # not instantly re-failed
        sim.run(until=1.5)  # channel 1 stays silent: genuine second death
        assert self.failures == [1, 1]

    def test_a_reset_keeps_a_reported_failure_as_it_was(self, sim):
        mgr = self.make(sim)
        feed(sim, mgr, 0, 0.0, 1.0)
        feed(sim, mgr, 1, 0.0, 0.2)
        sim.run(until=0.45)
        failed_at = mgr._failed_at[1]
        # The exclusion RESET the failure asked for arrives later: the
        # failure time, and so the hold-down's end, stay put.
        mgr.note_reset([0])
        assert mgr.state[1] == mgr.FAILED
        assert mgr._failed_at[1] == failed_at
        assert mgr.flap_counts[1] == 0


class TestEveryExclusionIsDamped:
    """The receiver's detector is the one gate on every rejoin: it learns
    an exclusion it never reported (a sender stall, an ARQ suspect) from
    the RESET that installs it, and holds that channel's probe acks back
    exactly as for a failure it reported itself."""

    def make(self, sim, config=None):
        self.detector = ChannelFailureDetector(sim, SILENCE_S)
        self.control: List[Any] = []
        if config is None:
            config = StripeConfig(quanta=(1000.0, 1000.0, 1000.0))
        pipeline = StripeReceiverPipeline(3, config.algorithm(), sim=sim)
        self.session = StripeReceiverSession(
            pipeline, 3, config, self.control.append,
            failure_detector=self.detector,
        )
        self.epoch = 0

    def reset(self, active):
        """The sender installs a configuration carrying ``active``."""
        self.epoch += 1
        config = StripeConfig(
            quanta=tuple(1000.0 for _ in active), active_channels=active
        )
        for port in active:
            self.session.push(port, ResetPacket(self.epoch, config))

    def probe_acked(self, sim, at):
        """Probe channel 1 at ``at``; was the probe acknowledged?"""
        sim.run(until=at)
        before = len(self.control)
        self.session.push(1, ProbePacket(channel=1, seq=len(self.control)))
        return any(
            isinstance(packet, ProbeAckPacket)
            for packet in self.control[before:]
        )

    def test_a_sender_exclusion_waits_out_the_hold_down(self, sim):
        self.make(sim)
        self.reset((0, 2))  # a stall exclusion: channel 1 was never silent
        assert self.detector.state[1] == self.detector.FAILED
        assert self.detector.failures_reported == []  # the sender knows
        # Below the revival threshold, then inside the hold-down: no ack.
        assert REVIVAL_ARRIVALS == 2
        assert not self.probe_acked(sim, 0.01)
        assert not self.probe_acked(sim, 0.02)
        assert not self.probe_acked(sim, MIN_DOWN_TIME_S - 0.001)
        assert self.probe_acked(sim, MIN_DOWN_TIME_S + 1e-6)
        assert self.detector.revivals_reported == [1]

    def test_a_channel_configured_out_from_the_start_is_not_acked(
        self, sim
    ):
        """The initial configuration is an exclusion too: a probe on a
        channel it leaves out waits like one a RESET excluded."""
        self.make(sim, StripeConfig(
            quanta=(1000.0, 1000.0), active_channels=(0, 2)
        ))
        assert self.detector.state[1] == self.detector.FAILED
        assert self.detector.failures_reported == []
        assert self.detector.flap_counts[1] == 0
        assert not self.probe_acked(sim, 0.05)
        assert not any(
            isinstance(packet, ProbeAckPacket) for packet in self.control
        )

    def test_a_flap_within_the_window_waits_twice_as_long(self, sim):
        self.make(sim)
        self.reset((0, 2))
        self.probe_acked(sim, 0.01)
        assert self.probe_acked(sim, MIN_DOWN_TIME_S + 1e-6)
        self.reset((0, 1, 2))  # the rejoin RESET the ack asked for
        assert self.detector.state[1] == self.detector.ACTIVE
        down_at = 0.5
        assert down_at < FLAP_WINDOW_S
        sim.run(until=down_at)
        self.reset((0, 2))  # excluded again right after rejoining
        assert self.detector.flap_counts[1] == 1
        self.probe_acked(sim, down_at + 0.01)
        assert not self.probe_acked(sim, down_at + MIN_DOWN_TIME_S + 1e-6)
        assert not self.probe_acked(
            sim, down_at + 2 * MIN_DOWN_TIME_S - 0.001
        )
        assert self.probe_acked(sim, down_at + 2 * MIN_DOWN_TIME_S + 1e-6)

    def test_a_revived_channel_keeps_its_standing_until_it_rejoins(self, sim):
        self.make(sim)
        self.reset((0, 2))
        self.probe_acked(sim, 0.01)
        assert self.probe_acked(sim, MIN_DOWN_TIME_S + 1e-6)
        # Another reconfiguration lands before the rejoin RESET: leaving
        # the revived channel out is no new exclusion.
        self.reset((0, 2))
        assert self.detector.state[1] == self.detector.REVIVED
        assert self.detector.flap_counts[1] == 0
        assert self.probe_acked(sim, MIN_DOWN_TIME_S + 0.01)

    def test_the_prober_rejoins_only_what_the_detector_acks(self, sim):
        """A sender-excluded channel that flaps waits out the receiver's
        doubled hold-down before the prober rejoins it (the prober keeps
        no hold-down of its own)."""
        detector = ChannelFailureDetector(sim, silence_threshold=10.0)
        loop = Loopback(
            sim, n_ports=3, quanta=(1000.0, 1000.0, 1000.0),
            failure_detector=detector,
        )
        prober = ChannelProber(sim, loop.sender_session)

        def ferry():
            loop.flush()
            sim.schedule(0.001, ferry)

        def exclude():
            assert loop.sender_session.exclude_channel(1)
            loop.flush()

        exclude()  # the stall path, at t = 0
        ferry()
        # Probes leave at 0.05 and 0.15: the first is one life sign, the
        # second clears the threshold and the 0.1 s hold-down.
        sim.run(until=0.12)
        assert prober.rejoins == 0
        sim.run(until=0.2)
        assert prober.rejoins == 1
        # It flaps: excluded again 0.15 s after rejoining.  Probes leave
        # at 0.35, 0.45 and 0.65; the hold-down is now 0.2 s.
        sim.schedule_at(0.3, exclude)
        sim.run(until=0.6)
        assert detector.flap_counts[1] == 1
        assert prober.rejoins == 1  # damped: acks held back until 0.5
        sim.run(until=0.7)
        assert prober.rejoins == 2
        assert loop.sender_session.config.active_channels == (0, 1, 2)


def test_one_wire_frame_is_one_life_sign(sim):
    """Regression: an encoded marker frame pushed into a receiver pipeline
    is one physical arrival.  It used to be noted twice (once before the
    decode, once more on the decoded marker), so a single frame met the
    revival threshold of 2 on its own."""
    mgr = ChannelFailureDetector(sim, SILENCE_S)
    pipeline = StripeReceiverPipeline(
        2, SRR([100.0, 100.0]), failure_detector=mgr, sim=sim
    )
    feed(sim, mgr, 0, 0.0, 1.0)
    feed(sim, mgr, 1, 0.0, 0.2)
    sim.run(until=0.6)  # failed at 0.35, hold-down long elapsed
    assert mgr.state[1] == mgr.FAILED

    def frame():
        return encode_marker(
            MarkerPacket(channel=1, round_number=1, deficit=100.0)
        )

    pipeline.push(1, frame())
    assert mgr.state[1] == mgr.PROBING
    assert mgr._life_seen[1] == 1
    assert mgr.revivals_reported == []
    pipeline.push(1, frame())
    assert mgr.state[1] == mgr.REVIVED
    assert mgr.revivals_reported == [1]


class _StallPort:
    """A port whose queue/acceptance the test scripts directly."""

    def __init__(self) -> None:
        self.queue_length = 0
        self.drained = 0
        self.accepting = True

    def can_accept(self) -> bool:
        return self.accepting


class TestSenderHealthMonitor:
    def make(self, sim, n=2, backlog=1):
        monitor = SenderHealthMonitor(sim)
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
        sim.run(until=0.4)
        assert self.stalls == [0]
        assert monitor.stalled == {0}

    def test_draining_port_never_stalls(self, sim):
        monitor = self.make(sim)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 50

        def drain():
            # A saturated port: one frame leaves, the next takes its slot.
            self.ports[0].drained += 1
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
        sim.run(until=0.4)
        assert self.stalls == [0]

    def test_clear_rearms_the_watch(self, sim):
        monitor = self.make(sim)
        self.ports[0].accepting = False
        self.ports[0].queue_length = 5
        sim.run(until=0.4)
        assert self.stalls == [0]
        monitor.clear(0)
        assert monitor.stalled == set()
        sim.run(until=0.8)  # still wedged: reported again after the timeout
        assert self.stalls == [0, 0]

    def test_credit_starvation_blocks(self, sim):
        """A UDP port out of FCVC credit reports itself blocked, so the
        watch stalls it on ``can_accept`` alone."""
        stack = Stack(sim, "S")
        peer = Stack(sim, "R")
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        b = EthernetInterface(sim, "eth0", "10.0.1.2")
        stack.add_interface(a)
        peer.add_interface(b)
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=50)
        stack.routing.add("10.0.1.0", 24, a)
        credit = CreditSender(1, initial_credit=1)
        [port] = udp_ports(stack, [("10.0.1.2", 5000)], credit=credit)
        credit.on_send(0)  # the one credit is spent; the queue is empty
        monitor = SenderHealthMonitor(sim)
        stalls: List[int] = []
        monitor.bind([port], stalls.append, backlog_fn=lambda: 1)
        sim.run(until=0.4)
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
        prober = ChannelProber(sim, session)
        assert sorted(prober._probing) == [1]
        sim.run(until=1.5)
        times = session.all_ports[1].send_times
        assert len(times) >= 5
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Doubling until the cap, then steady at the cap.
        assert times[0] == pytest.approx(PROBE_INTERVAL_S)
        assert gaps[0] == pytest.approx(2 * PROBE_INTERVAL_S)
        assert gaps[1] == pytest.approx(MAX_PROBE_INTERVAL_S)
        assert all(g == pytest.approx(MAX_PROBE_INTERVAL_S) for g in gaps[1:])
        assert session.all_ports[0].sent == []
        assert session.all_ports[2].sent == []

    def test_ack_triggers_rejoin_reset_with_remembered_quantum(self, sim):
        session = _ProbeSession(sim, active=(0, 1, 2))
        session.config = StripeConfig(
            quanta=(1000.0, 750.0, 1000.0), active_channels=(0, 1, 2)
        )
        prober = ChannelProber(sim, session)
        # The session drops channel 1 (e.g. stall exclusion).
        session.config = StripeConfig(
            quanta=(1000.0, 1000.0), active_channels=(0, 2)
        )
        session.on_reset_complete(1)
        assert sorted(prober._probing) == [1]
        sim.run(until=0.05)
        session.on_probe_ack(ProbeAckPacket(channel=1, seq=1))
        assert prober.rejoins == 1
        assert sorted(prober._probing) == []
        rejoined = session.resets[-1]
        assert rejoined.active_channels == (0, 1, 2)
        # Channel 1 re-enters with its pre-failure quantum, not the mean.
        assert rejoined.quanta == (1000.0, 750.0, 1000.0)

    def test_abandons_after_max_probes(self, sim):
        session = _ProbeSession(sim, active=(0, 2))
        prober = ChannelProber(sim, session)
        sim.run(until=50.0)  # MAX_PROBES probes, the last at ~40 s
        assert len(session.all_ports[1].sent) == MAX_PROBES
        assert prober.abandoned == [1]
        assert sorted(prober._probing) == []

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
        detector = ChannelFailureDetector(sim, SILENCE_S)
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=1000, failure_detector=detector, prober=True,
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

    def test_second_death_after_rejoin_is_excluded_again(self, sim):
        """Regression: a channel that dies, rejoins and dies again is
        reported twice and excluded twice.  A detector whose failure
        latch outlived the rejoin never reported the second death, so the
        dead channel stayed in the bundle and delivery stopped."""
        detector = ChannelFailureDetector(sim, silence_threshold=0.2)
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=1000, failure_detector=detector, prober=True,
        )
        loss = testbed.loss_models[1]
        for at, p in ((0.5, 1.0), (1.2, 0.0), (3.0, 1.0)):
            sim.schedule_at(at, lambda p=p: setattr(loss, "p", p))
        sim.run(until=4.0)
        assert testbed.prober.rejoins == 1
        assert detector.failures_reported == [1, 1]
        assert tuple(testbed.sender_session.config.active_channels) == (
            0, 2,
        )
        assert len(testbed.delivered_between(3.5, 4.0)) > 100

    def test_stalled_channel_excluded_by_health_monitor(self, sim):
        """Sender-side detection: a wedged queue is excluded without
        waiting for the receiver to notice silence."""
        monitor = SenderHealthMonitor(sim)
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
