"""Unit tests for the composable fault-injection layer."""

import random

import pytest

from repro.core.packet import MarkerPacket, Packet
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CHANNEL_FAULT_KINDS,
    CONTROL_SIZE_MAX,
    EXACTLY_ONCE_KINDS,
    FAULT_KINDS,
    FAULT_START_S,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    burst_loss_schedule,
)
from repro.sim.loss import BernoulliLoss


def make_channel(sim, **kwargs):
    defaults = dict(
        bandwidth_bps=8e6, prop_delay=0.5e-3, queue_limit=64, name="ch"
    )
    defaults.update(kwargs)
    return Channel(sim, **defaults)


def drive(sim, channel, count, size=500, interval=0.001, start=0.0):
    """Offer ``count`` packets to the channel on a fixed cadence."""
    for i in range(count):
        sim.schedule_at(
            start + i * interval,
            lambda seq=i: channel.send(Packet(size=size, seq=seq), force=True),
        )


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=0.0, channel=0, kind="meteor")

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, channel=0, kind="crash")
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, channel=0, kind="crash", duration=-0.1)
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, channel=-1, kind="crash")

    def test_end_time(self):
        event = FaultEvent(time=0.5, channel=0, kind="pause", duration=0.2)
        assert event.end == pytest.approx(0.7)


class TestCrash:
    def test_crash_window_drops_then_heals(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [FaultEvent(time=0.01, channel=0, kind="crash", duration=0.02)]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 40, interval=0.001)
        sim.run()
        assert installed.crash_drops > 0
        # Channel stats count the injected losses (the wrapper rides the
        # loss-model hook, not a side channel).
        assert channel.stats.lost_packets == installed.crash_drops
        assert len(arrived) == 40 - installed.crash_drops
        # Packets after the window all survive, in order.
        post = [p.seq for p in arrived if p.seq >= 31]
        assert post == sorted(post) and len(post) == 9

    def test_crash_composes_with_inner_loss(self, sim):
        channel = make_channel(
            sim, loss_model=BernoulliLoss(0.5, rng=random.Random(7))
        )
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [FaultEvent(time=0.0, channel=0, kind="crash", duration=0.01)]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 60, interval=0.001)
        sim.run()
        # During the crash everything drops; afterwards the inner Bernoulli
        # model keeps drawing, so total losses exceed the crash drops.
        assert installed.crash_drops == 10
        assert channel.stats.lost_packets > installed.crash_drops
        assert 0 < len(arrived) < 50


class TestPause:
    def test_pause_is_lossless_backpressure(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [FaultEvent(time=0.005, channel=0, kind="pause", duration=0.05)]
        )
        schedule.install(sim, [channel])
        drive(sim, channel, 30, interval=0.001)
        sim.run()
        assert channel.stats.lost_packets == 0
        assert [p.seq for p in arrived] == list(range(30))
        # Nothing (beyond the in-flight packet) is delivered mid-pause.
        assert not channel._paused

    def test_overlapping_pauses_resume_once(self, sim):
        channel = make_channel(sim)
        got = []
        channel.on_deliver = got.append
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.00, channel=0, kind="pause", duration=0.04),
                FaultEvent(time=0.02, channel=0, kind="pause", duration=0.04),
            ]
        )
        schedule.install(sim, [channel])
        drive(sim, channel, 5, interval=0.001)
        sim.run(until=0.05)
        assert channel._paused  # second pause still holds at t=0.05
        sim.run()
        assert not channel._paused
        assert len(got) == 5


class TestReceiveSideFaults:
    def test_corrupt_discards_arrivals(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="corrupt",
                    duration=0.02, magnitude=1.0,
                )
            ]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 30, interval=0.001)
        sim.run()
        assert installed.corrupt_drops > 0
        assert len(arrived) == 30 - installed.corrupt_drops

    def test_marker_loss_spares_data(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="marker_loss",
                    duration=1.0, magnitude=1.0,
                )
            ]
        )
        installed = schedule.install(sim, [channel])
        for i in range(10):
            sim.schedule_at(
                i * 0.001,
                lambda seq=i: channel.send(
                    Packet(size=500, seq=seq), force=True
                ),
            )
            sim.schedule_at(
                i * 0.001 + 0.0005,
                lambda: channel.send(
                    MarkerPacket(channel=0, round_number=1, deficit=0.0),
                    force=True,
                ),
            )
        sim.run()
        assert installed.marker_drops == 10
        assert [p.seq for p in arrived] == list(range(10))
        assert all(p.size > CONTROL_SIZE_MAX for p in arrived)

    def test_duplicate_injects_copies(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="duplicate",
                    duration=0.02, magnitude=1.0,
                )
            ]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 30, interval=0.001)
        sim.run()
        assert installed.duplicates_injected > 0
        assert len(arrived) == 30 + installed.duplicates_injected
        # Duplicated or not, per-channel order is preserved.
        seqs = [p.seq for p in arrived]
        assert seqs == sorted(seqs)

    def test_reorder_burst_scrambles_then_ceases(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="reorder",
                    duration=0.0105, magnitude=4.0,
                )
            ]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 30, interval=0.001)
        sim.run()
        seqs = [p.seq for p in arrived]
        assert sorted(seqs) == list(range(30))  # nothing lost
        assert installed.reordered > 0
        assert seqs != sorted(seqs)
        # After the window the stream is in order again.
        tail = seqs[-15:]
        assert tail == sorted(tail)

    def test_delay_spike_preserves_fifo(self, sim):
        channel = make_channel(sim)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append((sim.now, p.seq))
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.004, channel=0, kind="delay_spike",
                    duration=0.01, magnitude=0.02,
                )
            ]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 25, interval=0.001)
        sim.run()
        assert installed.injectors[0].delayed > 0
        seqs = [seq for _, seq in arrivals]
        assert seqs == list(range(25))  # FIFO survives the spike
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        # The spike actually delayed something beyond the base latency.
        base = 500 * 8 / 8e6 + 0.5e-3
        spiked = [t - (0.001 * seq + base) for t, seq in arrivals]
        assert max(spiked) > 0.015


class TestBurstLoss:
    def test_pinned_burst_drops_everything_in_window(self, sim):
        """magnitude >= 1 pins the channel in the bad state: the window is
        a deterministic wipe, and recovery afterwards is immediate."""
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = FaultSchedule(
            [FaultEvent(time=0.0, channel=0, kind="burst_loss",
                        duration=0.0105, magnitude=1.0)]
        )
        installed = schedule.install(sim, [channel])
        drive(sim, channel, 40, interval=0.001)
        sim.run()
        # Loss draws happen at transmission completion (send + 0.5 ms of
        # wire time), so exactly the sends completing inside the window
        # are wiped.
        assert installed.burst_drops == 10
        assert channel.stats.lost_packets == 10
        assert [p.seq for p in arrived] == list(range(10, 40))

    def test_fractional_magnitude_is_bursty_at_the_target_rate(self, sim):
        """magnitude 0.25 long-run: the empirical rate lands near the
        target, and drops arrive in multi-packet runs (mean burst length
        ~4 with the fixed p_b2g), unlike i.i.d. loss at the same rate."""
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        schedule = burst_loss_schedule(1, 0.25, until=4.0)
        installed = schedule.install(sim, [channel], seed=3)
        drive(sim, channel, 3000, interval=0.001)
        sim.run()
        rate = installed.burst_drops / 3000
        assert 0.12 < rate < 0.40
        # Run-length structure: consecutive missing seqs form bursts.
        got = {p.seq for p in arrived}
        runs, current = [], 0
        for seq in range(3000):
            if seq in got:
                if current:
                    runs.append(current)
                current = 0
            else:
                current += 1
        if current:
            runs.append(current)
        assert sum(runs) / len(runs) > 2.0, "drops were not bursty"
        assert max(runs) >= 4

    def test_burst_erases_whole_fec_group(self, sim):
        """Regression (FEC tentpole): one pinned burst claims every member
        of a k+m stripe group — data and parity — so the group can never
        decode; the pure-fec receiver gap-skips it and delivery resumes
        with the next group intact."""
        from repro.transport.fec import FecReceiver, FecSender

        channel = make_channel(sim)
        delivered = []
        receiver = FecReceiver(delivered.append, sim)
        channel.on_deliver = receiver.on_packet
        def send(packets):
            for packet in packets:
                channel.send(packet, force=True)

        sender = FecSender(send, send, sim)
        # Group 0 (fseq 0-5 + parity, all sent by t=0.005) transmits
        # inside the burst window; group 1 starts at t=0.006, outside it.
        schedule = burst_loss_schedule(1, 1.0, until=0.0055)
        installed = schedule.install(sim, [channel])
        for i in range(18):
            sim.schedule_at(
                i * 0.001,
                lambda seq=i: sender.submit(
                    [Packet(size=200, seq=seq, payload=bytes([seq]) * 8)]
                ),
            )
        sim.run()
        assert installed.burst_drops == 8, "burst missed part of the group"
        assert [p.seq for p in delivered] == list(range(6, 18))
        assert receiver.stats.skipped == 6
        assert receiver.stats.reconstructed == 0

    def test_burst_loss_schedule_validation(self):
        with pytest.raises(ValueError, match="loss rate"):
            burst_loss_schedule(2, 0.0)
        with pytest.raises(ValueError, match="positive duration"):
            burst_loss_schedule(2, 0.1, start=1.0, until=0.5)
        schedule = burst_loss_schedule(3, 0.2, until=2.0)
        assert len(schedule) == 3
        assert schedule.kinds_used() == ("burst_loss",)

    def test_burst_magnitude_rejected_at_zero(self, sim):
        channel = make_channel(sim)
        schedule = FaultSchedule(
            [FaultEvent(time=0.0, channel=0, kind="burst_loss",
                        magnitude=0.0)]
        )
        with pytest.raises(ValueError, match="magnitude must be > 0"):
            schedule.install(sim, [channel])
            sim.run()


class TestSchedule:
    def test_install_rejects_out_of_range_channel(self, sim):
        channel = make_channel(sim)
        schedule = FaultSchedule(
            [FaultEvent(time=0.0, channel=3, kind="crash")]
        )
        with pytest.raises(ValueError, match="targets channel 3"):
            schedule.install(sim, [channel])

    def test_last_fault_end_and_kinds(self):
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.1, channel=0, kind="crash", duration=0.5),
                FaultEvent(time=0.3, channel=1, kind="pause", duration=0.1),
            ]
        )
        assert schedule.last_fault_end == pytest.approx(0.6)
        assert schedule.kinds_used() == ("crash", "pause")
        assert len([e for e in schedule.events if e.channel == 1]) == 1

    def test_same_seed_replays_identically(self):
        plan = FaultPlan(n_channels=3, cease_by=1.0)
        a = plan.schedule(42)
        b = plan.schedule(42)
        assert a.events == b.events
        assert plan.schedule(43).events != a.events

    def test_plan_respects_cease_by(self):
        plan = FaultPlan(n_channels=4, cease_by=0.7)
        for seed in range(50):
            schedule = plan.schedule(seed)
            assert len(schedule) >= 1
            for event in schedule:
                assert event.time >= FAULT_START_S
                assert event.end <= 0.7 + 1e-9
                assert event.channel < 4

    def test_plan_kind_subsets(self):
        plan = FaultPlan(
            n_channels=2, cease_by=1.0, kinds=EXACTLY_ONCE_KINDS
        )
        used = set()
        for seed in range(40):
            used.update(plan.schedule(seed).kinds_used())
        assert "duplicate" not in used
        assert used <= set(EXACTLY_ONCE_KINDS)
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan(n_channels=2, cease_by=1.0, kinds=("quake",))

    def test_exactly_once_kinds_is_all_channel_kinds_but_duplicate(self):
        # endpoint_crash is not a channel fault (it needs a crash
        # controller, and exactly-once across it is the recovery
        # subsystem's property suite), so both derived sets exclude it.
        assert set(CHANNEL_FAULT_KINDS) == set(FAULT_KINDS) - {
            "endpoint_crash"
        }
        assert set(EXACTLY_ONCE_KINDS) == set(CHANNEL_FAULT_KINDS) - {
            "duplicate"
        }


class TestChannelPauseResume:
    def test_native_pause_resume(self, sim):
        channel = make_channel(sim)
        got = []
        channel.on_deliver = got.append
        channel.send(Packet(size=500, seq=0))
        channel.pause()
        channel.send(Packet(size=500, seq=1))
        sim.run(until=0.05)
        # Only the packet already in service at pause time got through.
        assert [p.seq for p in got] == [0]
        channel.resume()
        sim.run()
        assert [p.seq for p in got] == [0, 1]

    def test_resume_without_pause_is_noop(self, sim):
        channel = make_channel(sim)
        channel.resume()
        assert not channel._paused


class TestCorruptDeliver:
    """``corrupt_deliver``: damaged packets that still *arrive*.

    Unlike ``corrupt`` (which models a checksum drop at the NIC), this
    fault delivers the damaged packet so the protocol's own validation
    must count and discard it.
    """

    def _schedule(self, magnitude=1.0, duration=1.0):
        return FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="corrupt_deliver",
                    duration=duration, magnitude=magnitude,
                )
            ]
        )

    def test_payload_byte_flipped_on_a_copy(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        installed = self._schedule().install(sim, [channel], seed=5)
        original = Packet(size=500, seq=0, payload=b"\x00" * 100)
        channel.send(original, force=True)
        sim.run()
        assert installed.corrupt_delivered == 1
        (got,) = arrived
        assert got is not original, "must corrupt a copy, never the original"
        assert original.payload == b"\x00" * 100
        assert got.payload != original.payload
        assert len(got.payload) == 100
        # Exactly one byte differs (single bit-burst model).
        assert sum(a != b for a, b in zip(got.payload, original.payload)) == 1

    def test_marker_corrupted_on_the_wire_fails_decode(self, sim):
        from repro.core.markers import MarkerDecodeError, decode_marker

        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        installed = self._schedule().install(sim, [channel], seed=5)
        channel.send(
            MarkerPacket(channel=0, round_number=3, deficit=1.5), force=True
        )
        sim.run()
        assert installed.corrupt_delivered == 1
        (got,) = arrived
        assert isinstance(got, bytes), "marker delivered as damaged wire bytes"
        with pytest.raises(MarkerDecodeError):
            decode_marker(got)

    def test_wire_bytes_flipped(self, sim):
        from repro.core.markers import encode_marker

        # Wire-encoded markers (the fast path's marker form) need a
        # bytes-aware size hook, exactly like FastChannelPort installs.
        channel = make_channel(
            sim,
            size_of=lambda p: len(p) if isinstance(p, bytes) else int(p.size),
        )
        arrived = []
        channel.on_deliver = arrived.append
        installed = self._schedule().install(sim, [channel], seed=5)
        wire = encode_marker(
            MarkerPacket(channel=0, round_number=3, deficit=1.5)
        )
        channel.send(wire, force=True)
        sim.run()
        assert installed.corrupt_delivered == 1
        (got,) = arrived
        assert got != wire and len(got) == len(wire)

    def test_payload_less_packet_passes_unchanged(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        installed = self._schedule().install(sim, [channel], seed=5)
        packet = Packet(size=500, seq=0)
        channel.send(packet, force=True)
        sim.run()
        assert arrived == [packet]
        assert installed.corrupt_delivered == 0

    def test_window_bounds_respected(self, sim):
        channel = make_channel(sim)
        arrived = []
        channel.on_deliver = arrived.append
        installed = self._schedule(duration=0.005).install(
            sim, [channel], seed=5
        )
        for i in range(20):
            sim.schedule_at(
                i * 0.001,
                lambda seq=i: channel.send(
                    Packet(size=500, seq=seq, payload=b"x" * 50), force=True
                ),
            )
        sim.run()
        late = [p for p in arrived if p.seq >= 10]
        assert all(p.payload == b"x" * 50 for p in late)
        assert 0 < installed.corrupt_delivered <= 10

    def test_receiver_pipeline_counts_and_drops_corrupt_markers(self, sim):
        """End to end: a corrupted marker stream is counted, not fatal."""
        from repro.core.srr import SRR
        from repro.core.striper import MarkerPolicy
        from repro.transport.endpoint import (
            StripeReceiverPipeline,
            StripeSenderPipeline,
        )
        from repro.transport.fast_path import FastChannelPort

        channels = [
            Channel(
                sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
                name=f"ch{i}",
            )
            for i in range(3)
        ]
        delivered = []
        sender = StripeSenderPipeline(
            [FastChannelPort(ch) for ch in channels],
            SRR([500.0] * 3),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
        )
        receiver = StripeReceiverPipeline(
            3, SRR([500.0] * 3), mode="marker",
            on_message=delivered.append, sim=sim,
        )
        for i, ch in enumerate(channels):
            ch.on_deliver = receiver.channel_handler(i)
            ch.on_space = sender.pump
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=c, kind="corrupt_deliver",
                    duration=0.05, magnitude=0.5,
                )
                for c in range(3)
            ]
        )
        installed = schedule.install(sim, channels, seed=9)

        def tick(seq=[0]):
            if sim.now >= 0.1:
                return
            if sender.can_submit():
                sender.submit_packet(Packet(size=500, seq=seq[0]))
                seq[0] += 1
            sim.schedule(0.5e-3, tick)

        sim.schedule_at(0.0, tick)
        sim.run(until=0.3)
        assert installed.corrupt_delivered > 0
        assert receiver.marker_decode_errors > 0
        assert delivered, "corruption must not wedge delivery"


class TestEndpointCrashFaults:
    def test_target_required(self):
        with pytest.raises(ValueError, match="endpoint_crash needs target"):
            FaultEvent(time=0.1, channel=0, kind="endpoint_crash")
        with pytest.raises(ValueError, match="endpoint_crash needs target"):
            FaultEvent(
                time=0.1, channel=0, kind="endpoint_crash", target="router"
            )

    def test_target_rejected_on_channel_kinds(self):
        with pytest.raises(ValueError, match="only meaningful"):
            FaultEvent(time=0.1, channel=0, kind="crash", target="sender")

    def test_install_without_controller_raises(self, sim):
        channel = make_channel(sim)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.1, channel=0, kind="endpoint_crash",
                    duration=0.05, target="sender",
                )
            ]
        )
        with pytest.raises(ValueError, match="endpoints"):
            schedule.install(sim, [channel])

    def test_schedule_helper_and_controller_wiring(self, sim):
        from repro.sim.faults import endpoint_crash_schedule
        from repro.sim.host import EndpointCrashController

        calls = []
        controller = EndpointCrashController(
            sim,
            kill_sender=lambda: calls.append("kill_s"),
            build_sender=lambda: calls.append("build_s"),
            kill_receiver=lambda: calls.append("kill_r"),
            build_receiver=lambda: calls.append("build_r"),
        )
        channel = make_channel(sim)
        schedule = endpoint_crash_schedule(
            [(0.01, "sender"), (0.05, "receiver")], outage=0.02
        )
        schedule.install(sim, [channel], endpoints=controller)
        sim.run()
        assert calls == ["kill_s", "build_s", "kill_r", "build_r"]
        assert controller.total_crashes == 2
        assert [
            (o.target, o.down_at, o.up_at) for o in controller.outages
        ] == [("sender", 0.01, 0.03), ("receiver", 0.05, 0.07)]

    def test_crash_restart_idempotent(self, sim):
        from repro.sim.host import EndpointCrashController

        calls = []
        controller = EndpointCrashController(
            sim,
            kill_sender=lambda: calls.append("kill"),
            build_sender=lambda: calls.append("build"),
            kill_receiver=lambda: None,
            build_receiver=lambda: None,
        )
        controller.crash("sender")
        controller.crash("sender")  # already down: no-op
        controller.restart("sender")
        controller.restart("sender")  # already up: no-op
        assert calls == ["kill", "build"]
        assert controller.crashes["sender"] == 1
        with pytest.raises(ValueError):
            controller.crash("router")

    def test_randomized_plans_exclude_endpoint_crash_by_default(self):
        plan = FaultPlan(n_channels=3, cease_by=1.0)
        used = set()
        for seed in range(60):
            used.update(plan.schedule(seed).kinds_used())
        assert "endpoint_crash" not in used


class TestPacketPoolDoubleRelease:
    def test_double_release_refused(self):
        from repro.core.packet import PacketPool

        pool = PacketPool()
        packet = pool.acquire(500, seq=0)
        pool.release(packet)
        pool.release(packet)  # a duplicate fault delivers the object twice
        assert pool.double_releases == 1
        assert len(pool._free) == 1
        # The single pooled copy comes back once, with a fresh uid.
        again = pool.acquire(500, seq=1)
        assert again is packet
        assert pool.acquire(500, seq=2) is not packet

    def test_reacquired_packet_releases_normally(self):
        from repro.core.packet import PacketPool

        pool = PacketPool()
        packet = pool.acquire(500, seq=0)
        pool.release(packet)
        same = pool.acquire(500, seq=1)  # fresh uid, same storage
        pool.release(same)
        assert pool.double_releases == 0
        assert pool.released == 2

    def test_duplicate_heavy_schedule_cannot_alias_the_pool(self, sim):
        """Regression: duplicate faults + release-at-delivery must never
        hand one packet object to two acquirers."""
        from repro.core.packet import PacketPool

        pool = PacketPool()
        channel = make_channel(sim)
        live = []

        def on_deliver(packet):
            live.append(packet.uid)
            pool.release(packet)

        channel.on_deliver = on_deliver
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.0, channel=0, kind="duplicate",
                    duration=1.0, magnitude=1.0,
                )
            ]
        )
        installed = schedule.install(sim, [channel], seed=3)
        for i in range(50):
            sim.schedule_at(
                i * 0.001,
                lambda seq=i: channel.send(
                    pool.acquire(500, seq=seq), force=True
                ),
            )
        sim.run()
        assert installed.duplicates_injected > 0
        assert pool.double_releases == installed.duplicates_injected
        # Every pooled entry is unique: no aliased acquisitions possible.
        uids = [p.uid for p in pool._free]
        assert len(uids) == len(set(uids))
