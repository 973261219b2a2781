"""Unit tests for the scheduler kernel: stepping, snapshot/restore, and
snapshot adoption across marker recovery and session reset."""

import random

import pytest

from repro.core.kernel import (
    CFQKernelAdapter,
    SRRKernel,
    kernel_for,
)
from repro.core.markers import SRRReceiver
from repro.core.packet import Packet
from repro.core.schemes import SeededRandomFQ
from repro.core.session import StripeConfig
from repro.core.srr import SRR, SRRState, make_grr, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer, stripe_sequence
from repro.sim.engine import Simulator
from tests.session_rig import Loopback


def make_packets(n, seed=7, lo=40, hi=1500):
    rng = random.Random(seed)
    return [Packet(rng.randint(lo, hi), seq=i) for i in range(n)]


class TestKernelBasics:
    def test_kernel_for_dispatch(self):
        assert isinstance(kernel_for(SRR([100.0, 200.0])), SRRKernel)
        assert isinstance(kernel_for(SeededRandomFQ(2)), CFQKernelAdapter)

    def test_srr_kernel_rejects_non_srr(self):
        with pytest.raises(TypeError):
            SRRKernel(SeededRandomFQ(2))

    def test_step_returns_peeked_channel(self):
        kernel = SRRKernel(SRR([100.0, 100.0]))
        for size in (60, 60, 60, 60, 60):
            expected = kernel.peek()
            assert kernel.step(size) == expected

    def test_factories(self):
        rr = SRRKernel(make_rr(3))
        assert rr.assign_many([999, 1, 77]) == [0, 1, 2]
        grr = SRRKernel(make_grr([2, 1]))
        assert grr.assign_many([10] * 6) == [0, 0, 1, 0, 0, 1]

    def test_reset_returns_to_initial_state(self):
        kernel = SRRKernel(SRR([100.0, 300.0]))
        initial = kernel.snapshot()
        kernel.assign_many([90, 250, 17, 400])
        assert kernel.snapshot() != initial
        kernel.reset()
        assert kernel.snapshot() == initial

    def test_assign_many_empty(self):
        kernel = SRRKernel(SRR([100.0, 100.0]))
        before = kernel.snapshot()
        assert kernel.assign_many([]) == []
        assert kernel.snapshot() == before


class TestSnapshotRestore:
    def test_snapshot_is_srr_state_and_detached(self):
        kernel = SRRKernel(SRR([100.0, 200.0]))
        kernel.step(60)
        snap = kernel.snapshot()
        assert isinstance(snap, SRRState)
        kernel.step(500)  # further mutation must not leak into the snapshot
        assert snap != kernel.snapshot()

    def test_restore_resumes_identically(self):
        sizes = [113, 908, 77, 1500, 1, 640] * 5
        kernel = SRRKernel(SRR([500.0, 300.0, 800.0]))
        kernel.assign_many(sizes[:10])
        snap = kernel.snapshot()
        tail_a = kernel.assign_many(sizes[10:])
        kernel.restore(snap)
        tail_b = kernel.assign_many(sizes[10:])
        assert tail_a == tail_b

    def test_restore_interops_with_immutable_states(self):
        """A state produced by CausalFQ.update is a valid kernel snapshot."""
        algorithm = SRR([500.0, 300.0])
        state = algorithm.initial_state()
        for size in (400, 200, 77):
            state = algorithm.update(state, size)
        kernel = SRRKernel(algorithm)
        kernel.restore(state)
        assert kernel.snapshot() == state
        assert kernel.peek() == algorithm.select(state)

    def test_restore_rejects_wrong_channel_count(self):
        kernel = SRRKernel(SRR([100.0, 100.0]))
        with pytest.raises(ValueError):
            kernel.restore(SRRState(ptr=0, round_number=1, dc=(1.0,)))

    def test_adapter_snapshot_restore(self):
        kernel = CFQKernelAdapter(SeededRandomFQ(3, seed=5))
        kernel.assign_many([10, 20])
        snap = kernel.snapshot()
        tail_a = kernel.assign_many([30, 40, 50])
        kernel.restore(snap)
        assert kernel.assign_many([30, 40, 50]) == tail_a


class TestReceiverSnapshotAdoption:
    """Theorem 5.1 flavor: a receiver that adopts a sender kernel snapshot
    mid-stream converges to FIFO delivery of the remaining stream."""

    def _striped_with_states(self, algorithm, packets):
        """Stripe packets, recording the sender snapshot before each."""
        kernel = SRRKernel(algorithm)
        snapshots = []
        channels = [[] for _ in range(algorithm.n_channels)]
        placements = []
        for packet in packets:
            snapshots.append(kernel.snapshot())
            channel = kernel.step(packet.size)
            channels[channel].append(packet)
            placements.append(channel)
        return channels, placements, snapshots

    def test_mid_stream_adoption_converges(self):
        algorithm = SRR([1500.0, 2070.0, 900.0])
        packets = make_packets(400, seed=11)
        channels, placements, snapshots = self._striped_with_states(
            algorithm, packets
        )
        cut = 217  # receiver boots mid-stream: packets before this are gone

        receiver = SRRReceiver(SRR([1500.0, 2070.0, 900.0]))
        delivered = []
        receiver.on_deliver = delivered.append
        # Adopt the sender's exact state as of the cut...
        receiver.adopt_snapshot(snapshots[cut])
        # ...then receive only the post-cut suffix of each channel stream.
        suffix = [[] for _ in channels]
        for index in range(cut, len(packets)):
            suffix[placements[index]].append(packets[index])
        progressing = True
        cursors = [0] * len(suffix)
        while progressing:  # interleave channels packet by packet
            progressing = False
            for c, stream in enumerate(suffix):
                if cursors[c] < len(stream):
                    receiver.push(c, stream[cursors[c]])
                    cursors[c] += 1
                    progressing = True
        assert [p.seq for p in delivered] == [
            p.seq for p in packets[cut:]
        ]  # exact FIFO from the adoption point on

    def test_adoption_equivalent_to_full_replay(self):
        """Adopting snapshot[k] then feeding the suffix leaves the same
        mirror state as replaying the whole stream."""
        algorithm = SRR([700.0, 400.0])
        packets = make_packets(120, seed=2, lo=1, hi=600)
        channels, placements, snapshots = self._striped_with_states(
            algorithm, packets
        )

        full = SRRReceiver(SRR([700.0, 400.0]))
        for index, packet in enumerate(packets):
            full.push(placements[index], packet)

        cut = 60
        partial = SRRReceiver(SRR([700.0, 400.0]))
        partial.adopt_snapshot(snapshots[cut])
        for index in range(cut, len(packets)):
            partial.push(placements[index], packets[index])
        assert partial.mirror_state() == full.mirror_state()

    def test_snapshot_restore_across_marker_adoption(self):
        """restore() rewinds marker adoptions: replaying the same arrivals
        from a snapshot reproduces the same mirror state and deliveries."""
        ports = [ListPort(), ListPort()]
        striper = Striper(
            TransformedLoadSharer(SRR([1500.0, 2070.0])), ports,
            MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for packet in make_packets(300, seed=9):
            striper.submit(packet)
        streams = [list(p.sent) for p in ports]

        receiver = SRRReceiver(SRR([1500.0, 2070.0]))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        snap = receiver.snapshot()  # pre-adoption mirror, buffers empty

        def feed_all():
            progressing = True
            cursors = [0, 0]
            while progressing:
                progressing = False
                for c in range(2):
                    if cursors[c] < len(streams[c]):
                        receiver.push(c, streams[c][cursors[c]])
                        cursors[c] += 1
                        progressing = True

        feed_all()
        first_run = list(delivered)
        assert first_run  # markers were adopted and packets delivered
        assert receiver.stats.adoptions > 0
        assert receiver.buffered == 0  # fully drained: safe to replay

        # Rewind the mirror past every adoption and replay the arrivals.
        receiver.restore(snap)
        delivered.clear()
        feed_all()
        assert delivered == first_run

    def test_restore_rejects_wrong_width(self):
        receiver = SRRReceiver(SRR([100.0, 100.0]))
        other = SRRReceiver(SRR([100.0, 100.0, 100.0]))
        with pytest.raises(ValueError):
            receiver.restore(other.snapshot())
        with pytest.raises(ValueError):
            receiver.adopt_snapshot(
                SRRState(ptr=0, round_number=1, dc=(1.0, 1.0, 1.0))
            )


class TestSessionResetInstallsFreshKernel:
    def test_reset_installs_epoch_initial_snapshot_both_ends(self):
        sim = Simulator()
        loop = Loopback(sim)
        session = loop.sender_session
        for packet in make_packets(40, seed=4, lo=10, hi=90):
            loop.sender.submit_packet(packet)
        loop.flush()
        assert loop.delivered == list(range(40))

        new_config = StripeConfig(quanta=(250.0, 125.0))
        session.initiate_reset(new_config)
        loop.flush()  # RESETs reach the receiver
        sim.run()
        assert session.state == session.RUNNING

        # Both ends now sit at the new config's epoch-initial kernel state.
        kernel = loop.sender.striper._kernel
        assert kernel.snapshot() == new_config.algorithm().initial_state()
        mirror = loop.receiver.resequencer.mirror_state()
        assert mirror["ptr"] == 0
        assert mirror["G"] == 1
        assert mirror["dc"] == (250.0, 0.0)
        assert mirror["sync_round"] == (None, None)

        # And the new epoch delivers FIFO with the new quanta.
        loop.delivered.clear()
        for packet in make_packets(60, seed=5, lo=10, hi=240):
            loop.sender.submit_packet(packet)
        loop.flush()
        assert loop.delivered == list(range(60))

    def test_reconfig_changes_kernel_width(self):
        sim = Simulator()
        loop = Loopback(sim, n_ports=3, quanta=(100.0, 100.0, 100.0))
        session = loop.sender_session
        session.initiate_reset(session.config_without(1))
        loop.flush()
        sim.run()
        assert loop.sender.striper._kernel.n_channels == 2
        assert loop.receiver.resequencer.n_channels == 2
        for packet in make_packets(30, seed=6, lo=10, hi=90):
            loop.sender.submit_packet(packet)
        loop.flush()
        assert loop.delivered == list(range(30))


class TestStripeSequenceBatched:
    def test_matches_two_phase_protocol(self):
        """The batched stripe_sequence equals the explicit per-packet
        choose/notify_sent protocol for a causal policy."""
        packets = make_packets(500, seed=8)
        batched = stripe_sequence(
            TransformedLoadSharer(SRR([1500.0, 900.0])), packets
        )
        sharer = TransformedLoadSharer(SRR([1500.0, 900.0]))
        reference = [[] for _ in range(2)]
        for packet in packets:
            channel = sharer.choose(packet)
            reference[channel].append(packet)
            sharer.notify_sent(channel, packet)
        assert [[p.uid for p in ch] for ch in batched] == [
            [p.uid for p in ch] for ch in reference
        ]
