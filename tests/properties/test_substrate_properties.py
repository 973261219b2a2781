"""Property-based tests for the substrates: channels, MPPP, reorder metrics."""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.reorder import analyze_order
from repro.baselines.mppp import MpppFragment, MpppReceiver
from repro.core.packet import Packet
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import FaultEvent, FaultSchedule


class TestChannelFifoProperty:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=2000),
                       min_size=1, max_size=80),
        spikes=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),
                st.floats(min_value=0.001, max_value=0.2),
                st.floats(min_value=0.0, max_value=0.05),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_under_any_skew(self, sizes, spikes):
        """The channel delivers in send order with non-decreasing
        timestamps, whatever schedule of delay spikes (dynamic skew) it
        runs under."""
        sim = Simulator()
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.001)
        deliveries = []
        channel.on_deliver = lambda p: deliveries.append((p.seq, sim.now))
        FaultSchedule([
            FaultEvent(
                time=start, channel=0, kind="delay_spike",
                duration=duration, magnitude=extra,
            )
            for start, duration, extra in spikes
        ]).install(sim, [channel])
        for i, size in enumerate(sizes):
            channel.send(Packet(size, seq=i))
        sim.run()
        seqs = [s for s, _ in deliveries]
        stamps = [t for _, t in deliveries]
        assert seqs == list(range(len(sizes)))
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=2000),
                       min_size=1, max_size=60),
        loss_seed=st.integers(min_value=0, max_value=2**16),
        loss_p=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_survivors_stay_ordered_under_loss(self, sizes, loss_seed, loss_p):
        from repro.sim.loss import BernoulliLoss

        sim = Simulator()
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.001,
            loss_model=BernoulliLoss(loss_p, rng=random.Random(loss_seed)),
        )
        delivered = []
        channel.on_deliver = lambda p: delivered.append(p.seq)
        for i, size in enumerate(sizes):
            channel.send(Packet(size, seq=i))
        sim.run()
        assert delivered == sorted(delivered)
        assert (
            len(delivered)
            + channel.stats.lost_packets
            == len(sizes)
        )


class TestMpppProperty:
    @given(
        count=st.integers(min_value=1, max_value=120),
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
        drop=st.sets(st.integers(min_value=0, max_value=119)),
    )
    @settings(max_examples=80, deadline=None)
    def test_output_always_sorted(self, count, shuffle_seed, drop):
        """Whatever arrives, in whatever order, with whatever losses, the
        MPPP receiver's output (plus flush) is strictly increasing."""
        receiver = MpppReceiver()
        fragments = [
            MpppFragment(i, Packet(100, seq=i))
            for i in range(count)
            if i not in drop
        ]
        random.Random(shuffle_seed).shuffle(fragments)
        out = []
        for fragment in fragments:
            out.extend(p.seq for p in receiver.push(0, fragment))
        out.extend(p.seq for p in receiver.flush())
        assert out == sorted(out)
        assert len(out) == len(fragments)


class TestAnalyzeOrderProperties:
    @given(perm_seed=st.integers(0, 2**16),
           n=st.integers(min_value=1, max_value=150))
    @settings(max_examples=60, deadline=None)
    def test_sorted_input_is_fifo(self, perm_seed, n):
        rng = random.Random(perm_seed)
        seqs = sorted(rng.sample(range(n * 3), n))
        report = analyze_order(seqs, sent_count=n * 3)
        assert report.is_fifo
        assert report.out_of_order == 0

    @given(perm_seed=st.integers(0, 2**16),
           n=st.integers(min_value=2, max_value=150))
    @settings(max_examples=60, deadline=None)
    def test_counts_are_consistent(self, perm_seed, n):
        rng = random.Random(perm_seed)
        seqs = list(range(n))
        rng.shuffle(seqs)
        report = analyze_order(seqs, sent_count=n)
        assert 0 <= report.out_of_order <= n - 1
        assert report.delivered == n
        assert report.missing == 0
        # a shuffled permutation is FIFO iff it is the identity
        assert report.is_fifo == (seqs == sorted(seqs))
