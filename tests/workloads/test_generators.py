"""Unit tests for traffic generators."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import PacketPool
from repro.sim.engine import Simulator
from repro.workloads.generators import (
    AlternatingSizes,
    ClosedLoopSource,
    ConstantSizes,
    PacedSource,
    RandomMixSizes,
    UniformSizes,
    alternating_packets,
    backlogged_packets,
    cbr_intervals,
    poisson_intervals,
    random_mix_packets,
)


class TestSizeGenerators:
    def test_alternating(self):
        gen = AlternatingSizes(1000, 200)
        assert [gen() for _ in range(4)] == [1000, 200, 1000, 200]

    def test_random_mix_draws_from_set(self):
        gen = RandomMixSizes((200, 1000), rng=random.Random(1))
        values = {gen() for _ in range(100)}
        assert values == {200, 1000}

    def test_random_mix_weights(self):
        gen = RandomMixSizes((200, 1000), weights=(9, 1), rng=random.Random(2))
        values = [gen() for _ in range(2000)]
        assert values.count(200) > values.count(1000) * 4

    def test_uniform_bounds(self):
        gen = UniformSizes(100, 200, rng=random.Random(3))
        assert all(100 <= gen() <= 200 for _ in range(200))

    def test_constant(self):
        gen = ConstantSizes(512)
        assert gen() == 512 == gen()

    def test_validation(self):
        with pytest.raises(ValueError):
            AlternatingSizes(0, 100)
        with pytest.raises(ValueError):
            UniformSizes(10, 5)
        with pytest.raises(ValueError):
            ConstantSizes(0)
        with pytest.raises(ValueError):
            RandomMixSizes(())

    @pytest.mark.parametrize(
        "weights",
        [
            (1.0,),
            (1.0, 2.0, 3.0),
            (2.0, -1.0),
            (1.0, math.nan),
            (1.0, math.inf),
            (0.0, 0.0),
            (1e308, 1e308),
        ],
    )
    def test_random_mix_rejects_bad_weights_at_construction(self, weights):
        # Not at the first draw, which is inside a running simulation.
        with pytest.raises(ValueError):
            RandomMixSizes((64, 576), weights=weights)

    def test_random_mix_table_cannot_go_stale(self):
        gen = RandomMixSizes((64, 576), weights=[3.0, 1.0])
        assert gen.sizes == (64, 576) and gen.weights == (3.0, 1.0)
        with pytest.raises(AttributeError):
            gen.weights = (1.0, 3.0)
        with pytest.raises(AttributeError):
            gen.sizes = (100, 200)
        assert RandomMixSizes((64, 576)).weights is None

    @given(
        mix=st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(1, 9000), min_size=n, max_size=n),
                st.lists(
                    st.one_of(
                        st.integers(0, 50),
                        st.floats(0.0, 1e6, allow_nan=False),
                    ),
                    min_size=n, max_size=n,
                ).filter(lambda weights: sum(weights) > 0),
            )
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_mix_weighted_draws_are_random_choices_draws(
        self, mix, seed
    ):
        sizes, weights = mix
        gen = RandomMixSizes(sizes, weights, rng=random.Random(seed))
        twin = random.Random(seed)
        assert [gen() for _ in range(1000)] == [
            twin.choices(sizes, weights=weights, k=1)[0] for _ in range(1000)
        ]
        # Both generators are left in the same state.
        assert gen.rng.random() == twin.random()

    @given(
        sizes=st.lists(st.integers(1, 9000), min_size=1, max_size=6),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_mix_unweighted_draws_are_random_choice_draws(
        self, sizes, seed
    ):
        gen = RandomMixSizes(sizes, rng=random.Random(seed))
        twin = random.Random(seed)
        assert [gen() for _ in range(200)] == [
            twin.choice(sizes) for _ in range(200)
        ]
        # Both generators are left in the same state.
        assert gen.rng.random() == twin.random()
        # A reassigned rng is followed, and one whose bit source a subclass
        # replaced draws through its own ``choice``.
        gen.rng = FixedBits(seed)
        twin = FixedBits(seed)
        assert [gen() for _ in range(50)] == [
            twin.choice(sizes) for _ in range(50)
        ]
        assert gen.rng.calls == twin.calls > 0


class FixedBits(random.Random):
    """A ``Random`` whose ``random()`` (and so ``choice``) is its own."""

    calls = 0

    def random(self):
        self.calls += 1
        return (self.calls * 0.37) % 1.0


class TestPacketFactories:
    def test_backlogged_packets_sequenced(self):
        packets = backlogged_packets(10, ConstantSizes(100))
        assert [p.seq for p in packets] == list(range(10))

    def test_random_mix_packets_reproducible(self):
        a = random_mix_packets(50, seed=7)
        b = random_mix_packets(50, seed=7)
        assert [p.size for p in a] == [p.size for p in b]

    def test_alternating_packets(self):
        packets = alternating_packets(4)
        assert [p.size for p in packets] == [1000, 200, 1000, 200]


class TestPacedSource:
    def test_cbr_pacing(self):
        sim = Simulator()
        got = []
        source = PacedSource(
            sim, got.append, ConstantSizes(100), cbr_intervals(100.0), count=10
        )
        source.start()
        sim.run(until=1.0)
        assert len(got) == 10
        assert [p.seq for p in got] == list(range(10))

    def test_poisson_intervals_mean(self):
        rng = random.Random(5)
        gen = poisson_intervals(200.0, rng)
        mean = sum(gen() for _ in range(5000)) / 5000
        assert mean == pytest.approx(1 / 200.0, rel=0.1)

    def test_stop(self):
        sim = Simulator()
        got = []
        source = PacedSource(
            sim, got.append, ConstantSizes(100), cbr_intervals(1000.0)
        )
        source.start()
        sim.schedule(0.01, source.stop)
        sim.run(until=1.0)
        assert 5 <= len(got) <= 15

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            cbr_intervals(0)
        with pytest.raises(ValueError):
            poisson_intervals(-1, random.Random())


class TestClosedLoopSource:
    def test_maintains_backlog_target(self):
        sim = Simulator()
        backlog = [0]
        submitted = []

        def submit(packet):
            submitted.append(packet)
            backlog[0] += 1

        source = ClosedLoopSource(
            sim, submit, lambda: backlog[0], ConstantSizes(100), target=5
        )
        source.start()
        sim.run(until=0.01)
        assert backlog[0] == 5
        # drain two, poke, refills to target
        backlog[0] -= 2
        source.poke()
        assert backlog[0] == 5

    def test_count_limit(self):
        sim = Simulator()
        submitted = []
        source = ClosedLoopSource(
            sim, submitted.append, lambda: 0, ConstantSizes(100),
            target=100, count=7,
        )
        source.start()
        sim.run(until=0.1)
        assert len(submitted) == 7

    @pytest.mark.parametrize("pooled", [False, True])
    def test_batched_refill_makes_the_per_packet_refill_s_packets(self, pooled):
        def run(batched):
            sim = Simulator()
            backlog = []
            pool = PacketPool() if pooled else None
            source = ClosedLoopSource(
                sim, backlog.append, lambda: len(backlog),
                RandomMixSizes((64, 576), (3.0, 1.0), rng=random.Random(5)),
                target=6, count=40, pool=pool,
                submit_many=backlog.extend if batched else None,
            )
            made = []
            source.start()
            for _ in range(12):
                sim.run(until=sim.now + source.check_interval)
                made.extend((p.seq, p.size) for p in backlog[:4])
                if pool is not None:
                    for packet in backlog[:4]:
                        pool.release(packet)
                del backlog[:4]
            return made, source.generated

        assert run(batched=True) == run(batched=False)
        assert run(batched=True)[1] == 40
