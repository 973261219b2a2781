"""Unit tests for loss and corruption models."""

import random

import pytest

from repro.sim.loss import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    NoLoss,
    SizeGatedLoss,
)


def reset(model, seed: int = 0) -> None:
    """What an experiment arm does to replay a loss pattern: re-seed the
    RNG the model was built on and leave any loss burst."""
    if isinstance(model, SizeGatedLoss):
        model._gated_index = 0
        reset(model.inner, seed)
        return
    model.rng.seed(seed)
    if isinstance(model, GilbertElliottLoss):
        model._bad = False


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop(i, 100) for i in range(1000))


class TestBernoulli:
    def test_rate_zero_never_drops(self):
        model = BernoulliLoss(0.0)
        assert not any(model.should_drop(i, 100) for i in range(100))

    def test_rate_one_always_drops(self):
        model = BernoulliLoss(1.0)
        assert all(model.should_drop(i, 100) for i in range(100))

    def test_empirical_rate(self):
        model = BernoulliLoss(0.25, rng=random.Random(3))
        drops = sum(model.should_drop(i, 100) for i in range(10000))
        assert 0.22 < drops / 10000 < 0.28

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_rate_mutable_mid_run(self):
        """Experiments flip p to 0 to model 'losses stop'."""
        model = BernoulliLoss(1.0)
        assert model.should_drop(0, 100)
        model.p = 0.0
        assert not model.should_drop(1, 100)


class TestGilbertElliott:
    def test_burstiness(self):
        model = GilbertElliottLoss(
            p_g2b=0.01, p_b2g=0.2, rng=random.Random(5)
        )
        outcomes = [model.should_drop(i, 100) for i in range(20000)]
        # Count runs of consecutive drops; bursts should exceed length 1
        # far more often than an i.i.d. model at the same rate would.
        runs = []
        current = 0
        for dropped in outcomes:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "expected some loss bursts"
        assert max(runs) >= 3

    def test_steady_state_rate(self):
        model = GilbertElliottLoss(
            p_g2b=0.02, p_b2g=0.18, rng=random.Random(9)
        )
        # the bad state loses everything, the good state nothing
        expected = model.p_g2b / (model.p_g2b + model.p_b2g)
        drops = sum(model.should_drop(i, 100) for i in range(50000))
        assert abs(drops / 50000 - expected) < 0.02

    def test_reset_returns_to_good(self):
        model = GilbertElliottLoss(p_g2b=1.0, p_b2g=0.0)
        model.should_drop(0, 100)
        assert model._bad
        reset(model)
        assert not model._bad

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_g2b=2.0, p_b2g=0.5)


class TestDeterministic:
    def test_exact_indices(self):
        model = DeterministicLoss([0, 5, 7])
        dropped = [i for i in range(10) if model.should_drop(i, 100)]
        assert dropped == [0, 5, 7]


class TestSizeGated:
    def test_small_packets_immune(self):
        model = SizeGatedLoss(BernoulliLoss(1.0), min_size=500)
        assert not model.should_drop(0, 100)
        assert model.should_drop(1, 1000)

    def test_gated_index_counts_only_large(self):
        """The inner model sees a contiguous index for gated packets, so
        interleaving small packets does not perturb the loss pattern."""
        inner_a = DeterministicLoss([1])
        gated_a = SizeGatedLoss(inner_a, min_size=500)
        pattern_a = [gated_a.should_drop(i, size)
                     for i, size in enumerate([1000, 1000, 1000])]

        inner_b = DeterministicLoss([1])
        gated_b = SizeGatedLoss(inner_b, min_size=500)
        pattern_b = [gated_b.should_drop(i, size)
                     for i, size in enumerate([1000, 64, 64, 1000, 64, 1000])]
        assert [p for p in pattern_a] == [False, True, False]
        large_only = [pattern_b[0], pattern_b[3], pattern_b[5]]
        assert large_only == [False, True, False]

    def test_reset_propagates(self):
        inner = GilbertElliottLoss(p_g2b=1.0, p_b2g=0.0)
        gated = SizeGatedLoss(inner, min_size=10)
        gated.should_drop(0, 100)
        reset(gated)
        assert not inner._bad


class TestSeededReset:
    def test_bernoulli_reset_replays_drop_sequence(self):
        model = BernoulliLoss(0.3, rng=random.Random(11))
        first = [model.should_drop(i, 100) for i in range(200)]
        reset(model, 11)
        replay = [model.should_drop(i, 100) for i in range(200)]
        assert replay == first

    def test_gilbert_elliott_reset_replays_state_walk(self):
        model = GilbertElliottLoss(
            p_g2b=0.1, p_b2g=0.3, rng=random.Random(7)
        )
        first = [model.should_drop(i, 100) for i in range(500)]
        assert model._bad or True  # whatever state it landed in
        reset(model, 7)
        assert not model._bad
        replay = [model.should_drop(i, 100) for i in range(500)]
        assert replay == first

    def test_gilbert_elliott_reset_mid_burst_restores_seeded_walk(self):
        """Interrupting the walk mid-burst and resetting must rewind both
        the Markov state *and* the RNG — an FEC sweep that reuses one
        channel model across arms depends on identical burst placement."""
        model = GilbertElliottLoss(
            p_g2b=0.3, p_b2g=0.2, rng=random.Random(99)
        )
        full = [model.should_drop(i, 100) for i in range(300)]
        assert any(full), "walk never entered a loss burst"
        reset(model, 99)
        for i in range(137):  # stop partway, wherever the state landed
            model.should_drop(i, 100)
        reset(model, 99)
        assert not model._bad
        assert [model.should_drop(i, 100) for i in range(300)] == full

    def test_gilbert_elliott_same_seed_same_walk_across_instances(self):
        def walk():
            model = GilbertElliottLoss(
                p_g2b=0.2, p_b2g=0.4, rng=random.Random(5)
            )
            return [model.should_drop(i, 100) for i in range(400)]

        assert walk() == walk()

    def test_reset_makes_repeated_runs_comparable(self):
        """Two experiment arms sharing one model see identical loss."""
        model = BernoulliLoss(0.5, rng=random.Random(3))
        arm_a = sum(model.should_drop(i, 100) for i in range(1000))
        reset(model, 3)
        arm_b = sum(model.should_drop(i, 100) for i in range(1000))
        assert arm_a == arm_b
