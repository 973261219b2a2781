"""Tests for the Sprinklers marker-free striping discipline.

The in-order **proof obligations** of the design are checked as property
tests: a flow with a stable stripe visits its stripe members cyclically
(the discipline-level invariant), which over equal-rate FIFO channels
with equal-size packets makes delivery order equal submission order (the
end-to-end obligation, checked against a deterministic equal-rate channel
model).  Mice flows (stripe width 1) get per-flow FIFO unconditionally —
that case is pure address hashing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet
from repro.core.sprinklers import (
    WINDOW_BYTES,
    FlowRateEstimator,
    SprinklersDiscipline,
    stripe_size_for,
)


def stripe_of(disc, flow):
    """The channel set currently striping ``flow``."""
    return list(disc._stripe(flow).channels)


def drive(disc, packets):
    """Run packets through the two-phase protocol; return channel picks."""
    channels = []
    for packet in packets:
        channel = disc.choose(packet, None)
        disc.notify_sent(channel, packet)
        channels.append(channel)
    return channels


class TestStripeSizing:
    def test_mouse_gets_width_one(self):
        assert stripe_size_for(0.0, 8) == 1
        assert stripe_size_for(0.12, 8) == 1  # 0.12 * 8 < 1

    def test_power_of_two_growth(self):
        assert stripe_size_for(0.2, 8) == 2  # need 1.6
        assert stripe_size_for(0.3, 8) == 4  # need 2.4
        assert stripe_size_for(0.6, 8) == 8  # need 4.8

    def test_capped_at_bundle_width(self):
        assert stripe_size_for(1.0, 6) == 6  # non-power-of-two bundle
        assert stripe_size_for(1.0, 8) == 8

    def test_rejects_empty_bundle(self):
        with pytest.raises(ValueError):
            stripe_size_for(0.5, 0)


class TestFlowRateEstimator:
    def test_steady_share_converges(self):
        est = FlowRateEstimator()
        a, b = est.new_state(), est.new_state()
        for _ in range(6000):  # a gets 3/4 of the traffic, ~11 half-lives
            est.observe(a, 750)
            est.observe(b, 250)
        assert est.share(a) == pytest.approx(0.75, rel=0.05)
        assert est.share(b) == pytest.approx(0.25, rel=0.05)

    def test_idle_flow_decays(self):
        est = FlowRateEstimator()
        a, b = est.new_state(), est.new_state()
        for _ in range(50):
            est.observe(a, 100)
        peak = est.share(a)
        for _ in range(100):  # only b sends now: ten half-lives
            est.observe(b, WINDOW_BYTES // 10)
        assert est.share(a) < peak / 100

    def test_seeded_state_starts_at_prior(self):
        est = FlowRateEstimator()
        state = est.new_state(0.5)
        assert est.share(state) == pytest.approx(0.5)

    def test_share_clamped_to_one(self):
        est = FlowRateEstimator()
        a = est.new_state()
        for _ in range(200):
            est.observe(a, WINDOW_BYTES // 8)
        assert est.share(a) == 1.0


class TestSprinklersDiscipline:
    def test_choose_is_pure(self):
        disc = SprinklersDiscipline(4)
        packet = Packet(size=1000, seq=0)
        packet.flow = "f"
        first = disc.choose(packet, None)
        # Repeated choose (the striper retries the head packet under
        # backpressure) must neither change the answer nor advance state.
        assert all(disc.choose(packet, None) == first for _ in range(5))

    def test_new_flow_is_a_mouse(self):
        disc = SprinklersDiscipline(8)
        assert len(stripe_of(disc, "fresh")) == 1

    def test_initial_share_provisions_full_stripe(self):
        disc = SprinklersDiscipline(8, initial_share=1.0)
        assert stripe_of(disc, "bulk") == list(range(8))

    def test_flowless_packets_share_one_stripe(self):
        disc = SprinklersDiscipline(4, initial_share=1.0)
        packets = [Packet(size=1000, seq=i) for i in range(8)]
        assert sorted(set(drive(disc, packets))) == [0, 1, 2, 3]
        assert disc.flow_count == 1  # flow=None is one aggregate flow

    def test_equal_weights_exact_round_robin(self):
        disc = SprinklersDiscipline(4, initial_share=1.0)
        packets = [Packet(size=1000, seq=i) for i in range(64)]
        channels = drive(disc, packets)
        stripe = stripe_of(disc, None)
        expected = [stripe[i % 4] for i in range(64)]
        assert channels == expected

    def test_aligned_placement_tiles_the_bundle(self):
        disc = SprinklersDiscipline(8)
        for flow in range(50):
            stripe = disc._stripe_channels(flow, 2)
            assert stripe[0] % 2 == 0  # aligned to stripe-size multiples
            assert stripe[1] == stripe[0] + 1

    def test_elephant_grows_its_stripe(self):
        disc = SprinklersDiscipline(4)
        packets = [Packet(size=1000, seq=i) for i in range(1200)]
        for packet in packets:
            packet.flow = "elephant"
        drive(disc, packets)
        assert disc.resizes > 0
        assert len(stripe_of(disc, "elephant")) == 4

    def test_hysteresis_blocks_marginal_shrink(self):
        disc = SprinklersDiscipline(6)
        packets = [Packet(size=1000, seq=i) for i in range(1200)]
        drive(disc, packets)  # grows to full width
        assert len(stripe_of(disc, None)) == 6
        # A second flow takes half the traffic: the aggregate's share
        # falls to ~1/2, whose own width would be 4 — a shrink by less
        # than the hysteresis factor, so the stripe holds its width.
        mixed = []
        for i in range(2400):
            packet = Packet(size=1000, seq=i)
            packet.flow = None if i % 2 else "other"
            mixed.append(packet)
        drive(disc, mixed)
        share = disc.estimator.share(disc._stripe(None).rate_state)
        assert stripe_size_for(share, 6) == 4
        assert len(stripe_of(disc, None)) == 6

    def test_reset_clears_flows(self):
        disc = SprinklersDiscipline(4)
        drive(disc, [Packet(size=1000, seq=0)])
        assert disc.flow_count == 1
        disc.reset()
        assert disc.flow_count == 0
        assert disc.resizes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SprinklersDiscipline(0)
        with pytest.raises(ValueError):
            SprinklersDiscipline(2, initial_share=1.5)

    def test_marker_free_declaration(self):
        assert SprinklersDiscipline.marker_free is True
        assert SprinklersDiscipline.simulatable is False


def deliver_equal_rate(assignments, n_channels):
    """Delivery order over equal-rate FIFO channels, equal-size packets.

    Deterministic channel model: per time step every channel delivers its
    head-of-queue packet, ties broken by channel index — the idealized
    "stable channels" of the in-order proof obligation.
    """
    queues = [[] for _ in range(n_channels)]
    for seq, channel in assignments:
        queues[channel].append(seq)
    order = []
    while any(queues):
        for queue in queues:
            if queue:
                order.append(queue.pop(0))
    return order


class TestInOrderProofObligations:
    """The design's ordering guarantees, as property tests."""

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_stable_stripe_visits_members_cyclically(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([2, 4, 8])
        disc = SprinklersDiscipline(n, initial_share=1.0)
        flow = f"flow-{seed}"
        packets = []
        for i in range(rng.randrange(20, 120)):
            packet = Packet(size=1000, seq=i)
            packet.flow = flow
            packets.append(packet)
        channels = drive(disc, packets)
        stripe = stripe_of(disc, flow)
        assert len(stripe) == n
        start = stripe.index(channels[0])
        expected = [stripe[(start + i) % n] for i in range(len(channels))]
        assert channels == expected

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_elephant_in_order_over_stable_channels(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([2, 4])
        disc = SprinklersDiscipline(n, initial_share=1.0)
        count = rng.randrange(16, 200)
        packets = [Packet(size=1000, seq=i) for i in range(count)]
        channels = drive(disc, packets)
        order = deliver_equal_rate(list(enumerate(channels)), n)
        assert order == sorted(order)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_mice_per_flow_fifo_always(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([2, 4, 8])
        disc = SprinklersDiscipline(n)  # all flows start as mice
        flows = [f"m{i}" for i in range(rng.randrange(2, 12))]
        assignments = []
        for i in range(300):
            packet = Packet(size=rng.choice([200, 1000, 1460]), seq=i)
            packet.flow = rng.choice(flows)
            channel = disc.choose(packet, None)
            disc.notify_sent(channel, packet)
            assignments.append((packet, channel))
        # Width-1 stripes: each flow rides exactly one FIFO channel, so
        # per-flow order survives arbitrary cross-channel timing.
        per_flow_channels = {}
        for packet, channel in assignments:
            per_flow_channels.setdefault(packet.flow, set()).add(channel)
        for flow, used in per_flow_channels.items():
            if len(stripe_of(disc, flow)) == 1:
                assert len(used) <= 2  # at most one resize while growing
