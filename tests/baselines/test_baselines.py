"""Unit tests for the comparison striping schemes (section 2.1)."""

import random

import pytest

from repro.baselines.address_hash import AddressHashing, stable_hash
from repro.baselines.random_selection import RandomSelection
from repro.baselines.sqf import ShortestQueueFirst
from repro.core.packet import Packet
from repro.core.transform import stripe_sequence
from tests.conftest import bytes_per_channel, make_packets


class TestShortestQueueFirst:
    def test_picks_shortest(self):
        sqf = ShortestQueueFirst(3)
        assert sqf.choose(Packet(100), [5, 2, 9]) == 1

    def test_tie_goes_to_lowest_index(self):
        sqf = ShortestQueueFirst(3)
        assert sqf.choose(Packet(100), [4, 4, 4]) == 0

    def test_adapts_to_channel_speed(self):
        """Draining one queue faster attracts more packets to it."""
        sqf = ShortestQueueFirst(2)
        depths = [0, 0]
        assigned = [0, 0]
        for i in range(300):
            channel = sqf.choose(Packet(100), depths)
            assigned[channel] += 1
            depths[channel] += 1
            sqf.notify_sent(channel, None)
            # channel 0 drains 3x faster
            if i % 1 == 0 and depths[0] > 0:
                depths[0] = max(0, depths[0] - 3)
            if i % 3 == 0 and depths[1] > 0:
                depths[1] -= 1
        assert assigned[0] > assigned[1]

    def test_fallback_without_depths(self):
        sqf = ShortestQueueFirst(2)
        choice = sqf.choose(Packet(100), None)
        sqf.notify_sent(choice, None)
        assert sqf.choose(Packet(100), None) == (choice + 1) % 2

    def test_not_simulatable(self):
        assert ShortestQueueFirst(2).simulatable is False

    def test_validation(self):
        with pytest.raises(ValueError):
            ShortestQueueFirst(0)


class TestRandomSelection:
    def test_roughly_uniform(self):
        policy = RandomSelection(3, rng=random.Random(1))
        counts = [0, 0, 0]
        for _ in range(3000):
            channel = policy.choose(Packet(100))
            counts[channel] += 1
            policy.notify_sent(channel, None)
        assert min(counts) > 800

    def test_choice_latched_until_notify(self):
        policy = RandomSelection(5, rng=random.Random(2))
        first = policy.choose(Packet(100))
        assert policy.choose(Packet(100)) == first
        policy.notify_sent(first, None)

    def test_reset_clears_latch(self):
        policy = RandomSelection(5, rng=random.Random(3))
        policy.choose(Packet(100))
        policy.reset()  # no stale latch crash afterwards
        policy.choose(Packet(100))

    def test_expected_byte_fairness(self):
        policy = RandomSelection(2, rng=random.Random(4))
        packets = make_packets([100] * 5000)
        channels = stripe_sequence(policy, packets)
        totals = bytes_per_channel(channels)
        assert abs(totals[0] - totals[1]) / sum(totals) < 0.05


class TestAddressHashing:
    def test_same_flow_same_channel(self):
        policy = AddressHashing(4)
        a = [policy.choose(Packet(100, flow="10.0.0.1")) for _ in range(20)]
        assert len(set(a)) == 1

    def test_flows_spread_across_channels(self):
        policy = AddressHashing(4)
        channels = {
            policy.choose(Packet(100, flow=f"10.0.0.{i}")) for i in range(64)
        }
        assert len(channels) == 4

    def test_per_flow_fifo_but_poor_sharing(self):
        """All traffic to one destination lands on one channel: zero load
        sharing for a single flow — the paper's criticism."""
        policy = AddressHashing(4)
        packets = make_packets([1000] * 100)
        for p in packets:
            p.flow = "the-one-destination"
        channels = stripe_sequence(policy, packets)
        nonempty = [c for c in channels if c]
        assert len(nonempty) == 1
        assert len(nonempty[0]) == 100

    def test_stable_hash_is_process_independent(self):
        assert stable_hash("x", 16) == stable_hash("x", 16)
        assert stable_hash("x", 16) != stable_hash("y", 16) or True  # may collide

    def test_capabilities(self):
        assert AddressHashing(2).capabilities.fifo_delivery == "per_flow_fifo"
