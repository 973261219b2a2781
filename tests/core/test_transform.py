"""Unit tests for the CFQ → load-sharing transformation (Theorem 3.1)."""

import pytest

from repro.core.packet import Packet
from repro.core.schemes import SeededRandomFQ
from repro.core.srr import SRR, make_grr, make_rr
from repro.core.transform import (
    TransformedLoadSharer,
    stripe_sequence,
    verify_reverse_correspondence,
)
from tests.conftest import bytes_per_channel, make_packets, random_sizes


class TestTransformedLoadSharer:
    def test_paper_example_striping(self):
        """Figure 3: striping the FQ output re-creates the original queues."""
        packets = make_packets([550, 200, 400, 150, 300, 400], labels="adebcf")
        sharer = TransformedLoadSharer(SRR([500, 500]))
        channels = stripe_sequence(sharer, packets)
        assert [p.label for p in channels[0]] == ["a", "b", "c"]
        assert [p.label for p in channels[1]] == ["d", "e", "f"]

    def test_choose_is_stable_until_notify(self):
        sharer = TransformedLoadSharer(SRR([500, 500]))
        packet = Packet(100)
        assert sharer.choose(packet) == sharer.choose(packet)

    def test_notify_wrong_channel_rejected(self):
        sharer = TransformedLoadSharer(SRR([500, 500]))
        packet = Packet(100)
        expected = sharer.choose(packet)
        with pytest.raises(ValueError):
            sharer.notify_sent((expected + 1) % 2, packet)

    def test_reset_restores_initial_behaviour(self):
        sharer = TransformedLoadSharer(SRR([500, 500]))
        packets = make_packets([400, 400, 400])
        first = stripe_sequence(sharer, packets)
        sharer.reset()
        second = stripe_sequence(sharer, packets)
        assert [[p.uid for p in c] for c in first] == [
            [p.uid for p in c] for c in second
        ]

    def test_simulatable_flag(self):
        assert TransformedLoadSharer(SRR([500, 500])).simulatable is True

    def test_capabilities_inherited(self):
        sharer = TransformedLoadSharer(make_rr(2))
        assert sharer.capabilities.load_sharing == "poor"


class TestReverseCorrespondence:
    """Theorem 3.1's proof construction, executed."""

    @pytest.mark.parametrize("quanta", [[500, 500], [1500, 2070], [300, 700, 500]])
    def test_srr(self, quanta):
        packets = make_packets(random_sizes(200, seed=1))
        assert verify_reverse_correspondence(SRR(quanta), packets)

    def test_rr(self):
        packets = make_packets(random_sizes(100, seed=2))
        assert verify_reverse_correspondence(make_rr(3), packets)

    def test_grr(self):
        packets = make_packets(random_sizes(100, seed=3))
        assert verify_reverse_correspondence(make_grr([3, 1, 2]), packets)

    def test_seeded_random_fq(self):
        """Even a randomized CFQ is reversible when the PRNG state is part
        of the algorithm state."""
        packets = make_packets(random_sizes(150, seed=4))
        assert verify_reverse_correspondence(SeededRandomFQ(3, seed=9), packets)

    def test_empty_input(self):
        assert verify_reverse_correspondence(SRR([500, 500]), [])


class TestBytesPerChannel:
    def test_totals(self):
        packets = make_packets([100, 200, 300, 400])
        sharer = TransformedLoadSharer(make_rr(2))
        channels = stripe_sequence(sharer, packets)
        totals = bytes_per_channel(channels)
        assert sum(totals) == 1000
        assert totals == [400, 600]  # RR: 100+300 / 200+400

    def test_srr_balances_adversarial_alternation(self):
        """The paper's GRR adversary: big/small alternating.  SRR stays
        balanced; RR does not."""
        sizes = [1000, 200] * 100
        packets = make_packets(sizes)
        srr_channels = stripe_sequence(
            TransformedLoadSharer(SRR([1500, 1500])), packets
        )
        rr_channels = stripe_sequence(
            TransformedLoadSharer(make_rr(2)), packets
        )
        srr_totals = bytes_per_channel(srr_channels)
        rr_totals = bytes_per_channel(rr_channels)
        assert abs(srr_totals[0] - srr_totals[1]) <= 1000 + 2 * 1500
        assert abs(rr_totals[0] - rr_totals[1]) == pytest.approx(80000)
