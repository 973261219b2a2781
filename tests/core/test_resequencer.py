"""Unit tests for logical reception (Theorem 4.1) and the null ablation."""

import random

import pytest

from repro.core.packet import MarkerPacket, Packet
from repro.core.resequencer import NullResequencer, Resequencer
from repro.core.schemes import SeededRandomFQ
from repro.core.srr import SRR, make_rr
from repro.core.transform import TransformedLoadSharer, stripe_sequence
from tests.conftest import make_packets, random_sizes


def roundtrip(algorithm, packets, interleave_seed=None):
    """Stripe packets, then feed the channels to a Resequencer in some
    physical arrival order; return the delivered sequence."""
    sharer = TransformedLoadSharer(algorithm)
    channels = stripe_sequence(sharer, packets)
    receiver = Resequencer(algorithm)
    delivered = []
    receiver.on_deliver = delivered.append

    arrivals = [(c, p) for c, stream in enumerate(channels) for p in stream]
    if interleave_seed is None:
        # channel-major order: worst-case skew (whole channels early)
        pass
    else:
        # random interleaving that preserves per-channel order
        rng = random.Random(interleave_seed)
        positions = [0] * len(channels)
        arrivals = []
        remaining = sum(len(s) for s in channels)
        while remaining:
            candidates = [
                c for c in range(len(channels))
                if positions[c] < len(channels[c])
            ]
            c = rng.choice(candidates)
            arrivals.append((c, channels[c][positions[c]]))
            positions[c] += 1
            remaining -= 1
    for channel, packet in arrivals:
        receiver.push(channel, packet)
    return delivered


class TestTheorem41:
    """No loss ⇒ receiver output order == sender input order."""

    def test_srr_roundtrip_channel_major(self):
        packets = make_packets(random_sizes(120, seed=5))
        delivered = roundtrip(SRR([500, 700]), packets)
        assert [p.seq for p in delivered] == [p.seq for p in packets]

    def test_srr_roundtrip_random_interleavings(self):
        packets = make_packets(random_sizes(120, seed=6))
        for seed in range(5):
            delivered = roundtrip(
                SRR([500, 700, 300]), packets, interleave_seed=seed
            )
            assert [p.seq for p in delivered] == [p.seq for p in packets]

    def test_rr_roundtrip(self):
        packets = make_packets(random_sizes(60, seed=7))
        delivered = roundtrip(make_rr(4), packets, interleave_seed=1)
        assert [p.seq for p in delivered] == [p.seq for p in packets]

    def test_seeded_random_fq_roundtrip(self):
        packets = make_packets(random_sizes(80, seed=8))
        delivered = roundtrip(
            SeededRandomFQ(3, seed=13), packets, interleave_seed=2
        )
        assert [p.seq for p in delivered] == [p.seq for p in packets]


class TestBlocking:
    def test_blocks_on_expected_channel(self):
        srr = SRR([500, 500])
        receiver = Resequencer(srr)
        # Sender sends packet 0 (600B, exhausting channel 0's quantum) on
        # channel 0, then packet 1 on channel 1.  If packet 1 physically
        # arrives first, it must wait.
        out = receiver.push(1, Packet(400, seq=1))
        assert out == []
        assert receiver.buffered == 1
        out = receiver.push(0, Packet(600, seq=0))
        assert [p.seq for p in out] == [0, 1]
        assert receiver.buffered == 0

    def test_expected_channel_tracks_state(self):
        srr = SRR([500, 500])
        receiver = Resequencer(srr)
        assert receiver.kernel.peek() == 0
        receiver.push(0, Packet(600, seq=0))  # exhausts ch0's quantum
        assert receiver.kernel.peek() == 1

    def test_max_buffered_statistic(self):
        receiver = Resequencer(SRR([500, 500]))
        for i in range(5):
            receiver.push(1, Packet(100, seq=i))
        assert receiver.max_buffered == 5

    def test_markers_are_discarded(self):
        receiver = Resequencer(SRR([500, 500]))
        out = receiver.push(0, MarkerPacket(channel=0, round_number=1, deficit=500))
        assert out == []
        out = receiver.push(0, Packet(100, seq=0))
        assert [p.seq for p in out] == [0]

    def test_invalid_channel(self):
        receiver = Resequencer(SRR([500, 500]))
        with pytest.raises(ValueError):
            receiver.push(2, Packet(100))


class TestNullResequencer:
    def test_delivers_in_arrival_order(self):
        receiver = NullResequencer(2)
        delivered = []
        receiver.on_deliver = delivered.append
        receiver.push(1, Packet(100, seq=5))
        receiver.push(0, Packet(100, seq=0))
        assert [p.seq for p in delivered] == [5, 0]
        assert receiver.delivered == 2

    def test_never_buffers(self):
        receiver = NullResequencer(2)
        receiver.push(1, Packet(100, seq=1))
        assert receiver.buffered == 0

    def test_drops_markers(self):
        receiver = NullResequencer(2)
        out = receiver.push(0, MarkerPacket(channel=0, round_number=1, deficit=1))
        assert out == []

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            NullResequencer(0)

    def test_invalid_channel(self):
        receiver = NullResequencer(2)
        with pytest.raises(ValueError):
            receiver.push(5, Packet(100))
