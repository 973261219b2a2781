"""Unit tests for packet types and the randomized CFQ schemes.

:class:`WeightedRandomFQ`, a contrast case for fairness tests, lives here
with its tests, its only users."""

import dataclasses
import random
from typing import Any, Sequence, Tuple

import pytest

from repro.core.packet import (
    POOL_MAX_SIZE,
    Codepoint,
    MarkerPacket,
    Packet,
    PacketPool,
    SackInfo,
    is_marker,
)
from repro.core.cfq import Capabilities, CausalFQ
from repro.core.schemes import RandomFQState, SeededRandomFQ
from repro.core.transform import (
    TransformedLoadSharer,
    stripe_sequence,
)
from tests.conftest import bytes_per_channel, make_packets


class WeightedRandomFQ(CausalFQ):
    """Random selection with per-channel weights (probability ∝ weight)."""

    capabilities = Capabilities(
        fifo_delivery="quasi",
        load_sharing="good",
        environment="At all levels (requires shared seed)",
    )

    def __init__(self, weights: Sequence[float], seed: int = 0) -> None:
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = tuple(float(w) for w in weights)
        self.seed = seed
        total = sum(self.weights)
        self._cumulative = []
        acc = 0.0
        for w in self.weights:
            acc += w / total
            self._cumulative.append(acc)

    @property
    def n_channels(self) -> int:
        return len(self.weights)

    def initial_state(self) -> RandomFQState:
        return RandomFQState(random.Random(self.seed).getstate())

    def _pick(self, rng_state: Tuple[Any, ...]) -> Tuple[int, Tuple[Any, ...]]:
        rng = random.Random()
        rng.setstate(rng_state)
        u = rng.random()
        for i, edge in enumerate(self._cumulative):
            if u < edge:
                return i, rng.getstate()
        return len(self.weights) - 1, rng.getstate()

    def select(self, state: RandomFQState) -> int:
        value, _ = self._pick(state.rng_state)
        return value

    def update(self, state: RandomFQState, size: int) -> RandomFQState:
        _, new_state = self._pick(state.rng_state)
        return RandomFQState(new_state)


class TestPacket:
    def test_unique_uids(self):
        a, b = Packet(100), Packet(100)
        assert a.uid != b.uid

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Packet(0)
        with pytest.raises(ValueError):
            Packet(-5)

    def test_default_codepoint_is_data(self):
        assert Packet(100).codepoint == Codepoint.DATA
        assert not is_marker(Packet(100))

    def test_marker_codepoint(self):
        marker = MarkerPacket(channel=0, round_number=1, deficit=100.0)
        assert marker.codepoint == Codepoint.MARKER
        assert is_marker(marker)

    def test_is_marker_on_foreign_object(self):
        class Foreign:
            pass

        assert not is_marker(Foreign())

    def test_repr_contains_label(self):
        assert "a" in repr(Packet(100, label="a"))
        assert "G=3" in repr(MarkerPacket(channel=1, round_number=3, deficit=9))


def _field_defaults(cls):
    """``[(name, default)]`` in field order; ``"drawn"`` for a factory."""
    return [
        (
            f.name,
            "drawn" if f.default_factory is not dataclasses.MISSING
            else f.default,
        )
        for f in dataclasses.fields(cls)
    ]


class TestWireTypeConstructors:
    """The hot wire types have hand-written one-frame constructors; this
    pins what the generated ones gave: field order, defaults, slots,
    ``eq`` / ``repr`` and the exact errors."""

    def test_fields_defaults_and_slots(self):
        from repro.transport.reliability import AckPacket

        required = dataclasses.MISSING
        assert _field_defaults(Packet) == [
            ("size", required), ("seq", None), ("label", None),
            ("flow", None), ("payload", None), ("uid", "drawn"),
            ("codepoint", "data"), ("rseq", None), ("fseq", None),
            ("synthesized", False),
        ]
        assert _field_defaults(MarkerPacket) == [
            ("channel", required), ("round_number", required),
            ("deficit", required), ("credit", None), ("uid", "drawn"),
            ("codepoint", "marker"),
        ]
        assert MarkerPacket.size == 32  # the codec's frame, not a field
        assert _field_defaults(SackInfo) == [
            ("cum_ack", required), ("blocks", ()), ("acks", 1),
        ]
        assert _field_defaults(AckPacket) == [
            ("sack", required), ("size", 0), ("uid", "drawn"),
            ("codepoint", "ack"), ("epoch", 0),
        ]
        for cls in (Packet, MarkerPacket):
            names = tuple(f.name for f in dataclasses.fields(cls))
            assert cls.__slots__ == names
            assert not hasattr(cls(*range(1, 4)), "__dict__")
        for cls in (SackInfo, AckPacket):
            assert not hasattr(cls, "__slots__")

    def test_positional_order_and_defaults_reach_the_fields(self):
        from repro.transport.reliability import AckPacket

        packet = Packet(100, 3, "a", "flow", b"p", 7, "x", 1, 2, True)
        assert dataclasses.astuple(packet) == (
            100, 3, "a", "flow", b"p", 7, "x", 1, 2, True
        )
        bare = Packet(5)
        assert dataclasses.astuple(bare)[:5] == (5, None, None, None, None)
        assert dataclasses.astuple(bare)[6:] == ("data", None, None, False)
        marker = MarkerPacket(2, 9, 4.5, 6, 8, "m")
        assert (
            marker.channel, marker.round_number, marker.deficit,
            marker.credit, marker.uid, marker.codepoint,
        ) == (2, 9, 4.5, 6, 8, "m")
        bare = MarkerPacket(0, 1, 2.0)
        assert (bare.size, bare.credit) == (32, None)
        sack = SackInfo(5, ((7, 9),))
        assert (sack.cum_ack, sack.blocks, sack.acks) == (5, ((7, 9),), 1)
        assert SackInfo(5).blocks == ()
        assert SackInfo(5, (), 3).acks == 3
        ack = AckPacket(sack, 99, 4, "c", 3)
        assert (ack.sack, ack.size, ack.uid, ack.codepoint, ack.epoch) == (
            sack, 99, 4, "c", 3
        )
        ack = AckPacket(sack)
        assert (ack.size, ack.codepoint, ack.epoch) == (16 + 8, "ack", 0)
        assert AckPacket(SackInfo(0)).size == 16

    def test_uids_are_drawn_once_per_object_unless_given(self):
        from repro.transport.reliability import AckPacket

        first = Packet(1)
        given = Packet(1, uid=first.uid)  # draws nothing
        marker = MarkerPacket(0, 1, 2.0)  # same counter as data packets
        after = Packet(1)
        assert (given.uid, marker.uid, after.uid) == (
            first.uid, first.uid + 1, first.uid + 2
        )
        a, b = AckPacket(SackInfo(0)), AckPacket(SackInfo(0))
        assert b.uid == a.uid + 1

    def test_eq_repr_and_frozen_sack(self):
        from repro.transport.reliability import AckPacket

        assert Packet(5, uid=1) == Packet(5, uid=1)
        assert Packet(5, uid=1) != Packet(5, uid=1, rseq=0)
        assert MarkerPacket(0, 1, 2.0, uid=1) == MarkerPacket(0, 1, 2.0, uid=1)
        assert MarkerPacket(0, 1, 2.0, uid=1) != MarkerPacket(0, 1, 2.5, uid=1)
        sack = SackInfo(5, ((7, 9),))
        assert sack == SackInfo(5, ((7, 9),)) and sack != SackInfo(5)
        assert sack != SackInfo(5, ((7, 9),), 2)
        assert hash(sack) == hash(SackInfo(5, ((7, 9),)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sack.cum_ack = 6
        assert AckPacket(sack, uid=1) == AckPacket(sack, uid=1)
        assert repr(Packet(100, seq=7)) == "Packet(7, 100B)"
        assert repr(Packet(100, seq=7, label="a")) == "Packet(a, 100B)"
        assert repr(MarkerPacket(1, 3, 9.0)) == "Marker(ch=1, G=3, DC=9.0)"
        assert repr(sack) == "SackInfo(cum_ack=5, blocks=((7, 9),), acks=1)"
        assert repr(AckPacket(sack)) == "AckPacket(cum=5, blocks=[(7, 9)])"

    def test_exact_errors(self):
        with pytest.raises(ValueError) as error:
            Packet(0)
        assert str(error.value) == "packet size must be positive, got 0"
        with pytest.raises(ValueError) as error:
            SackInfo(5, ((7, 9), (4, 6)))
        assert str(error.value) == "bad SACK block [4, 6) for cum 5"
        with pytest.raises(ValueError) as error:
            SackInfo(5, ((7, 7),))
        assert str(error.value) == "bad SACK block [7, 7) for cum 5"
        with pytest.raises(TypeError):
            Packet()
        with pytest.raises(TypeError):
            MarkerPacket(0, 1)


class TestSeededRandomFQ:
    def test_select_does_not_advance_state(self):
        fq = SeededRandomFQ(4, seed=1)
        state = fq.initial_state()
        assert fq.select(state) == fq.select(state)

    def test_update_advances(self):
        fq = SeededRandomFQ(4, seed=1)
        state = fq.initial_state()
        choices = []
        for _ in range(20):
            choices.append(fq.select(state))
            state = fq.update(state, 100)
        assert len(set(choices)) > 1  # actually random

    def test_shared_seed_gives_identical_sequences(self):
        a = SeededRandomFQ(3, seed=5)
        b = SeededRandomFQ(3, seed=5)
        sa, sb = a.initial_state(), b.initial_state()
        for _ in range(50):
            assert a.select(sa) == b.select(sb)
            sa = a.update(sa, 77)
            sb = b.update(sb, 77)

    def test_expected_fairness(self):
        """Randomized fairness: expected bytes per channel roughly equal."""
        fq = SeededRandomFQ(2, seed=3)
        packets = make_packets([100] * 4000)
        channels = stripe_sequence(TransformedLoadSharer(fq), packets)
        totals = bytes_per_channel(channels)
        assert abs(totals[0] - totals[1]) / sum(totals) < 0.05

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            SeededRandomFQ(0)


class TestWeightedRandomFQ:
    def test_weight_proportional_selection(self):
        fq = WeightedRandomFQ([3, 1], seed=2)
        state = fq.initial_state()
        counts = [0, 0]
        for _ in range(4000):
            counts[fq.select(state)] += 1
            state = fq.update(state, 100)
        ratio = counts[0] / counts[1]
        assert 2.4 < ratio < 3.6

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            WeightedRandomFQ([])
        with pytest.raises(ValueError):
            WeightedRandomFQ([1, 0])


class TestPacketPool:
    def test_fresh_allocation_when_empty(self):
        pool = PacketPool()
        packet = pool.acquire(100, seq=1)
        assert packet.size == 100 and packet.seq == 1
        assert (pool.allocated, pool.reused, pool.released) == (1, 0, 0)
        assert pool.double_releases == 0 and not pool._free

    def test_reacquired_packet_is_reset_with_fresh_uid(self):
        pool = PacketPool()
        packet = pool.acquire(100, seq=1, flow="f", payload="old")
        packet.label = "stale"
        packet.rseq = 7
        packet.codepoint = Codepoint.MARKER
        old_uid = packet.uid
        pool.release(packet)
        recycled = pool.acquire(200, seq=2)
        assert recycled is packet  # same object, recycled
        assert recycled.uid != old_uid
        assert recycled.size == 200 and recycled.seq == 2
        assert recycled.label is None and recycled.rseq is None
        assert recycled.flow is None and recycled.payload is None
        assert recycled.codepoint == Codepoint.DATA
        assert not is_marker(recycled)
        assert pool.reused == 1 and pool.released == 1

    def test_only_plain_packets_are_pooled(self):
        pool = PacketPool()
        pool.release(MarkerPacket(round_number=1, deficit=0.0, channel=0))
        pool.release("not a packet")
        assert len(pool._free) == 0

    def test_free_list_capped_at_max_size(self):
        pool = PacketPool()
        packets = [Packet(100) for _ in range(POOL_MAX_SIZE + 2)]
        for packet in packets:
            pool.release(packet)
        assert pool.released == POOL_MAX_SIZE
        assert len(pool._free) == POOL_MAX_SIZE
