"""Unit tests for the FEC transport layer (:mod:`repro.transport.fec`).

Drives :class:`FecSender` / :class:`FecReceiver` directly against
hand-rolled downstreams — no channels, no striper — so every group
lifecycle (seal by count, seal by timeout, decode, gap-skip, escalation)
is observable in isolation.
"""

import pytest

from repro.core.packet import Codepoint, Packet, PacketPool, is_parity
from repro.transport.fec import (
    PARITY_HEADER_BYTES,
    FecReceiver,
    FecSender,
    ParityPacket,
    packet_from_shard,
    shard_for,
)


def _packet(seq, payload=b"x" * 10, size=100):
    return Packet(size=size, seq=seq, payload=payload)


class _Tap:
    """Records everything submitted through it."""

    def __init__(self):
        self.packets = []
        self.parity = []

    def submit(self, packet):
        self.packets.append(packet)

    def stripe_parity(self, parity):
        self.parity.extend(parity)


def make_sender(sim=None, **kw):
    tap = _Tap()
    sender = FecSender(tap.submit, tap.stripe_parity, sim=sim, **kw)
    return sender, tap


# --------------------------------------------------------------------- #
# shard round-trip


def test_shard_round_trip_restores_fields():
    packet = _packet(42, payload=b"hello", size=77)
    packet.rseq = 9
    rebuilt = packet_from_shard(shard_for(packet), fseq=5)
    assert rebuilt.size == 77
    assert rebuilt.seq == 42
    assert rebuilt.rseq == 9
    assert rebuilt.fseq == 5
    assert rebuilt.payload == b"hello"
    assert rebuilt.synthesized
    assert rebuilt.uid != packet.uid


def test_shard_round_trip_none_fields_and_padding():
    packet = Packet(size=10, seq=None, payload=None)
    shard = shard_for(packet).ljust(64, b"\x00")  # decoder-side padding
    rebuilt = packet_from_shard(shard, fseq=0)
    assert rebuilt.seq is None and rebuilt.rseq is None
    assert rebuilt.payload is None


def test_empty_payload_is_not_no_payload():
    """``b""`` and ``None`` share a shard size but come back as themselves."""
    empty = Packet(size=10, seq=1, payload=b"")
    absent = Packet(size=10, seq=2, payload=None)
    assert len(shard_for(empty)) == len(shard_for(absent))
    assert packet_from_shard(shard_for(empty), fseq=0).payload == b""
    assert packet_from_shard(shard_for(absent), fseq=0).payload is None


def test_reconstruction_keeps_empty_and_absent_payloads():
    sender, receiver, delivered = _wire(drop={0, 2}, k=3, m=2)
    for seq, payload in enumerate([b"", b"x", None]):
        sender.submit(_packet(seq, payload=payload))
    assert [p.seq for p in delivered] == [0, 1, 2]
    assert delivered[0].synthesized and delivered[0].payload == b""
    assert delivered[2].synthesized and delivered[2].payload is None


def test_non_bytes_payload_rejected():
    with pytest.raises(TypeError):
        shard_for(Packet(size=10, seq=0, payload={"not": "bytes"}))


# --------------------------------------------------------------------- #
# sender: group sealing


def test_sender_seals_on_count_and_stripes_parity():
    sender, tap = make_sender(k=3, m=2)
    for i in range(6):
        sender.submit(_packet(i))
    assert [p.fseq for p in tap.packets] == list(range(6))
    assert len(tap.parity) == 4  # two groups x two parity shards
    assert all(is_parity(p) for p in tap.parity)
    assert [p.group for p in tap.parity] == [0, 0, 3, 3]
    assert [p.index for p in tap.parity] == [0, 1, 0, 1]
    assert all(p.members == 3 and p.nparity == 2 for p in tap.parity)
    assert sender.stats.count_sealed == 2
    assert sender.stats.timeout_sealed == 0


def test_sender_downstream_called_before_absorb():
    """Hybrid contract: the shard must capture the downstream-stamped rseq."""
    sender, tap = make_sender(k=2, m=1)

    def stamping_downstream(packet):
        packet.rseq = 1000 + packet.seq
        tap.submit(packet)

    sender._downstream = stamping_downstream
    sender.submit(_packet(0))
    sender.submit(_packet(1))
    (parity,) = tap.parity
    # XOR of the two shards must reflect the stamped rseqs: rebuild shard 0
    # from parity + shard 1 and check its rseq survived.
    shard1 = shard_for(tap.packets[1])
    shard0 = bytes(a ^ b for a, b in zip(parity.payload, shard1))
    assert packet_from_shard(shard0, fseq=0).rseq == 1000


def test_sender_seal_timeout_closes_partial_group(sim):
    sender, tap = make_sender(sim=sim, k=4, m=1, seal_timeout_s=0.01)
    sender.submit(_packet(0))
    sender.submit(_packet(1))
    assert not tap.parity
    sim.run(until=0.02)
    assert len(tap.parity) == 1
    assert tap.parity[0].members == 2
    assert sender.stats.timeout_sealed == 1


def test_sender_flush_seals_immediately():
    sender, tap = make_sender(k=4, m=2)
    sender.submit(_packet(0))
    sender.flush()
    assert len(tap.parity) == 2
    assert tap.parity[0].members == 1
    sender.flush()  # idempotent on an empty group
    assert len(tap.parity) == 2


def test_sender_submit_many_batches_downstream():
    tap = _Tap()
    batches = []
    sender = FecSender(
        tap.submit, tap.stripe_parity, k=3, m=1,
        downstream_many=lambda ps: batches.append(list(ps)),
    )
    sender.submit_many([_packet(i) for i in range(3)])
    assert len(batches) == 1 and len(batches[0]) == 3
    assert len(tap.parity) == 1


def test_parity_packet_size_accounts_header():
    parity = ParityPacket(
        group=0, members=3, index=0, nparity=1, shard_len=50,
        payload=b"\x00" * 50,
    )
    assert parity.size == 50 + PARITY_HEADER_BYTES
    assert parity.codepoint == Codepoint.PARITY


# --------------------------------------------------------------------- #
# receiver: reconstruction


def _wire(sim=None, *, drop=(), k=3, m=2, **kw):
    """Sender and receiver glued by an in-order lossy wire."""
    delivered = []
    receiver = FecReceiver(delivered.append, k=k, m=m, sim=sim, **kw)

    def wire(packet):
        if getattr(packet, "fseq", None) in drop:
            return
        receiver.on_packet(packet)

    sender = FecSender(wire, lambda ps: [wire(p) for p in ps], sim=sim, k=k, m=m)
    return sender, receiver, delivered


def test_receiver_reconstructs_dropped_members_in_order():
    sender, receiver, delivered = _wire(drop={1, 5})
    originals = [_packet(i, payload=bytes([i]) * (10 + i)) for i in range(9)]
    for packet in originals:
        sender.submit(packet)
    assert [p.seq for p in delivered] == list(range(9))
    for seq in (1, 5):
        rebuilt = delivered[seq]
        assert rebuilt.synthesized
        assert rebuilt.payload == originals[seq].payload
        assert rebuilt.size == originals[seq].size
        assert rebuilt.uid != originals[seq].uid
    assert receiver.stats.reconstructed == 2
    assert receiver.stats.groups_decoded == 2
    # Resolved groups release their cached state.
    assert not receiver._shards and not receiver._base_of


def test_receiver_unordered_mode_passes_through_and_fills_holes():
    delivered = []
    receiver = FecReceiver(delivered.append, k=2, m=1, ordered=False)
    sender = FecSender(
        lambda p: p.fseq != 0 and receiver.on_packet(p),
        lambda ps: [receiver.on_packet(p) for p in ps],
        k=2, m=1,
    )
    sender.submit(_packet(0))
    sender.submit(_packet(1))
    # Hybrid ordering is ARQ's job: the survivor arrives first, the
    # reconstruction after parity.
    assert [p.seq for p in delivered] == [1, 0]
    assert delivered[1].synthesized


def test_receiver_duplicate_data_counted_once():
    delivered = []
    receiver = FecReceiver(delivered.append, k=2, m=1)
    sender = FecSender(receiver.on_packet, lambda ps: None, k=2, m=1)
    packet = _packet(0)
    sender.submit(packet)
    receiver.on_packet(packet)  # replayed arrival
    assert receiver.stats.duplicate_packets == 1
    assert len(delivered) == 1


def test_receiver_late_parity_after_resolve_is_noop():
    sender, receiver, delivered = _wire(k=2, m=2)
    held = []
    sender._stripe_parity = lambda ps: held.extend(ps)
    sender.submit(_packet(0))
    sender.submit(_packet(1))
    receiver.on_packet(held[0])  # group complete -> resolves
    assert receiver.stats.groups_resolved == 1
    receiver.on_packet(held[1])  # sibling of a settled group
    assert receiver.stats.groups_resolved == 1
    assert len(delivered) == 2


def test_receiver_group_timeout_gives_up_and_skips(sim):
    """Losses beyond m: the group times out, the gap-skip timer advances
    past the dead positions, and later traffic keeps flowing."""
    sender, receiver, delivered = _wire(
        sim=sim, drop={0, 1}, k=3, m=1, group_timeout_s=0.05,
    )
    for i in range(6):
        sender.submit(_packet(i))
    sim.run(until=1.0)
    assert [p.seq for p in delivered] == [2, 3, 4, 5]
    assert receiver.stats.unrecoverable_groups == 1
    assert receiver.stats.skipped == 2


def test_receiver_escalates_after_consecutive_failures(sim):
    escalations = []
    sender, receiver, delivered = _wire(
        sim=sim, drop={0, 1, 3, 4, 6, 7}, k=3, m=1,
        group_timeout_s=0.05, escalate_after=3,
        on_escalate=escalations.append,
    )
    for i in range(9):
        sender.submit(_packet(i))
    sim.run(until=1.0)
    assert receiver.stats.unrecoverable_groups == 3
    assert len(escalations) == 1
    assert receiver.stats.escalations == 1
    # A successful group resets the streak.
    assert receiver._consecutive_failures == 0


def test_receiver_recovered_group_resets_failure_streak(sim):
    escalations = []
    sender, receiver, delivered = _wire(
        sim=sim, drop={0, 1}, k=3, m=1,
        group_timeout_s=0.05, escalate_after=2,
        on_escalate=escalations.append,
    )
    for i in range(9):
        sender.submit(_packet(i))  # group 0 fails; groups 1, 2 clean
    sim.run(until=1.0)
    assert receiver.stats.unrecoverable_groups == 1
    assert not escalations


# --------------------------------------------------------------------- #
# pool contract (satellite: reconstructed packets never re-enter a pool)


def test_pool_refuses_synthesized_packets():
    pool = PacketPool(max_size=4)
    original = pool.acquire(size=100, seq=0, payload=b"data")
    rebuilt = packet_from_shard(shard_for(original), fseq=0)
    assert rebuilt.synthesized
    pool.release(rebuilt)
    assert pool.released == 0, "synthesized packet entered the pool"
    recycled = pool.acquire(size=50, seq=1)
    assert recycled.uid != rebuilt.uid
    # Fresh acquisitions never resurrect FEC state.
    assert recycled.fseq is None and not recycled.synthesized
    pool.release(original)
    assert pool.released == 1


# --------------------------------------------------------------------- #
# transport inheritance: the socket harness (reference + fast paths)
# mounts fec / hybrid exactly like the pipelines they wrap


class TestTransportInheritance:
    """`reliability="fec" | "hybrid"` through `build_socket_testbed`.

    The adapters (socket / fast / session / tcp / duplex) all delegate
    reliability mounting to the endpoint pipelines; these smokes pin the
    harness plumbing — fec options forwarded, hybrid's ack path wired —
    on the two paths the harness builds directly.
    """

    def _config(self, mode, fast, loss):
        from repro.experiments.socket_harness import SocketTestbedConfig

        options = {"sender": {"fec": {"k": 4, "m": 2}}}
        if mode == "hybrid":
            options["sender"]["window_packets"] = 128
        return SocketTestbedConfig(
            n_channels=3,
            link_mbps=(10.0,),
            prop_delay_s=(0.5e-3,),
            loss_rates=(loss,),
            message_bytes=1000,
            reliability=mode,
            reliability_options={
                **options,
                "receiver": {"fec": {"k": 4, "m": 2}},
            },
            fast=fast,
            seed=5,
        )

    @pytest.mark.parametrize("fast", [False, True])
    def test_pure_fec_recovers_on_both_paths(self, fast):
        from repro.experiments.socket_harness import build_socket_testbed
        from repro.sim.engine import Simulator

        sim = Simulator()
        testbed = build_socket_testbed(sim, self._config("fec", fast, 0.05))
        sim.run(until=1.0)
        testbed.source.stop()
        sim.run(until=2.0)
        sent = testbed.messages_sent
        seqs = testbed.delivered_seqs()
        assert testbed.sender.reliable is None  # structurally no ARQ
        assert seqs == sorted(set(seqs))
        assert len(seqs) >= 0.95 * sent > 0
        assert testbed.receiver.fec.stats.reconstructed > 0

    @pytest.mark.parametrize("fast", [False, True])
    def test_hybrid_exactly_once_on_both_paths(self, fast):
        from repro.experiments.socket_harness import build_socket_testbed
        from repro.sim.engine import Simulator

        sim = Simulator()
        testbed = build_socket_testbed(
            sim, self._config("hybrid", fast, 0.05)
        )
        sim.run(until=1.0)
        testbed.source.stop()
        sim.run(until=3.0)
        sent = testbed.messages_sent
        seqs = testbed.delivered_seqs()
        assert seqs == list(range(sent)), "hybrid broke exactly-once"
        arq = testbed.sender.reliable
        assert not arq.unacked and not arq.backlog, "ARQ never drained"
        assert testbed.receiver.fec.stats.reconstructed > 0
