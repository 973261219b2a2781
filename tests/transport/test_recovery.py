"""Crash-recovery subsystem: codec, store, and handshake unit tests.

Three layers under test, bottom up:

* the **checkpoint codec** — tagged-tree encode/decode, the versioned
  CRC-guarded frame, and the typed corruption/version-skew errors;
* the **checkpoint store** — last-good fallback, write-ahead log sealing
  (torn tails stop the scan), and the persistent incarnation epoch;
* the **recovery managers** — serialize → rebuild → restore round trips
  for composed sender/receiver endpoints across the whole discipline ×
  reliability registry (the 39 constructible cells), asserted as a
  byte-level fixpoint: ``to_bytes(restore(fresh, to_bytes(live)))`` must
  reproduce the original frame exactly.
"""

import pytest

from repro.core.markers import ReceiverSnapshot
from repro.core.packet import MarkerPacket, Packet, SackInfo
from repro.core.srr import SRR, SRRState, make_grr, make_rr
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import persistent_loss_schedule
from repro.transport.endpoint import (
    RELIABILITY_MODES,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
)
from repro.transport.fast_path import FastChannelPort
from repro.transport.fec import ParityPacket
from repro.transport.recovery import (
    CHECKPOINT_MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    ReceiverRecovery,
    SenderRecovery,
    checksum,
    decode_checkpoint,
    encode_checkpoint,
    pack_packet,
    receiver_from_bytes,
    receiver_to_bytes,
    sender_from_bytes,
    sender_to_bytes,
    unpack_packet,
)
from tests.transport.arq_oracles import receiver_blocks, unsacked_index

# ---------------------------------------------------------------------- #
# tagged tree codec + frame


class _Opaque:
    """An arbitrary object the codec must fall back to pickling."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is _Opaque and other.value == self.value


TREES = [
    None,
    True,
    False,
    0,
    -(2**70),
    3.5,
    float("inf"),
    "",
    "snow❄unicode",
    b"",
    b"\x00\xff" * 17,
    [],
    [1, [2, [3, None]]],
    (1, "two", 3.0),
    {},
    {"a": 1, 2: "b", None: [True, (b"x",)]},
    SRRState(1, 4, (0.0, 250.0, 500.0)),
    ReceiverSnapshot(2, 7, (0.0, 1.0), (True, False), (3, 4)),
    _Opaque({"nested": (1, 2)}),
]


class TestCheckpointCodec:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    def test_round_trip(self, tree):
        decoded = decode_checkpoint(encode_checkpoint(tree))
        assert decoded == tree or (tree != tree and decoded != decoded)

    def test_round_trip_preserves_list_tuple_distinction(self):
        assert decode_checkpoint(encode_checkpoint([1, 2])) == [1, 2]
        assert decode_checkpoint(encode_checkpoint((1, 2))) == (1, 2)

    def test_srr_state_survives_as_srr_state(self):
        state = SRRState(0, 9, (10.0, 20.0))
        out = decode_checkpoint(encode_checkpoint({"k": state}))["k"]
        assert type(out) is SRRState
        assert out == state

    def test_frame_starts_with_magic(self):
        assert encode_checkpoint({"x": 1}).startswith(CHECKPOINT_MAGIC)

    def test_bad_magic_is_corrupt(self):
        blob = bytearray(encode_checkpoint({"x": 1}))
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    @pytest.mark.parametrize("position", [5, 8, -6, -1])
    def test_any_flipped_byte_is_corrupt(self, position):
        blob = bytearray(encode_checkpoint({"x": list(range(20))}))
        blob[position] ^= 0x01
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    def test_truncation_is_corrupt(self):
        blob = encode_checkpoint({"x": 1})
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointCorruptError):
                decode_checkpoint(blob[:cut])

    def test_intact_future_version_is_version_error(self):
        blob = encode_checkpoint({"x": 1}, version=2)
        with pytest.raises(CheckpointVersionError):
            decode_checkpoint(blob)

    def test_corrupted_future_version_is_corrupt_not_skew(self):
        # Validation order magic -> CRC -> version: bit rot that lands in
        # the version field must still read as corruption.
        blob = bytearray(encode_checkpoint({"x": 1}))
        blob[4] ^= 0x01  # version field, CRC now wrong
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    def test_typed_errors_are_value_errors(self):
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointVersionError, CheckpointError)
        assert issubclass(CheckpointError, ValueError)

    def test_checksum_is_unsigned_crc32(self):
        assert checksum(b"") == 0
        assert 0 <= checksum(b"\xff" * 64) <= 0xFFFFFFFF


# ---------------------------------------------------------------------- #
# packet packing


class TestPacketPacking:
    def test_data_packet_round_trip(self):
        packet = Packet(
            1500, seq=7, label="a", flow="f1", payload=b"body", rseq=3, fseq=2
        )
        out = unpack_packet(pack_packet(packet))
        for name in ("size", "seq", "label", "flow", "payload", "rseq", "fseq"):
            assert getattr(out, name) == getattr(packet, name)
        assert out.uid != packet.uid  # a restored packet is a new object

    def test_marker_round_trip_via_wire_codec(self):
        marker = MarkerPacket(
            channel=2,
            round_number=9,
            deficit=123.5,
            credit=4,
            sack=SackInfo(cum_ack=5, blocks=((7, 9),)),
        )
        out = unpack_packet(pack_packet(marker))
        assert (out.channel, out.round_number, out.deficit) == (2, 9, 123.5)
        assert out.credit == 4
        assert out.sack == marker.sack

    def test_parity_round_trip_keeps_group_geometry(self):
        parity = ParityPacket(
            group=8, members=3, index=1, nparity=2, shard_len=512,
            payload=b"\x01" * 512, rseq=11, fseq=9,
        )
        out = unpack_packet(pack_packet(parity))
        assert type(out) is ParityPacket
        for name in (
            "group", "members", "index", "nparity", "shard_len", "payload",
            "size", "rseq", "fseq",
        ):
            assert getattr(out, name) == getattr(parity, name)

    def test_packed_forms_survive_the_checkpoint_codec(self):
        packets = [
            Packet(500, seq=1),
            MarkerPacket(channel=0, round_number=1, deficit=0.0),
            ParityPacket(
                group=0, members=2, index=0, nparity=1, shard_len=4,
                payload=b"abcd",
            ),
        ]
        tree = decode_checkpoint(
            encode_checkpoint([pack_packet(p) for p in packets])
        )
        restored = [unpack_packet(t) for t in tree]
        assert restored[0].seq == 1
        assert restored[1].round_number == 1
        assert restored[2].group == 0


# ---------------------------------------------------------------------- #
# checkpoint store


class TestCheckpointStore:
    def test_load_empty_is_none(self):
        assert CheckpointStore().load_checkpoint() is None

    def test_save_then_load(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        assert store.load_checkpoint() == {"v": 1}
        assert store.checkpoints_saved == 1
        assert store.checkpoint_bytes > 0

    def test_corrupt_current_falls_back_to_previous(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        blob = bytearray(encode_checkpoint({"v": 2}))
        blob[-1] ^= 0xFF
        store.save_checkpoint(bytes(blob))
        assert store.load_checkpoint() == {"v": 1}
        assert store.fallbacks == 1

    def test_both_corrupt_is_none(self):
        store = CheckpointStore()
        for v in (1, 2):
            blob = bytearray(encode_checkpoint({"v": v}))
            blob[-1] ^= 0xFF
            store.save_checkpoint(bytes(blob))
        assert store.load_checkpoint() is None
        assert store.fallbacks == 2

    def test_version_skew_propagates_not_papered_over(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        store.save_checkpoint(encode_checkpoint({"v": 2}, version=9))
        with pytest.raises(CheckpointVersionError):
            store.load_checkpoint()

    def test_checkpoint_truncates_wal(self):
        store = CheckpointStore()
        store.append_wal(b"one")
        store.save_checkpoint(encode_checkpoint({}))
        assert store.wal_payloads() == []
        assert store.wal_records == 1  # lifetime counter keeps counting

    def test_wal_round_trip(self):
        store = CheckpointStore()
        payloads = [b"a", b"bb", b"", b"\x00" * 100]
        for p in payloads:
            store.append_wal(p)
        assert store.wal_payloads() == payloads

    def test_torn_wal_tail_stops_scan(self):
        store = CheckpointStore()
        store.append_wal(b"good")
        store.append_wal(b"torn-away")
        store._wal[-1] = store._wal[-1][:-3]  # tear the tail record
        assert store.wal_payloads() == [b"good"]
        assert store.corrupt_wal_records == 1

    def test_bit_rotted_wal_record_stops_scan(self):
        store = CheckpointStore()
        store.append_wal(b"good")
        store.append_wal(b"rotten")
        store.append_wal(b"unreachable")
        sealed = bytearray(store._wal[1])
        sealed[5] ^= 0xFF
        store._wal[1] = bytes(sealed)
        assert store.wal_payloads() == [b"good"]
        assert store.corrupt_wal_records == 1

    def test_epoch_is_monotone_and_survives_lose_data(self):
        store = CheckpointStore()
        assert store.next_epoch() == 1
        assert store.next_epoch() == 2
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        store.append_wal(b"x")
        store.lose_data()
        assert store.load_checkpoint() is None
        assert store.wal_payloads() == []
        # The incarnation counter is NVRAM-like: it must keep increasing
        # so a cold restart still gets a fresh epoch.
        assert store.next_epoch() == 3


# ---------------------------------------------------------------------- #
# registry-wide serialization round trip

N_CHANNELS = 3
MARKER_FAMILY = ("srr", "rr", "grr")

#: every constructible (discipline, reliability) cell: 7 disciplines x 5
#: modes + the two header-sync baselines x their 2 legal modes = 39.
CELLS = [
    (disc, rel)
    for disc in ("srr", "rr", "grr", "sqf", "random", "hash", "sprinklers")
    for rel in RELIABILITY_MODES
] + [
    (disc, rel)
    for disc in ("mppp", "bonding")
    for rel in ("best_effort", "quasi_fifo")
]


def _build_spec(disc):
    if disc == "srr":
        return SRR([500.0] * N_CHANNELS)
    if disc == "rr":
        return make_rr(N_CHANNELS)
    if disc == "grr":
        return make_grr([1.0] * N_CHANNELS)
    return make_discipline(disc, N_CHANNELS)


def _build_pair(sim, channels, disc, rel, deliveries):
    policy = (
        MarkerPolicy(interval_rounds=1) if disc in MARKER_FAMILY else None
    )
    mode = receiver_mode_for(_build_spec(disc), markers=policy is not None)
    sender = StripeSenderPipeline(
        [FastChannelPort(ch) for ch in channels],
        _build_spec(disc),
        marker_policy=policy,
        sim=sim,
        reliability=rel,
    )
    receiver = StripeReceiverPipeline(
        N_CHANNELS,
        _build_spec(disc),
        mode=mode,
        on_message=deliveries.append,
        sim=sim,
        reliability=rel,
        send_ack=lambda ack: sim.schedule(5e-4, sender.on_ack, ack),
    )
    return sender, receiver, mode


@pytest.mark.parametrize("disc,rel", CELLS, ids=[f"{d}-{r}" for d, r in CELLS])
def test_registry_cell_serialization_is_a_fixpoint(disc, rel):
    """serialize -> restore into a fresh endpoint -> serialize == original.

    Run live lossy traffic first so the serialized state is non-trivial
    (ARQ windows, resequencer buffers, partial rounds, residual frames),
    then require the restored endpoint to re-serialize byte-identically.
    """
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    deliveries = []
    sender, receiver, mode = _build_pair(sim, channels, disc, rel, deliveries)
    for i, ch in enumerate(channels):
        ch.on_deliver = receiver.channel_handler(i)
        ch.on_space = sender.pump
    persistent_loss_schedule(N_CHANNELS, 0.15, until=0.05).install(
        sim, channels, seed=3
    )

    seq = [0]

    def tick():
        if sim.now >= 0.05:
            return
        if sender.can_submit():
            sender.submit_packet(
                Packet(size=500, seq=seq[0], flow=f"f{seq[0] % 3}")
            )
            seq[0] += 1
        sim.schedule(1e-3, tick)

    sim.schedule_at(0.0, tick)
    sim.run(until=0.1)
    assert seq[0] > 0  # the state being serialized is real

    blob_s = sender_to_bytes(sender, peer_epoch=5)
    blob_r = receiver_to_bytes(receiver, sender_epoch=5)

    fresh_sender, fresh_receiver, _ = _build_pair(
        sim, channels, disc, rel, []
    )
    sender_from_bytes(fresh_sender, blob_s)
    receiver_from_bytes(fresh_receiver, blob_r)
    assert sender_to_bytes(fresh_sender, peer_epoch=5) == blob_s
    assert receiver_to_bytes(fresh_receiver, sender_epoch=5) == blob_r


def test_sender_checkpoint_rejected_by_receiver_restore():
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    sender, receiver, _ = _build_pair(sim, channels, "srr", "reliable", [])
    with pytest.raises(CheckpointError):
        receiver_from_bytes(receiver, sender_to_bytes(sender))
    with pytest.raises(CheckpointError):
        sender_from_bytes(sender, receiver_to_bytes(receiver))


def test_version_skewed_endpoint_blob_raises_typed_error():
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    sender, receiver, _ = _build_pair(sim, channels, "srr", "reliable", [])
    blob = bytearray(sender_to_bytes(sender))
    # Rewrite the version field and re-seal the CRC so the frame is intact
    # but from a "future" codec.
    import struct

    struct.pack_into("!H", blob, 4, 2)
    blob[-4:] = struct.pack("!I", checksum(bytes(blob[:-4])))
    with pytest.raises(CheckpointVersionError):
        sender_from_bytes(sender, bytes(blob))


# ---------------------------------------------------------------------- #
# recovery managers


class TestRecoveryManagers:
    def _rig(self, sim, *, interval=0.02):
        channels = [
            Channel(
                sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
                name=f"ch{i}",
            )
            for i in range(N_CHANNELS)
        ]
        deliveries = []
        sender, receiver, _ = _build_pair(
            sim, channels, "srr", "reliable", deliveries
        )
        for i, ch in enumerate(channels):
            ch.on_deliver = receiver.channel_handler(i)
            ch.on_space = sender.pump
        return channels, sender, receiver, deliveries

    def test_install_assigns_epoch_and_first_install_does_not_announce(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        sent = []
        recovery = SenderRecovery(
            sender, CheckpointStore(), sim=sim, send_control=sent.append
        )
        assert recovery.install() is False  # nothing to restore
        assert recovery.epoch == 1
        assert sent == []  # first incarnation has no peer to resync

    def test_periodic_checkpoints_fire(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(
            sender, store, sim=sim, checkpoint_interval_s=0.01
        )
        recovery.install()
        sim.run(until=0.055)
        assert store.checkpoints_saved >= 4
        recovery.stop()

    def test_sender_wal_logs_registered_packets(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        for i in range(5):
            sender.submit_packet(Packet(size=500, seq=i))
        sim.run(until=0.05)
        assert store.wal_records >= 5
        recovery.stop()

    def test_second_install_restores_from_checkpoint(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        for i in range(5):
            sender.submit_packet(Packet(size=500, seq=i))
        sim.run(until=0.02)
        recovery.checkpoint()
        recovery.stop()

        _, sender2, _, _ = self._rig(sim)
        sent = []
        recovery2 = SenderRecovery(
            sender2, store, sim=sim, send_control=sent.append
        )
        assert recovery2.install() is True
        assert recovery2.epoch == 2
        assert sent, "a restored sender announces itself"
        recovery2.stop()

    def test_receiver_recovery_cold_without_checkpoint(self):
        sim = Simulator()
        _, _, receiver, _ = self._rig(sim)
        store = CheckpointStore()
        store.next_epoch()  # a prior incarnation existed
        store.lose_data()
        recovery = ReceiverRecovery(receiver, store, sim=sim)
        assert recovery.install() is False
        assert recovery.cold is True
        recovery.stop()


# ---------------------------------------------------------------------- #
# derived ARQ state across a restart: the SACK interval set and the
# un-sacked index are not in the checkpoint and must come back equal to a
# rebuild from what is


def _assert_arq_indices_rebuilt(sender, receiver):
    arq_tx, arq_rx = sender.reliable, receiver.reliable
    assert list(arq_tx._unsacked.items()) == unsacked_index(arq_tx)
    assert (arq_rx._starts, arq_rx._ends) == receiver_blocks(arq_rx)


class TestArqIndicesAcrossRestart:
    _rig = TestRecoveryManagers._rig

    def _crashed_pair(self):
        """Lossy reliable traffic, checkpointed mid-recovery, then killed.

        The checkpoints are taken at an instant with two holes open at
        the receiver and a partly sacked window; traffic then runs on
        until the first hole fills, so both write-ahead logs hold
        post-checkpoint records and the delivery cursor has moved into
        the checkpointed out-of-order buffer.
        """
        sim = Simulator()
        channels, sender, receiver, _ = self._rig(sim)
        persistent_loss_schedule(N_CHANNELS, 0.15, until=1.0).install(
            sim, channels, seed=3
        )
        stores = CheckpointStore(), CheckpointStore()
        managers = (
            SenderRecovery(sender, stores[0], sim=sim),
            ReceiverRecovery(receiver, stores[1], sim=sim),
        )
        for manager in managers:
            manager.install()
        seq = [0]

        def tick():
            if sender.can_submit():
                sender.submit_packet(Packet(size=500, seq=seq[0]))
                seq[0] += 1
            sim.schedule(2e-4, tick)

        sim.schedule_at(0.0, tick)

        def partly_sacked():
            flags = {r.sacked for r in sender.reliable.unacked.values()}
            blocks = receiver_blocks(receiver.reliable)[0]
            return flags == {True, False} and len(blocks) > 1

        while not partly_sacked():
            assert sim.now < 1.0, "never reached a partly sacked window"
            sim.run(until=sim.now + 1e-4)
        for manager in managers:
            manager.checkpoint()
        delivered = receiver.reliable.next_expected
        while receiver.reliable.next_expected == delivered:
            sim.run(until=sim.now + 1e-4)
        for manager in managers:
            manager.stop()
        return stores

    def _restart(self, stores):
        sim = Simulator()
        _, sender, receiver, _ = self._rig(sim)
        to_receiver, to_sender = [], []
        tx = SenderRecovery(
            sender, stores[0], sim=sim, send_control=to_receiver.append
        )
        rx = ReceiverRecovery(
            receiver, stores[1], sim=sim, send_control=to_sender.append
        )
        return sender, receiver, tx, rx, to_receiver, to_sender

    def test_warm_restore_rebuilds_both_indices(self):
        stores = self._crashed_pair()
        sender, receiver, tx, rx, _, to_sender = self._restart(stores)
        assert tx.install() is True and rx.install() is True
        # The restored state is the interesting one: sacked and un-sacked
        # records side by side, a buffer the WAL cursor has trimmed.
        assert {r.sacked for r in sender.reliable.unacked.values()} == {
            True, False,
        }
        assert rx.wal_cursor_restored > 0
        assert receiver.reliable._ooo
        _assert_arq_indices_rebuilt(sender, receiver)

        tx.on_control(to_sender[-1])  # the warm report: reconcile + replay
        assert tx.replayed_packets > 0
        _assert_arq_indices_rebuilt(sender, receiver)

    def test_cold_resync_rebuilds_both_indices(self):
        stores = self._crashed_pair()
        stores[1].lose_data()
        sender, receiver, tx, rx, to_receiver, to_sender = self._restart(
            stores
        )
        assert tx.install() is True and rx.install() is False
        tx.on_control(to_sender[-1])  # cold report: whole-window replay
        assert not any(r.sacked for r in sender.reliable.unacked.values())
        assert tx.replayed_packets == len(sender.reliable.unacked) > 0
        _assert_arq_indices_rebuilt(sender, receiver)

        rx.on_control(to_receiver[-1])  # adopt the sender's replay base
        assert receiver.reliable.next_expected == min(sender.reliable.unacked)
        _assert_arq_indices_rebuilt(sender, receiver)
