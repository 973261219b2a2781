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

import ast
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.bonding import BondingFrame
from repro.baselines.mppp import MpppFragment
from repro.core.markers import ReceiverSnapshot
from repro.core.packet import MarkerPacket, Packet, SackInfo
from repro.core.srr import SRR, SRRState, make_grr, make_rr
from repro.core.striper import ListPort, MarkerPolicy
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
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort
from repro.transport.fec import ParityPacket
from repro.transport.recovery import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    ReceiverRecovery,
    SenderRecovery,
    checksum,
    decode_checkpoint,
    encode_checkpoint,
    receiver_from_bytes,
    receiver_to_bytes,
    sender_from_bytes,
    sender_to_bytes,
    _decode_body,
)
from tests.transport.arq_oracles import receiver_blocks, unsacked_index

# ---------------------------------------------------------------------- #
# tagged tree codec + frame


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
]


class TestCheckpointCodec:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    def test_round_trip(self, tree):
        decoded = decode_checkpoint(encode_checkpoint(tree))
        assert decoded == tree or (tree != tree and decoded != decoded)

    @pytest.mark.parametrize(
        "tree",
        [object(), [1, {"k": object()}], {1, 2}, bytearray(b"x"), 2j],
        ids=["object", "nested", "set", "bytearray", "complex"],
    )
    def test_foreign_leaf_is_refused(self, tree):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            encode_checkpoint(tree)

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
        blob = encode_checkpoint({"x": 1}, version=CHECKPOINT_VERSION + 1)
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
# totality: every body decodes to a value or raises CheckpointCorruptError


def _framed(body):
    """``body`` in an intact frame of the current version."""
    frame = struct.pack("!4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(body))
    frame += body
    return frame + struct.pack("!I", checksum(frame))


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6), st.binary(max_size=6),
)
_PACKETS = st.one_of(
    st.builds(
        Packet, st.integers(1, 1500), seq=st.none() | st.integers(0, 99),
        flow=st.none() | st.text(max_size=3),
        payload=st.none() | st.binary(max_size=8),
        rseq=st.none() | st.integers(0, 99),
    ),
    st.builds(
        MarkerPacket, st.integers(0, 3), st.integers(0, 9),
        st.floats(-1e3, 1e3),
        sack=st.none() | st.just(SackInfo(3, ((5, 7),))),
    ),
    st.builds(MpppFragment, st.integers(0, 99), st.builds(Packet, st.just(64))),
    st.just(SRRState(1, 4, (0.0, 250.0))),
)
_TREES = st.recursive(
    _SCALARS | _PACKETS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.tuples(kids, kids),
        st.dictionaries(st.integers() | st.text(max_size=3), kids, max_size=3),
    ),
    max_leaves=10,
)


def _mutated(data, body):
    """``body`` with a few bytes overwritten, then cut or extended."""
    body = bytearray(body)
    for _ in range(data.draw(st.integers(0, 3))):
        if body:
            at = data.draw(st.integers(0, len(body) - 1))
            body[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(body)))
    return bytes(body[:cut]) + data.draw(st.binary(max_size=4))


class TestCodecTotality:
    """Hypothesis fuzz: no body, however damaged, raises anything but the
    typed corruption error (ROADMAP: every checkpoint decoder total)."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_framed_body_decodes_or_is_corrupt(self, body):
        try:
            decode_checkpoint(_framed(body))
        except CheckpointCorruptError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _TREES)
    def test_damaged_tree_decodes_or_is_corrupt(self, data, tree):
        body = encode_checkpoint(tree)[10:-4]
        decode_checkpoint(_framed(body))  # intact: decodes
        for decode in (lambda b: decode_checkpoint(_framed(b)), _decode_body):
            try:
                decode(_mutated(data, body))
            except CheckpointCorruptError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_wal_payload_decodes_or_is_corrupt(self, payload):
        try:
            _decode_body(payload)
        except CheckpointCorruptError:
            pass

    def test_runaway_nesting_is_corrupt(self):
        with pytest.raises(CheckpointCorruptError):
            _decode_body(b"l\x00\x00\x00\x01" * 100_000 + b"N")

    def test_trailing_bytes_are_corrupt(self):
        with pytest.raises(CheckpointCorruptError, match="trailing"):
            decode_checkpoint(_framed(b"NN"))


# ---------------------------------------------------------------------- #
# packet leaves


def _round_trip(value):
    return decode_checkpoint(encode_checkpoint(value))


class TestPacketPacking:
    def test_data_packet_round_trip(self):
        packet = Packet(
            1500, seq=7, label="a", flow="f1", payload=b"body", rseq=3, fseq=2
        )
        out = _round_trip(packet)
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
        out = _round_trip(marker)
        assert (out.channel, out.round_number, out.deficit) == (2, 9, 123.5)
        assert out.credit == 4
        assert out.sack == marker.sack
        assert out.size == marker.size

    def test_parity_round_trip_keeps_group_geometry(self):
        parity = ParityPacket(
            group=8, members=3, index=1, nparity=2, shard_len=512,
            payload=b"\x01" * 512, rseq=11, fseq=9,
        )
        out = _round_trip(parity)
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
            MpppFragment(9, Packet(500, seq=9, payload=b"p"), 4),
            BondingFrame(3, 1, 512, [(17, 500), (18, 12)]),
        ]
        restored = _round_trip(packets)
        assert [type(p) for p in restored] == [type(p) for p in packets]
        assert restored[0].seq == 1
        assert restored[1].round_number == 1
        assert restored[2].group == 0
        fragment = restored[3]
        assert (fragment.sequence, fragment.size) == (9, 504)
        assert (fragment.inner.seq, fragment.inner.payload) == (9, b"p")
        assert restored[4].content == [(17, 500), (18, 12)]


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


@pytest.mark.parametrize("disc,rel", CELLS, ids=[f"{d}-{r}" for d, r in CELLS])
def test_registry_cell_backlog_serialization_is_a_fixpoint(disc, rel):
    """The fixpoint again with the striper's input queue backed up.

    Two-packet channel queues under a 40-packet burst leave most of the
    burst queued in the striper when the checkpoint is taken: stamped
    data, parity, MPPP fragments and BONDING frames must come back as
    they were, not be submitted again through the layers above (which
    would restamp, regroup or rewrap them).
    """
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=2,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    sender, receiver, _ = _build_pair(sim, channels, disc, rel, [])
    for i, ch in enumerate(channels):
        ch.on_deliver = receiver.channel_handler(i)
        ch.on_space = sender.pump
    sender.submit_packets([
        Packet(size=500, seq=i, flow=f"f{i % 3}", payload=b"%03d" % i)
        for i in range(40)
    ])
    sim.run(until=2e-3)
    assert sender.backlog > 0  # the checkpoint holds a backed-up queue

    blob_s = sender_to_bytes(sender, peer_epoch=5)
    blob_r = receiver_to_bytes(receiver, sender_epoch=5)
    fresh_sender, fresh_receiver, _ = _build_pair(
        sim, channels, disc, rel, []
    )
    sender_from_bytes(fresh_sender, blob_s)
    receiver_from_bytes(fresh_receiver, blob_r)
    assert fresh_sender.backlog == sender.backlog
    engines = receiver.resequencer, fresh_receiver.resequencer
    assert engines[1].buffered == engines[0].buffered
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

    struct.pack_into("!H", blob, 4, CHECKPOINT_VERSION + 1)
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


# ---------------------------------------------------------------------- #
# regressions


def test_fabric_wal_keeps_drained_packets_under_their_rseqs():
    """A packet drained from the fabric after the checkpoint comes back
    under the rseq it went out with, on its flow, and only once.

    Two flows, a four-packet window: A0-A7 are submitted (A0-A3 drain as
    rseqs 0-3), the checkpoint is taken with A4-A7 in their flow queue,
    B0-B3 are submitted, and an ack of 0-3 drains four more packets —
    some from the checkpoint's queue, some logged after it — as rseqs
    4-7.  The WAL names a drained packet by its flow, whose queue the
    checkpoint keeps, so the restarted sender reinstalls exactly those
    packets under 4-7 and holds each of the twelve messages once.
    """
    sim = Simulator()
    store = CheckpointStore()

    def build():
        sender = StripeSenderPipeline(
            [ListPort() for _ in range(N_CHANNELS)],
            SRR([500.0] * N_CHANNELS),
            sim=sim,
            reliability="reliable",
            reliability_options={"window_packets": 4},
            fabric=FabricScheduler(FlowTable()),
        )
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        return sender, recovery

    def held(sender):
        reliable = sender.reliable
        return [r.packet for r in reliable.unacked.values()] + list(
            reliable._overflow
        )

    sender, recovery = build()
    for i in range(8):
        sender.submit("A", Packet(500, seq=i, label=f"A{i}"))
    recovery.checkpoint()
    for i in range(4):
        sender.submit("B", Packet(500, seq=8 + i, label=f"B{i}"))
    sender.on_ack(SackInfo(cum_ack=4))
    drained = {p.rseq: (p.flow, p.label) for p in held(sender)}
    assert sorted(drained) == [4, 5, 6, 7]
    assert {flow for flow, _ in drained.values()} == {"A", "B"}
    recovery.stop()

    restarted, _ = build()
    packets = held(restarted)
    queued = [p for flow in restarted.fabric.table for p in flow.queue]
    labels = sorted(p.label for p in packets + queued)
    assert labels == sorted(
        [f"A{i}" for i in range(8)] + [f"B{i}" for i in range(4)]
    )
    restored = {p.rseq: (p.flow, p.label) for p in packets}
    assert {r: restored[r] for r in drained} == drained


@pytest.mark.parametrize("disc", ["mppp", "bonding"])
def test_warm_sender_restart_over_header_discipline(disc):
    """A restarted MPPP / BONDING sender announces its discipline state;
    the receiver's sequence-header engine mirrors no sender kernel, so it
    answers the announce without adopting anything and keeps delivering
    what the new incarnation sends."""
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    deliveries = []
    live = {}

    def to_receiver(packet):
        sim.schedule(5e-4, lambda: live["rx"].on_control(packet))

    def to_sender(packet):
        sim.schedule(5e-4, lambda: live["tx"].on_control(packet))

    def start_sender(store):
        sender, _, _ = _build_pair(sim, channels, disc, "quasi_fifo", [])
        for ch in channels:
            ch.on_space = sender.pump
        live["tx"] = SenderRecovery(
            sender, store, sim=sim, send_control=to_receiver
        )
        live["tx"].install()
        return sender

    def send(sender, seqs):
        for seq in seqs:
            sender.submit_packet(Packet(size=500, seq=seq))
        sender.flush()

    sender_store = CheckpointStore()
    sender = start_sender(sender_store)
    _, receiver, _ = _build_pair(sim, channels, disc, "quasi_fifo", deliveries)
    for i, ch in enumerate(channels):
        ch.on_deliver = receiver.channel_handler(i)
    live["rx"] = ReceiverRecovery(
        receiver, CheckpointStore(), sim=sim, send_control=to_sender
    )
    live["rx"].install()
    send(sender, range(20))
    sim.run(until=0.05)
    before = len(deliveries)
    assert before > 0
    live["tx"].checkpoint()
    live["tx"].stop()

    announces = []
    sender = start_sender(sender_store)  # warm: announces epoch 2
    live["rx"].on_control = lambda p, on=live["rx"].on_control: (
        announces.append(p), on(p)
    )
    send(sender, range(20, 40))
    sim.run(until=0.3)
    assert live["rx"].sender_epoch == 2
    # The announce, then the echo of the receiver's report — no retries.
    assert [(p.epoch, p.peer_epoch) for p in announces] == [(2, 0), (2, 1)]
    assert len(deliveries) > before


def test_components_checkpoint_themselves():
    """No ``pickle`` anywhere under ``src/``, and neither the recovery
    module nor the crash experiment reaches a ``_``-prefixed attribute of
    any object but ``self``: every component's state goes through its own
    ``snapshot`` / ``restore``, and its timers stop through its own
    ``stop``."""
    root = Path(repro.__file__).parent
    guarded = {"transport/recovery.py", "experiments/recovery.py"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "pickle" for m in modules) or (
                isinstance(node, ast.Name) and node.id == "pickle"
            ):
                offenders.append(f"{name}:{node.lineno} pickle")
            if name not in guarded:
                continue
            if isinstance(node, ast.Attribute):
                attr, owner = node.attr, node.value
                reaches_self = isinstance(owner, ast.Name) and owner.id == "self"
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", "") in ("getattr", "setattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                attr, reaches_self = str(node.args[1].value), False
            else:
                continue
            if attr.startswith("_") and not attr.startswith("__") and not reaches_self:
                offenders.append(f"{name}:{node.lineno} .{attr}")
    assert offenders == []
