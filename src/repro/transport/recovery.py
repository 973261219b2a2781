"""Crash-tolerant endpoints: durable state + epoch-stamped resume.

The paper prescribes exactly one thing for endpoint death: "We deal with
sender or receiver node crashes by doing a reset."  This module makes
that prescription — and its much cheaper modern refinement — executable:

* **Durable state.**  :func:`sender_to_bytes` / :func:`receiver_to_bytes`
  serialize the *composed* endpoint state into one versioned, CRC-guarded
  frame.  Each stateful component (striper and its policy, reception
  engine, ARQ window, FEC counters, fabric flows and scheduler) captures
  itself with a ``snapshot()`` / ``restore(state)`` pair of plain values;
  this module only assembles them.  :class:`CheckpointStore` is the
  durable-medium stand-in holding the last two checkpoints (last-good
  fallback) plus a write-ahead log of per-packet records so nothing
  submitted between checkpoints is lost.

* **Epoch-stamped resume.**  Every incarnation of an endpoint draws a
  fresh epoch from its store.  A restarted endpoint announces itself with
  a :class:`~repro.core.control.ResumePacket` /
  :class:`~repro.core.control.ResumeReportPacket` handshake; acks are
  stamped with the receiver's epoch so a sender rejects stale acks from
  the previous incarnation.  Data packets carry **no** epoch — the paper's
  no-header-on-data constraint (section 2.1) holds — staleness on the data
  plane is absorbed by rseq dedup (reliable modes) and by the marker
  stream itself (quasi-FIFO), which self-synchronizes within one marker
  round (Theorem 5.1).

* **Warm adoption, not reset.**  A restarted *sender* resumes from its
  checkpointed kernel, which is *behind* the receiver's mirror by the
  in-flight delta; since markers only ever move a mirror forward, the
  ResumePacket carries the sender's kernel snapshot and a receiver whose
  engine mirrors that kernel adopts it (``sender_restarted`` on the
  engine, :meth:`~repro.core.markers.SRRReceiver.adopt_snapshot` for the
  paper's), flushing stale buffered data from the dead incarnation.  A
  restarted *receiver* restores a mirror that is stale-*behind* the live
  sender — exactly the state incoming markers are designed to
  fast-forward — so no reset is needed at all; the report simply tells
  the sender what to replay.  A receiver restarted **without** a
  checkpoint converges by waiting for the next marker round: cold resync,
  the Theorem 5.1 mechanism itself.

Reconciliation (reliable modes): the receiver reports its rseq
high-water and SACK blocks; the sender treats the report as
*authoritative* — it retires below ``cum_ack``, rewrites its sacked flags
exactly to the report (a restarted receiver may have lost
out-of-order packets the sender believed sacked; classic SACK reneging),
replays everything else from the ARQ retransmit buffer *through SRR* so
recovery traffic stays inside the Theorem 3.2 fairness envelope, and
resets its RTO backoff per Karn's rule (the old samples describe a dead
path).
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.baselines.bonding import BondingFrame
from repro.baselines.mppp import MpppFragment
from repro.core.control import ResumePacket, ResumeReportPacket
from repro.core.markers import ReceiverSnapshot
from repro.core.packet import MarkerPacket, Packet, SackInfo
from repro.core.srr import SRRState
from repro.transport.fabric import FabricSnapshot
from repro.transport.fec import ParityPacket
from repro.transport.reliability import AckPacket

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "ReceiverRecovery",
    "SenderRecovery",
    "checksum",
    "decode_checkpoint",
    "encode_checkpoint",
    "receiver_from_bytes",
    "receiver_to_bytes",
    "sender_from_bytes",
    "sender_to_bytes",
]


def checksum(data: bytes) -> int:
    """CRC-32 as an unsigned 32-bit int.

    One helper for both corruption domains: checkpoint/WAL frames here and
    the delivered-corruption chaos assertions (``corrupt_deliver`` flips a
    byte; this is how tests prove the flip landed).
    """
    return zlib.crc32(data) & 0xFFFFFFFF


class CheckpointError(ValueError):
    """Base class for checkpoint codec failures."""


class CheckpointCorruptError(CheckpointError):
    """Frame failed its magic or CRC check (bit rot, torn write), or its
    body is not a well-formed tree."""


class CheckpointVersionError(CheckpointError):
    """Frame is intact but written by an unknown codec version."""


# --------------------------------------------------------------------- #
# tagged tree codec
#
# A checkpoint is a tree of plain values (None/bool/int/float/str/bytes/
# list/tuple/dict) whose only other leaves are the record types below.
# The leaf set is closed: encoding anything else raises CheckpointError,
# and decoding any body yields a tree or raises CheckpointCorruptError.

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")

#: the record leaves, by code: the kernel, mirror and fabric snapshots and
#: every packet type a queue or buffer holds, each with the constructor
#: arguments that rebuild it.  ``uid`` is left out on purpose: a restored
#: packet is a new object, which keeps the pool contract across restarts.
_RECORDS: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (SRRState, ("ptr", "round_number", "dc")),
    (
        ReceiverSnapshot,
        ("ptr", "round_number", "dc", "pending", "sync_round", "buffers"),
    ),
    (FabricSnapshot, ("flows", "active_order", "head_credited")),
    (SackInfo, ("cum_ack", "blocks")),
    (
        Packet,
        ("size", "seq", "label", "flow", "payload", "codepoint", "rseq",
         "fseq", "synthesized"),
    ),
    (MarkerPacket, ("channel", "round_number", "deficit", "size", "credit",
                    "sack")),
    (
        ParityPacket,
        ("group", "members", "index", "nparity", "shard_len", "payload",
         "size", "seq", "rseq", "fseq"),
    ),
    (MpppFragment, ("sequence", "inner", "header_bytes")),
    (BondingFrame, ("sequence", "channel", "payload_bytes", "content")),
)
_RECORD_CODES = {cls: code for code, (cls, _) in enumerate(_RECORDS)}

#: what a malformed body can raise mid-decode: truncation, a bad scalar,
#: an unhashable key, a record its constructor refuses, runaway nesting
_MALFORMED = (struct.error, IndexError, TypeError, ValueError, RecursionError)


def _encode_tree(value: Any, out: List[bytes]) -> None:
    kind = type(value)
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif kind is int:
        body = str(value).encode("ascii")
        out.append(b"i" + _U32.pack(len(body)) + body)
    elif kind is float:
        out.append(b"f" + _F64.pack(value))
    elif kind is str:
        body = value.encode("utf-8")
        out.append(b"s" + _U32.pack(len(body)) + body)
    elif kind is bytes:
        out.append(b"y" + _U32.pack(len(value)) + value)
    elif kind is list or kind is tuple:
        out.append((b"l" if kind is list else b"t") + _U32.pack(len(value)))
        for item in value:
            _encode_tree(item, out)
    elif kind is dict:
        out.append(b"d" + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_tree(key, out)
            _encode_tree(item, out)
    else:
        code = _RECORD_CODES.get(kind)
        if code is None:
            raise CheckpointError(
                f"cannot checkpoint a {kind.__name__}: neither a plain "
                "value nor a record type"
            )
        out.append(b"r" + bytes((code,)))
        names = _RECORDS[code][1]
        _encode_tree(tuple(getattr(value, name) for name in names), out)


def _decode_tree(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"f":
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag in (b"i", b"s", b"y"):
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        body = data[pos : pos + length]
        if len(body) != length:
            raise CheckpointCorruptError("truncated leaf")
        pos += length
        if tag == b"i":
            return int(body), pos
        if tag == b"s":
            return body.decode("utf-8"), pos
        return body, pos
    if tag in (b"l", b"t"):
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_tree(data, pos)
            items.append(item)
        return (items if tag == b"l" else tuple(items)), pos
    if tag == b"d":
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        tree: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_tree(data, pos)
            value, pos = _decode_tree(data, pos)
            tree[key] = value
        return tree, pos
    if tag == b"r":
        cls, names = _RECORDS[data[pos]]
        fields, pos = _decode_tree(data, pos + 1)
        if type(fields) is not tuple or len(fields) != len(names):
            raise CheckpointCorruptError(f"malformed {cls.__name__} record")
        return cls(**dict(zip(names, fields))), pos
    raise CheckpointCorruptError(f"unknown tree tag {tag!r}")


def _encode_body(tree: Any) -> bytes:
    parts: List[bytes] = []
    _encode_tree(tree, parts)
    return b"".join(parts)


def _decode_body(data: bytes) -> Any:
    """The one tree ``data`` holds, end to end; never raises anything but
    :class:`CheckpointCorruptError`."""
    try:
        tree, pos = _decode_tree(data, 0)
    except CheckpointCorruptError:
        raise
    except _MALFORMED as exc:
        raise CheckpointCorruptError(f"malformed tree: {exc}") from None
    if pos != len(data):
        raise CheckpointCorruptError("trailing bytes after the tree")
    return tree


CHECKPOINT_MAGIC = b"SRCK"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("!4sHI")  # magic, version, body length


def encode_checkpoint(tree: Any, *, version: int = CHECKPOINT_VERSION) -> bytes:
    """Frame ``tree`` as ``magic | version | length | body | crc32``."""
    body = _encode_body(tree)
    frame = _HEADER.pack(CHECKPOINT_MAGIC, version, len(body)) + body
    return frame + _U32.pack(checksum(frame))


def decode_checkpoint(blob: bytes) -> Any:
    """Validate and decode a checkpoint frame.

    Validation order is magic → CRC → version: a bit-rotted frame raises
    :class:`CheckpointCorruptError` even if the rot landed in the version
    field, while an *intact* frame from a future codec raises the typed
    :class:`CheckpointVersionError` so callers can distinguish skew from
    damage.  A body that is not one well-formed tree is corrupt too.
    """
    if len(blob) < _HEADER.size + 4:
        raise CheckpointCorruptError("checkpoint too short")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError("bad checkpoint magic")
    frame, (crc,) = blob[:-4], _U32.unpack(blob[-4:])
    if checksum(frame) != crc:
        raise CheckpointCorruptError("checkpoint CRC mismatch")
    magic, version, length = _HEADER.unpack_from(blob, 0)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unknown checkpoint version {version}")
    if len(frame) != _HEADER.size + length:
        raise CheckpointCorruptError("checkpoint body length mismatch")
    return _decode_body(frame[_HEADER.size :])


def _seal_record(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + payload + _U32.pack(checksum(payload))


def _unseal_records(blob: bytes) -> Tuple[List[bytes], int]:
    """Decode a concatenation of sealed WAL records.

    Returns ``(payloads, skipped)``; a torn or bit-rotted tail stops the
    scan (everything after a bad record is unordered noise) and counts as
    skipped.
    """
    payloads: List[bytes] = []
    skipped = 0
    pos = 0
    total = len(blob)
    while pos + 4 <= total:
        (length,) = _U32.unpack_from(blob, pos)
        end = pos + 4 + length + 4
        if end > total:
            skipped += 1
            break
        payload = blob[pos + 4 : pos + 4 + length]
        (crc,) = _U32.unpack_from(blob, pos + 4 + length)
        if checksum(payload) != crc:
            skipped += 1
            break
        payloads.append(payload)
        pos = end
    return payloads, skipped


class CheckpointStore:
    """Durable-medium stand-in that survives endpoint reconstruction.

    Holds the current checkpoint, the previous one (last-good fallback:
    if the current frame fails its CRC the previous is served instead),
    a write-ahead log of sealed records appended since the last
    checkpoint, and the endpoint's persistent incarnation-epoch counter.
    In the simulator this lives in host memory across kill/restart; a
    production port would back it with two checkpoint files and an
    append-only log, unchanged API.
    """

    def __init__(self) -> None:
        self._current: Optional[bytes] = None
        self._previous: Optional[bytes] = None
        self._wal: List[bytes] = []
        self.epoch = 0
        self.checkpoints_saved = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self.fallbacks = 0
        self.corrupt_wal_records = 0

    def next_epoch(self) -> int:
        """Draw a fresh incarnation epoch (first incarnation gets 1)."""
        self.epoch += 1
        return self.epoch

    @property
    def checkpoint_bytes(self) -> int:
        return len(self._current) if self._current is not None else 0

    def save_checkpoint(self, blob: bytes) -> None:
        """Install a new checkpoint; the WAL it subsumes is truncated."""
        self._previous = self._current
        self._current = blob
        self._wal.clear()
        self.checkpoints_saved += 1

    def append_wal(self, payload: bytes) -> None:
        sealed = _seal_record(payload)
        self._wal.append(sealed)
        self.wal_records += 1
        self.wal_bytes += len(sealed)

    def load_checkpoint(self) -> Optional[Any]:
        """Decode the newest intact checkpoint, or None if there is none.

        Corruption falls back to the previous checkpoint (counted in
        ``fallbacks``); version skew propagates as the typed
        :class:`CheckpointVersionError` — skew is an operator problem, not
        something an older frame can paper over.
        """
        for blob in (self._current, self._previous):
            if blob is None:
                continue
            try:
                return decode_checkpoint(blob)
            except CheckpointVersionError:
                raise
            except CheckpointCorruptError:
                self.fallbacks += 1
        return None

    def wal_payloads(self) -> List[bytes]:
        payloads, skipped = _unseal_records(b"".join(self._wal))
        self.corrupt_wal_records += skipped
        return payloads

    def lose_data(self) -> None:
        """Simulate losing checkpoints and WAL while the epoch survives.

        The cold-restart fixture: crash-recovery epochs must stay
        monotonic even when state is gone (think an NVRAM incarnation
        counter, or a clock-derived epoch), so only the *data* is wiped.
        The next :meth:`load_checkpoint` returns None and the endpoint
        comes up cold.
        """
        self._current = None
        self._previous = None
        self._wal.clear()


# --------------------------------------------------------------------- #
# composed endpoint state: each component's own snapshot, by name


def _sender_parts(pipeline: Any) -> Dict[str, Any]:
    """The sender's stateful components in restore order (None: absent)."""
    fabric = pipeline.fabric
    return {
        "striper": pipeline.striper,
        "reliable": pipeline.reliable,
        "fec": pipeline.fec,
        "flows": None if fabric is None else fabric.table,
        "fabric": fabric,
    }


def _receiver_parts(pipeline: Any) -> Dict[str, Any]:
    """The receiver's stateful components in restore order (None: absent)."""
    return {
        "reception": pipeline,
        "reliable": pipeline.reliable,
        "fec": pipeline.fec,
    }


def _capture(role: str, parts: Dict[str, Any], peer_epoch: int) -> Dict[str, Any]:
    tree: Dict[str, Any] = {"role": role, "peer_epoch": peer_epoch}
    for name, part in parts.items():
        tree[name] = None if part is None else part.snapshot()
    return tree


def _install(role: str, parts: Dict[str, Any], tree: Any) -> None:
    if type(tree) is not dict or tree.get("role") != role:
        raise CheckpointError(f"not a {role} checkpoint")
    for name, part in parts.items():
        state = tree.get(name)
        if part is not None and state is not None:
            part.restore(state)


def sender_to_bytes(pipeline: Any, *, peer_epoch: int = 0) -> bytes:
    """Serialize a :class:`StripeSenderPipeline`'s composed state."""
    return encode_checkpoint(
        _capture("sender", _sender_parts(pipeline), peer_epoch)
    )


def sender_from_bytes(pipeline: Any, blob: bytes) -> Dict[str, Any]:
    """Restore a freshly constructed sender pipeline from a checkpoint."""
    tree = decode_checkpoint(blob)
    _install("sender", _sender_parts(pipeline), tree)
    return tree


def receiver_to_bytes(pipeline: Any, *, sender_epoch: int = 0) -> bytes:
    """Serialize a :class:`StripeReceiverPipeline`'s composed state."""
    return encode_checkpoint(
        _capture("receiver", _receiver_parts(pipeline), sender_epoch)
    )


def receiver_from_bytes(pipeline: Any, blob: bytes) -> Dict[str, Any]:
    """Restore a freshly constructed receiver pipeline from a checkpoint."""
    tree = decode_checkpoint(blob)
    _install("receiver", _receiver_parts(pipeline), tree)
    return tree


# --------------------------------------------------------------------- #
# recovery managers


class _EndpointRecovery:
    """What both managers share: the periodic checkpoint, the announce
    retried until the peer echoes this incarnation, and :meth:`stop`.

    A role supplies ``_to_bytes()`` (its checkpoint) and
    ``_announcement()`` (its control packet).
    """

    def __init__(
        self,
        pipeline: Any,
        store: CheckpointStore,
        *,
        sim: Any = None,
        checkpoint_interval_s: Optional[float] = None,
        send_control: Optional[Callable[[Any], None]] = None,
        resume_retry_s: float = 0.04,
    ) -> None:
        self.pipeline = pipeline
        self.store = store
        self.sim = sim
        self.checkpoint_interval_s = checkpoint_interval_s
        self.send_control = send_control
        self.resume_retry_s = resume_retry_s
        self.epoch = 0
        self.resumed_from_checkpoint = False
        self._ckpt_timer: Any = None
        self._retry_timer: Any = None
        self._awaiting_echo = False
        self._stopped = False

    def stop(self) -> None:
        """Cancel timers; called when this incarnation is killed."""
        self._stopped = True
        for timer in (self._ckpt_timer, self._retry_timer):
            if timer is not None:
                timer.cancel()
        self._ckpt_timer = None
        self._retry_timer = None

    def checkpoint(self) -> bytes:
        blob = self._to_bytes()
        self.store.save_checkpoint(blob)
        return blob

    def _arm_checkpoint_timer(self) -> None:
        if (
            self.checkpoint_interval_s is None
            or self.sim is None
            or self._stopped
        ):
            return
        self._ckpt_timer = self.sim.schedule(
            self.checkpoint_interval_s, self._on_checkpoint_timer
        )

    def _on_checkpoint_timer(self) -> None:
        self._ckpt_timer = None
        if self._stopped:
            return
        self.checkpoint()
        self._arm_checkpoint_timer()

    def _announce(self) -> None:
        """Send this incarnation's announce; while the peer has not echoed
        it, retry every ``resume_retry_s``."""
        if self.send_control is None:
            return
        self.send_control(self._announcement())
        if self._awaiting_echo and self.sim is not None:
            if self._retry_timer is not None:
                self._retry_timer.cancel()
            self._retry_timer = self.sim.schedule(
                self.resume_retry_s, self._retry
            )

    def _retry(self) -> None:
        self._retry_timer = None
        if self._stopped or not self._awaiting_echo:
            return
        self._announce()

    def _echoed(self) -> None:
        """The peer's answer named this incarnation: stop retrying."""
        if self._awaiting_echo:
            self._awaiting_echo = False
            if self._retry_timer is not None:
                self._retry_timer.cancel()
                self._retry_timer = None


class SenderRecovery(_EndpointRecovery):
    """Checkpoint + WAL + resume handshake for a sender pipeline.

    WAL records between checkpoints:

    * ``pkt`` — a packet the ARQ layer stamped (carries its rseq); written
      synchronously with submission, so nothing accepted from the
      application can be lost by a crash.
    * ``sub`` — a fabric submission and its flow, written before the
      packet enters its flow queue (a submission the flow's full queue
      will refuse is not logged).
    * ``bind`` — ``flow -> rseq``, written when a packet drains from that
      flow into the ARQ layer.  The fabric drains each flow first in,
      first out, so the packet is the head of its flow: the checkpoint's
      flow queue, then the flow's ``sub`` records.  Replaying a restored
      fabric in DRR order could assign *different* rseqs than the
      original incremental drain did, so bound packets are reinstalled
      with their original rseqs and only unbound ones re-drain through
      the fabric.

    On restart, :meth:`install` restores the last checkpoint, applies the
    WAL, announces the new epoch with a :class:`ResumePacket` (retried
    until the receiver's report echoes it), and on the report reconciles +
    replays through SRR.  Takes the keywords of every recovery manager:
    ``sim``, ``checkpoint_interval_s``, ``send_control``,
    ``resume_retry_s``.
    """

    def __init__(
        self, pipeline: Any, store: CheckpointStore, **options: Any
    ) -> None:
        super().__init__(pipeline, store, **options)
        self.peer_epoch = 0
        self.recovered_at: Optional[float] = None
        self.stale_acks = 0
        self.stale_reports = 0
        self.replayed_packets = 0
        self.wal_packets_restored = 0
        self._pending_replay = False
        self._reconciled_pair = (0, 0)
        self._orig_fabric_submit: Optional[Callable[..., Any]] = None

    # -- lifecycle ----------------------------------------------------- #

    def install(self) -> bool:
        """Hook the pipeline, restore durable state, start the handshake.

        Returns True when state was restored from the store (a restart),
        False on a first incarnation.
        """
        restored = self._restore()
        self.epoch = self.store.next_epoch()
        reliable = self.pipeline.reliable
        if reliable is not None:
            reliable.on_register = self._on_register
        if self.pipeline.fabric is not None:
            self._orig_fabric_submit = self.pipeline.submit
            self.pipeline.submit = self._logged_submit
        if restored:
            self.resumed_from_checkpoint = True
            self._pending_replay = reliable is not None
            self._awaiting_echo = True
            self._announce()
            # Collapse checkpoint + WAL into one fresh checkpoint so the
            # WAL never needs to be idempotent across repeated crashes.
            self.checkpoint()
        self._arm_checkpoint_timer()
        return restored

    def _to_bytes(self) -> bytes:
        return sender_to_bytes(self.pipeline, peer_epoch=self.peer_epoch)

    # -- WAL hooks ------------------------------------------------------ #

    def _on_register(self, packet: Any) -> None:
        if self._orig_fabric_submit is not None and packet.flow is not None:
            record = {"t": "bind", "flow": packet.flow, "rseq": packet.rseq}
        else:
            record = {"t": "pkt", "pkt": packet}
        self.store.append_wal(_encode_body(record))

    def _logged_submit(self, flow_id: Any, packet: Any) -> bool:
        # Logged before the hand-off: the fabric may drain (and bind) the
        # packet before it returns.
        if self.pipeline.fabric.can_submit(flow_id):
            self.store.append_wal(
                _encode_body({"t": "sub", "flow": flow_id, "pkt": packet})
            )
        assert self._orig_fabric_submit is not None
        return self._orig_fabric_submit(flow_id, packet)

    # -- restore --------------------------------------------------------- #

    def _restore(self) -> bool:
        tree = self.store.load_checkpoint()
        if tree is None:
            return False
        _install("sender", _sender_parts(self.pipeline), tree)
        self.peer_epoch = tree.get("peer_epoch", 0)
        self._apply_wal()
        return True

    def _apply_wal(self) -> None:
        fabric = self.pipeline.fabric
        submitted: List[Tuple[Any, Any]] = []
        logged: Dict[Any, Deque[Any]] = {}  # flow -> its sub records' packets
        bound: List[Any] = []
        for payload in self.store.wal_payloads():
            record = _decode_body(payload)
            kind = record["t"]
            if kind == "sub":
                flow_id, packet = record["flow"], record["pkt"]
                if packet.flow is None:
                    packet.flow = flow_id  # as the fabric stamped it
                submitted.append((flow_id, packet))
                logged.setdefault(flow_id, deque()).append(packet)
                continue
            self.wal_packets_restored += 1
            if kind == "pkt":
                bound.append(record["pkt"])
                continue
            flow = fabric.table.get(record["flow"])
            queue = (
                flow.queue
                if flow is not None and flow.queue
                else logged.get(record["flow"])
            )
            if queue:
                packet = queue.popleft()
                packet.rseq = record["rseq"]
                bound.append(packet)
        if bound:
            self.pipeline.reliable.register_restored(bound)
        for flow_id, packet in submitted:
            if packet.rseq is None:
                # Logged at fabric entry but never drained: re-submit
                # through the normal fabric path (rseq comes at drain).
                self.pipeline.submit(flow_id, packet)

    # -- handshake ------------------------------------------------------- #

    def _base_rseq(self) -> int:
        reliable = self.pipeline.reliable
        if reliable is None:
            return -1
        if reliable.unacked:
            return min(reliable.unacked)
        return reliable.next_rseq

    def _announcement(self) -> ResumePacket:
        return ResumePacket(
            epoch=self.epoch,
            peer_epoch=self.peer_epoch,
            base_rseq=self._base_rseq(),
            state=self.pipeline.striper.sharer.snapshot(),
        )

    def on_control(self, packet: Any) -> None:
        """Handle a control packet from the reverse path."""
        if isinstance(packet, ResumeReportPacket):
            self._on_report(packet)

    def _on_report(self, report: ResumeReportPacket) -> None:
        if report.epoch < self.peer_epoch:
            self.stale_reports += 1
            return
        fresh_peer = report.epoch > self.peer_epoch
        self.peer_epoch = report.epoch
        addressed_to_us = report.peer_epoch >= self.epoch
        if addressed_to_us:
            self._echoed()
        if fresh_peer or not addressed_to_us:
            # Echo the announce *before* any replay traffic so the
            # restarted receiver's stale-buffer flush runs ahead of the
            # replayed packets on every channel (also re-arms a receiver
            # whose first echo was lost).
            self._announce()
        reliable = self.pipeline.reliable
        if reliable is None:
            return
        # Reconcile once per (peer incarnation, own incarnation) pair: a
        # max-of-epochs guard would wrongly suppress the replay when the
        # receiver restarts *after* the sender already recovered at the
        # same epoch number (e.g. sender at epoch 2, then receiver at 2).
        epoch_pair = (report.epoch, self.epoch)
        should_reconcile = (
            fresh_peer or (self._pending_replay and addressed_to_us)
        ) and self._reconciled_pair != epoch_pair
        if should_reconcile:
            self._reconciled_pair = epoch_pair
            self._pending_replay = False
            if report.cold:
                # The receiver has no history: replay the whole window.
                replayed = reliable.reconcile(self._base_rseq(), ())
            else:
                replayed = reliable.reconcile(
                    report.cum_ack, tuple((s, e) for s, e in report.blocks)
                )
            self.replayed_packets += replayed
            if self.sim is not None:
                self.recovered_at = self.sim.now
            self.pipeline.pump()

    def on_ack(self, ack: Any) -> None:
        """Epoch fence for the reverse ack path."""
        epoch = getattr(ack, "epoch", 0)
        if epoch and epoch < self.peer_epoch:
            self.stale_acks += 1
            return
        self.pipeline.on_ack(ack)


class ReceiverRecovery(_EndpointRecovery):
    """Checkpoint + delivery-cursor WAL + resume handshake for a receiver.

    The WAL holds one record per in-order delivery (``rseq`` cursor),
    written *before* the application callback runs — after a restart the
    replayed cursor guarantees nothing already handed up is delivered
    twice (exactly-once across the crash).  Acks are deliberately not
    logged: losing them only costs duplicate retransmissions, which rseq
    dedup absorbs, and that loss is exactly what makes the checkpoint
    interval a real recovery-latency knob.  Takes the keywords of every
    recovery manager (see :class:`SenderRecovery`).
    """

    def __init__(
        self, pipeline: Any, store: CheckpointStore, **options: Any
    ) -> None:
        super().__init__(pipeline, store, **options)
        self.sender_epoch = 0
        self.cold = True
        self.stale_resumes = 0
        self.stale_flushed = 0
        self.wal_cursor_restored = 0
        self._orig_deliver: Optional[Callable[[Any], Any]] = None

    # -- lifecycle ----------------------------------------------------- #

    def install(self) -> bool:
        restored = self._restore()
        self.cold = not restored
        self.resumed_from_checkpoint = restored
        self.epoch = self.store.next_epoch()
        reliable = self.pipeline.reliable
        if reliable is not None:
            self._orig_deliver = reliable.on_deliver
            reliable.on_deliver = self._logged_deliver
            if reliable.send_ack is not None:
                orig_send = reliable.send_ack
                reliable.send_ack = lambda sack: orig_send(
                    AckPacket(sack, epoch=self.epoch)
                )
        if self.epoch > 1:
            # A restart (warm or cold): report to the sender so it can
            # reconcile; retried until the sender's announce echoes us.
            self._awaiting_echo = True
            self._announce()
        if restored:
            self.checkpoint()
        self._arm_checkpoint_timer()
        return restored

    def _to_bytes(self) -> bytes:
        return receiver_to_bytes(self.pipeline, sender_epoch=self.sender_epoch)

    # -- delivery cursor WAL -------------------------------------------- #

    def _logged_deliver(self, packet: Any) -> Any:
        rseq = getattr(packet, "rseq", None)
        if rseq is not None:
            # Write-ahead: the cursor is durable before the application
            # sees the packet, so a crash between the two redelivers
            # nothing (crashes land between simulator events, never
            # mid-callback).
            self.store.append_wal(_encode_body(rseq))
        assert self._orig_deliver is not None
        return self._orig_deliver(packet)

    def _restore(self) -> bool:
        tree = self.store.load_checkpoint()
        if tree is None:
            return False
        _install("receiver", _receiver_parts(self.pipeline), tree)
        self.sender_epoch = tree.get("peer_epoch", 0)
        reliable = self.pipeline.reliable
        if reliable is not None:
            cursor = reliable.next_expected
            for payload in self.store.wal_payloads():
                rseq = _decode_body(payload)
                if rseq >= cursor:
                    cursor = rseq + 1
                    self.wal_cursor_restored += 1
            # Post-checkpoint deliveries: advance the cursor past them and
            # drop any checkpointed out-of-order copies it now covers.
            if cursor > reliable.next_expected:
                reliable.adopt_base(cursor)
        return True

    # -- handshake ------------------------------------------------------- #

    def _announcement(self) -> ResumeReportPacket:
        reliable = self.pipeline.reliable
        if reliable is not None:
            sack = reliable.sack_info()
            cum_ack, blocks = sack.cum_ack, sack.blocks
        else:
            cum_ack, blocks = 0, ()
        return ResumeReportPacket(
            epoch=self.epoch,
            peer_epoch=self.sender_epoch,
            cum_ack=cum_ack,
            blocks=blocks,
            cold=self.cold,
        )

    def on_control(self, packet: Any) -> None:
        """Handle a ResumePacket arriving on a forward channel."""
        if not isinstance(packet, ResumePacket):
            return
        if packet.epoch < self.sender_epoch:
            self.stale_resumes += 1
            return
        fresh_sender = packet.epoch > self.sender_epoch
        self.sender_epoch = packet.epoch
        if packet.peer_epoch >= self.epoch:
            self._echoed()
        if fresh_sender:
            # Drop what the dead incarnation left buffered; an engine that
            # mirrors the sender's kernel adopts the announced state.
            self.stale_flushed += self.pipeline.resequencer.sender_restarted(
                packet.state
            )
        if self.cold and packet.base_rseq >= 0:
            reliable = self.pipeline.reliable
            if reliable is not None:
                # No history at all: accept the sender's replay base as
                # our cursor — cold resync delivers FIFO from here
                # (Theorem 5.1); exactly-once holds from this point, not
                # across the lost history.
                reliable.adopt_base(packet.base_rseq)
                self.cold = False
        # Always answer: the sender retries its announce until this report
        # echoes its epoch.
        self._announce()
