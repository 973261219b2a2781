"""Proactive FEC recovery over the striped bundle (fec / hybrid modes).

The third recovery strategy next to quasi-FIFO resync and selective-repeat
ARQ: the sender groups every ``k`` submitted data packets into a *stripe
group*, encodes ``m`` parity packets over the group with a systematic
erasure code (:mod:`repro.core.fec`), and stripes the parity through the
same SRR kernel as data.  The receiver reconstructs up to ``m`` lost group
members locally — no retransmission, no extra RTT.

Layering (sender)::

    submit -> FecSender -> [ReliableSender (hybrid only)] -> striper
                  \\------- parity ----------------------/

``FecSender`` hands each data packet to its downstream *first* (in hybrid
mode that is :meth:`ReliableSender.submit`, which stamps ``rseq``
synchronously even when the window parks the packet), then serializes the
packet into a byte shard.  When the group reaches ``k`` shards — or a seal
timeout fires on a partially filled group — parity is encoded and
submitted through the pipeline's raw stripe path.  Parity deliberately
*bypasses* the ARQ layer: it is expendable redundancy, never
retransmitted, and carries no ``rseq``.  It does **not** bypass the
striper — parity must flow through the kernel like any burst so the
receiver's simulated SRR stays causally consistent and so placement
rotates across weighted channels exactly as the kernel's deficit counters
dictate (the memec ``StripeList`` discipline: no channel absorbs all
redundancy, and Theorem 3.2's envelope covers data + parity combined).

Layering (receiver)::

    sync model -> FecReceiver -> [ReliableReceiver (hybrid)] -> delivery
                              -> fseq resequencing (pure fec) -> delivery

Data packets pass straight through (hybrid: into the ARQ receiver, whose
``rseq`` cursor dedups late retransmits of packets FEC already repaired);
their shard fields are kept until the group resolves and packed into
bytes only if it decodes.  Parity packets carry the group geometry
(base ``fseq``, member count, parity index) and are consumed here.  As
soon as ``missing <= surviving parity`` the group decodes and the
missing members are synthesized — fresh uids, ``synthesized=True`` (a
:class:`~repro.core.packet.PacketPool` refuses them), original
``seq``/``rseq``/payload restored bit-exact.

Unrecoverable groups (erasures exceed surviving parity at the group
timeout) resolve to ARQ in hybrid mode — the SACK holes are still open, so
the normal PR-5 machinery retransmits — and count toward an escalation
hook: ``escalate_after`` *consecutive* failed groups fire ``on_escalate``,
the bridge into the PR-4 lifecycle for persistent-loss regimes FEC cannot
absorb.  In pure fec mode the receiver resequences by ``fseq`` itself and
a gap-skip timer (same ``group_timeout_s``) abandons unrecoverable
positions, keeping delivery live under loss heavier than ``m`` covers.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.fec import FecCodec, FecDecodeError, make_codec
from ..core.packet import Codepoint, Packet, _packet_ids

__all__ = [
    "FecReceiver",
    "FecReceiverStats",
    "FecSender",
    "FecSenderStats",
    "PARITY_HEADER_BYTES",
    "ParityPacket",
    "packet_from_shard",
    "shard_for",
]


# --------------------------------------------------------------------- #
# shard serialization
#
# A shard is the byte image of one data packet: a fixed header (size,
# seq, rseq, payload length) plus the payload bytes.  Sender and receiver
# pack shards the same way from the same fields (``_pack_shard``; the
# sender's burst loop inlines it), so the receiver's cached shards are
# bit-identical to what the sender encoded — the property the whole scheme
# rests on.  Shards are never padded: the codec treats a short shard as
# zero-padded.  ``label``/``flow`` are simulation-side annotations and are
# not carried through reconstruction.

_SHARD_HEADER = struct.Struct("!IqqI")
_pack_header = _SHARD_HEADER.pack

#: body length of a packet with no payload (``None``), as opposed to an
#: empty one (``b""``): both have an empty body, so the shard, the parity
#: and the wire bytes are the same size either way
_NO_PAYLOAD = 0xFFFFFFFF

#: accounting size of the per-parity-packet metadata (group, members,
#: index, nparity, shard_len — five u32/u16 fields plus codepoint tag)
PARITY_HEADER_BYTES = 24


def _as_bytes(payload: Any) -> bytes:
    """A shard body from a payload that is not ``bytes`` or ``None``."""
    if isinstance(payload, (bytearray, memoryview)):
        return bytes(payload)
    raise TypeError(
        "FEC modes require bytes payloads (or None); got "
        f"{type(payload).__name__} — serialize upper-layer objects "
        "before submit"
    )


def _pack_shard(
    size: int, seq: Optional[int], rseq: Optional[int], body: Optional[bytes]
) -> bytes:
    return _pack_header(
        size,
        -1 if seq is None else seq,
        -1 if rseq is None else rseq,
        _NO_PAYLOAD if body is None else len(body),
    ) + (body or b"")


def shard_for(packet: Any) -> bytes:
    """The byte shard encoding ``packet`` for parity arithmetic."""
    payload = packet.payload
    if payload is not None and type(payload) is not bytes:
        payload = _as_bytes(payload)
    return _pack_shard(packet.size, packet.seq, packet.rseq, payload)


def packet_from_shard(shard: bytes, fseq: int) -> Packet:
    """Rebuild the data packet a (possibly zero-padded) shard encodes.

    The result is marked ``synthesized`` and carries a fresh ``uid`` —
    it is a new logical packet standing in for one that was lost.
    """
    size, seq, rseq, body_len = _SHARD_HEADER.unpack_from(shard)
    payload = None
    if body_len != _NO_PAYLOAD:
        offset = _SHARD_HEADER.size
        payload = bytes(shard[offset:offset + body_len])
    return Packet(
        size,
        None if seq < 0 else seq,
        payload=payload,
        rseq=None if rseq < 0 else rseq,
        fseq=fseq,
        synthesized=True,
    )


@dataclass(slots=True, init=False)
class ParityPacket:
    """One parity shard for a stripe group.

    Distinguished from data by codepoint (like markers), so data packets
    stay unmodified.  ``group`` is the ``fseq`` of the group's first data
    packet; ``members`` the number of data shards actually sealed (short
    groups seal by timeout); ``index`` this shard's parity row; ``nparity``
    the group's total parity count; ``shard_len`` the group's longest
    shard, which every parity shard of the group is as long as.
    """

    group: int
    members: int
    index: int
    nparity: int
    shard_len: int
    payload: bytes
    size: int = 0
    uid: int = field(default_factory=_packet_ids.__next__)
    codepoint: str = Codepoint.PARITY
    seq: Optional[int] = None
    rseq: Optional[int] = None
    fseq: Optional[int] = None

    def __init__(
        self, group: int, members: int, index: int, nparity: int,
        shard_len: int, payload: bytes, size: int = 0,
        uid: Optional[int] = None, codepoint: str = Codepoint.PARITY,
        seq: Optional[int] = None, rseq: Optional[int] = None,
        fseq: Optional[int] = None,
    ) -> None:
        self.group = group
        self.members = members
        self.index = index
        self.nparity = nparity
        self.shard_len = shard_len
        self.payload = payload
        self.size = size if size > 0 else shard_len + PARITY_HEADER_BYTES
        self.uid = next(_packet_ids) if uid is None else uid
        self.codepoint = codepoint
        self.seq = seq
        self.rseq = rseq
        self.fseq = fseq

    def __repr__(self) -> str:
        return (
            f"Parity(group={self.group}, {self.index + 1}/{self.nparity}, "
            f"k'={self.members}, {self.size}B)"
        )


# --------------------------------------------------------------------- #
# sender


@dataclass
class FecSenderStats:
    groups_sealed: int = 0
    count_sealed: int = 0
    timeout_sealed: int = 0
    data_packets: int = 0
    parity_packets: int = 0
    parity_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FecSender:
    """Groups submitted data into stripe groups and emits parity.

    Args:
        downstream: per-packet data path (``ReliableSender.submit`` in
            hybrid mode, the pipeline's raw stripe in pure fec).  Called
            *before* the packet is absorbed into a group so ``rseq`` is
            already stamped when the shard is serialized.
        stripe_parity: batch submit for parity packets — the pipeline's
            raw ``_stripe_many``, bypassing ARQ but not the SRR kernel.
        k: data shards per group.
        m: parity shards per group.
        sim: discrete-event engine for the seal timeout (optional; without
            it partial groups seal only on :meth:`flush`).
        seal_timeout_s: how long a partial group may wait for more data
            before sealing short.
        codec: explicit :class:`~repro.core.fec.FecCodec` (overrides
            ``k``/``m``).
        downstream_many: optional burst data path (``submit_many``); falls
            back to per-packet ``downstream``.
    """

    def __init__(
        self,
        downstream: Callable[[Any], Any],
        stripe_parity: Callable[[Sequence[Any]], Any],
        *,
        k: int = 6,
        m: int = 2,
        sim: Any = None,
        seal_timeout_s: float = 0.01,
        codec: Optional[FecCodec] = None,
        downstream_many: Optional[Callable[[Sequence[Any]], Any]] = None,
    ) -> None:
        self.codec = codec if codec is not None else make_codec(k, m)
        self.k = self.codec.k
        self.m = self.codec.m
        self._downstream = downstream
        self._downstream_many = downstream_many
        self._stripe_parity = stripe_parity
        self.sim = sim
        self.seal_timeout_s = seal_timeout_s
        self._next_fseq = 0
        self._group_base = 0
        self._shards: List[bytes] = []
        self._seal_timer: Any = None
        self.stats = FecSenderStats()

    # -- data path ----------------------------------------------------- #

    def submit(self, packet: Any) -> Any:
        """Stamp ``fseq``, forward downstream, absorb into the open group."""
        packet.fseq = self._next_fseq
        self._next_fseq += 1
        result = self._downstream(packet)
        self._absorb((packet,))
        return result

    def submit_many(self, packets: Sequence[Any]) -> Any:
        """Burst variant: one downstream batch, then absorb in order."""
        fseq = self._next_fseq
        for packet in packets:
            packet.fseq = fseq
            fseq += 1
        self._next_fseq = fseq
        if self._downstream_many is not None:
            result = self._downstream_many(packets)
        else:
            result = [self._downstream(packet) for packet in packets]
        self._absorb(packets)
        return result

    def _absorb(self, packets: Sequence[Any]) -> None:
        """Pack each packet's shard into the open group, in order, sealing
        every group that fills; arm the seal timer on a group's first."""
        shards = self._shards
        k = self.k
        for packet in packets:
            # shard_for(packet), without its frames
            payload = packet.payload
            if payload is None:
                body_len, payload = _NO_PAYLOAD, b""
            else:
                if type(payload) is not bytes:
                    payload = _as_bytes(payload)
                body_len = len(payload)
            seq, rseq = packet.seq, packet.rseq
            if not shards:
                self._group_base = packet.fseq
            shards.append(_pack_header(
                packet.size,
                -1 if seq is None else seq,
                -1 if rseq is None else rseq,
                body_len,
            ) + payload)
            self.stats.data_packets += 1
            if len(shards) >= k:
                self._seal(by_timeout=False)
                shards = self._shards
            elif self._seal_timer is None and self.sim is not None:
                self._seal_timer = self.sim.schedule(
                    self.seal_timeout_s, self._on_seal_timeout
                )

    def _on_seal_timeout(self) -> None:
        self._seal_timer = None
        if self._shards:
            self._seal(by_timeout=True)

    def flush(self) -> None:
        """Seal the open partial group immediately (end of stream)."""
        if self._shards:
            self._seal(by_timeout=True)

    def _seal(self, *, by_timeout: bool) -> None:
        if self._seal_timer is not None:
            self._seal_timer.cancel()
            self._seal_timer = None
        shards = self._shards
        self._shards = []
        parity_shards = self.codec.encode(shards)
        base, members, m = self._group_base, len(shards), self.m
        length = len(parity_shards[0])
        parity = [
            ParityPacket(base, members, j, m, length, payload)
            for j, payload in enumerate(parity_shards)
        ]
        stats = self.stats
        stats.groups_sealed += 1
        if by_timeout:
            stats.timeout_sealed += 1
        else:
            stats.count_sealed += 1
        stats.parity_packets += m
        stats.parity_bytes += m * (length + PARITY_HEADER_BYTES)
        self._stripe_parity(parity)

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Dict[str, int]:
        """The group counters.  The open group's shards are left out:
        after a restart it would seal with holes anyway, and hybrid's ARQ
        backstop (or pure fec's gap skip) owns those positions."""
        return {"next_fseq": self._next_fseq, "group_base": self._group_base}

    def restore(self, state: Dict[str, int]) -> None:
        self._next_fseq = state["next_fseq"]
        self._group_base = state["group_base"]


# --------------------------------------------------------------------- #
# receiver


@dataclass
class FecReceiverStats:
    data_packets: int = 0
    parity_packets: int = 0
    reconstructed: int = 0
    groups_resolved: int = 0
    groups_decoded: int = 0
    unrecoverable_groups: int = 0
    duplicate_packets: int = 0
    skipped: int = 0
    escalations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _Group:
    __slots__ = ("base", "members", "nparity", "parity", "timer", "resolved")

    def __init__(self, base: int, members: int, nparity: int) -> None:
        self.base = base
        self.members = members
        self.nparity = nparity
        self.parity: Dict[int, bytes] = {}
        self.timer: Any = None
        self.resolved = False


#: resolved groups retained (for late-parity dedup) before eviction
_RESOLVED_RETENTION = 512


class FecReceiver:
    """Reconstructs lost stripe-group members from parity.

    ``ordered=False`` (hybrid): every data packet — received or
    reconstructed — is passed straight to ``on_deliver`` (the ARQ
    receiver's ``push``), which owns ordering and dedup by ``rseq``.

    ``ordered=True`` (pure fec): this layer resequences by ``fseq``:
    packets buffer until their position is next, reconstructions slot
    into their gaps, and a gap-skip timer (``group_timeout_s``) abandons
    positions that stay unrecoverable so delivery never wedges.
    """

    def __init__(
        self,
        on_deliver: Callable[[Any], Any],
        *,
        k: int = 6,
        m: int = 2,
        codec: Optional[FecCodec] = None,
        ordered: bool = True,
        sim: Any = None,
        group_timeout_s: float = 0.25,
        escalate_after: int = 3,
        on_escalate: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.codec = codec if codec is not None else make_codec(k, m)
        self.on_deliver = on_deliver
        self.ordered = ordered
        self.sim = sim
        self.group_timeout_s = group_timeout_s
        self.escalate_after = escalate_after
        self.on_escalate = on_escalate
        #: ``(size, seq, rseq, body)`` of every data packet seen, by fseq
        #: — the fields, not the packet (pools recycle it) and not the
        #: shard: only a group that decodes ever needs its bytes packed.
        self._shards: Dict[int, Tuple[int, Any, Any, Optional[bytes]]] = {}
        self._groups: Dict[int, _Group] = {}
        self._base_of: Dict[int, int] = {}
        self._resolved_fifo: Deque[int] = deque()
        self._delivered_hw = -1  # highest fseq handed downstream (hybrid)
        self._consecutive_failures = 0
        # Hybrid mode caps orphan shards (groups whose parity never
        # arrives, so no timer ever covers them) to a sliding window of
        # recent positions; ARQ owns anything older.
        self._shard_log: Deque[int] = deque()
        self._shard_window = max(64, 16 * self.codec.k)
        # pure-fec resequencing state
        self._next_expected = 0
        self._pending: Dict[int, Any] = {}
        self._skip_timer: Any = None
        self.stats = FecReceiverStats()

    # -- ingress -------------------------------------------------------- #

    def on_packet(self, packet: Any) -> None:
        """Entry point: bound as the sync model's delivery callback."""
        if getattr(packet, "codepoint", None) == Codepoint.PARITY:
            self._on_parity(packet)
            return
        fseq = getattr(packet, "fseq", None)
        if fseq is None:
            # Not FEC-framed (mode mismatch or control leak): pass through.
            self.on_deliver(packet)
            return
        self.stats.data_packets += 1
        shards = self._shards
        if self.ordered:
            if fseq < self._next_expected or fseq in self._pending:
                self.stats.duplicate_packets += 1
                return
        elif fseq in shards:
            # Hybrid duplicates (ARQ retransmit racing the original) still
            # flow downstream — the ARQ receiver owns rseq-level dedup —
            # but are not re-counted as new shards.
            self.stats.duplicate_packets += 1
            self.on_deliver(packet)
            return
        payload = packet.payload
        if payload is not None and type(payload) is not bytes:
            payload = _as_bytes(payload)
        shards[fseq] = (packet.size, packet.seq, packet.rseq, payload)
        log = self._shard_log
        log.append(fseq)
        # Shards are retained past delivery — parity always trails its
        # data, so a group can only decode if its delivered members'
        # shards are still cached.  The window bounds retention for
        # groups whose parity never arrives at all.
        cursor = self._next_expected if self.ordered else self._delivered_hw
        floor = cursor - self._shard_window
        if log[0] < floor:
            base_of = self._base_of
            while log and log[0] < floor:
                old = log.popleft()
                if old not in base_of:
                    shards.pop(old, None)
        if self.ordered:
            self._pending[fseq] = packet
            self._drain()
        else:
            if fseq > self._delivered_hw:
                self._delivered_hw = fseq
            self.on_deliver(packet)
        base = self._base_of.get(fseq)
        if base is not None:
            self._try(self._groups[base])

    def _on_parity(self, parity: Any) -> None:
        self.stats.parity_packets += 1
        group = self._groups.get(parity.group)
        if group is None:
            group = _Group(parity.group, parity.members, parity.nparity)
            self._groups[parity.group] = group
            for fseq in range(group.base, group.base + group.members):
                self._base_of[fseq] = group.base
            if self.sim is not None:
                group.timer = self.sim.schedule(
                    self.group_timeout_s, self._on_group_timeout, group.base
                )
        elif group.resolved:
            return  # late sibling parity of an already-settled group
        group.parity[parity.index] = parity.payload
        self._try(group)

    # -- reconstruction ------------------------------------------------- #

    def _try(self, group: _Group) -> None:
        if group.resolved:
            return
        span = range(group.base, group.base + group.members)
        missing = [fseq for fseq in span if fseq not in self._shards]
        # Positions the resequencer already skipped (pure fec) can no
        # longer be delivered; they still count as erasures for the
        # decoder but are never synthesized.
        deliverable = (
            [f for f in missing if f >= self._next_expected]
            if self.ordered
            else missing
        )
        if not deliverable:
            self._resolve(group, failed=bool(missing))
            return
        if len(missing) > len(group.parity):
            return  # wait for more data or parity (or the timeout)
        data: List[Optional[bytes]] = []
        for fseq in span:
            fields = self._shards.get(fseq)
            data.append(None if fields is None else _pack_shard(*fields))
        parity: List[Optional[bytes]] = [
            group.parity.get(j) for j in range(group.nparity)
        ]
        try:
            decoded = self.codec.decode(data, parity)
        except FecDecodeError:  # pragma: no cover - guarded by the count check
            return
        self.stats.groups_decoded += 1
        for fseq in deliverable:
            packet = packet_from_shard(decoded[fseq - group.base], fseq)
            self.stats.reconstructed += 1
            if self.ordered:
                self._pending[fseq] = packet
            else:
                if fseq > self._delivered_hw:
                    self._delivered_hw = fseq
                self.on_deliver(packet)
        if self.ordered:
            self._drain()
        self._resolve(group, failed=False)

    def _resolve(self, group: _Group, *, failed: bool) -> None:
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        group.resolved = True
        for fseq in range(group.base, group.base + group.members):
            self._base_of.pop(fseq, None)
            self._shards.pop(fseq, None)
        group.parity.clear()
        self._resolved_fifo.append(group.base)
        while len(self._resolved_fifo) > _RESOLVED_RETENTION:
            evicted = self._resolved_fifo.popleft()
            stale = self._groups.get(evicted)
            if stale is not None and stale.resolved:
                del self._groups[evicted]
        self.stats.groups_resolved += 1
        if failed:
            self.stats.unrecoverable_groups += 1
            self._consecutive_failures += 1
            if (
                self.on_escalate is not None
                and self._consecutive_failures >= self.escalate_after
            ):
                self.stats.escalations += 1
                self._consecutive_failures = 0
                self.on_escalate(group.base)
        else:
            self._consecutive_failures = 0

    def _on_group_timeout(self, base: int) -> None:
        group = self._groups.get(base)
        if group is None or group.resolved:
            return
        group.timer = None
        # One last attempt (a racing arrival may have completed it) …
        self._try(group)
        if not group.resolved:
            # … otherwise give up: hybrid falls back to ARQ retransmission,
            # pure fec will gap-skip the dead positions.
            self._resolve(group, failed=True)

    # -- pure-fec resequencing ------------------------------------------ #

    def _drain(self) -> None:
        pending = self._pending
        self._drain_ready()
        if pending:
            if self._skip_timer is None and self.sim is not None:
                self._skip_timer = self.sim.schedule(
                    self.group_timeout_s, self._on_skip_timeout
                )
        elif self._skip_timer is not None:
            self._skip_timer.cancel()
            self._skip_timer = None

    def _on_skip_timeout(self) -> None:
        self._skip_timer = None
        # Sweep every position with no live repair path — its group
        # resolved as failed, or no parity for it was ever seen — until
        # delivery unblocks or a still-live group is reached (that group
        # gets its own timeout before the re-armed timer returns here).
        # Sweeping per-region rather than one gap per firing keeps the
        # drain time proportional to the number of *live* groups, not the
        # number of holes: under heavy burst loss the holes arrive far
        # faster than one per timeout period.
        pending = self._pending
        while pending and self._next_expected not in pending:
            fseq = self._next_expected
            base = self._base_of.get(fseq)
            if base is not None and not self._groups[base].resolved:
                break
            self._shards.pop(fseq, None)
            self.stats.skipped += 1
            self._next_expected += 1
            self._drain_ready()
        self._drain()

    def _drain_ready(self) -> None:
        """Deliver the run of pending packets at the cursor (no timers)."""
        pending = self._pending
        while self._next_expected in pending:
            packet = pending.pop(self._next_expected)
            self._next_expected += 1
            self.on_deliver(packet)

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Dict[str, int]:
        """The delivery cursors.  Partial groups and cached shards are
        left out: parity for them may be gone with the process, and the
        ARQ backstop (or the gap-skip timer) owns those positions."""
        return {
            "next_expected": self._next_expected,
            "delivered_hw": self._delivered_hw,
        }

    def restore(self, state: Dict[str, int]) -> None:
        self._next_expected = state["next_expected"]
        self._delivered_hw = state["delivered_hw"]
