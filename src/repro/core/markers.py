"""Marker-based synchronization recovery (section 5).

Losing a single packet desynchronizes sender and receiver: the receiver's
simulated state drifts and it delivers packets persistently out of order.
The paper's fix is per-channel implicit numbering plus periodic markers:

* Every packet has an implicit number ``(R, D)`` — the round number and
  deficit-counter value just before it is sent.  Neither is carried in the
  packet.
* The sender periodically sends, on each channel ``c``, a **marker**
  carrying the implicit number of the *next* data packet on ``c``.
* The receiver, on processing a marker ``(r, d)`` for channel ``c``, sets
  its local per-channel round ``r_c = r`` and that channel's DC to ``d``.
* Condition **C1** (never deliver a higher-round packet before a
  lower-round one) is enforced by *skipping*: when the receiver's
  round-robin scan reaches a channel with ``r_c > G`` (its global round),
  the channel is skipped for this scan; it is serviced again once
  ``G = r_c``.

Theorem 5.1: once losses stop and a marker has been delivered on every
channel, delivery is FIFO again — recovery takes roughly the marker period
plus one one-way propagation delay.

:class:`SRRReceiver` implements the receiver for the whole SRR family
(SRR / RR / GRR, via the unified cost function).
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.core.kernel import SRRKernel
from repro.core.packet import Codepoint, MarkerPacket, SackInfo, is_marker
from repro.core.srr import SRR, SRRState
from repro.sim.trace import NULL_TRACER, Tracer

# --------------------------------------------------------------------- #
# canonical marker wire codec
#
# Every transport stack used to carry its own ad-hoc framing for marker
# packets; this is the one canonical encoding.  Layout (network order):
#
#   magic     u16   0x5352 ("SR") — demux guard
#   version   u8    codec version (1)
#   flags     u8    bit 0: a piggybacked credit is present
#                   bit 1: a SACK extension follows the base frame
#   channel   u32   sender's channel number (condition C2)
#   round     i64   round number r of the next data packet
#   deficit   f64   deficit-counter value d of that packet
#   credit    i64   piggybacked FCVC credit (0 unless flagged)
#
# 32 bytes total — exactly the default MarkerPacket.size, so simulated
# wire timing and the real encoding agree.
#
# When bit 1 of flags is set, a SACK extension follows:
#
#   cum_ack   u64   lowest bundle rseq not yet received in order
#   count     u8    number of SACK blocks (<= MAX_SACK_BLOCKS_WIRE)
#   then count x:
#     start   u32   block start, as an offset above cum_ack
#     length  u32   block length in packets
#
# A marker with the full complement of piggybacked SACK blocks is
# 32 + 9 + 2*8 = 57 bytes — still below the 64-byte control-packet
# threshold of the fault layer, so SACK-bearing markers keep behaving as
# control traffic everywhere.

_MARKER_STRUCT = struct.Struct("!HBBIqdq")
_SACK_HEAD_STRUCT = struct.Struct("!QB")
_SACK_BLOCK_STRUCT = struct.Struct("!II")
MARKER_MAGIC = 0x5352
MARKER_CODEC_VERSION = 1
MARKER_WIRE_BYTES = _MARKER_STRUCT.size
_FLAG_CREDIT = 0x01
_FLAG_SACK = 0x02
#: reserved for FEC group metadata on reverse markers (forward compat:
#: assigned now so no other extension claims the bit; no payload format
#: is defined yet, so decoders reject frames carrying it)
_FLAG_FEC = 0x04
#: the flag bits this codec version understands
_KNOWN_FLAGS = _FLAG_CREDIT | _FLAG_SACK | _FLAG_FEC
#: most SACK blocks a piggybacked marker may carry (wire-size budget)
MAX_SACK_BLOCKS_WIRE = 2


class MarkerDecodeError(ValueError):
    """A marker frame failed validation (truncated, oversized, corrupt).

    Subclasses :class:`ValueError` so callers that predate the typed
    error keep working; receivers catch this, bump a counter, and drop
    the frame instead of surfacing raw :mod:`struct` errors.
    """


def marker_wire_size(sack: Optional[SackInfo]) -> int:
    """Encoded size of a marker carrying ``sack`` (None → base frame)."""
    if sack is None:
        return MARKER_WIRE_BYTES
    return (
        MARKER_WIRE_BYTES
        + _SACK_HEAD_STRUCT.size
        + _SACK_BLOCK_STRUCT.size * len(sack.blocks)
    )


def encode_marker(marker: MarkerPacket) -> bytes:
    """Serialize a marker to its canonical wire form (32 B + SACK ext)."""
    flags = 0
    credit = 0
    if marker.credit is not None:
        flags |= _FLAG_CREDIT
        credit = marker.credit
    sack = getattr(marker, "sack", None)
    if sack is not None:
        flags |= _FLAG_SACK
    frame = _MARKER_STRUCT.pack(
        MARKER_MAGIC,
        MARKER_CODEC_VERSION,
        flags,
        marker.channel,
        marker.round_number,
        marker.deficit,
        credit,
    )
    if sack is None:
        return frame
    if len(sack.blocks) > MAX_SACK_BLOCKS_WIRE:
        raise ValueError(
            f"marker SACK carries at most {MAX_SACK_BLOCKS_WIRE} blocks, "
            f"got {len(sack.blocks)}"
        )
    parts = [frame, _SACK_HEAD_STRUCT.pack(sack.cum_ack, len(sack.blocks))]
    for start, end in sack.blocks:
        parts.append(
            _SACK_BLOCK_STRUCT.pack(start - sack.cum_ack, end - start)
        )
    return b"".join(parts)


def _decode_sack(data: bytes, offset: int) -> SackInfo:
    """Parse the SACK extension starting at ``offset``; validates length."""
    head_end = offset + _SACK_HEAD_STRUCT.size
    if len(data) < head_end:
        raise MarkerDecodeError(
            f"marker SACK extension truncated at {len(data)} bytes"
        )
    cum_ack, count = _SACK_HEAD_STRUCT.unpack_from(data, offset)
    expected = head_end + count * _SACK_BLOCK_STRUCT.size
    if len(data) != expected:
        raise MarkerDecodeError(
            f"marker SACK extension with {count} blocks must be "
            f"{expected} bytes total, got {len(data)}"
        )
    blocks = []
    pos = head_end
    for _ in range(count):
        start_off, length = _SACK_BLOCK_STRUCT.unpack_from(data, pos)
        pos += _SACK_BLOCK_STRUCT.size
        if length == 0:
            raise MarkerDecodeError("marker SACK block with zero length")
        start = cum_ack + start_off
        blocks.append((start, start + length))
    return SackInfo(cum_ack=cum_ack, blocks=tuple(blocks))


def decode_marker(data: bytes) -> MarkerPacket:
    """Parse the canonical wire form back into a :class:`MarkerPacket`.

    Raises :class:`MarkerDecodeError` (a :class:`ValueError`) on any
    malformed input: truncated or oversized frames, bad magic, unknown
    codec version, or an inconsistent SACK extension.
    """
    if len(data) < MARKER_WIRE_BYTES:
        raise MarkerDecodeError(
            f"marker frame must be at least {MARKER_WIRE_BYTES} bytes, "
            f"got {len(data)}"
        )
    magic, version, flags, channel, round_number, deficit, credit = (
        _MARKER_STRUCT.unpack_from(data, 0)
    )
    if magic != MARKER_MAGIC:
        raise MarkerDecodeError(f"bad marker magic {magic:#06x}")
    if version != MARKER_CODEC_VERSION:
        raise MarkerDecodeError(f"unsupported marker codec version {version}")
    if flags & ~_KNOWN_FLAGS:
        # A flag bit this codec version has never assigned: the frame's
        # layout past the base header is unknowable, so parsing on would
        # misread it.  Reject rather than guess.
        raise MarkerDecodeError(
            f"unknown marker flag bits {flags & ~_KNOWN_FLAGS:#04x}"
        )
    if flags & _FLAG_FEC:
        # Reserved, not yet specified: a frame claiming an FEC extension
        # carries bytes this decoder cannot frame.
        raise MarkerDecodeError(
            "marker carries the reserved FEC-metadata flag (0x04); "
            "no extension format is defined for it yet"
        )
    sack: Optional[SackInfo] = None
    if flags & _FLAG_SACK:
        try:
            sack = _decode_sack(data, MARKER_WIRE_BYTES)
        except ValueError as exc:  # SackInfo validation → typed error
            raise MarkerDecodeError(str(exc)) from None
    elif len(data) != MARKER_WIRE_BYTES:
        raise MarkerDecodeError(
            f"marker frame must be {MARKER_WIRE_BYTES} bytes, got {len(data)}"
        )
    return MarkerPacket(
        channel=channel,
        round_number=round_number,
        deficit=deficit,
        size=len(data),
        credit=credit if flags & _FLAG_CREDIT else None,
        sack=sack,
    )


def attach_sack(marker: MarkerPacket, sack: SackInfo) -> None:
    """Piggyback ``sack`` on ``marker``, updating its simulated size."""
    if len(sack.blocks) > MAX_SACK_BLOCKS_WIRE:
        sack = SackInfo(
            cum_ack=sack.cum_ack, blocks=sack.blocks[:MAX_SACK_BLOCKS_WIRE]
        )
    marker.sack = sack
    marker.size = marker_wire_size(sack)


def piggybacked_credit(packet: Any) -> Optional[Tuple[int, int]]:
    """The ``(channel, credit)`` riding ``packet``, if it is a credit-bearing
    marker (the §6.3 FCVC piggyback); None otherwise."""
    if is_marker(packet) and packet.credit is not None:
        return (packet.channel, packet.credit)
    return None


def piggybacked_sack(packet: Any) -> Optional[SackInfo]:
    """The :class:`SackInfo` riding ``packet``, if it is a SACK-bearing
    marker (the reliability-layer reverse path); None otherwise."""
    if is_marker(packet):
        return getattr(packet, "sack", None)
    return None


@dataclass(frozen=True)
class ReceiverSnapshot:
    """Immutable capture of an :class:`SRRReceiver`'s mirror state.

    The ``(ptr, round_number, dc)`` triple is the simulated sender state
    (an :class:`~repro.core.srr.SRRState` worth of information); ``pending``
    and ``sync_round`` are the receiver-only annotations: which channels
    still owe themselves a quantum on their next visit, and which channels
    hold an un-reached marker round (condition C1).  ``buffers`` is what
    each channel held (empty in a snapshot built without them).
    """

    ptr: int
    round_number: int
    dc: Tuple[float, ...]
    pending: Tuple[bool, ...]
    sync_round: Tuple[Optional[int], ...]
    buffers: Tuple[Tuple[Any, ...], ...] = ()


@dataclass
class SRRReceiverStats:
    """Counters for the marker-synchronized receiver."""

    delivered: int = 0
    markers_received: int = 0
    adoptions: int = 0
    #: markers dropped because they repeated the last adopted ``(r, d)``
    #: pair on their channel — a network-duplicated marker re-adopted
    #: after data consumption would inflate the mirrored deficit and skip
    #: rounds, so exact repeats are discarded (idempotent adoption)
    duplicate_markers: int = 0
    channel_skips: int = 0
    #: visits abandoned because the deficit stayed non-positive even after
    #: adding a quantum — only possible when quantum < max packet size
    #: (the Theorem 5.1 assumption violated).
    deep_overdraw_skips: int = 0
    max_buffered: int = 0
    #: expected packets on a failed (dead) channel written off as lost so
    #: the surviving channels could keep delivering
    assumed_lost: int = 0
    #: packets delivered by the lag flush: data buffered behind a marker
    #: whose round the scan had already passed (late arrivals after a
    #: reorder burst or an outage) released immediately instead of being
    #: metered one quantum per round
    lag_flushed: int = 0


class SRRReceiver:
    """Logical reception with marker recovery for SRR-family striping.

    The receiver mirrors the sender's SRR state — pointer, global round
    ``G``, per-channel deficit counters — and additionally keeps, per
    channel, an optional *sync round* installed by markers.  A channel with
    a sync round in the future (``r_c > G``) is skipped (condition C1); a
    channel whose sync round has arrived is serviced with the marker's
    absolute DC value.

    Args:
        algorithm: the SRR-family algorithm in use at the sender.
        on_deliver: callback receiving data packets in logical order.
        tracer: optional :class:`~repro.sim.trace.Tracer`; emits ``deliver``,
            ``marker``, ``skip`` and ``block`` events.
        clock: optional ``() -> float`` supplying timestamps for traces.
    """

    def __init__(
        self,
        algorithm: SRR,
        on_deliver: Optional[Callable[[Any], None]] = None,
        tracer: Tracer = NULL_TRACER,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if isinstance(algorithm, SRRKernel):
            algorithm = algorithm.algorithm
        if not isinstance(algorithm, SRR):
            raise TypeError("marker recovery requires an SRR-family algorithm")
        self.algorithm = algorithm
        self.on_deliver = on_deliver
        self.tracer = tracer
        self.clock = clock if clock is not None else (lambda: 0.0)
        n = algorithm.n_channels
        self._n = n
        self.buffers: List[Deque[Any]] = [deque() for _ in range(n)]
        self._buffered = 0
        self.stats = SRRReceiverStats()
        # Mirror of the sender's initial state (see SRR.initial_state).
        self.ptr = 0
        self.round_number = 1
        self.dc: List[float] = [0.0] * n
        self.dc[0] = algorithm.quanta[0]
        self.pending: List[bool] = [False] + [True] * (n - 1)
        self.sync_round: List[Optional[int]] = [None] * n
        #: channels declared dead (see :meth:`fail_channel`)
        self.failed: set = set()
        # Last adopted (round, deficit) per channel; implicit numbers are
        # non-decreasing on a channel, so an exact repeat is a duplicate.
        self._last_marker: List[Optional[Tuple[int, float]]] = [None] * n
        #: the live channel whose empty buffer the last :meth:`drain`
        #: parked on.  Until a packet arrives there, arrivals elsewhere
        #: can only buffer (Theorem 4.1), so :meth:`push` skips the scan.
        #: Every :meth:`drain` (so ``fail_channel`` and ``adopt_snapshot``
        #: too) recomputes it; ``restore`` and ``revive_channel`` clear it.
        self._blocked_on: Optional[int] = None

    # ------------------------------------------------------------------ #

    @property
    def n_channels(self) -> int:
        return self.algorithm.n_channels

    @property
    def buffered(self) -> int:
        """Packets buffered across channels (tracked incrementally, O(1))."""
        return self._buffered

    def expected_channel(self) -> int:
        """The channel the receiver is currently blocked on."""
        return self.ptr

    def push(self, channel: int, packet: Any) -> List[Any]:
        """Physical arrival on ``channel``; returns packets delivered."""
        if not 0 <= channel < self._n:
            raise ValueError(f"channel {channel} out of range")
        self.buffers[channel].append(packet)
        self._buffered += 1
        if self._buffered > self.stats.max_buffered:
            self.stats.max_buffered = self._buffered
        blocked_on = self._blocked_on
        if blocked_on is not None and blocked_on != channel:
            return []
        return self.drain()

    def arrival(
        self,
        channel: int,
        data_count: Optional[List[int]] = None,
        divert: Optional[Tuple[List[bool], Callable[[int, Any], Any]]] = None,
    ) -> Callable[[Any], Any]:
        """``push`` bound to ``channel``, for transports that demux.

        The returned callable does exactly what ``push(channel, packet)``
        does and returns what it returns, in one frame and with the range
        check paid here.  It stays valid for the receiver's life: the
        per-channel buffers and the stats block keep their identity
        across :meth:`restore`, :meth:`adopt_snapshot` and
        :meth:`revive_channel`; everything else is read per call.

        Two hooks fold an endpoint's per-arrival step into that frame:
        ``data_count[channel]`` goes up by one per data (non-marker)
        packet buffered, and ``divert = (switch, fn)`` sends the arrival
        to ``fn(channel, packet)`` instead while ``switch[0]`` is true
        (read per arrival) or when it carries no codepoint (a wire frame).
        """
        if not 0 <= channel < self._n:
            raise ValueError(f"channel {channel} out of range")
        append = self.buffers[channel].append
        stats = self.stats
        counts = data_count if data_count is not None else [0] * self._n
        switch, fn = divert if divert is not None else ((False,), None)
        marker_code = Codepoint.MARKER

        def arrive(packet: Any) -> Any:
            if switch[0]:
                return fn(channel, packet)
            try:
                data = packet.codepoint != marker_code
            except AttributeError:
                if fn is not None:
                    return fn(channel, packet)
                data = True
            if data:
                counts[channel] += 1
            append(packet)
            buffered = self._buffered = self._buffered + 1
            if buffered > stats.max_buffered:
                stats.max_buffered = buffered
            blocked_on = self._blocked_on
            if blocked_on is not None and blocked_on != channel:
                return []
            return self.drain()

        return arrive

    # ------------------------------------------------------------------ #

    def _advance(self) -> None:
        """Move the scan pointer to the next channel; wrap bumps ``G``."""
        ptr = self.ptr + 1
        if ptr == self._n:
            ptr = 0
            self.round_number += 1
        self.ptr = ptr

    def fail_channel(self, channel: int) -> List[Any]:
        """Declare ``channel`` dead; expected packets there count as lost.

        After failure, a scan that blocks on the dead channel (empty
        buffer) while data is buffered elsewhere writes the expected packet
        off as lost — one nominal quantum-sized packet per visit — so the
        surviving channels keep delivering instead of stalling forever.
        Returns packets that became deliverable immediately.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        self.failed.add(channel)
        return self.drain()

    def revive_channel(self, channel: int) -> None:
        """Welcome a failed channel back; stop assuming its packets lost.

        The channel's pre-outage state is gone, so it re-enters pending
        resync: its first marker installs a future sync round (condition
        C1) and the scan skips it until that round arrives, exactly the
        initial-adoption path.  No session reset is required.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        if channel not in self.failed:
            return
        self.failed.discard(channel)
        self._blocked_on = None
        self.dc[channel] = 0.0
        self.pending[channel] = True
        self.sync_round[channel] = None
        # Forget the duplicate memo: the resync marker after revival may
        # legitimately repeat the last pre-outage pair on an idle channel.
        self._last_marker[channel] = None

    def _nominal_size(self, channel: int) -> int:
        """Assumed size of an unseen (lost) packet on a failed channel."""
        return max(1, int(self.algorithm.quanta[channel]))

    def drain(self) -> List[Any]:
        """Deliver every packet currently deliverable, honoring C1 skips."""
        out: List[Any] = []
        # Re-set where the scan parks; cleared first so that a delivery
        # callback that raises cannot leave a stale channel behind.
        self._blocked_on = None
        # This is the receive-side per-packet hot loop (every arrival on
        # both the reference and the fast path funnels through it), so
        # loop-invariant attribute lookups are hoisted into locals and the
        # per-packet helpers (adoption when not tracing, deficit charge,
        # pointer advance) are written out in place.  The mutable lists
        # (dc, pending, ...) are aliases the helper methods mutate in
        # place; ``ptr`` / ``round_number`` stay on ``self``, where the
        # helpers and the delivery callback read them.
        n = self._n
        assumed_budget = full_budget = 64 * n
        algorithm = self.algorithm
        count_packets = algorithm.count_packets
        quanta = algorithm.quanta
        dc = self.dc
        pending = self.pending
        sync_round = self.sync_round
        buffers = self.buffers
        failed = self.failed
        stats = self.stats
        last_marker = self._last_marker
        tracing = self.tracer.enabled
        on_deliver = self.on_deliver
        marker_code = Codepoint.MARKER
        # The scan terminates: each iteration either consumes a buffered
        # packet, advances the pointer toward the minimum pending sync
        # round, or blocks.  The skip budget bounds pathological spins.
        while True:
            c = self.ptr
            sync = sync_round[c]
            if sync is not None and sync > self.round_number:
                # C1: arrived too early at this channel; skip it this scan.
                stats.channel_skips += 1
                if tracing:
                    self.tracer.emit(
                        self.clock(), "receiver", "skip",
                        channel=c, G=self.round_number, r_c=sync,
                    )
                self._advance()
                if self._all_future_synced_and_idle():
                    # Every channel is waiting for a future round and no
                    # data is buffered anywhere: fast-forward G.
                    self._fast_forward()
                continue
            if sync is not None:
                # The marker round has arrived: DC is already absolute.
                sync_round[c] = None
                pending[c] = False
            if pending[c]:
                dc[c] += quanta[c]
                pending[c] = False
            if dc[c] <= 0:
                # Deep overdraw (quantum < max packet): skip this visit.
                stats.deep_overdraw_skips += 1
                pending[c] = True
                self._advance()
                continue
            buffer = buffers[c]
            if not buffer:
                if (
                    c in failed
                    and self._buffered > 0
                    and assumed_budget > 0
                ):
                    # Dead channel with live data elsewhere: write the
                    # expected packet off as lost and keep scanning.
                    stats.assumed_lost += 1
                    assumed_budget -= 1
                    dc[c] -= algorithm.cost(self._nominal_size(c))
                    if dc[c] <= 0:
                        pending[c] = True
                        self._advance()
                    continue
                # Block on this channel.  A dead one does not park the
                # scan: data arriving elsewhere lets it write the expected
                # packet off and move on.
                if c not in failed:
                    self._blocked_on = c
                return out
            assumed_budget = full_budget
            packet = buffer.popleft()
            self._buffered -= 1
            # is_marker(packet), without its frame
            if getattr(packet, "codepoint", None) == marker_code:
                if tracing:
                    if not self._adopt(c, packet):
                        continue
                else:
                    # _adopt(c, packet), without its frame
                    number = (packet.round_number, packet.deficit)
                    stats.markers_received += 1
                    if last_marker[c] == number:
                        stats.duplicate_markers += 1
                        continue
                    stats.adoptions += 1
                    dc[c] = packet.deficit
                    sync_round[c] = packet.round_number
                    pending[c] = False
                    last_marker[c] = number
                if packet.round_number < self.round_number:
                    # The marker is stale: the scan has already passed the
                    # round it describes, so data buffered behind it (late
                    # arrivals from a reorder burst or an outage) belongs
                    # to slots that are gone.  Metering it one quantum per
                    # round would lock in a permanent delivery lag; flush
                    # the provably-past segments now.
                    self._flush_lag(c, out)
                continue
            out.append(packet)
            stats.delivered += 1
            if on_deliver is not None:
                on_deliver(packet)
            if tracing:
                self.tracer.emit(
                    self.clock(), "receiver", "deliver",
                    channel=c, G=self.round_number, dc=dc[c],
                )
            # algorithm.cost(size) and _advance(), without their frames
            d = dc[c] - (1.0 if count_packets else packet.size)
            dc[c] = d
            if d <= 0:
                pending[c] = True
                c += 1
                if c == n:
                    c = 0
                    self.round_number += 1
                self.ptr = c

    def _adopt(self, channel: int, marker: MarkerPacket) -> bool:
        """Install the marker's ``(r, d)`` as channel state (section 5);
        False if it exactly repeats the last adoption on its channel.

        Implicit numbers ``(r, d)`` are non-decreasing per channel, so a
        marker matching the last adopted pair after any consumption is a
        network duplicate (or an idle-channel keepalive repeat, for which
        re-adoption would be a state no-op anyway).  Re-adopting it after
        data was consumed would reinstall a stale deficit and skip rounds;
        adoption must be idempotent, so exact repeats are dropped.
        """
        number = (marker.round_number, marker.deficit)
        self.stats.markers_received += 1
        if self._last_marker[channel] == number:
            self.stats.duplicate_markers += 1
            return False
        self.stats.adoptions += 1
        self.dc[channel] = marker.deficit
        self.sync_round[channel] = marker.round_number
        self.pending[channel] = False
        self._last_marker[channel] = number
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock(), "receiver", "marker",
                channel=channel, r=marker.round_number, d=marker.deficit,
                G=self.round_number,
            )
        return True

    def _flush_lag(self, channel: int, out: List[Any]) -> None:
        """Release data whose logical slot the scan has already passed.

        Called after adopting a marker with ``r < round_number``: the
        channel is ``round_number - r`` rounds behind the scan (late
        arrivals after a reorder burst or an outage).  The marker gives
        the implicit number ``(r, d)`` of the very next data packet, so
        the missed rounds can be replayed exactly: consume buffered data
        against the simulated deficit, advancing the channel's local
        round each time the deficit exhausts, until it reaches the live
        edge.  Everything consumed this way is provably overdue and is
        delivered immediately, uncharged — its deficit belonged to rounds
        the scan skipped; metering it instead would lock in a permanent
        one-packet-per-round delivery lag.  A marker encountered mid-
        replay re-anchors the simulation; if the buffer runs dry before
        the lag is repaid, the partial progress is written back and the
        next stale marker resumes from there.
        """
        buffer = self.buffers[channel]
        quantum = self.algorithm.quanta[channel]
        lag = self.round_number - self.sync_round[channel]
        dc = self.dc[channel]
        while lag > 0:
            if buffer and is_marker(buffer[0]):
                marker = buffer.popleft()
                self._buffered -= 1
                if not self._adopt(channel, marker):
                    continue
                if marker.round_number >= self.round_number:
                    return  # live edge (or C1 future; the scan handles it)
                lag = self.round_number - marker.round_number
                dc = self.dc[channel]
                continue
            if dc <= 0:
                dc += quantum
                lag -= 1
                continue
            if not buffer:
                # Partial catch-up: the rest of the overdue data is still
                # in flight.  Record how far the replay got.
                self.dc[channel] = dc
                self.sync_round[channel] = self.round_number - lag
                return
            packet = buffer.popleft()
            self._buffered -= 1
            out.append(packet)
            self.stats.delivered += 1
            self.stats.lag_flushed += 1
            if self.on_deliver is not None:
                self.on_deliver(packet)
            if self.tracer.enabled:
                self.tracer.emit(
                    self.clock(), "receiver", "deliver",
                    channel=channel, G=self.round_number - lag, dc=dc,
                )
            dc -= self.algorithm.cost(packet.size)
        # Caught up: dc is the channel's absolute deficit for the current
        # round (its quantum already granted by the replay).
        self.dc[channel] = dc
        self.sync_round[channel] = self.round_number

    def _all_future_synced_and_idle(self) -> bool:
        return (
            all(
                self.sync_round[c] is not None
                and self.sync_round[c] > self.round_number
                for c in range(self._n)
            )
        )

    def _fast_forward(self) -> None:
        """Jump ``G`` to the nearest pending sync round instead of spinning.

        Semantically identical to scanning-and-skipping round by round
        (each full skip-scan increments ``G`` by one and touches nothing
        else), just O(1).
        """
        target = min(r for r in self.sync_round if r is not None)
        if target > self.round_number and self.ptr == 0:
            self.round_number = target

    # ------------------------------------------------------------------ #
    # snapshot surface (sections 4-5; checkpoints, warm restarts)

    def snapshot(self) -> ReceiverSnapshot:
        """Immutable capture of the mirror state and the channel buffers."""
        return ReceiverSnapshot(
            ptr=self.ptr,
            round_number=self.round_number,
            dc=tuple(self.dc),
            pending=tuple(self.pending),
            sync_round=tuple(self.sync_round),
            buffers=tuple(tuple(buffer) for buffer in self.buffers),
        )

    def restore(self, snapshot: ReceiverSnapshot) -> None:
        """Install a state previously captured with :meth:`snapshot`.

        The buffers come back as the snapshot held them; a snapshot built
        without buffers rewinds only the simulated sender state.  Stats
        are left alone.
        """
        if len(snapshot.dc) != self.n_channels:
            raise ValueError(
                f"snapshot has {len(snapshot.dc)} channels, "
                f"receiver has {self.n_channels}"
            )
        self.ptr = snapshot.ptr
        self.round_number = snapshot.round_number
        self.dc = list(snapshot.dc)
        self.pending = list(snapshot.pending)
        self.sync_round = list(snapshot.sync_round)
        self._last_marker = [None] * self.n_channels
        self._blocked_on = None
        for buffer, held in zip(self.buffers, snapshot.buffers):
            buffer.clear()
            buffer.extend(held)
        self._buffered = sum(len(buffer) for buffer in self.buffers)

    def sender_restarted(self, state: Optional[SRRState]) -> int:
        """A restarted sender announced its kernel ``state``: drop what
        the buffers hold from its dead incarnation and adopt ``state``
        (:meth:`adopt_snapshot`).  Returns the packets dropped."""
        dropped = self._buffered
        for buffer in self.buffers:
            buffer.clear()
        self._buffered = 0
        if state is not None:
            self.adopt_snapshot(state)
        return dropped

    def adopt_snapshot(self, state: SRRState) -> List[Any]:
        """Adopt a *sender* kernel snapshot wholesale (all channels at once).

        Equivalent to receiving a fresh marker on every channel
        simultaneously, but exact: the receiver's mirror becomes the
        sender's state as of the snapshot.  Used when both ends share an
        out-of-band state channel (session reset installing a fresh epoch,
        or a warm standby receiver joining mid-stream); per-channel marker
        adoption (:meth:`push` with markers) remains the in-band path.

        In the sender invariant ``dc[ptr]`` already includes the current
        visit's quantum, so ``pending`` is False only for ``ptr``; markers
        pending against the old state are void.  Returns packets that
        became deliverable under the adopted state.
        """
        if len(state.dc) != self.n_channels:
            raise ValueError(
                f"snapshot has {len(state.dc)} channels, "
                f"receiver has {self.n_channels}"
            )
        self.stats.adoptions += 1
        self.ptr = state.ptr
        self.round_number = state.round_number
        self.dc = list(state.dc)
        self.pending = [True] * self.n_channels
        self.pending[state.ptr] = False
        self.sync_round = [None] * self.n_channels
        self._last_marker = [None] * self.n_channels
        return self.drain()

    # ------------------------------------------------------------------ #
    # introspection for tests

    def mirror_state(self) -> dict:
        """Snapshot of the receiver's simulated sender state."""
        return {
            "ptr": self.ptr,
            "G": self.round_number,
            "dc": tuple(self.dc),
            "pending": tuple(self.pending),
            "sync_round": tuple(self.sync_round),
        }
