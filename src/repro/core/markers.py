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
from repro.core.packet import Codepoint, MarkerPacket, is_marker
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
#   flags     u8    bit 0: a piggybacked credit is present; no other bit
#                   is defined
#   channel   u32   sender's channel number (condition C2)
#   round     i64   round number r of the next data packet
#   deficit   f64   deficit-counter value d of that packet
#   credit    i64   piggybacked FCVC credit (0 unless flagged)
#
# 32 bytes total — MarkerPacket.size, so simulated wire timing and the
# real encoding agree.

_MARKER_STRUCT = struct.Struct("!HBBIqdq")
MARKER_MAGIC = 0x5352
MARKER_CODEC_VERSION = 1
MARKER_WIRE_BYTES = _MARKER_STRUCT.size
_FLAG_CREDIT = 0x01


class MarkerDecodeError(ValueError):
    """A marker frame failed validation (truncated, oversized, corrupt).

    Subclasses :class:`ValueError` so callers that predate the typed
    error keep working; receivers catch this, bump a counter, and drop
    the frame instead of surfacing raw :mod:`struct` errors.
    """


def encode_marker(marker: MarkerPacket) -> bytes:
    """Serialize a marker to its canonical 32-byte wire form."""
    credit = marker.credit
    return _MARKER_STRUCT.pack(
        MARKER_MAGIC,
        MARKER_CODEC_VERSION,
        0 if credit is None else _FLAG_CREDIT,
        marker.channel,
        marker.round_number,
        marker.deficit,
        0 if credit is None else credit,
    )


def decode_marker(data: bytes) -> MarkerPacket:
    """Parse the canonical wire form back into a :class:`MarkerPacket`.

    Raises :class:`MarkerDecodeError` (a :class:`ValueError`) on any
    malformed input: a frame that is not 32 bytes, bad magic, an unknown
    codec version, or a flag bit other than the credit's.
    """
    if len(data) != MARKER_WIRE_BYTES:
        raise MarkerDecodeError(
            f"marker frame must be {MARKER_WIRE_BYTES} bytes, got {len(data)}"
        )
    magic, version, flags, channel, round_number, deficit, credit = (
        _MARKER_STRUCT.unpack(data)
    )
    if magic != MARKER_MAGIC:
        raise MarkerDecodeError(f"bad marker magic {magic:#06x}")
    if version != MARKER_CODEC_VERSION:
        raise MarkerDecodeError(f"unsupported marker codec version {version}")
    if flags & ~_FLAG_CREDIT:
        raise MarkerDecodeError(
            f"unknown marker flag bits {flags & ~_FLAG_CREDIT:#04x}"
        )
    return MarkerPacket(
        channel=channel,
        round_number=round_number,
        deficit=deficit,
        credit=credit if flags & _FLAG_CREDIT else None,
    )


def piggybacked_credit(packet: Any) -> Optional[Tuple[int, int]]:
    """The ``(channel, credit)`` riding ``packet``, if it is a credit-bearing
    marker (the §6.3 FCVC piggyback); None otherwise."""
    if is_marker(packet) and packet.credit is not None:
        return (packet.channel, packet.credit)
    return None


@dataclass(frozen=True)
class ReceiverSnapshot(SRRState):
    """Immutable capture of an :class:`SRRReceiver`.

    It *is* the receiver kernel's :class:`~repro.core.srr.SRRState` — the
    simulated sender state, so any SRR kernel can restore it and
    :meth:`SRRReceiver.adopt_snapshot` can adopt it — plus the receiver's
    own annotations: each channel's sync round (``None`` unless a marker
    installed one, condition C1) and what each channel's buffer held (empty
    in a snapshot built without them).
    """

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


def _kernel_field(name: str) -> property:
    return property(
        lambda self: getattr(self.kernel, name),
        lambda self, value: setattr(self.kernel, name, value),
        doc=f"The simulated sender's ``{name}`` (the kernel's field).",
    )


class SRRReceiver:
    """Logical reception with marker recovery for SRR-family striping.

    The receiver runs the sender's own engine: its simulated sender state —
    pointer, global round ``G``, per-channel deficit counters — is one
    :class:`~repro.core.kernel.SRRKernel` (``kernel``; ``ptr``,
    ``round_number`` and ``dc`` read and write its fields).  It keeps one
    annotation of its own per channel, an optional *sync round* installed
    by a marker together with the marker's absolute deficit.  A channel's
    quantum is granted when the pointer arrives, as in
    :meth:`~repro.core.kernel.SRRKernel.step`, except on a channel holding
    a sync round, whose marker deficit already includes it; while that
    round is ahead of ``G`` the channel is skipped (condition C1).

    Args:
        algorithm: the SRR-family algorithm in use at the sender.
        on_deliver: callback receiving data packets in logical order.
        tracer: optional :class:`~repro.sim.trace.Tracer`; emits ``deliver``,
            ``marker``, ``skip`` and ``block`` events.
        clock: optional ``() -> float`` supplying timestamps for traces.
    """

    ptr = _kernel_field("ptr")
    round_number = _kernel_field("round_number")
    dc = _kernel_field("dc")

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
        #: the simulated sender, at the sender's initial state
        self.kernel = SRRKernel(algorithm)
        self.sync_round: List[Optional[int]] = [None] * n
        #: channels whose ``sync_round`` is set; while it is ``n`` and the
        #: pointer wraps, ``G`` may jump to the nearest sync round
        self._synced = 0
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

        The channel's pre-outage state is gone: its deficit restarts from
        zero (its quantum granted at once if the pointer is there), and
        its first marker installs a future sync round (condition C1) that
        the scan skips it for until that round arrives, exactly the
        initial-adoption path.  No session reset is required.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        if channel not in self.failed:
            return
        self.failed.discard(channel)
        self._blocked_on = None
        kernel = self.kernel
        kernel.dc[channel] = (
            kernel.quanta[channel] if channel == kernel.ptr else 0.0
        )
        if self.sync_round[channel] is not None:
            self.sync_round[channel] = None
            self._synced -= 1
        # Forget the duplicate memo: the resync marker after revival may
        # legitimately repeat the last pre-outage pair on an idle channel.
        self._last_marker[channel] = None

    def drain(self) -> List[Any]:
        """Deliver every packet currently deliverable, honoring C1 skips."""
        out: List[Any] = []
        # Re-set where the scan parks; cleared first so that a delivery
        # callback that raises cannot leave a stale channel behind.
        self._blocked_on = None
        # This is the receive-side per-packet hot loop (every arrival
        # funnels through it), so it runs over the kernel's own arrays
        # with loop-invariant lookups hoisted into locals, and the
        # adoption (when not tracing), the kernel's charge and its pointer
        # step are written out in place.  ``ptr`` / ``round_number`` stay
        # on the kernel, where ``_adopt``, ``_flush_lag`` and the delivery
        # callback read them.
        kernel = self.kernel
        n = self._n
        assumed_budget = full_budget = 64 * n
        count_packets = kernel.count_packets
        quanta = kernel.quanta
        dc = kernel.dc
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
        # round, or blocks.  The write-off budget bounds pathological spins.
        step = False
        while True:
            if step:
                # The kernel's pointer step: a wrap bumps G, and the quantum
                # is granted on arrival unless a marker's deficit waits.
                step = False
                c += 1
                if c == n:
                    c = 0
                    kernel.round_number += 1
                    if self._synced == n:
                        # Every channel waits for a sync round: jump G to
                        # the nearest one instead of skipping round by
                        # round (a full skip-scan only increments G).
                        target = min(sync_round)
                        if target > kernel.round_number:
                            kernel.round_number = target
                kernel.ptr = c
                if sync_round[c] is None:
                    dc[c] += quanta[c]
            c = kernel.ptr
            sync = sync_round[c]
            if sync is not None:
                if sync > kernel.round_number:
                    # C1: arrived too early at this channel; skip it.
                    stats.channel_skips += 1
                    if tracing:
                        self.tracer.emit(
                            self.clock(), "receiver", "skip",
                            channel=c, G=kernel.round_number, r_c=sync,
                        )
                    step = True
                    continue
                # The marker round has arrived: DC is already absolute.
                sync_round[c] = None
                self._synced -= 1
            if dc[c] <= 0:
                # Deep overdraw (quantum < max packet): skip this visit.
                stats.deep_overdraw_skips += 1
                step = True
                continue
            buffer = buffers[c]
            if not buffer:
                if c not in failed:
                    self._blocked_on = c
                    return out
                if not self._buffered or not assumed_budget:
                    # A dead channel does not park the scan: data arriving
                    # elsewhere lets it write the expected packet off.
                    return out
                # Dead channel with live data elsewhere: write a nominal
                # quantum-sized packet off as lost and keep scanning.
                stats.assumed_lost += 1
                assumed_budget -= 1
                size = max(1, int(quanta[c]))
            else:
                assumed_budget = full_budget
                packet = buffer.popleft()
                self._buffered -= 1
                # is_marker(packet), without its frame
                if getattr(packet, "codepoint", None) == marker_code:
                    if tracing:
                        if not self._adopt(c, packet):
                            continue
                    else:
                        # _adopt(c, packet), without its frame; the
                        # channel's sync round was cleared above
                        number = (packet.round_number, packet.deficit)
                        stats.markers_received += 1
                        if last_marker[c] == number:
                            stats.duplicate_markers += 1
                            continue
                        stats.adoptions += 1
                        dc[c] = packet.deficit
                        last_marker[c] = number
                        if packet.round_number != kernel.round_number:
                            sync_round[c] = packet.round_number
                            self._synced += 1
                    if packet.round_number < kernel.round_number:
                        # The marker is stale: the scan has already passed
                        # the round it describes, so data buffered behind
                        # it (late arrivals from a reorder burst or an
                        # outage) belongs to slots that are gone.  Metering
                        # it one quantum per round would lock in a
                        # permanent delivery lag; flush the provably-past
                        # segments now.
                        self._flush_lag(c, out)
                    continue
                out.append(packet)
                stats.delivered += 1
                if on_deliver is not None:
                    on_deliver(packet)
                if tracing:
                    self.tracer.emit(
                        self.clock(), "receiver", "deliver",
                        channel=c, G=kernel.round_number, dc=dc[c],
                    )
                size = packet.size
            # The kernel's charge (SRRKernel.step)
            d = dc[c] - (1.0 if count_packets else size)
            dc[c] = d
            step = d <= 0

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
        self.kernel.dc[channel] = marker.deficit
        self._last_marker[channel] = number
        if marker.round_number != self.kernel.round_number:
            # A marker for round G is in force at once; any other round is
            # held as the channel's sync round, for the C1 skip or the lag
            # flush.  (One for G would only be cleared at the next visit.)
            if self.sync_round[channel] is None:
                self._synced += 1
            self.sync_round[channel] = marker.round_number
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock(), "receiver", "marker",
                channel=channel, r=marker.round_number, d=marker.deficit,
                G=self.kernel.round_number,
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
        kernel = self.kernel
        buffer = self.buffers[channel]
        quantum = kernel.quanta[channel]
        lag = kernel.round_number - self.sync_round[channel]
        dc = kernel.dc[channel]
        while lag > 0:
            if buffer and is_marker(buffer[0]):
                marker = buffer.popleft()
                self._buffered -= 1
                if not self._adopt(channel, marker):
                    continue
                if marker.round_number >= kernel.round_number:
                    return  # live edge (or C1 future; the scan handles it)
                lag = kernel.round_number - marker.round_number
                dc = kernel.dc[channel]
                continue
            if dc <= 0:
                dc += quantum
                lag -= 1
                continue
            if not buffer:
                # Partial catch-up: the rest of the overdue data is still
                # in flight.  Record how far the replay got.
                kernel.dc[channel] = dc
                self.sync_round[channel] = kernel.round_number - lag
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
                    channel=channel, G=kernel.round_number - lag, dc=dc,
                )
            dc -= 1.0 if kernel.count_packets else packet.size
        # Caught up: dc is the channel's absolute deficit for the current
        # round (its quantum already granted by the replay).
        kernel.dc[channel] = dc
        self.sync_round[channel] = kernel.round_number

    # ------------------------------------------------------------------ #
    # snapshot surface (sections 4-5; checkpoints, warm restarts)

    def snapshot(self) -> ReceiverSnapshot:
        """The kernel's state, the sync rounds and the channel buffers."""
        kernel = self.kernel
        return ReceiverSnapshot(
            kernel.ptr, kernel.round_number, tuple(kernel.dc),
            tuple(self.sync_round),
            tuple(tuple(buffer) for buffer in self.buffers),
        )

    def restore(self, snapshot: ReceiverSnapshot) -> None:
        """Install a state previously captured with :meth:`snapshot`.

        The buffers come back as the snapshot held them; a snapshot built
        without buffers rewinds only the simulated sender state.  Stats
        are left alone.
        """
        self.kernel.restore(snapshot)
        self._resync(snapshot.sync_round)
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
        simultaneously, but exact: the receiver's kernel becomes the
        sender's as of the snapshot and sync rounds pending against the
        old state are void.  Used when both ends share an out-of-band
        state channel (session reset installing a fresh epoch, or a warm
        standby receiver joining mid-stream); per-channel marker adoption
        (:meth:`push` with markers) remains the in-band path.  Returns
        packets that became deliverable under the adopted state.
        """
        self.kernel.restore(state)
        self.stats.adoptions += 1
        self._resync((None,) * self.n_channels)
        return self.drain()

    def _resync(self, sync_round: Tuple[Optional[int], ...]) -> None:
        """Install ``sync_round`` after the kernel state was replaced."""
        n = self.n_channels
        self.sync_round = list(sync_round)
        self._synced = n - self.sync_round.count(None)
        self._last_marker = [None] * n
        self._blocked_on = None
