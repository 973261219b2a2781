"""Selective-repeat ARQ over the striped bundle (the "Reliable" in the
paper's title, taken end to end).

Markers make delivery *quasi-FIFO*: Theorem 5.1 restores order after a
loss, but the lost payload itself is gone.  This layer adds end-to-end
recovery **above** the striper, preserving the paper's headline
constraint (section 2.1: data packets are never modified):

* The sender assigns each submitted packet a bundle sequence number
  ``rseq`` — carried on the :class:`~repro.core.packet.Packet` object,
  not in any on-wire header the striping layer would have to add.  A
  real deployment would place it in the application framing above the
  stripe, exactly where the harness ``seq`` lives.
* The receiver acknowledges with a cumulative ack plus SACK blocks
  (RFC 2018 style), each an :class:`AckPacket` on the reverse control
  path.  Markers carry only what the paper gives them: the next implicit
  number, and the §6.3 FCVC credit.
* Retransmissions are resubmitted through the same SRR kernel as new
  data, so recovery traffic is striped under the Theorem 3.2 fairness
  bound instead of hammering one channel.  A retransmission an ack
  answers while it still waits in the striper's input queue is withdrawn
  before the kernel assigns it a channel (:attr:`ReliableSender.withdraw`),
  so the scoreboard is consulted when a copy leaves, not only when it is
  decided (RFC 6675's NextSeg).  NextSeg's order holds too: a fast
  retransmission, a loss the SACKs proved, is queued ahead of the new
  data waiting there (:attr:`ReliableSender.expedite`); timer repairs
  and replays queue behind it.  In hybrid mode a hole FEC parity may
  still rebuild waits for it (:meth:`ReliableSender.hold_for_parity`).
* The retransmission buffer is bounded (``window_packets``); a full
  window exerts backpressure on the submit path, composing with the
  FCVC credit layer (credits bound per-channel receiver buffers, the
  window bounds end-to-end recovery state).
* Loss detection is adaptive: SRTT/RTTVAR with Karn's algorithm and
  exponential backoff (RFC 6298 shape), plus SACK-hole fast retransmit.
  A packet that exhausts ``MAX_RETRIES`` escalates the channel its first
  copy took to the channel-lifecycle machinery (``on_channel_suspect``) —
  persistent per-channel loss looks exactly like a dying channel.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.core.packet import Codepoint, SackInfo

#: the per-session reliability service levels (endpoint ``reliability=``)
RELIABILITY_MODES = (
    "best_effort", "quasi_fifo", "reliable", "fec", "hybrid",
)


def arq_enabled(mode: str) -> bool:
    """True when ``mode`` mounts the selective-repeat ARQ layer."""
    return mode in ("reliable", "hybrid")


def fec_enabled(mode: str) -> bool:
    """True when ``mode`` mounts the erasure-coded recovery layer."""
    return mode in ("fec", "hybrid")

#: SACK holes are retransmitted after this many acks reported newer data
#: while the hole stayed open (TCP's dupthresh); a merged ack counts as
#: the ``SackInfo.acks`` acks it stands for.
FAST_RETRANSMIT_HINTS = 3

#: retransmissions of one packet before its last channel is reported
#: through ``on_channel_suspect``
MAX_RETRIES = 8
#: the receiver's reorder window: rseqs this far past the cumulative ack
#: are dropped
RECEIVE_WINDOW_PACKETS = 1024
#: how long an in-order delivery may wait for a delayed ack (s)
ACK_DELAY_S = 0.005
#: SACK blocks an ack carries, newest edge first
MAX_SACK_BLOCKS = 4

_ack_ids = itertools.count(1)


@dataclass(init=False)
class AckPacket:
    """A reliability acknowledgment (control packet): the one carrier of
    a :class:`~repro.core.packet.SackInfo` on every transport.

    Sized like the other control packets (16 B header + 8 B per SACK
    block, at most ``MAX_SACK_BLOCKS``) and kept under the 64-byte
    control threshold of the fault layer.
    """

    sack: SackInfo
    size: int = 0
    uid: int = field(default_factory=_ack_ids.__next__)
    codepoint: str = Codepoint.ACK
    #: receiver incarnation epoch (crash recovery, :mod:`repro.transport.
    #: recovery`); rides reserved header space, so the size formula is
    #: unchanged.  0 = unstamped (no recovery manager attached).
    epoch: int = 0

    def __init__(
        self, sack: SackInfo, size: int = 0, uid: Optional[int] = None,
        codepoint: str = Codepoint.ACK, epoch: int = 0,
    ) -> None:
        # One constructor frame, as for the wire types of core.packet.
        self.sack = sack
        self.size = size if size != 0 else 16 + 8 * len(sack.blocks)
        self.uid = next(_ack_ids) if uid is None else uid
        self.codepoint = codepoint
        self.epoch = epoch

    def __repr__(self) -> str:
        return (
            f"AckPacket(cum={self.sack.cum_ack}, "
            f"blocks={list(self.sack.blocks)})"
        )


class RtoEstimator:
    """RFC 6298-shaped retransmission timeout estimator.

    ``sample`` feeds one RTT measurement (Karn's rule — only from
    packets transmitted exactly once — is the caller's job);
    ``backoff`` doubles the timeout after a retransmission timeout,
    capped at ``max_rto``.  The next valid sample collapses the backoff.

    Doubling is additionally capped at ``backoff_cap`` *consecutive*
    backoffs: during a long channel outage the timer would otherwise
    keep doubling well past any useful probe interval, and the first
    exchange after recovery would wait out the whole inflated timeout.
    ``reset_backoff`` (called on ack-triggered channel rejoin) collapses
    the streak immediately, recomputing the timeout from the smoothed
    estimate instead of the backed-off value.
    """

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    def __init__(
        self,
        initial_rto: float = 0.2,
        min_rto: float = 0.02,
        max_rto: float = 2.0,
        backoff_cap: int = 6,
    ) -> None:
        if not 0 < min_rto <= initial_rto <= max_rto:
            raise ValueError("need 0 < min_rto <= initial_rto <= max_rto")
        if backoff_cap < 1:
            raise ValueError("backoff_cap must be >= 1")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.initial_rto = initial_rto
        self.backoff_cap = backoff_cap
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = initial_rto
        self.samples = 0
        self.backoffs = 0
        #: backoff calls refused because the consecutive streak hit the cap
        self.capped_backoffs = 0
        self._backoff_streak = 0

    def sample(self, rtt: float) -> None:
        """Feed one round-trip measurement (seconds)."""
        if rtt < 0:
            return
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (
                (1 - self.BETA) * self.rttvar
                + self.BETA * abs(self.srtt - rtt)
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        # _clamp(), without its frame: one sample per acked packet
        self.rto = min(
            self.max_rto, max(self.min_rto, self.srtt + self.K * self.rttvar)
        )
        self._backoff_streak = 0

    def backoff(self) -> None:
        """Exponential backoff after a retransmission timeout."""
        self.backoffs += 1
        if self._backoff_streak >= self.backoff_cap:
            self.capped_backoffs += 1
            return
        self._backoff_streak += 1
        self.rto = self._clamp(self.rto * 2.0)

    def reset_backoff(self) -> None:
        """Collapse accumulated backoff (ack-triggered channel rejoin).

        The timeout returns to the smoothed estimate — or the initial
        timeout when no sample has been taken yet — so the first
        post-rejoin exchange is not stuck waiting out an outage-inflated
        timer.
        """
        self._backoff_streak = 0
        if self.srtt is not None:
            self.rto = self._clamp(self.srtt + self.K * self.rttvar)
        else:
            self.rto = self._clamp(self.initial_rto)

    def _clamp(self, value: float) -> float:
        return min(self.max_rto, max(self.min_rto, value))


@dataclass(slots=True)
class _TxRecord:
    """Sender-side state for one unacknowledged packet."""

    packet: Any
    size: int
    first_sent: float = -1.0
    last_sent: float = -1.0
    transmissions: int = 0
    #: the channel the first copy took: the copy whose loss left the
    #: record outstanding (what escalation reports)
    first_channel: int = -1
    sacked: bool = False
    #: resubmitted to the striper but not yet actually transmitted (the
    #: copy waits in the striper's input queue)
    rtx_pending: bool = False
    #: acks that reported newer data while this stayed unacked
    dup_hints: int = 0
    escalated: bool = False
    #: hybrid mode: the rseq of the first data striped after this
    #: record's FEC parity.  Once that data is submitted, fast retransmit
    #: holds the hole until an ack reports data at or past it: the parity
    #: may still rebuild the hole.  0 holds nothing.
    horizon: int = 0


@dataclass
class ReliabilityStats:
    """Counters for one reliable sender."""

    submitted: int = 0
    acked: int = 0
    retransmissions: int = 0
    fast_retransmissions: int = 0
    timeouts: int = 0
    rtt_samples: int = 0
    escalations: int = 0
    #: submits parked in the overflow queue because the window was full
    backpressure_stalls: int = 0
    #: SACK scoreboard updates (one per ack processed)
    sack_scans: int = 0
    #: records examined across those updates; ``sack_visits / sack_scans``
    #: tracks holes plus newly covered records per ack, not the window
    sack_visits: int = 0
    #: packets replayed from the retransmit buffer by a crash-recovery
    #: reconciliation (:meth:`ReliableSender.reconcile`)
    replays: int = 0
    #: retransmissions taken back out of the striper's input queue before
    #: any channel took them: an ack answered the record first (or a
    #: reconciliation replays it anyway).  ``retransmissions`` counts only
    #: the copies a channel took.
    withdrawn: int = 0
    #: copies a channel took after an ack had already retired or SACKed
    #: their rseq (a copy no withdrawal reached)
    late_copies: int = 0


class ReliableSender:
    """Selective-repeat ARQ sender half, above any striping pipeline.

    Args:
        submit: ``fn(packets)`` handing a batch to the striper, which
            assigns it channels in one kernel pass.  First transmissions
            and retransmissions both go through it, so recovery traffic
            obeys the SRR fairness bound (Theorem 3.2).
        sim: event scheduler (``now`` / ``schedule`` returning a
            cancellable event) for the retransmission timer.
        window_packets: retransmission-buffer bound; submits beyond it
            are parked and replayed as acks open the window
            (``can_submit`` lets sources implement backpressure).
        on_channel_suspect: ``fn(channel_index)`` lifecycle escalation of
            the channel a packet's first copy took, once the packet has
            been retransmitted ``MAX_RETRIES`` times
            (reliability itself keeps retrying — escalation feeds the
            lifecycle machinery, it does not abandon data).

    :attr:`on_window_open` is called when a full window drains below the
    bound (sources resume submitting).
    """

    def __init__(
        self,
        submit: Callable[[List[Any]], None],
        sim: Any,
        *,
        window_packets: int = 64,
        on_channel_suspect: Optional[Callable[[int], None]] = None,
    ) -> None:
        if window_packets < 1:
            raise ValueError("window must hold at least one packet")
        self._submit = submit
        self.sim = sim
        self.window_packets = window_packets
        self.on_channel_suspect = on_channel_suspect
        self.on_window_open: Optional[Callable[[], None]] = None
        #: optional ``fn(packet)`` invoked as each packet's record is
        #: retired by a cumulative ack — the point after which no
        #: retransmission can resurrect the packet, i.e. the earliest
        #: moment a packet pool may recycle it.
        self.on_retire: Optional[Callable[[Any], None]] = None
        #: optional ``fn(packet)`` invoked the instant a packet's rseq is
        #: stamped (before it can reach any channel) — the write-ahead-log
        #: hook of the crash-recovery layer.
        self.on_register: Optional[Callable[[Any], None]] = None
        #: optional ``fn(packet) -> bool`` taking a queued copy of
        #: ``packet`` back out of the striper's input queue before a
        #: channel is assigned to it; True if one was there.  Called when
        #: an ack retires or SACKs a record whose retransmission is still
        #: pending, so no channel sends what the receiver already holds.
        #: The owner of the striper installs it (``build_sender_recovery``).
        self.withdraw: Optional[Callable[[Any], bool]] = None
        #: optional ``fn(packets)`` handing fast retransmissions to the
        #: striper ahead of the data already queued there (proven losses
        #: leave first); without it they queue behind, like every other
        #: batch.  Installed by ``build_sender_recovery``.
        self.expedite: Optional[Callable[[List[Any]], None]] = None
        self.rto = RtoEstimator()
        self.stats = ReliabilityStats()
        self.next_rseq = 0
        #: unacked records in rseq (insertion) order
        self.unacked: Dict[int, _TxRecord] = {}
        #: the un-sacked records of ``unacked``, in the same (rseq) order.
        #: Derived state, never checkpointed: ``register_restored`` and
        #: ``reconcile`` rebuild it.
        self._unsacked: Dict[int, _TxRecord] = {}
        self._overflow: Deque[Any] = deque()
        self._timer: Any = None
        #: per-channel bytes retransmitted (fairness-envelope accounting)
        self.retransmitted_bytes: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # submit path (backpressure)

    def window_room(self) -> int:
        """Submits the window can take before one would be parked."""
        if self._overflow:
            return 0
        return self.window_packets - len(self.unacked)

    @property
    def backlog(self) -> int:
        """Submitted packets parked behind a full window."""
        return len(self._overflow)

    def submit(self, packets: List[Any]) -> None:
        """Register ``packets`` in the window and stripe them as one batch.

        Their rseqs are stamped in one pass.  Once the window is full the
        rest are parked instead (bounded-buffer backpressure) and replayed
        in order as acks open the window; the admitted ones go to the
        striper in one call, so channel assignment is one kernel pass.
        """
        rseq = self.next_rseq
        for packet in packets:
            packet.rseq = rseq
            rseq += 1
        self.next_rseq = rseq
        self.stats.submitted += len(packets)
        if self.on_register is not None:
            for packet in packets:
                self.on_register(packet)
        # window_room(), without its frame
        room = 0 if self._overflow else self.window_packets - len(self.unacked)
        if room < len(packets):
            parked = packets[max(room, 0):]
            self.stats.backpressure_stalls += len(parked)
            self._overflow.extend(parked)
        if room > 0 and packets:
            self._launch(packets[:room])

    def _launch(self, packets: List[Any]) -> None:
        """Register ``packets`` in the window and stripe them as one batch."""
        unacked = self.unacked
        unsacked = self._unsacked
        for packet in packets:
            record = _TxRecord(packet=packet, size=packet.size)
            unacked[packet.rseq] = record
            unsacked[packet.rseq] = record
        self._submit(packets)

    def note_sent(self, channel: int, packets: List[Any]) -> None:
        """A recording port transmitted ``packets`` on ``channel``.

        First transmissions and retransmissions are distinguished here —
        the striper is oblivious to the difference, which is exactly how
        retransmissions inherit its fairness properties.  One clock read,
        one timer check and one retransmitted-bytes update per call.
        """
        now = self.sim.now
        unacked = self.unacked
        rtx_bytes = 0
        for packet in packets:
            record = unacked.get(packet.rseq)
            if record is None:
                # acked while queued where no withdrawal reached it
                self.stats.late_copies += 1
                continue
            if record.sacked:
                self.stats.late_copies += 1
            record.transmissions += 1
            record.last_sent = now
            record.rtx_pending = False
            if record.transmissions == 1:
                record.first_sent = now
                record.first_channel = channel
            else:
                self.stats.retransmissions += 1
                rtx_bytes += record.size
        if rtx_bytes:
            self.retransmitted_bytes[channel] = (
                self.retransmitted_bytes.get(channel, 0) + rtx_bytes
            )
        if self._timer is None:
            self._ensure_timer()

    # ------------------------------------------------------------------ #
    # ack path

    def on_ack(self, ack: Any) -> None:
        """Process a :class:`SackInfo` (or anything carrying one).

        The scoreboard update costs O(what the ack changes or exposes),
        not O(window).  The ack's blocks are sorted and merge-walked
        against the *un-sacked index* — the rseq-ordered records of
        ``unacked`` not yet selectively acked — up to the newest acked
        rseq.  Each record visited is either newly covered (marked,
        RTT-sampled, dropped from the index) or a hole below the newest
        acked data (a fast-retransmit candidate); records an earlier ack
        already covered are never looked at again.

        The index is derived from ``unacked`` and the ``sacked`` flags:
        ``_launch`` appends to it, this method and
        ``_absorb_cum_ack`` remove from it, and ``register_restored`` and
        ``reconcile`` (the one place a flag goes back to False) rebuild it.
        """
        sack: SackInfo = getattr(ack, "sack", ack)
        opened = self._absorb_cum_ack(sack.cum_ack)
        blocks = sorted(sack.blocks)
        newest = sack.cum_ack - 1
        if blocks:
            newest = max(newest, blocks[-1][1] - 1)
        holes: List[_TxRecord] = []
        covered: List[int] = []
        bi = 0
        n_blocks = len(blocks)
        visits = 0
        unsacked = self._unsacked
        now = self.sim.now
        for rseq, record in unsacked.items():
            if rseq > newest:
                break  # insertion order == rseq order
            visits += 1
            while bi < n_blocks and blocks[bi][1] <= rseq:
                bi += 1
            if bi < n_blocks and blocks[bi][0] <= rseq:
                record.sacked = True
                covered.append(rseq)
                if record.rtx_pending:
                    self._take_back(record)
                # Karn's rule: RTT only from packets transmitted once.
                if record.transmissions == 1 and record.last_sent >= 0:
                    self.stats.rtt_samples += 1
                    self.rto.sample(now - record.last_sent)
            elif rseq < newest and record.transmissions > 0:
                holes.append(record)
        for rseq in covered:
            del unsacked[rseq]
        self.stats.sack_scans += 1
        self.stats.sack_visits += visits
        self._fast_retransmit(holes, sack.acks, newest)
        opened = self._refill() or opened
        if self._timer is None:
            self._ensure_timer()
        if opened and self.on_window_open is not None:
            self.on_window_open()

    def _absorb_cum_ack(self, cum_ack: int) -> bool:
        """Retire every record below ``cum_ack``; True if window opened."""
        unacked = self.unacked
        unsacked = self._unsacked
        was_full = len(unacked) >= self.window_packets
        on_retire = self.on_retire
        # One forward scan (insertion order == rseq order): collect the
        # covered prefix, then delete.  Scanning once and stopping at the
        # first live record keeps this O(retired), not O(window).
        ripe: List[Tuple[int, _TxRecord]] = []
        for rseq, record in unacked.items():
            if rseq >= cum_ack:
                break
            ripe.append((rseq, record))
        retired = len(ripe)
        for rseq, record in ripe:
            del unacked[rseq]
            if not record.sacked:
                del unsacked[rseq]
        now = self.sim.now
        for _, record in ripe:
            # Karn's rule: RTT only from packets transmitted exactly once
            # (a sacked record was sampled when its block arrived).
            if (
                not record.sacked
                and record.transmissions == 1
                and record.last_sent >= 0
            ):
                self.stats.rtt_samples += 1
                self.rto.sample(now - record.last_sent)
            if record.rtx_pending:
                # Before on_retire: a pool must not recycle a queued copy.
                self._take_back(record)
            if on_retire is not None:
                on_retire(record.packet)
        self.stats.acked += retired
        return was_full and retired > 0

    def _take_back(self, record: _TxRecord) -> None:
        """Withdraw ``record``'s pending retransmission from the striper's
        input queue, if the owner installed :attr:`withdraw` and the copy
        is still there.

        A copy that never reached a channel was never assigned one: no
        kernel step, marker crossing or envelope byte counted it, so the
        receiver's simulation of the sender's kernel cannot notice it was
        ever queued.  A copy not found (no hook, or a discipline that
        queues wrapped units instead of the packet) goes out as before;
        when an ack answered it, it counts in ``late_copies``.
        """
        withdraw = self.withdraw
        if withdraw is not None and withdraw(record.packet):
            record.rtx_pending = False
            self.stats.withdrawn += 1

    def _fast_retransmit(
        self, holes: List[_TxRecord], acks: int, newest: int
    ) -> None:
        """Retransmit holes the SACK scoreboard has repeatedly exposed.

        ``holes`` are the un-sacked records below ``newest``, the newest
        acked rseq, collected by the :meth:`on_ack` index walk; the ack
        stands for ``acks`` acks (:attr:`SackInfo.acks`), each one hint
        toward ``FAST_RETRANSMIT_HINTS``.  A hole whose FEC parity may
        still rebuild it is skipped: data at its
        :attr:`_TxRecord.horizon` has been submitted and ``newest`` is
        below it.  (With no data there yet, no ack can reach the horizon,
        so the hole is not held.)  The timer still covers a held hole.
        Ripe holes are proven losses: they go to the striper as one batch
        through :attr:`expedite`, ahead of queued new data, and are
        striped through the scheduler kernel like any other burst.
        """
        srtt = self.rto.srtt or 0.0
        now = self.sim.now
        ripe: List[_TxRecord] = []
        next_rseq = self.next_rseq
        for record in holes:
            if now - record.last_sent < srtt or (
                newest < record.horizon < next_rseq
            ):
                # The last copy has not had a round trip yet — acks of
                # newer data say nothing about it (prevents retransmit
                # storms while a repair is still in flight) — or the data
                # striped after its parity is not acked yet.
                continue
            record.dup_hints += acks
            if record.dup_hints >= FAST_RETRANSMIT_HINTS and (
                not record.rtx_pending
            ):
                record.dup_hints = 0
                self.stats.fast_retransmissions += 1
                ripe.append(record)
        if ripe:
            self._retransmit(ripe, self.expedite)

    def _refill(self) -> bool:
        """Launch parked submits into freed window slots, as one batch."""
        overflow = self._overflow
        room = min(self.window_packets - len(self.unacked), len(overflow))
        if room <= 0:
            return False
        self._launch([overflow.popleft() for _ in range(room)])
        return not overflow

    def _retransmit(
        self,
        records: List[_TxRecord],
        submit: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        """Resubmit ``records``' packets through ``submit`` (default: the
        ordinary stripe path, behind the data already queued)."""
        for record in records:
            record.rtx_pending = True
        (submit or self._submit)([record.packet for record in records])

    def hold_for_parity(self, first_rseq: int, count: int) -> None:
        """FEC sealed the group of ``count`` packets from ``first_rseq``
        and is about to stripe its parity: hold their holes from fast
        retransmit until an ack reports data submitted after it
        (:attr:`_TxRecord.horizon`, the rseq the next submit stamps; that
        data enters the striper behind the parity).  Members still parked
        behind a full window have no record yet and are not held."""
        horizon = self.next_rseq
        unacked = self.unacked
        for rseq in range(first_rseq, first_rseq + count):
            record = unacked.get(rseq)
            if record is not None:
                record.horizon = horizon

    def on_channel_rejoin(self) -> None:
        """Ack-triggered channel rejoin: collapse accumulated RTO backoff.

        An outage inflates the shared timer exponentially; once the
        lifecycle machinery confirms a channel is carrying acks again,
        the inflation is stale state, not signal.  Re-arm the timer so
        the oldest outstanding packet is retried at the collapsed
        timeout instead of waiting out the backed-off one.
        """
        self.rto.reset_backoff()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._ensure_timer()

    # ------------------------------------------------------------------ #
    # crash recovery (see repro.transport.recovery)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-value capture of the window: the next rseq, the unacked
        packets with their sacked flags, the parked overflow and the RTO
        estimate.  The un-sacked index is derived and left out."""
        return {
            "next_rseq": self.next_rseq,
            "window": [record.packet for record in self.unacked.values()],
            "sacked": [
                rseq for rseq, record in self.unacked.items() if record.sacked
            ],
            "overflow": list(self._overflow),
            "rto": [self.rto.srtt, self.rto.rttvar, self.rto.rto],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild the window from a :meth:`snapshot` capture through
        :meth:`register_restored`: nothing is transmitted."""
        self.register_restored(
            state["window"] + state["overflow"],
            next_rseq=state["next_rseq"],
            sacked_rseqs=state["sacked"],
        )
        self.rto.srtt, self.rto.rttvar, self.rto.rto = state["rto"]

    def register_restored(
        self,
        packets: List[Any],
        *,
        next_rseq: Optional[int] = None,
        sacked_rseqs: Any = (),
    ) -> None:
        """Rebuild the retransmission window from checkpointed packets.

        Nothing is transmitted: restored records carry zero transmissions
        and no send timestamp, so the retransmission timer ignores them
        until the resume reconciliation replays them (or, should the
        handshake stall past the RTO, a timer fire replays the oldest —
        a harmless spurious replay, absorbed by receiver dedup).
        """
        sacked = set(sacked_rseqs)
        for packet in sorted(packets, key=lambda p: p.rseq):
            if not self._overflow and len(self.unacked) < self.window_packets:
                record = _TxRecord(packet=packet, size=packet.size)
                record.sacked = packet.rseq in sacked
                self.unacked[packet.rseq] = record
            else:
                self._overflow.append(packet)
            if packet.rseq >= self.next_rseq:
                self.next_rseq = packet.rseq + 1
        if next_rseq is not None and next_rseq > self.next_rseq:
            self.next_rseq = next_rseq
        self._unsacked = {
            rseq: r for rseq, r in self.unacked.items() if not r.sacked
        }

    def reconcile(self, cum_ack: int, blocks: Any) -> int:
        """Adopt a resume report as the authoritative receiver state.

        Retires below ``cum_ack``, rewrites the SACK scoreboard *exactly*
        to ``blocks`` — clearing sacked flags the report does not confirm,
        because a restarted receiver may have lost out-of-order data it
        once acknowledged (SACK reneging, which the normal ack path is
        forbidden to express) — then replays every live record through
        the striper and collapses RTO backoff per Karn (samples from the
        dead incarnation describe a path that no longer exists).  A copy
        still queued from before is withdrawn first, so a record has one
        copy in the striper's queue, not two.  The un-sacked index is
        rebuilt from the records left live.

        Returns the number of packets replayed.
        """
        opened = self._absorb_cum_ack(cum_ack)
        block_list = sorted(tuple(b) for b in blocks)
        unsacked: Dict[int, _TxRecord] = {}
        bi = 0
        n_blocks = len(block_list)
        for rseq, record in self.unacked.items():
            while bi < n_blocks and block_list[bi][1] <= rseq:
                bi += 1
            covered = bi < n_blocks and block_list[bi][0] <= rseq
            record.sacked = covered
            record.dup_hints = 0
            if record.rtx_pending:
                self._take_back(record)
            record.rtx_pending = False
            if not covered:
                unsacked[rseq] = record
        self._unsacked = unsacked
        live = list(unsacked.values())
        self.stats.replays += len(live)
        if live:
            self._retransmit(live)
        opened = self._refill() or opened
        self.rto.reset_backoff()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._ensure_timer()
        if opened and self.on_window_open is not None:
            self.on_window_open()
        return len(live)

    # ------------------------------------------------------------------ #
    # retransmission timer (single timer for the oldest outstanding)

    def _oldest_outstanding(self) -> Optional[_TxRecord]:
        for record in self._unsacked.values():
            if record.transmissions > 0:
                return record
        return None

    def stop(self) -> None:
        """Cancel the retransmission timer (the owner is shutting down)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _ensure_timer(self) -> None:
        # The handle is the armed flag: the timer clears it when it fires
        # and whoever cancels it clears it too.  The per-packet callers
        # test it before calling.
        if self._timer is not None:
            return
        record = self._oldest_outstanding()
        if record is None:
            return
        due = record.last_sent + self.rto.rto
        self._timer = self.sim.schedule_at(
            max(due, self.sim.now), self._on_timeout
        )

    def _stranded_holes(
        self, oldest: _TxRecord, now: float
    ) -> List[_TxRecord]:
        """The holes a timeout repairs besides ``oldest``: every
        un-SACKed record below the newest SACKed one whose last copy has
        had a round trip and is not already queued again.

        Fast retransmit ripens a hole with the acks that arrive after it;
        once acks stop (the source went quiet, or they all came in one
        burst before the hole had a round trip), nothing else would
        repair these but one timeout each, every one backed off.
        """
        unacked = self.unacked
        newest = -1
        for rseq in reversed(unacked):
            if unacked[rseq].sacked:
                newest = rseq
                break
        srtt = self.rto.srtt or 0.0
        stranded: List[_TxRecord] = []
        for rseq, record in self._unsacked.items():
            if rseq >= newest:
                break
            if (
                record is not oldest
                and record.transmissions > 0
                and not record.rtx_pending
                and now - record.last_sent >= srtt
            ):
                stranded.append(record)
        return stranded

    def _on_timeout(self) -> None:
        self._timer = None
        record = self._oldest_outstanding()
        if record is None:
            return
        due = record.last_sent + self.rto.rto
        now = self.sim.now
        if now < due:
            self._timer = self.sim.schedule_at(due, self._on_timeout)
            return
        self.stats.timeouts += 1
        self.rto.backoff()
        record.dup_hints = 0
        if record.transmissions > MAX_RETRIES and not record.escalated:
            record.escalated = True
            self.stats.escalations += 1
            # The first copy's channel, not the last's: retransmissions
            # follow the kernel's pointer wherever it stands, so which
            # channel the latest copy took is an accident of its parity.
            channel = record.first_channel
            if self.on_channel_suspect is not None and channel >= 0:
                self.on_channel_suspect(channel)
        lost = [] if record.rtx_pending else [record]
        lost.extend(self._stranded_holes(record, now))
        if lost:
            self._retransmit(lost)
        # A synchronous resend already re-armed via note_sent; otherwise
        # arm against the backed-off timeout ourselves.
        if self._timer is None:
            self._timer = self.sim.schedule_at(
                now + self.rto.rto, self._on_timeout
            )


@dataclass
class ReceiverReliabilityStats:
    """Counters for one reliable receiver."""

    received: int = 0
    delivered: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    window_drops: int = 0
    acks_sent: int = 0


class ReliableReceiver:
    """Selective-repeat ARQ receiver half.

    Sits *behind* logical reception: the resequencer hands it the
    quasi-FIFO stream (post marker resync), and it upgrades that to
    exactly-once in-order delivery — duplicates dropped, gaps held back
    until retransmissions fill them.

    Acks are emitted through ``send_ack(SackInfo)``.  An event earns
    one without delay when it is an out-of-order, duplicate, window-drop
    or gap-filling arrival (the loss signal must not wait, and RFC 5681
    §3.2 acks a filled gap at once), or the ``ack_every``-th in-order
    delivery; otherwise an in-order delivery waits at most
    ``ACK_DELAY_S`` (delayed ack).  The acks one simulated instant earns
    go out as one: the first arms a flush event at ``sim.now`` that
    sends the state at the end of the instant, with ``SackInfo.acks``
    saying how many acks it stands for.  Without a ``sim`` each ack goes
    out as it is earned.  Arrivals ``RECEIVE_WINDOW_PACKETS`` or more
    past the cumulative ack are dropped; an ack carries at most
    ``MAX_SACK_BLOCKS`` SACK blocks.  :meth:`sack_info` reads the same
    state (crash recovery's resume report).
    """

    def __init__(
        self,
        on_deliver: Callable[[Any], None],
        *,
        send_ack: Optional[Callable[[SackInfo], None]] = None,
        sim: Any = None,
        ack_every: int = 2,
    ) -> None:
        if ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        self.on_deliver = on_deliver
        self.send_ack = send_ack
        self.sim = sim
        self.ack_every = ack_every
        self.stats = ReceiverReliabilityStats()
        self.next_expected = 0
        self._ooo: Dict[int, Any] = {}
        #: the runs of ``_ooo`` as a sorted interval set: block ``i`` is
        #: ``[_starts[i], _ends[i])``, ascending, never adjacent.  Derived
        #: state, never checkpointed: ``restore_window`` and ``adopt_base``
        #: rebuild it.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._unacked_deliveries = 0
        self._ack_timer: Any = None
        #: acks the current instant has earned, and the flush sending them
        self._acks_owed = 0
        self._flush: Any = None
        self._last_ooo: Optional[int] = None

    # ------------------------------------------------------------------ #

    def push(self, packet: Any) -> None:
        """One packet out of logical reception (quasi-FIFO order)."""
        rseq = getattr(packet, "rseq", None)
        if rseq is None:
            # Not sequenced (mode mismatch or control residue): pass it
            # through rather than wedging the stream.
            self.on_deliver(packet)
            return
        stats = self.stats
        stats.received += 1
        if rseq == self.next_expected and not self._ooo:
            # Hot case — in-order arrival with nothing buffered:
            # _deliver_run inlined.
            self.next_expected = rseq + 1
            stats.delivered += 1
            undelivered = self._unacked_deliveries + 1
            self._unacked_deliveries = undelivered
            self.on_deliver(packet)
            if self.send_ack is None:
                return
            if undelivered >= self.ack_every:
                self._owe_ack()
            elif self.sim is not None and self._ack_timer is None:
                self._ack_timer = self.sim.schedule(
                    ACK_DELAY_S, self._delayed_ack
                )
            return
        if rseq < self.next_expected or rseq in self._ooo:
            self.stats.duplicates += 1
            self._owe_ack()
            return
        if rseq >= self.next_expected + RECEIVE_WINDOW_PACKETS:
            self.stats.window_drops += 1
            self._owe_ack()
            return
        if rseq == self.next_expected:
            # It fills (part of) a gap: ack at once (RFC 5681 §3.2).
            self._deliver_run(packet)
        else:
            self.stats.out_of_order += 1
            self._ooo[rseq] = packet
            self._last_ooo = rseq
            self._add_to_blocks(rseq)
        self._owe_ack()

    def _add_to_blocks(self, rseq: int) -> None:
        """Insert a newly buffered ``rseq``, merging with its neighbours."""
        starts = self._starts
        ends = self._ends
        i = bisect_right(starts, rseq)
        joins_left = i > 0 and ends[i - 1] == rseq
        joins_right = i < len(starts) and starts[i] == rseq + 1
        if joins_left and joins_right:
            ends[i - 1] = ends.pop(i)
            del starts[i]
        elif joins_left:
            ends[i - 1] = rseq + 1
        elif joins_right:
            starts[i] = rseq
        else:
            starts.insert(i, rseq)
            ends.insert(i, rseq + 1)

    def _rebuild_blocks(self) -> None:
        """Recompute the interval set after ``_ooo`` was replaced or trimmed."""
        starts: List[int] = []
        ends: List[int] = []
        for rseq in sorted(self._ooo):
            if ends and ends[-1] == rseq:
                ends[-1] = rseq + 1
            else:
                starts.append(rseq)
                ends.append(rseq + 1)
        self._starts = starts
        self._ends = ends

    def _deliver_run(self, packet: Any) -> None:
        """Deliver ``packet`` plus any now-contiguous buffered followers."""
        self._deliver(packet)
        if self._starts and self._starts[0] == self.next_expected:
            # The followers are exactly the lowest block.
            del self._starts[0]
            end = self._ends.pop(0)
            pop = self._ooo.pop
            for rseq in range(self.next_expected, end):
                self._deliver(pop(rseq))

    def _deliver(self, packet: Any) -> None:
        self.next_expected += 1
        self.stats.delivered += 1
        self._unacked_deliveries += 1
        self.on_deliver(packet)

    # ------------------------------------------------------------------ #
    # ack generation

    def sack_info(self, acks: int = 1) -> SackInfo:
        """Current cumulative-ack + SACK-block state, standing for ``acks``
        acks.

        At most ``MAX_SACK_BLOCKS`` blocks: the one containing the most
        recent out-of-order arrival first (RFC 2018 custom), then the rest
        newest-edge first, so a truncated ack still carries the freshest
        information.  The first ``k`` blocks are the ``k``-block ack.

        Blocks are read straight off the interval set (``_starts`` /
        ``_ends``) that ``push`` maintains — one bisect for the block
        holding the last arrival plus the top ``MAX_SACK_BLOCKS`` — so the
        cost does not depend on how many packets are buffered.  The set
        is derived from ``_ooo``: ``push`` inserts with left/right merge,
        ``_deliver_run`` drops the lowest block as it consumes it, and
        ``restore_window`` / ``adopt_base`` rebuild it.
        """
        starts = self._starts
        if not starts:
            return SackInfo(self.next_expected, (), acks)
        ends = self._ends
        n = len(starts)
        low = max(n - MAX_SACK_BLOCKS, 0)
        # Newest-edge first: the highest blocks describe the live edge.
        blocks = list(zip(starts[low:], ends[low:]))
        blocks.reverse()
        last = self._last_ooo
        if n > 1 and last is not None:
            i = bisect_right(starts, last) - 1
            if i >= low and last < ends[i]:
                blocks.insert(0, blocks.pop(n - 1 - i))
            elif i >= 0 and last < ends[i]:
                # Below the truncation: it displaces the stalest block.
                blocks = ([(starts[i], ends[i])] + blocks)[:MAX_SACK_BLOCKS]
        return SackInfo(self.next_expected, tuple(blocks), acks)

    def stop(self) -> None:
        """The owner is shutting down: send the ack this instant owes,
        then cancel the flush and the delayed-ack timer."""
        flush = self._flush
        if flush is not None:
            self._send_owed()
            flush.cancel()
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _delayed_ack(self) -> None:
        self._ack_timer = None
        if self._unacked_deliveries > 0:
            self._owe_ack()

    def _owe_ack(self) -> None:
        """An event earned an ack: owe it to the end of this instant.

        Earning one restarts the in-order count and the delayed-ack
        timer, as sending one did; the first debt of an instant arms the
        flush.  Without a simulator the ack goes out at once.
        """
        if self.send_ack is None:
            return
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._unacked_deliveries = 0
        self._acks_owed += 1
        if self._flush is None:
            sim = self.sim
            if sim is None:
                self._send_owed()
            else:
                self._flush = sim.schedule_at(sim.now, self._send_owed)

    def _send_owed(self) -> None:
        """One ack with the state now, standing for every ack owed (the
        flush event, and :meth:`stop`)."""
        self._flush = None
        acks = self._acks_owed
        self._acks_owed = 0
        self.stats.acks_sent += 1
        self.send_ack(self.sack_info(acks=acks))

    # ------------------------------------------------------------------ #
    # crash recovery (see repro.transport.recovery)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-value capture: the delivery cursor and the out-of-order
        buffer.  The interval set is derived and left out."""
        return {
            "next_expected": self.next_expected,
            "ooo": dict(self._ooo),
            "last_ooo": self._last_ooo,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`snapshot` capture through :meth:`restore_window`."""
        self.restore_window(
            state["next_expected"], state["ooo"], last_ooo=state["last_ooo"]
        )

    def restore_window(
        self,
        next_expected: int,
        ooo: Dict[int, Any],
        *,
        last_ooo: Optional[int] = None,
    ) -> None:
        """Reinstall the checkpointed delivery cursor + reorder buffer."""
        self.next_expected = next_expected
        self._ooo = dict(ooo)
        self._last_ooo = last_ooo
        self._rebuild_blocks()

    def adopt_base(self, base: int) -> None:
        """Advance the cursor to ``base`` (never backwards).

        Two callers: the WAL delivery-cursor replay (deliveries logged
        after the checkpoint must not repeat) and cold resync (a
        checkpoint-less restart adopts the sender's replay base).  Buffered
        out-of-order copies the new cursor covers are dropped.
        """
        if base <= self.next_expected:
            return
        self.next_expected = base
        for rseq in [r for r in self._ooo if r < base]:
            del self._ooo[rseq]
        # Anything buffered may now be contiguous with the new cursor.
        while self.next_expected in self._ooo:
            packet = self._ooo.pop(self.next_expected)
            self.next_expected += 1
            self.stats.delivered += 1
            self.on_deliver(packet)
        self._rebuild_blocks()
