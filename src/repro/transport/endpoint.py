"""The transport-agnostic striping endpoint layer.

Every transport in this package — UDP sockets, session-managed UDP, TCP
connections, the direct-to-channel fast path, duplex endpoints — needs the
same machinery: a stripe pump feeding channel ports, marker placement,
credit hooks, a per-channel receive buffer with a drop rule, logical
reception through a resequencer, and (sometimes) a dead-channel watchdog.
This module is the single copy; a transport contributes a port type and
nothing else.

* :class:`ChannelPort` — the protocol a transport must implement per
  striped channel: ``send`` / ``can_accept`` / ``queue_length``, plus
  optional ``send_burst`` + ``free_capacity`` (enables the batched fast
  pump), ``close``, and an ``on_unblocked`` callback slot.
* :class:`StripeSenderPipeline` — kernel-driven stripe pump over any port
  list: the batched :class:`FastStriper` when the ports support bursts,
  FCVC credit integration, and packet-wrapping disciplines (MPPP headers,
  BONDING frames).
* :class:`StripeReceiverPipeline` — per-channel buffering with the
  physical buffer-cap drop rule, plus everything order-related delegated
  to the discipline's synchronization model.
* :func:`build_sender_recovery` / :func:`build_receiver_recovery` — the
  ARQ/FEC stacking (recording ports -> ARQ -> FEC; reception engine -> FEC
  -> ARQ -> application), assembled once at construction time.

A session (:mod:`repro.core.session`) is a reset controller over this
pair, not another one: ``restripe`` / ``restart_reception`` install a new
epoch's striper / reception engine by the constructors' own construction.

How sender and receiver agree on order is **not** this module's business
any more: each pipeline owns a
:class:`~repro.transport.sync_model.SynchronizationModel` (marker
placement/keepalive and simulated-sender reception for the paper's
schemes, direct delivery for marker-free hash schemes, header reception
for MPPP/BONDING), built from the discipline registry's ``sync_model``
axis (:mod:`repro.transport.discipline`).  Channel-health machinery
(failure detection, lifecycle, stall watch) lives in
:mod:`repro.transport.health`.  Both are re-exported here.

The module deliberately imports nothing from :mod:`repro.net`,
:mod:`repro.sim`, or the concrete transports: a pipeline only sees ports
and (optionally) a duck-typed event scheduler, which is what makes the
same code run over UDP sockets, TCP streams, raw simulated channels, or
the in-memory list ports the offline tests use.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cfq import CausalFQ
from repro.core.packet import Codepoint, Packet, is_marker
from repro.core.striper import ChannelPort, MarkerPolicy, Striper
from repro.sim.trace import NULL_TRACER, Tracer
from repro.transport.discipline import (
    DISCIPLINES,
    SYNC_MODELS,
    make_discipline,
    receiver_args_for,
    receiver_mode_for,
    resolve_discipline,
    sync_model_for,
)
from repro.transport.health import (
    ChannelFailureDetector,
    ChannelLifecycleManager,
    SenderHealthMonitor,
)
from repro.transport.fec import FecReceiver, FecSender
from repro.transport.reliability import (
    RELIABILITY_MODES,
    ReliableReceiver,
    ReliableSender,
    arq_enabled,
    fec_enabled,
)
from repro.transport.sync_model import (
    HashSyncModel,
    HeaderSyncModel,
    MarkerSyncModel,
    SynchronizationModel,
    make_sync_model,
)

__all__ = [
    "DISCIPLINES",
    "SYNC_MODELS",
    "ChannelFailureDetector",
    "ChannelLifecycleManager",
    "ChannelPort",
    "FastStriper",
    "HashSyncModel",
    "HeaderSyncModel",
    "MarkerSyncModel",
    "SenderHealthMonitor",
    "StripeReceiverPipeline",
    "StripeSenderPipeline",
    "SynchronizationModel",
    "build_receiver_recovery",
    "build_sender_recovery",
    "make_discipline",
    "make_sync_model",
    "receiver_mode_for",
    "resolve_discipline",
    "sync_model_for",
]

_MISSING = object()


# --------------------------------------------------------------------- #
# sender side


class FastStriper(Striper):
    """A :class:`~repro.core.striper.Striper` with a single-pass batched pump.

    Semantically identical to the base per-packet pump for SRR-family
    policies — same channel assignments (the kernel is causal, so the
    channel of the next packet is known before the packet is looked at),
    same per-channel packet order, same marker emission points — but each
    pass is one :meth:`~repro.core.kernel.SRRKernel.assign_admitted` (one
    kernel step per packet sent, stopped where a port fills or a marker
    batch falls due) and one ``send_burst`` per channel.  Requires ports
    with ``send_burst``/``free_capacity``.  A non-SRR policy or an enabled
    tracer runs the base pump.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Bound once: a striper's port list is fixed at construction.
        self._capacity = [port.free_capacity for port in self.ports]
        #: pump calls that sent at least one packet through the batched pump
        self.batched_pumps = 0
        #: data packets sent by the batched pump
        self.batched_packets = 0
        #: pump calls routed to the per-packet pump (non-SRR or tracing)
        self.fallback_pumps = 0
        #: pump calls that found the pointer port full and sent nothing
        self.blocked_pumps = 0

    def stats(self) -> Dict[str, int]:
        """Cheap perf counters for the batched pump."""
        return {
            "batched_pumps": self.batched_pumps,
            "batched_packets": self.batched_packets,
            "fallback_pumps": self.fallback_pumps,
            "blocked_pumps": self.blocked_pumps,
        }

    def pump(self) -> int:
        if self.held:
            return 0
        kernel = self._kernel
        if kernel is None or self.tracer.enabled:
            self.fallback_pumps += 1
            return super().pump()
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        queue = self.input_queue
        if not queue:
            return 0
        capacity = self._capacity
        room = capacity[kernel.ptr]()
        if room <= 0:
            # Head-of-line: causality forbids sending anywhere but the
            # pointer channel, so no other port's room can matter.
            self.blocked_pumps += 1
            return 0
        position, interval = -1, 0
        if self._markers_enabled:
            policy = self.marker_policy
            position = policy.position % len(self.ports)
            interval = policy.interval_rounds
        ports = self.ports
        popleft = queue.popleft
        sent = 0
        while queue:
            # Stop the pass where the next marker batch falls due, so the
            # batch lands exactly where the per-packet pump would put it.
            seen = self._crossings_seen
            due = interval - seen % interval if interval else 0
            channels, crossings = kernel.assign_admitted(
                queue, capacity, position, due, room
            )
            if not channels:
                break  # head-of-line again, after a marker batch
            room = None  # the next pass asks the pointer port itself
            bursts: Dict[int, List[Any]] = {}
            size = 0
            for channel in channels:
                packet = popleft()
                size += packet.size
                burst = bursts.get(channel)
                if burst is None:
                    bursts[channel] = [packet]
                else:
                    burst.append(packet)
            for channel, burst in bursts.items():
                ports[channel].send_burst(burst)
            sent += len(channels)
            self.packets_sent += len(channels)
            self.bytes_sent += size
            if crossings:
                self._crossings_seen = seen + crossings
                for _ in range(
                    (seen + crossings) // interval - seen // interval
                ):
                    self._emit_markers()
        self.batched_packets += sent
        self.batched_pumps += 1
        return sent


class _RecordingPort:
    """A :class:`ChannelPort` proxy reporting data transmissions.

    Reliable mode needs to know *when* and *on which channel* each
    sequenced packet actually left the striper (RTT sampling, per-channel
    retransmission accounting, channel-suspect escalation).  The proxy
    intercepts ``send`` / ``send_burst`` and reports sequenced data
    packets to the reliability layer; everything else (``can_accept``,
    ``queue_length``, ``free_capacity`` where the wrapped port has it)
    forwards to the wrapped port, so transports cannot tell the difference.
    """

    def __init__(
        self,
        inner: Any,
        index: int,
        note_sent: Optional[Callable[[int, Any], None]],
        note_burst: Optional[Callable[[int, List[Any]], None]],
    ) -> None:
        self._inner = inner
        self._index = index
        self._note_sent = note_sent
        self._note_burst = note_burst
        #: cumulative data bytes actually transmitted through this port
        #: (fairness-envelope accounting: includes retransmissions)
        self.data_bytes_sent = 0

    def send(self, packet: Any, force: bool = False) -> bool:
        ok = self._inner.send(packet, force)
        # not is_marker(packet), without its frame (here and in the burst)
        if ok and getattr(packet, "codepoint", None) != Codepoint.MARKER:
            self.data_bytes_sent += packet.size
            if getattr(packet, "rseq", None) is not None:
                self._note_sent(self._index, packet)
        return ok

    def send_burst(self, packets: Sequence[Any]) -> None:
        """For burst-capable inner ports (keeps the fast pump): the
        burst's sequenced packets are reported in one call (one clock
        read, one timer check), still *before* the inner ``send_burst``,
        exactly like ``send`` reports before returning."""
        sequenced: List[Any] = []
        marker_code = Codepoint.MARKER
        for packet in packets:
            if getattr(packet, "codepoint", None) != marker_code:
                self.data_bytes_sent += packet.size
                if getattr(packet, "rseq", None) is not None:
                    sequenced.append(packet)
        if sequenced:
            self._note_burst(self._index, sequenced)
        self._inner.send_burst(packets)

    @property
    def on_unblocked(self) -> Any:
        # Forward the resume slot so the pipeline's slot-filling and the
        # port's own stall hooks (ARP, credit) see one shared callback.
        return self._inner.on_unblocked

    @on_unblocked.setter
    def on_unblocked(self, fn: Any) -> None:
        self._inner.on_unblocked = fn

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _split_fec_options(options: Optional[Dict[str, Any]]):
    """``(arq_options, fec_options)``: FEC knobs ride under the ``"fec"`` key."""
    options = dict(options or {})
    return options, dict(options.pop("fec", None) or {})


def _check_reliability(reliability: str) -> None:
    if reliability not in RELIABILITY_MODES:
        raise ValueError(
            f"unknown reliability mode {reliability!r}; "
            f"known: {RELIABILITY_MODES}"
        )


def build_sender_recovery(
    ports: Sequence[Any],
    reliability: str,
    sim: Any,
    stripe: Callable[[Any], None],
    stripe_many: Callable[[Sequence[Any]], None],
    options: Optional[Dict[str, Any]] = None,
) -> Tuple[List[Any], Optional[ReliableSender], Optional[FecSender]]:
    """The send-side recovery stack, built once at construction time:
    recording ports -> :class:`ReliableSender` -> :class:`FecSender`.

    ``stripe`` / ``stripe_many`` are the owner's entries into its striper
    (they may be bound before the striper exists).  Returns ``(ports,
    reliable, fec)``: the port list to stripe over (recording proxies
    whenever a recovery layer is mounted) and the layers ``reliability``
    asked for, ``None`` otherwise.  ``options`` go to the ARQ sender, with
    the FEC sender's under the ``"fec"`` key.
    """
    _check_reliability(reliability)
    ports = list(ports)
    arq = arq_enabled(reliability)
    fec = fec_enabled(reliability)
    reliable: Optional[ReliableSender] = None
    fec_sender: Optional[FecSender] = None
    if not (arq or fec):
        return ports, reliable, fec_sender
    if arq and sim is None:
        raise ValueError(f"{reliability} mode needs an event scheduler")
    options, fec_options = _split_fec_options(options)
    if arq:
        options.setdefault("submit_many", stripe_many)
        reliable = ReliableSender(stripe, sim, **options)
    # Recording proxies report actual transmissions (channel + time) back
    # to the ARQ layer; the striper stays oblivious.  Pure fec wraps too,
    # for the envelope byte accounting — its packets carry no rseq, so
    # the ARQ hooks (None then) never fire.
    notes = (reliable.note_sent, reliable.note_burst) if arq else (None, None)
    ports = [
        _RecordingPort(port, index, *notes) for index, port in enumerate(ports)
    ]
    if fec:
        # FEC sits above ARQ: the downstream stamps rseq (hybrid) before
        # the shard is serialized, and parity bypasses the retransmission
        # buffer — it is expendable redundancy — but still stripes
        # through the kernel's rotated placement.
        fec_sender = FecSender(
            reliable.submit if arq else stripe,
            stripe_many,
            sim=sim,
            downstream_many=reliable.submit_many if arq else stripe_many,
            **fec_options,
        )
    return ports, reliable, fec_sender


def build_receiver_recovery(
    reliability: str,
    sim: Any,
    final: Callable[[Any], None],
    send_ack: Optional[Callable[[Any], None]] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Tuple[
    Optional[ReliableReceiver], Optional[FecReceiver], Callable[[Any], Any]
]:
    """The receive-side recovery chain, built once at construction time:
    reception engine -> [:class:`FecReceiver`] -> [:class:`ReliableReceiver`]
    -> ``final``.

    Returns ``(reliable, fec, head)``; ``head`` is what the reception
    engine's delivery callback binds to.  In hybrid mode the FEC layer
    passes packets through to the ARQ receiver (which owns rseq
    ordering/dedup) and fills its holes with reconstructions; in pure fec
    it resequences by fseq itself.  ``options`` go to the ARQ receiver,
    with the FEC receiver's under the ``"fec"`` key.
    """
    _check_reliability(reliability)
    options, fec_options = _split_fec_options(options)
    reliable: Optional[ReliableReceiver] = None
    fec: Optional[FecReceiver] = None
    head = final
    if arq_enabled(reliability):
        reliable = ReliableReceiver(
            final, send_ack=send_ack, sim=sim, **options
        )
        head = reliable.push
    if fec_enabled(reliability):
        fec = FecReceiver(
            head, ordered=reliable is None, sim=sim, **fec_options
        )
        head = fec.on_packet
    return reliable, fec, head


class StripeSenderPipeline:
    """The one striping send pump, over any transport's channel ports.

    Args:
        ports: one :class:`ChannelPort` per channel.
        discipline: anything :func:`resolve_discipline` accepts — a name,
            a :class:`~repro.core.cfq.CausalFQ`, or a load sharer.
        marker_policy: marker emission policy (marker-synchronized
            disciplines only; marker-free disciplines reject one).
        marker_decorator / on_marker: per-marker hooks (credit piggyback).
        credit: optional FCVC :class:`~repro.transport.credit.CreditSender`;
            its ``on_unblocked`` is pointed at the pump.
        sim: event scheduler (``schedule(delay, fn)``/``now``) — required
            only for keepalive markers.
        marker_keepalive_s: if set, force a marker batch whenever no marker
            was emitted for this long (stalled/idle senders must keep the
            receiver — and piggybacked credits — refreshed).
        reliability: service level — ``"best_effort"`` / ``"quasi_fifo"``
            (the default; both leave the submit path untouched),
            ``"reliable"``, which sequences every submitted packet
            through a :class:`~repro.transport.reliability.ReliableSender`
            (selective-repeat ARQ; requires ``sim``), ``"fec"``, which
            mounts a :class:`~repro.transport.fec.FecSender` (proactive
            erasure-coded recovery, parity striped through the same SRR
            kernel), or ``"hybrid"`` (FEC above ARQ: reconstruction
            first, retransmission backstop).
        reliability_options: keyword arguments forwarded to
            :class:`~repro.transport.reliability.ReliableSender`
            (``window_packets``, ``max_retries``,
            ``on_channel_suspect``, ...).  FEC knobs ride under the
            ``"fec"`` key — a dict forwarded to
            :class:`~repro.transport.fec.FecSender` (``k``, ``m``,
            ``seal_timeout_s``, ...) — so one dict configures every
            mode.
        discipline_options: forwarded to :func:`make_discipline` when
            ``discipline`` is a name.
        fabric: optional :class:`~repro.transport.fabric.FabricScheduler`
            mounted above the submit path (equivalent to calling
            :meth:`attach_fabric` after construction): flow-addressed
            submission (``submit(flow_id, packet)``) with per-flow
            weighted-DRR scheduling and per-flow backpressure.
    """

    def __init__(
        self,
        ports: Sequence[ChannelPort],
        discipline: Any,
        *,
        marker_policy: Optional[MarkerPolicy] = None,
        marker_decorator: Optional[Callable[[int, Any], None]] = None,
        on_marker: Optional[Callable[[int, Any], None]] = None,
        credit: Any = None,
        sim: Any = None,
        marker_keepalive_s: Optional[float] = None,
        tracer: Tracer = NULL_TRACER,
        clock: Optional[Callable[[], float]] = None,
        reliability: str = "quasi_fifo",
        reliability_options: Optional[Dict[str, Any]] = None,
        discipline_options: Optional[Dict[str, Any]] = None,
        fabric: Any = None,
    ) -> None:
        self.reliability = reliability
        self.sim = sim
        n_ports = len(ports)
        sharer = resolve_discipline(
            discipline, n_ports, **(discipline_options or {})
        )
        self.sharer = sharer
        # The discipline's synchronization model, sender half: custody of
        # the marker policy (rejected outright by marker-free models) and
        # the keepalive refresh.  Marker *mechanics* stay in the striper —
        # the model decides whether they are armed at all.
        family = sync_model_for(sharer, markers=marker_policy is not None)
        if family == "hash":
            self.sync: Any = HashSyncModel(
                n_ports, marker_policy=marker_policy
            )
        elif family == "header":
            self.sync = HeaderSyncModel(marker_policy=marker_policy)
        else:
            self.sync = MarkerSyncModel(marker_policy=marker_policy)
        #: discipline-supplied packet transformation (MPPP headers,
        #: BONDING frames); None for the paper's no-modification schemes.
        self._wrap = getattr(sharer, "wrap_packet", None)
        if self._wrap is not None and (
            arq_enabled(reliability) or fec_enabled(reliability)
        ):
            raise ValueError(
                f"{reliability} mode needs a non-transforming discipline "
                "(MPPP/BONDING fragment packets below the recovery layer)"
            )
        self.ports, self.reliable, self.fec = build_sender_recovery(
            ports, reliability, sim, self._stripe, self._stripe_many,
            reliability_options,
        )
        # The submit path enters at the top recovery layer; the stacking is
        # fixed at construction, so it is bound once, not chosen per packet.
        head = self.fec or self.reliable
        self._submit = head.submit if head is not None else self._stripe
        self._submit_many = (
            head.submit_many if head is not None else self._stripe_many
        )
        if clock is None and sim is not None:
            clock = lambda: sim.now  # noqa: E731
        # ChannelPort's optional burst surface picks the batched pump.
        burst = all(
            hasattr(port, "send_burst") and hasattr(port, "free_capacity")
            for port in self.ports
        )
        self._make_striper = partial(
            FastStriper if burst else Striper,
            marker_policy=self.sync.marker_policy,
            on_marker=on_marker,
            marker_decorator=marker_decorator,
            tracer=tracer,
            clock=clock,
        )
        self.striper = self._make_striper(sharer, self.ports)
        self.credit = credit
        if credit is not None:
            credit.on_unblocked = self.pump
        for port in self.ports:
            # Fill empty resume slots; ports without the slot (or with one
            # already claimed) are left alone.
            if getattr(port, "on_unblocked", _MISSING) is None:
                port.on_unblocked = self.pump
        self.messages_submitted = 0
        self._closed = False
        self.fabric: Any = None
        self._fabric_backlog_limit = 0
        if fabric is not None:
            self.attach_fabric(fabric)
        if marker_keepalive_s is not None:
            self.sync.start_keepalive(self.striper, sim, marker_keepalive_s)

    def restripe(
        self,
        discipline: Any,
        active: Sequence[int],
        **discipline_options: Any,
    ) -> None:
        """Install a new epoch's striper over the ``active`` subset of this
        pipeline's ports (full-set indices, in channel order).

        The reconfiguration half of a session reset: ``discipline`` is
        resolved for ``len(active)`` channels into a striper at its
        initial state (fresh kernel, initial markers due again), built as
        the constructor's was.  The input queue carries across — whatever
        was submitted, retransmitted or drained from the fabric while the
        old striper was held opens the new epoch, in order; the ARQ/FEC
        layers, the fabric mount and the recording ports (which keep
        their full-set index) are untouched.  Fragmenting disciplines are
        refused: the carried queue would hold the old epoch's fragments.
        """
        ports = [self.ports[index] for index in active]
        sharer = resolve_discipline(
            discipline, len(ports), **discipline_options
        )
        if hasattr(sharer, "wrap_packet"):
            raise ValueError(
                f"cannot restripe with {type(sharer).__name__}: a queue "
                "carried across epochs moves whole packets, not fragments"
            )
        carried = self.striper.input_queue
        self.sharer = sharer
        self.striper = self._make_striper(sharer, ports)
        if carried:
            self.striper.submit_many(carried)

    # ------------------------------------------------------------------ #
    # multi-flow fabric mount

    def attach_fabric(
        self, fabric: Any, *, backlog_limit: Optional[int] = None
    ) -> Any:
        """Mount a flow-layer scheduler (FQ across flows) on this pipeline.

        ``fabric`` is duck-typed (``bind``/``submit``/``can_submit``/
        ``pump``), normally a
        :class:`~repro.transport.fabric.FabricScheduler`.  It drains into
        the pipeline's ordinary submit path — through the ARQ layer in
        reliable mode — in batches no larger than the pipeline has room
        for: free reliable-window slots and striper input queue slots
        below ``backlog_limit`` (default ``4 × n_channels``), whichever
        is fewer.  Backlog therefore waits in
        per-flow queues where the weighted DRR arbitrates it, instead of
        congealing into the shared FIFO below, and every transport —
        whatever its ports — gets multi-flow submission with no flow
        logic of its own.
        """
        if backlog_limit is None:
            backlog_limit = 4 * len(self.ports)
        self.fabric = fabric
        self._fabric_backlog_limit = backlog_limit
        fabric.bind(
            self._submit,
            ready=self._fabric_ready,
            downstream_many=self._submit_many,
        )
        if self.reliable is not None:
            # A draining ARQ window reopens the fabric gate, after any
            # callback the owner already installed on ``on_window_open``.
            chained = self.reliable.on_window_open

            def window_open() -> None:
                if chained is not None:
                    chained()
                fabric.pump()

            self.reliable.on_window_open = window_open
        return fabric

    def _fabric_ready(self) -> int:
        """Packets the fabric may hand down now: the striper's backlog
        room, capped by the ARQ window's."""
        room = self._fabric_backlog_limit - len(self.striper.input_queue)
        if self.reliable is not None:
            window = self.reliable.window_room()
            if window < room:
                return window
        return room

    def submit(self, flow_id: Any, packet: Packet) -> bool:
        """Flow-addressed submission: queue ``packet`` on ``flow_id``.

        Requires a mounted fabric (``fabric=`` or :meth:`attach_fabric`).
        Returns False when the flow's bounded queue refused the packet.
        """
        if self.fabric is None:
            raise RuntimeError(
                "flow-addressed submit requires a fabric "
                "(pass fabric= or call attach_fabric())"
            )
        # Counted before the hand-off (the fabric may pump, and a delivery
        # may submit again, before it returns); a refusal pumps nothing,
        # so taking the count back is exact.
        self.messages_submitted += 1
        if self.fabric.submit(flow_id, packet):
            return True
        self.messages_submitted -= 1
        return False

    def send_message(
        self, size: int, payload: Any = None, flow_id: Any = None
    ) -> Optional[Packet]:
        """Submit one application message of ``size`` bytes for striping.

        Returns the queued packet, or None when ``flow_id``'s bounded
        queue refused it (its ``seq`` goes to the next message).
        """
        packet = Packet(size=size, seq=self.messages_submitted, payload=payload)
        if flow_id is not None:
            packet.flow = flow_id
            return packet if self.submit(flow_id, packet) else None
        self.messages_submitted += 1
        self._submit(packet)
        return packet

    def submit_packet(self, packet: Packet, flow_id: Any = None) -> None:
        """Submit a caller-constructed packet (e.g. video trace packets)."""
        if flow_id is not None:
            self.submit(flow_id, packet)
            return
        self.messages_submitted += 1
        self._submit(packet)

    def submit_packets(self, packets: Sequence[Packet]) -> None:
        """Submit a burst of caller-constructed packets in one call.

        Behavior-identical to calling :meth:`submit_packet` per packet
        (same order, same instant), but the whole burst flows through the
        ARQ layer and the striper as batches: one rseq-stamping pass, one
        pump.  The direct (non-fabric) submit path only.
        """
        self.messages_submitted += len(packets)
        self._submit_many(packets)

    def _stripe(self, packet: Any) -> None:
        if self._wrap is not None:
            for unit in self._wrap(packet):
                self.striper.submit(unit)
        else:
            self.striper.submit(packet)

    def _stripe_many(self, packets: Sequence[Any]) -> None:
        if self._wrap is not None:
            for packet in packets:
                for unit in self._wrap(packet):
                    self.striper.submit(unit)
        else:
            self.striper.submit_many(packets)

    def can_submit(self, flow_id: Any = None) -> bool:
        """Backpressure signal: False while a reliable window is full.

        With ``flow_id``, per-flow backpressure instead: False only while
        that flow's bounded fabric queue is full (a stalled sibling flow
        or a full shared window does not show through).
        """
        if flow_id is not None:
            if self.fabric is None:
                return False
            return self.fabric.can_submit(flow_id)
        reliable = self.reliable
        # reliable.can_submit(), without its frame: sources poll this
        return reliable is None or (
            not reliable._overflow
            and len(reliable.unacked) < reliable.window_packets
        )

    def on_ack(self, ack: Any) -> None:
        """Feed a reverse-path acknowledgment to the reliability layer.

        Accepts an :class:`~repro.transport.reliability.AckPacket`, a
        bare :class:`~repro.core.packet.SackInfo`, or anything carrying
        a ``sack`` attribute (a SACK-bearing reverse marker).
        """
        if self.reliable is not None:
            self.reliable.on_ack(ack)

    def flush(self) -> None:
        """Flush buffered residue (a partial BONDING frame or FEC group)."""
        if self.fec is not None:
            self.fec.flush()
        flush = getattr(self.sharer, "flush", None)
        if flush is None:
            return
        unit = flush()
        if unit is not None:
            self.striper.submit(unit)

    @property
    def backlog(self) -> int:
        return len(self.striper.input_queue)

    def pump(self) -> int:
        sent = self.striper.pump()
        if self.fabric is not None:
            # Freed port/credit capacity may have reopened the fabric
            # gate; refill the striper from the per-flow queues.
            self.fabric.pump()
        return sent

    def close(self) -> None:
        if self.fec is not None and not self._closed:
            self.fec.flush()
        self._closed = True
        self.sync.stop()
        for port in self.ports:
            close = getattr(port, "close", None)
            if close is not None:
                close()


# --------------------------------------------------------------------- #
# receiver side


def _rewiring(slot: str) -> property:
    """A :class:`StripeReceiverPipeline` attribute kept in ``slot`` whose
    assignment re-runs :meth:`~StripeReceiverPipeline._rewire`.

    The arrival closures of :meth:`~StripeReceiverPipeline.channel_handler`
    and the reception engine's delivery callback are chosen from these
    attributes, so a handler issued before an assignment follows it.
    """

    def get(pipeline: Any) -> Any:
        return getattr(pipeline, slot)

    def set_(pipeline: Any, value: Any) -> None:
        setattr(pipeline, slot, value)
        pipeline._rewire()

    return property(get, set_)


class StripeReceiverPipeline:
    """The one striped-receive pump, over any transport's arrivals.

    Arrivals enter via :meth:`push` (or the per-channel closures from
    :meth:`channel_handler`); the pipeline applies the physical buffer-cap
    drop rule and reports consumption to the FCVC credit layer.  Ordering
    is the synchronization model's job: the discipline's model
    (:func:`~repro.transport.sync_model.make_sync_model`) builds the
    reception engine, handles marker arrivals (piggybacked credit/SACK
    extraction, condition-C1 resync) or — for marker-free disciplines —
    delivers at arrival with no resequencer and no marker-decode path
    allocated at all.

    Args:
        n_channels: striped channel count.
        algorithm: the sender's CFQ algorithm (simulated for logical
            reception); None for modes that need none.
        mode: resequencing mode (``marker``/``plain``/``none``/``direct``/
            ``mppp``/``bonding``), normally from
            :func:`~repro.transport.discipline.receiver_mode_for`.
        on_message: callback for in-order application messages.
        buffer_packets: per-channel physical buffer cap; data arrivals
            beyond it are dropped (counted) — the loss credit flow
            control eliminates.
        credit: optional :class:`~repro.transport.credit.CreditReceiver`
            notified as buffered packets are consumed.
        failure_detector: optional :class:`ChannelFailureDetector`; it is
            bound to :meth:`fail_channel`, so plain pipelines survive a
            dead channel (delivery degrades to quasi-FIFO with gaps
            instead of stalling forever).
        sim: event scheduler, used for the marker-receiver clock and the
            MPPP gap timeout.
        reliability: service level — ``"best_effort"`` / ``"quasi_fifo"``
            deliver the resequencer output as-is (the default);
            ``"reliable"`` runs it through a
            :class:`~repro.transport.reliability.ReliableReceiver`
            (exactly-once, in-order, acks on the reverse path);
            ``"fec"`` mounts a :class:`~repro.transport.fec.FecReceiver`
            that reconstructs lost group members from parity and
            resequences by FEC group number (no reverse traffic at all);
            ``"hybrid"`` stacks both — FEC repairs first, the ARQ
            backstop retransmits what parity could not cover.
        send_ack: reliable/hybrid mode's ack transmitter, ``fn(SackInfo)``.
        reliability_options: keyword arguments forwarded to
            :class:`~repro.transport.reliability.ReliableReceiver`; FEC
            knobs ride under the ``"fec"`` key (a dict forwarded to
            :class:`~repro.transport.fec.FecReceiver`: ``k``, ``m``,
            ``group_timeout_s``, ``on_escalate``, ...), mirroring the
            sender pipeline.
    """

    buffer_packets = _rewiring("_buffer_packets")
    credit = _rewiring("_credit")
    failure_detector = _rewiring("_failure_detector")
    on_message = _rewiring("_on_message")
    #: keep every delivered packet in :attr:`delivered` (the default).
    #: Packet-pool harnesses switch this off: a retained reference
    #: would alias the recycled object's next life.
    retain_delivered = _rewiring("_retain_delivered")

    def __init__(
        self,
        n_channels: int,
        algorithm: Optional[CausalFQ] = None,
        *,
        mode: str = "marker",
        on_message: Optional[Callable[[Any], None]] = None,
        buffer_packets: Optional[int] = None,
        credit: Any = None,
        failure_detector: Optional[ChannelFailureDetector] = None,
        clock: Optional[Callable[[], float]] = None,
        sim: Any = None,
        reliability: str = "quasi_fifo",
        send_ack: Optional[Callable[[Any], None]] = None,
        reliability_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sim = sim
        self._on_message = on_message
        self._buffer_packets = buffer_packets
        self.buffer_drops = 0
        self.delivered: List[Any] = []
        self._retain_delivered = True
        self.reliability = reliability
        self.reliable, self.fec, head = build_receiver_recovery(
            reliability, sim, self._deliver_final, send_ack,
            reliability_options,
        )
        self._credit = credit
        if clock is None and sim is not None:
            clock = lambda: sim.now  # noqa: E731
        # The synchronization model binds the reception engine's delivery
        # callback directly to its destination (FEC layer, ARQ receiver,
        # or final delivery) — one less call per delivered packet; the
        # chain is fixed at construction.
        self._make_sync = partial(
            make_sync_model, on_deliver=head, clock=clock, sim=sim
        )
        self._failure_detector = failure_detector
        if failure_detector is not None:
            failure_detector.bind(
                n_channels, self.fail_channel, on_revival=self.revive_channel
            )
        #: one shared slot the arrival closures read per packet
        self._checked_arrivals = [False]
        self._install(mode, algorithm, n_channels)

    def _install(
        self, mode: str, algorithm: Optional[CausalFQ], n_channels: int
    ) -> None:
        """Build the synchronization model and its reception engine."""
        self.n_channels = n_channels
        self.sync = self._make_sync(mode, algorithm, n_channels=n_channels)
        #: the reception engine (compatibility name: every harness and
        #: test reads ``receiver.resequencer``); for marker-free models a
        #: zero-buffer :class:`~repro.core.resequencer.DirectReception`.
        self.resequencer = self.sync.receiver
        self._pushed_data: List[int] = [0] * n_channels
        self._credited: List[int] = [0] * n_channels
        self.failed_channels: set = set()
        self._rewire()

    def restart_reception(
        self,
        discipline: Any,
        n_channels: int,
        *,
        markers: bool = False,
        **discipline_options: Any,
    ) -> None:
        """Install a new epoch's reception engine for ``n_channels``.

        The receive half of a session reset: ``discipline`` picks mode
        and algorithm (:func:`~repro.transport.discipline.receiver_args_for`)
        and the synchronization model is rebuilt at its initial state as
        the constructor built it.  What the old engine still buffered is
        dropped with it; the credit / SACK sinks, the ARQ/FEC chain,
        :attr:`delivered` and ``on_message`` survive.  Closures taken from
        :meth:`channel_handler` stay bound to the engine they were issued
        for — a session enters through :meth:`push`.
        """
        mode, algorithm = receiver_args_for(
            discipline, n_channels, markers, **discipline_options
        )
        previous = self.sync
        self._install(mode, algorithm, n_channels)
        self.sync.marker_decode_errors = previous.marker_decode_errors
        self.sync.credit_sink = previous.credit_sink
        self.sack_sink = previous.sack_sink  # the setter rewires

    # -- synchronization-model state forwarded for the transports ------ #

    @property
    def credit_sink(self) -> Optional[Callable[[int, int], None]]:
        return self.sync.credit_sink

    @credit_sink.setter
    def credit_sink(self, fn: Optional[Callable[[int, int], None]]) -> None:
        self.sync.credit_sink = fn
        self._rewire()

    @property
    def sack_sink(self) -> Optional[Callable[[Any], None]]:
        return self.sync.sack_sink

    @sack_sink.setter
    def sack_sink(self, fn: Optional[Callable[[Any], None]]) -> None:
        self.sync.sack_sink = fn
        self._rewire()

    def _rewire(self) -> None:
        """Re-derive the two per-packet choices from the attributes.

        Arrivals need :meth:`push`'s checks under the drop rule, credits,
        the watchdog, or a piggyback sink for markers.  The reception
        engine delivers straight to ``on_message`` when nothing else
        happens at final delivery: no ARQ/FEC layer between (those hold
        :meth:`_deliver_final`, which reads both attributes per packet)
        and nothing to retain.
        """
        sync = self.sync
        self._checked_arrivals[0] = (
            self._buffer_packets is not None
            or self._credit is not None
            or self._failure_detector is not None
            or sync.credit_sink is not None
            or sync.sack_sink is not None
        )
        if self.reliable is None and self.fec is None:
            direct = not self._retain_delivered and self._on_message is not None
            self.resequencer.on_deliver = (
                self._on_message if direct else self._deliver_final
            )

    @property
    def marker_decode_errors(self) -> int:
        return self.sync.marker_decode_errors

    def receiver_state(self) -> Dict[str, Any]:
        """The synchronization model's introspectable receiver state."""
        return self.sync.receiver_state()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-value capture of reception: the reception engine's own
        snapshot and the data packets pushed per channel (credit
        accounting).  The ARQ/FEC layers checkpoint themselves."""
        return {
            "engine": self.resequencer.snapshot(),
            "pushed": list(self._pushed_data),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`snapshot` capture; the arrival closures keep
        their count list."""
        self.resequencer.restore(state["engine"])
        self._pushed_data[:] = state["pushed"]

    # ------------------------------------------------------------------ #

    def push(self, channel: int, packet: Any) -> List[Any]:
        """Physical arrival of ``packet`` on ``channel``.

        Returns the application packets delivered in logical order as a
        result (also passed to ``on_message``).
        """
        detector = self._failure_detector
        if detector is not None:
            detector.note_arrival(channel)
        if type(packet) is bytes:
            # A raw wire frame (e.g. a marker whose bytes were corrupted
            # in flight and delivered anyway): route through the codec,
            # which counts malformed frames instead of raising.
            return self.push_wire(channel, packet)
        if not is_marker(packet):
            if (
                self._buffer_packets is not None
                and self._buffered_data(channel) >= self._buffer_packets
            ):
                self.buffer_drops += 1
                return []
            self._pushed_data[channel] += 1
            out = self.resequencer.push(channel, packet)
        else:
            out = self.sync.on_marker(channel, packet)
        if self._credit is not None:
            self._issue_credits()
        return out

    def push_wire(self, channel: int, data: bytes) -> List[Any]:
        """Physical arrival of an *encoded marker frame* on ``channel``.

        The synchronization model owns the codec: marker models decode
        (malformed frames counted in :attr:`marker_decode_errors` and
        dropped instead of surfacing struct errors into the arrival
        path); marker-free models count the stray frame and drop it
        without ever touching the codec.
        """
        marker = self.sync.decode_wire(data)
        if marker is None:
            return []
        return self.push(channel, marker)

    def channel_handler(self, index: int) -> Callable[[Any], None]:
        """A per-channel arrival callback (for transports that demux).

        While no drop rule, credit layer, watchdog or piggyback sink is
        configured (the fast transport) an arrival skips :meth:`push`'s
        per-packet checks: it is counted and handed straight to the
        reception engine.  Reliable mode rides along fine: the ARQ
        receiver hangs off the engine's delivery callback, not off this
        arrival path.  The choice is read per arrival, so a handler
        follows a ``credit``/``sack_sink``/... assigned after it was taken.
        """
        engine = self.resequencer
        checked = self._checked_arrivals
        pushed = self._pushed_data
        if hasattr(engine, "arrival"):
            # One frame per arrival: the engine's own closure, with the
            # data count and the detour to :meth:`push` folded in.
            return engine.arrival(index, pushed, (checked, self.push))
        arrive = partial(engine.push, index)
        marker_code = Codepoint.MARKER

        def handle(packet: Any) -> None:
            if checked[0] or type(packet) is bytes:
                # push() takes a corrupted-in-flight wire frame to the
                # codec path, which counts and drops it.
                self.push(index, packet)
                return
            # not is_marker(packet), without its frame
            if getattr(packet, "codepoint", None) != marker_code:
                pushed[index] += 1
            arrive(packet)

        return handle

    def fail_channel(self, channel: int) -> List[Any]:
        """Declare a channel dead so delivery does not block on it."""
        if channel in self.failed_channels:
            return []
        self.failed_channels.add(channel)
        fail = getattr(self.resequencer, "fail_channel", None)
        if fail is None:
            return []
        return fail(channel)

    def revive_channel(self, channel: int) -> None:
        """Welcome a failed channel back into the bundle.

        The resequencer stops assuming its packets lost; in marker mode the
        next marker on the channel resyncs its simulated state (condition
        C1), so delivery re-aligns without a session reset.
        """
        if channel not in self.failed_channels:
            return
        self.failed_channels.discard(channel)
        revive = getattr(self.resequencer, "revive_channel", None)
        if revive is not None:
            revive(channel)

    # ------------------------------------------------------------------ #

    def _buffered_data(self, index: int) -> int:
        """Data packets currently buffered on a channel (markers excluded)."""
        buffers = getattr(self.resequencer, "buffers", None)
        if buffers is None:
            return 0
        return sum(1 for p in buffers[index] if not is_marker(p))

    def _issue_credits(self) -> None:
        """Report newly consumed packets on every channel to the credit layer.

        Consumed = pushed into the channel buffer minus still buffered; a
        single push can unblock deliveries on *other* channels, so all
        channels are re-examined.
        """
        credit = self._credit
        assert credit is not None
        for index in range(len(self._pushed_data)):
            consumed = self._pushed_data[index] - self._buffered_data(index)
            while self._credited[index] < consumed:
                self._credited[index] += 1
                credit.on_consumed(index)

    def _deliver_final(self, packet: Any) -> None:
        if self._retain_delivered:
            self.delivered.append(packet)
        if self._on_message is not None:
            self._on_message(packet)
