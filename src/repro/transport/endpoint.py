"""The transport-agnostic striping endpoint layer.

Every transport in this package — UDP sockets, session-managed UDP, TCP
connections, the direct-to-channel fast path, duplex sessions — needs the
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
  -> ARQ -> application), assembled once at construction time for both
  pipelines and for the session transport.

How sender and receiver agree on order is **not** this module's business
any more: each pipeline owns a
:class:`~repro.transport.sync_model.SynchronizationModel` (marker
placement/keepalive and simulated-sender reception for the paper's
schemes, direct delivery for marker-free hash schemes, header reception
for MPPP/BONDING), built from the discipline registry's ``sync_model``
axis (:mod:`repro.transport.discipline`).  Channel-health machinery
(failure detection, lifecycle, stall watch) lives in
:mod:`repro.transport.health`.  Both are re-exported here for
compatibility.

The module deliberately imports nothing from :mod:`repro.net`,
:mod:`repro.sim`, or the concrete transports: a pipeline only sees ports
and (optionally) a duck-typed event scheduler, which is what makes the
same code run over UDP sockets, TCP streams, raw simulated channels, or
the in-memory list ports the offline tests use.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
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

#: A value safely larger than any queue limit, used for unbounded queues.
_UNBOUNDED = 1 << 30

#: Input backlogs below this run the per-packet pump: snapshotting and
#: scanning the batch machinery costs more than it saves for a couple of
#: packets (the common case for per-submit pumps of a closed-loop source).
_BATCH_MIN = 4

_MISSING = object()


def _burst_capable(port: Any) -> bool:
    """True if ``port`` has :class:`ChannelPort`'s optional burst surface."""
    return hasattr(port, "send_burst") and hasattr(port, "free_capacity")


# --------------------------------------------------------------------- #
# sender side


class FastStriper(Striper):
    """A :class:`~repro.core.striper.Striper` with a batched pump.

    Semantically identical to the base per-packet pump for SRR-family
    policies — same channel assignments (the kernel is causal), same
    per-channel packet order, same marker emission points — but the kernel
    is advanced with one ``assign_many`` per chunk and each channel
    receives its packets as one burst.  Requires ports with
    ``send_burst``/``free_capacity``.  Non-SRR policies, enabled tracers,
    and unreconstructable pointer trajectories fall back to the exact base
    pump.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._min_quantum: Optional[float] = None
        if self._kernel is not None:
            self._min_quantum = min(self._kernel.quanta)
        #: pump calls that sent at least one batched chunk
        self.batched_pumps = 0
        #: data packets sent through batched chunks
        self.batched_packets = 0
        #: pump calls (or mid-pump bailouts) routed to the per-packet pump
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
        ports = self.ports
        if ports[kernel.ptr].free_capacity() <= 0:
            # Head-of-line: causality forbids sending anywhere but the
            # pointer channel, so no other port's room can matter.
            self.blocked_pumps += 1
            return 0
        if len(queue) < _BATCH_MIN:
            self.fallback_pumps += 1
            return super().pump()
        n = kernel.n_channels
        markers = self._markers_enabled
        position = interval = 0
        if markers:
            policy = self.marker_policy
            position = policy.position % n
            interval = policy.interval_rounds
        sent_total = 0
        # The pointer port has room here and again at every re-entry, so
        # each chunk sends at least its first packet.
        while True:
            free = [port.free_capacity() for port in ports]
            budget = 0
            for f in free:
                budget += f
            backlog = len(queue)
            chunk = budget if budget < backlog else backlog
            sizes = [p.size for p in islice(queue, chunk)]
            snapshot = kernel.snapshot()
            chans = kernel.assign_many(sizes)
            end_ptr = kernel.ptr
            # Longest admissible prefix under per-channel free slots.  The
            # first packet is always admissible (the pointer port had room
            # when this chunk started), so q >= 1 and the loop makes
            # progress.
            q = chunk
            for i in range(chunk):
                c = chans[i]
                f = free[c]
                if f <= 0:
                    q = i
                    break
                free[c] = f - 1
            emit = False
            if markers:
                # Walk the pointer trajectory packet by packet: chans[i+1]
                # (or the post-chunk pointer) is the live pointer after
                # packet i.  Each single-channel advance is one potential
                # marker-position crossing; a multi-channel hop (deep
                # overdraw) cannot be reconstructed from the channel
                # vector alone, so it falls back to the per-packet pump.
                crossings = self._crossings_seen
                ptr = chans[0]
                stop = q
                for i in range(q):
                    nxt = chans[i + 1] if i + 1 < chunk else end_ptr
                    if nxt == ptr:
                        continue
                    step = nxt - ptr
                    if step != 1 and step != 1 - n:
                        kernel.restore(snapshot)
                        self.fallback_pumps += 1
                        return sent_total + super().pump()
                    ptr = nxt
                    if nxt == position:
                        crossings += 1
                        if crossings % interval == 0:
                            # Cut after the crossing packet so the marker
                            # batch lands exactly where the per-packet
                            # pump would put it.
                            stop = i + 1
                            emit = True
                            break
                self._crossings_seen = crossings
                q = stop
            if q < chunk:
                kernel.restore(snapshot)
                kernel.assign_many(sizes[:q])
            bursts: Dict[int, List[Any]] = {}
            bytes_sent = 0
            for i in range(q):
                packet = queue.popleft()
                bytes_sent += sizes[i]
                c = chans[i]
                burst = bursts.get(c)
                if burst is None:
                    bursts[c] = [packet]
                else:
                    burst.append(packet)
            for c, burst in bursts.items():
                ports[c].send_burst(burst)
            self.packets_sent += q
            self.bytes_sent += bytes_sent
            sent_total += q
            self.batched_packets += q
            if emit:
                self._emit_markers()
            if not queue or ports[kernel.ptr].free_capacity() <= 0:
                break
        self.batched_pumps += 1
        return sent_total


class _RecordingPort:
    """A :class:`ChannelPort` proxy reporting data transmissions.

    Reliable mode needs to know *when* and *on which channel* each
    sequenced packet actually left the striper (RTT sampling, per-channel
    retransmission accounting, channel-suspect escalation).  The proxy
    intercepts ``send`` and reports sequenced data packets to the
    reliability layer; everything else forwards to the wrapped port, so
    transports cannot tell the difference.
    """

    def __init__(
        self,
        inner: Any,
        index: int,
        note_sent: Callable[[int, Any], None],
        note_burst: Callable[[int, List[Any]], None],
    ) -> None:
        self._inner = inner
        self._index = index
        self._note_sent = note_sent
        self._note_burst = note_burst
        #: cumulative data bytes actually transmitted through this port
        #: (fairness-envelope accounting: includes retransmissions)
        self.data_bytes_sent = 0

    def send(self, packet: Any, force: bool = False) -> bool:
        ok = self._inner.send(packet, force=force)
        if ok and not is_marker(packet):
            self.data_bytes_sent += packet.size
            if getattr(packet, "rseq", None) is not None:
                self._note_sent(self._index, packet)
        return ok

    def can_accept(self) -> bool:
        return self._inner.can_accept()

    @property
    def queue_length(self) -> int:
        return self._inner.queue_length

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


class _RecordingBurstPort(_RecordingPort):
    """Recording proxy for burst-capable ports (keeps the fast pump).

    A whole burst's sequenced packets are reported to the ARQ layer in one
    call (one clock read, one timer check) instead of one call per packet;
    reporting still happens *before* the inner ``send_burst``, exactly
    like the per-packet proxy reports before returning from ``send``.
    """

    def send_burst(self, packets: Sequence[Any]) -> None:
        sequenced: List[Any] = []
        for packet in packets:
            if not is_marker(packet):
                self.data_bytes_sent += packet.size
                if getattr(packet, "rseq", None) is not None:
                    sequenced.append(packet)
        if sequenced:
            self._note_burst(self._index, sequenced)
        self._inner.send_burst(packets)

    def free_capacity(self) -> int:
        return self._inner.free_capacity()


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
    # Recording proxies report actual transmissions (channel + time) back
    # to the ARQ layer; the striper stays oblivious.  Pure fec wraps too,
    # for the envelope byte accounting — its packets carry no rseq, so
    # the ARQ hooks never fire.
    notes = (
        lambda c, p: reliable.note_sent(c, p),
        lambda c, ps: reliable.note_burst(c, ps),
    )
    ports = [
        (_RecordingBurstPort if _burst_capable(port) else _RecordingPort)(
            port, index, *notes
        )
        for index, port in enumerate(ports)
    ]
    options, fec_options = _split_fec_options(options)
    if arq:
        options.setdefault("submit_many", stripe_many)
        reliable = ReliableSender(stripe, sim, **options)
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


def chain_window_open(reliable: ReliableSender, fn: Callable[[], Any]) -> None:
    """Call ``fn`` whenever the ARQ window drains, after any callback the
    owner already installed on ``on_window_open``."""
    chained = reliable.on_window_open

    def _window_open() -> None:
        if chained is not None:
            chained()
        fn()

    reliable.on_window_open = _window_open


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
        if clock is None and sim is not None:
            clock = lambda: sim.now  # noqa: E731
        burst = all(_burst_capable(port) for port in self.ports)
        striper_cls = FastStriper if burst else Striper
        self.striper = striper_cls(
            sharer,
            self.ports,
            self.sync.marker_policy,
            on_marker=on_marker,
            marker_decorator=marker_decorator,
            tracer=tracer,
            clock=clock,
        )
        # Models that must see traffic before striping opt in; no current
        # model does, so the submit paths stay branch-free by default.
        self._sync_observer = (
            self.sync.on_submit_burst
            if getattr(self.sync, "observes_submissions", False)
            else None
        )
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
            # A draining ARQ window reopens the fabric gate.
            chain_window_open(self.reliable, fabric.pump)
        return fabric

    def _fabric_ready(self) -> int:
        """Packets the fabric may hand down now: the striper's backlog
        room, capped by the ARQ window's."""
        room = self._fabric_backlog_limit - self.striper.backlog
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
        self.messages_submitted += 1
        return self.fabric.submit(flow_id, packet)

    def send_message(
        self, size: int, payload: Any = None, flow_id: Any = None
    ) -> Packet:
        """Submit one application message of ``size`` bytes for striping."""
        packet = Packet(size=size, seq=self.messages_submitted, payload=payload)
        if flow_id is not None:
            packet.flow = flow_id
            self.submit(flow_id, packet)
            return packet
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

    def _submit(self, packet: Any) -> None:
        if self._sync_observer is not None:
            self._sync_observer((packet,))
        if self.fec is not None:
            self.fec.submit(packet)
        elif self.reliable is not None:
            self.reliable.submit(packet)
        else:
            self._stripe(packet)

    def _submit_many(self, packets: Sequence[Any]) -> None:
        if self._sync_observer is not None:
            self._sync_observer(packets)
        if self.fec is not None:
            self.fec.submit_many(list(packets))
        elif self.reliable is not None:
            self.reliable.submit_many(list(packets))
        else:
            self._stripe_many(packets)

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
        return self.reliable is None or self.reliable.can_submit()

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
        return self.striper.backlog

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


def _arrival_check(slot: str) -> property:
    """A :class:`StripeReceiverPipeline` attribute that, while set, sends
    every arrival down :meth:`~StripeReceiverPipeline.push`'s checked path.

    Assignment re-evaluates the choice the
    :meth:`~StripeReceiverPipeline.channel_handler` closures read, so a
    handler issued before the assignment follows it.
    """

    def get(pipeline: Any) -> Any:
        return getattr(pipeline, slot)

    def set_(pipeline: Any, value: Any) -> None:
        setattr(pipeline, slot, value)
        pipeline._choose_arrival_path()

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

    buffer_packets = _arrival_check("_buffer_packets")
    credit = _arrival_check("_credit")
    failure_detector = _arrival_check("_failure_detector")

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
        self.n_channels = n_channels
        self.sim = sim
        self.on_message = on_message
        self._buffer_packets = buffer_packets
        self.buffer_drops = 0
        self.delivered: List[Any] = []
        #: keep every delivered packet in :attr:`delivered` (the default).
        #: Packet-pool harnesses switch this off: a retained reference
        #: would alias the recycled object's next life.
        self.retain_delivered = True
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
        self.sync = make_sync_model(
            mode,
            algorithm,
            n_channels=n_channels,
            on_deliver=head,
            clock=clock,
            sim=sim,
        )
        #: the reception engine (compatibility name: every harness and
        #: test reads ``receiver.resequencer``); for marker-free models a
        #: zero-buffer :class:`~repro.core.resequencer.DirectReception`.
        self.resequencer = self.sync.receiver
        self._pushed_data: List[int] = [0] * n_channels
        self._credited: List[int] = [0] * n_channels
        self.failed_channels: set = set()
        self._failure_detector = failure_detector
        if failure_detector is not None:
            failure_detector.bind(
                n_channels, self.fail_channel, on_revival=self.revive_channel
            )
        self._choose_arrival_path()

    # -- synchronization-model state forwarded for the transports ------ #

    @property
    def credit_sink(self) -> Optional[Callable[[int, int], None]]:
        return self.sync.credit_sink

    @credit_sink.setter
    def credit_sink(self, fn: Optional[Callable[[int, int], None]]) -> None:
        self.sync.credit_sink = fn
        self._choose_arrival_path()

    @property
    def sack_sink(self) -> Optional[Callable[[Any], None]]:
        return self.sync.sack_sink

    @sack_sink.setter
    def sack_sink(self, fn: Optional[Callable[[Any], None]]) -> None:
        self.sync.sack_sink = fn
        self._choose_arrival_path()

    def _choose_arrival_path(self) -> None:
        """Whether arrivals need :meth:`push`'s per-packet checks: the
        drop rule, credits, the watchdog, or a piggyback sink for markers."""
        sync = self.sync
        self._checked_arrivals = (
            self._buffer_packets is not None
            or self._credit is not None
            or self._failure_detector is not None
            or sync.credit_sink is not None
            or sync.sack_sink is not None
        )

    @property
    def marker_decode_errors(self) -> int:
        return self.sync.marker_decode_errors

    def receiver_state(self) -> Dict[str, Any]:
        """The synchronization model's introspectable receiver state."""
        return self.sync.receiver_state()

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
        if hasattr(engine, "arrival"):
            arrive = engine.arrival(index)
        else:
            arrive = partial(engine.push, index)
        pushed = self._pushed_data
        marker_code = Codepoint.MARKER

        def handle(packet: Any) -> None:
            if self._checked_arrivals:
                self.push(index, packet)
                return
            # not is_marker(packet), without its frame
            codepoint = getattr(packet, "codepoint", None)
            if codepoint != marker_code:
                if codepoint is None and type(packet) is bytes:
                    # Corrupted-in-flight wire frame: the codec path
                    # counts and drops it.
                    self.push_wire(index, packet)
                    return
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
        if self.retain_delivered:
            self.delivered.append(packet)
        if self.on_message is not None:
            self.on_message(packet)
