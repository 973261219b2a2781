"""Crash-tolerant endpoints: recovery latency vs checkpoint interval.

The paper's crash prescription is one line — "We deal with sender or
receiver node crashes by doing a reset" — and :mod:`repro.transport.
recovery` upgrades it to warm recovery from durable state.  This
experiment quantifies the knob that upgrade introduces: how often the
endpoints checkpoint.  A long interval means a cheap steady state but a
long replay after a crash (everything since the checkpoint rides the WAL
and the reconciliation replay); a short interval bounds replay at the
cost of checkpoint traffic.

The rig kills the sender and the receiver mid-run (10% persistent loss
throughout, so ARQ is load-bearing at the same time), restarts each from
its last checkpoint, and measures **recovery latency**: the time from an
endpoint's restart until every message submitted before its crash has
been delivered.  A cold leg (receiver loses its checkpoint entirely and
rejoins via the sender's announce + marker resync, Theorem 5.1) is
reported alongside for contrast.

``RecoveryRig`` is deliberately importable — the kill/restart property
suites (``tests/properties/test_recovery_properties.py``) drive the same
rig under randomized crash schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.analysis.tables import render_rows
from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultSchedule,
    endpoint_crash_schedule,
    persistent_loss_schedule,
)
from repro.sim.host import EndpointCrashController
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort
from repro.transport.recovery import (
    CheckpointStore,
    ReceiverRecovery,
    SenderRecovery,
)

N_CHANNELS = 3
MESSAGE_BYTES = 500
BANDWIDTH_BPS = 8e6
PROP_DELAY = 0.5e-3
QUEUE_LIMIT = 64
KEEPALIVE_S = 0.02


class RecoveryRig:
    """Crashable striped endpoints over persistent channels.

    The channels, the checkpoint stores, the delivery log, and the
    application sequence counter all live in the rig — they survive any
    number of endpoint incarnations.  Each channel's ``on_deliver`` gets
    a *stable dispatcher* installed at construction, **before** any fault
    schedule is installed, so fault injectors wrap the dispatcher and a
    rebuilt receiver swaps in behind them (never over them).  A dead
    endpoint is represented by ``None``: arrivals while the receiver is
    down are dropped on the floor (counted), transmissions cannot happen
    because the source and pump check liveness — but packets already
    handed to a channel stay in flight; they are in the network, not in
    the host.

    Args:
        sim: the event engine.
        reliability: pipeline service level (``reliable``/``hybrid``/
            ``quasi_fifo``/...).
        checkpoint_interval_s: sender checkpoint cadence (None: only the
            post-restore collapse checkpoints happen).
        receiver_checkpoint_interval_s: receiver cadence (defaults to the
            sender's).
        with_fabric: mount a :class:`FabricScheduler` and submit via
            flow-addressed ``submit(flow_id, packet)`` round-robin over
            :attr:`flows`.
        cold_receiver: receiver restarts lose their checkpoint data
            (epoch survives — the NVRAM incarnation counter), exercising
            the cold-resync path instead of the warm one.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        reliability: str = "reliable",
        checkpoint_interval_s: Optional[float] = 0.05,
        receiver_checkpoint_interval_s: Optional[float] = None,
        n_channels: int = N_CHANNELS,
        with_fabric: bool = False,
        cold_receiver: bool = False,
    ) -> None:
        self.sim = sim
        self.reliability = reliability
        self.checkpoint_interval_s = checkpoint_interval_s
        self.receiver_checkpoint_interval_s = (
            receiver_checkpoint_interval_s
            if receiver_checkpoint_interval_s is not None
            else checkpoint_interval_s
        )
        self.n_channels = n_channels
        self.with_fabric = with_fabric
        self.cold_receiver = cold_receiver
        self.flows: Tuple[str, ...] = ("f0", "f1", "f2", "f3")

        self.channels = [
            Channel(
                sim,
                bandwidth_bps=BANDWIDTH_BPS,
                prop_delay=PROP_DELAY,
                queue_limit=QUEUE_LIMIT,
                name=f"ch{i}",
            )
            for i in range(n_channels)
        ]
        self.sender_store = CheckpointStore()
        self.receiver_store = CheckpointStore()

        #: (time, seq) for every in-order application delivery, across
        #: every receiver incarnation.
        self.deliveries: List[Tuple[float, int]] = []
        #: submission time of message ``seq`` (index == seq).
        self.submit_times: List[float] = []
        self.next_seq = 0
        self.dead_receiver_drops = 0
        self._replayed_accum = 0
        self._retransmissions_accum = 0

        self.sender: Optional[StripeSenderPipeline] = None
        self.sender_recovery: Optional[SenderRecovery] = None
        self.receiver: Optional[StripeReceiverPipeline] = None
        self.receiver_recovery: Optional[ReceiverRecovery] = None
        self._rx_handlers: Optional[List[Callable[[Any], None]]] = None

        self._build_sender()
        self._build_receiver()

        # Stable per-channel plumbing — installed once, before any fault
        # schedule wraps on_deliver.  Endpoint rebuilds swap state *behind*
        # these closures.
        for index, channel in enumerate(self.channels):
            channel.on_deliver = self._make_dispatcher(index)
            channel.on_space = self._on_space

        self.controller = EndpointCrashController(
            sim,
            kill_sender=self._kill_sender,
            build_sender=self._build_sender,
            kill_receiver=self._kill_receiver,
            build_receiver=self._restart_receiver,
        )

    # -- stable plumbing ------------------------------------------------ #

    def _make_dispatcher(self, index: int) -> Callable[[Any], None]:
        def dispatch(packet: Any) -> None:
            handlers = self._rx_handlers
            if handlers is None:
                self.dead_receiver_drops += 1
                return
            handlers[index](packet)

        return dispatch

    def _on_space(self) -> None:
        if self.sender is not None:
            self.sender.pump()

    def _control_to_receiver(self, packet: Any) -> None:
        self.sim.schedule(PROP_DELAY, self._deliver_control_rx, packet)

    def _deliver_control_rx(self, packet: Any) -> None:
        if self.receiver_recovery is not None:
            self.receiver_recovery.on_control(packet)

    def _control_to_sender(self, packet: Any) -> None:
        self.sim.schedule(PROP_DELAY, self._deliver_control_tx, packet)

    def _deliver_control_tx(self, packet: Any) -> None:
        if self.sender_recovery is not None:
            self.sender_recovery.on_control(packet)

    def _ack_path(self, ack: Any) -> None:
        self.sim.schedule(PROP_DELAY, self._deliver_ack, ack)

    def _deliver_ack(self, ack: Any) -> None:
        if self.sender_recovery is not None:
            self.sender_recovery.on_ack(ack)
        elif self.sender is not None:
            self.sender.on_ack(ack)

    def _on_message(self, packet: Any) -> None:
        self.deliveries.append((self.sim.now, packet.seq))

    # -- endpoint lifecycles -------------------------------------------- #

    def _build_sender(self) -> None:
        quanta = [float(MESSAGE_BYTES)] * self.n_channels
        ports = [FastChannelPort(ch) for ch in self.channels]
        pipeline = StripeSenderPipeline(
            ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=self.sim,
            marker_keepalive_s=KEEPALIVE_S,
            reliability=self.reliability,
        )
        if self.with_fabric:
            pipeline.attach_fabric(FabricScheduler(FlowTable()))
        recovery = SenderRecovery(
            pipeline,
            self.sender_store,
            sim=self.sim,
            checkpoint_interval_s=self.checkpoint_interval_s,
            send_control=self._control_to_receiver,
        )
        self.sender = pipeline
        self.sender_recovery = recovery
        recovery.install()
        pipeline.pump()

    def _kill_sender(self) -> None:
        pipeline, recovery = self.sender, self.sender_recovery
        if pipeline is None:
            return
        # A crashed host takes no further actions: cancel its timers, but
        # do NOT close() — close flushes the FEC residue, and a dying
        # host gets no dying gasp.
        recovery.stop()
        self._replayed_accum += recovery.replayed_packets
        if pipeline.reliable is not None:
            self._retransmissions_accum += (
                pipeline.reliable.stats.retransmissions
            )
        pipeline.stop()
        self.sender = None
        self.sender_recovery = None

    def _build_receiver(self) -> None:
        quanta = [float(MESSAGE_BYTES)] * self.n_channels
        pipeline = StripeReceiverPipeline(
            self.n_channels,
            SRR(quanta),
            mode="marker",
            on_message=self._on_message,
            sim=self.sim,
            reliability=self.reliability,
            send_ack=self._ack_path,
        )
        recovery = ReceiverRecovery(
            pipeline,
            self.receiver_store,
            sim=self.sim,
            checkpoint_interval_s=self.receiver_checkpoint_interval_s,
            send_control=self._control_to_sender,
        )
        self.receiver = pipeline
        self.receiver_recovery = recovery
        recovery.install()
        self._rx_handlers = [
            pipeline.channel_handler(i) for i in range(self.n_channels)
        ]

    def _restart_receiver(self) -> None:
        if self.cold_receiver:
            self.receiver_store.lose_data()
        self._build_receiver()

    def _kill_receiver(self) -> None:
        pipeline, recovery = self.receiver, self.receiver_recovery
        if pipeline is None:
            return
        recovery.stop()
        pipeline.stop()
        self.receiver = None
        self.receiver_recovery = None
        self._rx_handlers = None

    # -- workload -------------------------------------------------------- #

    def start_source(self, interval: float, stop_at: float) -> None:
        """A paced application source; skips ticks while the sender is down.

        The rig (not the pipeline) owns sequence numbers, so numbering
        survives sender rebuilds — every accepted message gets a unique,
        monotone ``seq`` and a recorded submission time.
        """
        sim = self.sim

        def tick() -> None:
            if sim.now >= stop_at:
                return
            sender = self.sender
            if sender is not None:
                if self.with_fabric:
                    flow = self.flows[self.next_seq % len(self.flows)]
                    if sender.can_submit(flow):
                        packet = Packet(
                            size=MESSAGE_BYTES, seq=self.next_seq, flow=flow
                        )
                        if sender.submit(flow, packet):
                            self.next_seq += 1
                            self.submit_times.append(sim.now)
                elif sender.can_submit():
                    packet = Packet(size=MESSAGE_BYTES, seq=self.next_seq)
                    sender.submit_packet(packet)
                    self.next_seq += 1
                    self.submit_times.append(sim.now)
            sim.schedule(interval, tick)

        sim.schedule_at(0.0, tick)

    # -- metrics --------------------------------------------------------- #

    def delivered_seqs(self) -> List[int]:
        return [seq for _, seq in self.deliveries]

    @property
    def replayed_packets(self) -> int:
        total = self._replayed_accum
        if self.sender_recovery is not None:
            total += self.sender_recovery.replayed_packets
        return total

    @property
    def retransmissions(self) -> int:
        total = self._retransmissions_accum
        sender = self.sender
        if sender is not None and sender.reliable is not None:
            total += sender.reliable.stats.retransmissions
        return total

    def recovery_latencies(self) -> List[Optional[float]]:
        """Per completed outage: caught-up time minus restart time.

        Caught up = every message submitted before the crash has been
        delivered.  ``None`` marks an outage the run never caught up
        from (the run ended too early, or recovery genuinely failed).
        """
        ordered = sorted(self.deliveries)
        out: List[Optional[float]] = []
        for outage in self.controller.outages:
            if outage.open:
                continue
            remaining = {
                seq
                for seq, t in enumerate(self.submit_times)
                if t < outage.down_at
            }
            if not remaining:
                out.append(0.0)
                continue
            caught: Optional[float] = None
            for t, seq in ordered:
                remaining.discard(seq)
                if not remaining:
                    caught = t
                    break
            out.append(
                None if caught is None else max(0.0, caught - outage.up_at)
            )
        return out


# --------------------------------------------------------------------- #
# the experiment


@dataclass
class RecoveryPoint:
    """One checkpoint-interval sweep point (or the cold-restart leg)."""

    label: str
    checkpoint_interval_s: Optional[float]
    crashes: int
    mean_recovery_s: Optional[float]
    max_recovery_s: Optional[float]
    replayed_packets: int
    retransmissions: int
    checkpoint_bytes: int
    wal_records: int
    delivered: int
    submitted: int
    complete: bool
    in_order: bool


@dataclass
class RecoveryResult:
    points: List[RecoveryPoint] = field(default_factory=list)

    def render(self) -> str:
        def ms(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else seconds * 1e3

        return render_rows(self.points, [
            ("leg", "label", ""), ("ckpt(s)", "checkpoint_interval_s", ".3f"),
            ("crashes", "crashes", ""),
            ("mean rec(ms)", lambda p: ms(p.mean_recovery_s), ".1f"),
            ("max rec(ms)", lambda p: ms(p.max_recovery_s), ".1f"),
            ("replayed", "replayed_packets", ""),
            ("rtx", "retransmissions", ""),
            ("ckpt(B)", "checkpoint_bytes", ""), ("wal", "wal_records", ""),
            ("delivered", "delivered", ""), ("complete", "complete", ""),
            ("fifo", "in_order", ""),
        ]) + (
            "\n\nRecovery latency = time from an endpoint's restart until "
            "every message submitted\nbefore its crash has been delivered.  "
            "Short checkpoint intervals bound the WAL/replay\nwork; the "
            "cold leg rejoins from nothing via the resume announce + "
            "marker resync."
        )


def _run_leg(
    *,
    label: str,
    checkpoint_interval_s: Optional[float],
    cold_receiver: bool = False,
    loss_p: float = 0.10,
    source_stop: float = 0.8,
    run_until: float = 2.5,
    seed: int = 7,
) -> RecoveryPoint:
    sim = Simulator()
    rig = RecoveryRig(
        sim,
        reliability="reliable",
        checkpoint_interval_s=checkpoint_interval_s,
        cold_receiver=cold_receiver,
    )
    loss = persistent_loss_schedule(
        rig.n_channels, loss_p, start=0.0, until=source_stop
    )
    crashes = endpoint_crash_schedule(
        [(0.20, "sender"), (0.45, "receiver")], outage=0.05
    )
    schedule = FaultSchedule(tuple(loss.events) + tuple(crashes.events))
    rig.start_source(interval=0.4e-3, stop_at=source_stop)
    schedule.install(sim, rig.channels, seed=seed, endpoints=rig.controller)
    sim.run(until=run_until)

    delivered = rig.delivered_seqs()
    latencies = [lat for lat in rig.recovery_latencies() if lat is not None]
    submitted = rig.next_seq
    if cold_receiver:
        # Cold restarts lose delivery history by definition; completeness
        # and ordering are judged from the adopted base onward.
        post = [
            seq for t, seq in sorted(rig.deliveries) if t > 0.45 + 0.05
        ]
        complete = len(post) > 0
        in_order = post == sorted(post)
    else:
        complete = set(delivered) == set(range(submitted))
        in_order = delivered == sorted(set(delivered))
    return RecoveryPoint(
        label=label,
        checkpoint_interval_s=checkpoint_interval_s,
        crashes=rig.controller.total_crashes,
        mean_recovery_s=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        max_recovery_s=max(latencies) if latencies else None,
        replayed_packets=rig.replayed_packets,
        retransmissions=rig.retransmissions,
        checkpoint_bytes=rig.sender_store.checkpoint_bytes
        + rig.receiver_store.checkpoint_bytes,
        wal_records=rig.sender_store.wal_records
        + rig.receiver_store.wal_records,
        delivered=len(delivered),
        submitted=submitted,
        complete=complete,
        in_order=in_order,
    )


def run_recovery(
    intervals: Tuple[float, ...] = (0.01, 0.025, 0.05, 0.1, 0.2),
) -> RecoveryResult:
    """Sweep the checkpoint interval; append the cold-restart leg."""
    result = RecoveryResult()
    for interval in intervals:
        result.points.append(
            _run_leg(
                label=f"warm/{interval:g}",
                checkpoint_interval_s=interval,
            )
        )
    result.points.append(
        _run_leg(
            label="cold-receiver",
            checkpoint_interval_s=0.05,
            cold_receiver=True,
        )
    )
    return result
