"""Shared harness for the transport-level (section 6.3) experiments.

Builds N parallel links between two hosts, a striped-socket sender
(SRR + markers over UDP) and receiver, a closed-loop message source, and
per-delivery records for reordering analysis.  Loss models are installed on
the forward channels and can be switched off mid-run (the "after packet
losses stopped" part of the paper's findings).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.packet import PacketPool
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, SizeGatedLoss
from repro.transport.credit import CreditSender
from repro.transport.endpoint import make_discipline, receiver_mode_for
from repro.transport.reliability import arq_enabled
from repro.transport.fast_path import (
    FastStripedReceiver,
    FastStripedSender,
    wire_fast_ack_path,
    wire_size,
)
from repro.transport.socket_striping import (
    StripedSocketReceiver,
    StripedSocketSender,
)
from repro.workloads.generators import ClosedLoopSource, ConstantSizes

BASE_PORT = 6000
CREDIT_PORT = 6999
ACK_PORT = 6998


@dataclass
class SocketTestbedConfig:
    """Configuration of the N-channel UDP striping testbed."""

    n_channels: int = 2
    link_mbps: Sequence[float] = (10.0, 10.0)
    prop_delay_s: Sequence[float] = (0.5e-3, 1.5e-3)
    link_queue_frames: int = 40
    loss_rates: Sequence[float] = (0.0, 0.0)
    message_bytes: int = 1000
    marker_interval_rounds: int = 1
    marker_position: int = 0
    mode: str = "marker"  # marker | plain | none
    #: named endpoint discipline (see repro.transport.make_discipline);
    #: None keeps the paper's SRR.  When set, ``mode`` is derived from the
    #: discipline (its own receiver half for mppp/bonding, plain logical
    #: reception for causal policies, arrival order for non-causal ones).
    discipline: Optional[str] = None
    #: extra keyword options forwarded to ``make_discipline`` (e.g.
    #: ``{"initial_share": 1.0}`` so Sprinklers provisions its full stripe
    #: for the harness's single flowless closed-loop aggregate instead of
    #: growing — and reordering — through mid-stream resizes).
    discipline_options: Optional[dict] = None
    buffer_packets: Optional[int] = None
    use_credit: bool = False
    source_backlog: int = 16
    #: if False, no closed-loop source is created; the caller paces
    #: submissions itself (e.g. the video workload).
    closed_loop: bool = True
    #: if True, loss hits only data-sized frames (markers/credits immune),
    #: giving an identical data-loss pattern across control-plane variants
    #: (used by the marker-position study).
    data_only_loss: bool = False
    #: if True, build the direct-to-channel fast path (burst-batched
    #: channels + batched striper pump) instead of the full UDP/IP stack.
    #: The ``(time, seq)`` delivery records are identical to the reference
    #: path (property-tested in every reliability mode).  Burst-mode
    #: channels give a back-pressured sender up to 2 x
    #: ``link_queue_frames`` of buffering (see :mod:`repro.sim.channel`),
    #: so counters sampled at the horizon (``sent``, ``markers_sent``,
    #: ``marker_overhead_fraction``) can differ by up to one transmit
    #: queue per channel, and ``use_credit`` / ``buffer_packets``, which
    #: act on sender-side queue depth, are rejected on the fast path.
    fast: bool = False
    #: optional receiver-side dead-channel watchdog
    #: (:class:`repro.transport.endpoint.ChannelFailureDetector`);
    #: reference path only.
    failure_detector: Optional[object] = None
    #: service level (``best_effort | quasi_fifo | reliable | fec |
    #: hybrid``); reliable/hybrid arm selective-repeat ARQ end to end,
    #: with acks on a dedicated reverse flow (UDP ``ACK_PORT`` on the
    #: reference path, the first link's reverse channel on the fast
    #: path); fec/hybrid add erasure-coded stripe groups.
    reliability: str = "quasi_fifo"
    #: ``{"sender": {...}, "receiver": {...}}`` forwarded to the ARQ halves
    reliability_options: Optional[dict] = None
    #: recycle source packets through a
    #: :class:`~repro.core.packet.PacketPool` (a pure memory optimization;
    #: reliable mode pools only when the run is loss-free, since a lossy
    #: ARQ window can resurrect a retired packet's stale copy).
    packet_pool: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("link_mbps", "prop_delay_s", "loss_rates"):
            values = list(getattr(self, name))
            if len(values) == 1:
                values = values * self.n_channels
            if len(values) != self.n_channels:
                raise ValueError(f"{name} must have {self.n_channels} entries")
            setattr(self, name, tuple(values))
        if self.fast and self.use_credit:
            raise ValueError("credit flow control requires the reference path")
        if self.fast and self.buffer_packets is not None:
            raise ValueError(
                "buffer_packets requires the reference path (the receiver "
                "buffer-cap drop rule depends on sender-side queue depth, "
                "which burst mode changes)"
            )
        if self.reliability not in (
            "best_effort", "quasi_fifo",
        ) and self.discipline not in (None, "srr"):
            raise ValueError(
                f"{self.reliability} mode requires the SRR discipline"
            )
        if self.packet_pool:
            if not self.closed_loop:
                raise ValueError("packet_pool requires the closed-loop source")
            if arq_enabled(self.reliability) and any(
                p > 0 for p in self.loss_rates
            ):
                raise ValueError(
                    "packet_pool + reliable requires loss-free channels "
                    "(an in-flight retransmit copy could alias a recycled "
                    "packet)"
                )


@dataclass
class Delivery:
    time: float
    seq: int
    size: int


@dataclass
class SocketTestbed:
    """A built §6.3 testbed."""

    sim: Simulator
    config: SocketTestbedConfig
    sender_stack: Stack
    receiver_stack: Stack
    links: List[Link]
    loss_models: List[BernoulliLoss]
    sender: StripedSocketSender | FastStripedSender
    receiver: StripedSocketReceiver | FastStripedReceiver
    source: Optional[ClosedLoopSource]
    pool: Optional[PacketPool] = None
    deliveries: List[Delivery] = field(default_factory=list)

    def stop_losses_at(self, time: float) -> None:
        """Schedule all channel loss to cease at ``time``."""

        def stop() -> None:
            for model in self.loss_models:
                model.p = 0.0

        self.sim.schedule_at(time, stop)

    def delivered_seqs(self) -> List[int]:
        return [d.seq for d in self.deliveries]

    def deliveries_after(self, time: float) -> List[Delivery]:
        return [d for d in self.deliveries if d.time >= time]

    @property
    def messages_sent(self) -> int:
        if self.source is not None:
            return self.source.generated
        return self.sender.messages_submitted


def build_socket_testbed(
    sim: Simulator, config: SocketTestbedConfig
) -> SocketTestbed:
    """Assemble hosts, N links, striped sockets, and the message source."""
    sender_stack = Stack(sim, "S")
    receiver_stack = Stack(sim, "R")
    links: List[Link] = []
    loss_models: List[BernoulliLoss] = []
    destinations: List[Tuple[str, int]] = []
    rng = random.Random(config.seed)

    for index in range(config.n_channels):
        s_ip = f"10.{10 + index}.0.1"
        r_ip = f"10.{10 + index}.0.2"
        s_if = EthernetInterface(sim, f"ch{index}s", s_ip)
        r_if = EthernetInterface(sim, f"ch{index}r", r_ip)
        sender_stack.add_interface(s_if)
        receiver_stack.add_interface(r_if)
        loss = BernoulliLoss(
            config.loss_rates[index],
            rng=random.Random(rng.randrange(1 << 30)),
        )
        loss_models.append(loss)
        installed_loss = (
            SizeGatedLoss(loss, min_size=500)
            if config.data_only_loss
            else loss
        )
        links.append(
            Link(
                sim, s_if, r_if,
                bandwidth_bps=config.link_mbps[index] * 1e6,
                prop_delay=config.prop_delay_s[index],
                queue_limit=config.link_queue_frames,
                loss_ab=installed_loss,
                name=f"channel{index}",
            )
        )
        sender_stack.routing.add(r_ip, 24, s_if)
        receiver_stack.routing.add(s_ip, 24, r_if)
        # Pre-populate ARP: the paper's channels are long-lived, and an
        # ARP exchange lost to injected channel loss would otherwise
        # dominate the measurement.
        s_if.arp_cache.install(r_if.ip_address, r_if.mac)
        r_if.arp_cache.install(s_if.ip_address, s_if.mac)
        destinations.append((r_ip, BASE_PORT + index))

    if config.discipline is not None:
        # Any (s0, f, g) scheme through the same testbed: the sender gets
        # the named discipline, the receiver its matching reception mode.
        options = dict(
            quantum=float(config.message_bytes), seed=config.seed
        )
        options.update(config.discipline_options or {})
        algorithm_s = make_discipline(
            config.discipline, config.n_channels, **options
        )
        config.mode = receiver_mode_for(algorithm_s)
        algorithm_r = None
        if config.mode == "plain":
            algorithm_r = make_discipline(
                config.discipline, config.n_channels, **options
            ).algorithm
    else:
        algorithm_s = SRR([float(config.message_bytes)] * config.n_channels)
        algorithm_r = SRR([float(config.message_bytes)] * config.n_channels)
    marker_policy = None
    if config.mode == "marker" and config.marker_interval_rounds > 0:
        marker_policy = MarkerPolicy(
            interval_rounds=config.marker_interval_rounds,
            position=config.marker_position,
        )

    credit_sender: Optional[CreditSender] = None
    if config.use_credit:
        if config.buffer_packets is None:
            raise ValueError("use_credit requires buffer_packets")
        credit_sender = CreditSender(
            config.n_channels, initial_credit=config.buffer_packets
        )

    reliable = arq_enabled(config.reliability)
    arq_options = config.reliability_options or {}
    sender: StripedSocketSender | FastStripedSender
    if config.fast:
        sender = FastStripedSender(
            sim, [link.ab for link in links], algorithm_s,
            marker_policy=marker_policy,
            reliability=config.reliability,
            reliability_options=arq_options.get("sender"),
        )
    else:
        sender = StripedSocketSender(
            sim, sender_stack, destinations, algorithm_s,
            marker_policy=marker_policy,
            credit=credit_sender,
            credit_port=CREDIT_PORT if config.use_credit else None,
            reliability=config.reliability,
            ack_port=ACK_PORT if reliable else None,
            reliability_options=arq_options.get("sender"),
        )

    testbed_ref: List[SocketTestbed] = []

    pool: Optional[PacketPool] = None
    release_on_delivery = False
    if config.packet_pool:
        pool = PacketPool()
        # In reliable mode a delivered packet is still referenced by the
        # sender's retransmission window; recycling waits for the ack
        # (wired below via on_retire).  Otherwise delivery is the end of
        # the packet's life.
        release_on_delivery = not reliable

    def on_message(packet) -> None:
        # BONDING delivers frames (sequence), everything else packets (seq).
        seq = getattr(packet, "seq", None)
        if seq is None:
            seq = getattr(packet, "sequence", -1)
        testbed_ref[0].deliveries.append(
            Delivery(time=sim.now, seq=seq, size=packet.size)
        )
        if release_on_delivery:
            pool.release(packet)

    receiver: StripedSocketReceiver | FastStripedReceiver
    if config.fast:
        send_ack = None
        if reliable:
            # Reverse ack flow, fast counterpart: acks ride the first
            # link's reverse channel directly (the reference path routes
            # them over the same link as a dedicated UDP flow).
            ack_port = wire_fast_ack_path(links[0].ba, sender)
            send_ack = ack_port.send_sack
        receiver = FastStripedReceiver(
            sim, config.n_channels, algorithm_r,
            mode=config.mode,
            on_message=on_message,
            buffer_packets=config.buffer_packets,
            reliability=config.reliability,
            send_ack=send_ack,
            reliability_options=arq_options.get("receiver"),
        )
        # Bypass the UDP/IP/Ethernet plumbing: transport payloads ride the
        # forward channels directly, with the stack's framing bytes folded
        # into size_of so wire timing is unchanged, and arrivals feed the
        # receiver without the interface demux chain.
        for index, link in enumerate(links):
            channel = link.ab
            channel.fast = True
            channel.size_of = wire_size
            channel.on_deliver = receiver.channel_handler(index)
    else:
        receiver = StripedSocketReceiver(
            sim, receiver_stack, config.n_channels, algorithm_r,
            base_port=BASE_PORT,
            mode=config.mode,
            on_message=on_message,
            buffer_packets=config.buffer_packets,
            credit_to="10.10.0.1" if config.use_credit else None,
            credit_port=CREDIT_PORT if config.use_credit else None,
            failure_detector=config.failure_detector,
            reliability=config.reliability,
            ack_to="10.10.0.1" if reliable else None,
            ack_port=ACK_PORT if reliable else None,
            reliability_options=(config.reliability_options or {}).get(
                "receiver"
            ),
        )

    def submit_backlog() -> int:
        # A full ARQ window must read as "backlogged" to the closed-loop
        # source: the retransmission buffer exerts backpressure instead
        # of absorbing unbounded overflow.
        if not sender.can_submit():
            return 1 << 30
        return sender.backlog

    if pool is not None:
        receiver.retain_delivered = False
        if reliable:
            sender.reliable.on_retire = pool.release
        else:
            # Transmit-side drops (loss, corruption, full queue) end a
            # packet's life in best-effort/quasi-FIFO mode.
            def release_drop(packet, reason) -> None:
                pool.release(packet)

            for link in links:
                if link.ab.on_drop is None:
                    link.ab.on_drop = release_drop

    source: Optional[ClosedLoopSource] = None
    if config.closed_loop:
        source = ClosedLoopSource(
            sim,
            submit=sender.submit_packet,
            backlog_fn=submit_backlog,
            size_fn=ConstantSizes(config.message_bytes),
            target=config.source_backlog,
            submit_many=sender.submit_packets,
            pool=pool,
        )
        source.start()

    # Wake the striper (and refill the source) whenever a channel's
    # transmit queue drains — the backpressure feedback path.
    def wake() -> None:
        sender.pump()
        if source is not None:
            source.poke()

    for link in links:
        link.ab.on_space = wake
    reliable_sender = getattr(sender, "reliable", None)
    if reliable_sender is not None and reliable_sender.on_window_open is None:
        reliable_sender.on_window_open = wake

    testbed = SocketTestbed(
        sim=sim,
        config=config,
        sender_stack=sender_stack,
        receiver_stack=receiver_stack,
        links=links,
        loss_models=loss_models,
        sender=sender,
        receiver=receiver,
        source=source,
        pool=pool,
    )
    testbed_ref.append(testbed)
    return testbed
