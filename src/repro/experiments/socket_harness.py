"""Shared harness for the transport-level (section 6.3) experiments.

Three layers, each used on its own by the other transport experiments:

* :func:`build_two_hosts` — two hosts joined by N parallel Ethernet links
  (routes, pre-installed ARP, optional per-link loss), the topology every
  striped-transport rig stands on;
* :func:`drive_closed_loop` — a closed-loop message source over any
  sender, woken by draining transmit queues and ARQ windows;
* :func:`build_socket_testbed` — the §6.3 testbed itself: the two endpoint
  pipelines over UDP ports (or, with ``fast``, over direct channel ports),
  a closed-loop source, and per-delivery records for reordering analysis.
  Loss models are installed on the forward channels and can be switched
  off mid-run (the "after packet losses stopped" part of the paper's
  findings).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.packet import PacketPool
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, SizeGatedLoss
from repro.transport.credit import CreditReceiver, CreditSender
from repro.transport.discipline import make_discipline, receiver_args_for
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fast_path import (
    FastChannelPort,
    bind_fast_receiver,
    wire_fast_ack_path,
)
from repro.transport.reliability import arq_enabled
from repro.transport.socket_striping import (
    ack_listener,
    bind_udp_receiver,
    credit_listener,
    udp_ack_flow,
    udp_credit_flow,
    udp_listen,
    udp_ports,
)
from repro.workloads.generators import ClosedLoopSource, ConstantSizes

BASE_PORT = 6000
CREDIT_PORT = 6999
ACK_PORT = 6998


def per_link(values: Sequence[Any], n_links: int, name: str) -> tuple:
    """``values`` as one entry per link (a single entry is repeated)."""
    values = tuple(values)
    if len(values) == 1:
        values = values * n_links
    if len(values) != n_links:
        raise ValueError(f"{name} must have {n_links} entries")
    return values


def seeded_losses(
    rates: Sequence[float], n_links: int, seed: int
) -> List[BernoulliLoss]:
    """One independently seeded Bernoulli loss model per link."""
    rng = random.Random(seed)
    return [
        BernoulliLoss(rate, rng=random.Random(rng.randrange(1 << 30)))
        for rate in per_link(rates, n_links, "loss_rates")
    ]


def build_two_hosts(
    sim: Simulator,
    n_links: int,
    link_mbps: Sequence[float] = (10.0,),
    prop_delay_s: Sequence[float] = (0.5e-3,),
    queue_frames: int = 40,
    loss_ab: Optional[Sequence[Any]] = None,
) -> Tuple[Stack, Stack, List[Link]]:
    """Hosts A and B joined by ``n_links`` Ethernet links: ``(a, b, links)``.

    Link *i* is its own subnet, so ``b.local_addresses()[i]`` is where A
    reaches B over it (and vice versa); routes and ARP are in place.
    ``link_mbps`` / ``prop_delay_s`` take one entry per link or a single
    entry for all; ``loss_ab`` are per-link loss models for the A->B
    channels.
    """
    link_mbps = per_link(link_mbps, n_links, "link_mbps")
    prop_delay_s = per_link(prop_delay_s, n_links, "prop_delay_s")
    a, b, links = Stack(sim, "A"), Stack(sim, "B"), []
    for index in range(n_links):
        a_if = EthernetInterface(sim, f"ch{index}a", f"10.{10 + index}.0.1")
        b_if = EthernetInterface(sim, f"ch{index}b", f"10.{10 + index}.0.2")
        a.add_interface(a_if)
        b.add_interface(b_if)
        links.append(
            Link(
                sim, a_if, b_if,
                bandwidth_bps=link_mbps[index] * 1e6,
                prop_delay=prop_delay_s[index],
                queue_limit=queue_frames,
                loss_ab=loss_ab[index] if loss_ab else None,
                name=f"channel{index}",
            )
        )
        a.routing.add(b_if.ip_address, 24, a_if)
        b.routing.add(a_if.ip_address, 24, b_if)
        # Pre-populate ARP: the paper's channels are long-lived, and an
        # ARP exchange lost to injected channel loss would otherwise
        # dominate the measurement.
        a_if.arp_cache.install(b_if.ip_address, b_if.mac)
        b_if.arp_cache.install(a_if.ip_address, a_if.mac)
    return a, b, links


def drive_closed_loop(
    sim: Simulator,
    sender: Any,
    channels: Sequence[Channel],
    size_fn: Callable[[], int],
    target: int,
    **source_options: Any,
) -> ClosedLoopSource:
    """Keep ``target`` packets queued at ``sender`` for the whole run.

    ``sender`` is anything with ``submit_packet`` / ``can_submit`` /
    ``backlog`` / ``pump`` (a pipeline, a session sender, a duplex
    endpoint's sender).  The striper is pumped and the source refilled
    whenever one of ``channels`` drains a transmit slot or the ARQ window
    opens — the backpressure feedback path.
    """

    def submit_backlog() -> int:
        # A full ARQ window must read as "backlogged" to the closed-loop
        # source: the retransmission buffer exerts backpressure instead
        # of absorbing unbounded overflow.
        if not sender.can_submit():
            return 1 << 30
        return sender.backlog

    source = ClosedLoopSource(
        sim,
        submit=sender.submit_packet,
        backlog_fn=submit_backlog,
        size_fn=size_fn,
        target=target,
        **source_options,
    )
    source.start()

    def wake() -> None:
        sender.pump()
        source.poke()

    for channel in channels:
        channel.on_space = wake
    reliable = getattr(sender, "reliable", None)
    if reliable is not None and reliable.on_window_open is None:
        reliable.on_window_open = wake
    return source


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
    #: if True, the pipelines run over direct channel ports (burst-batched
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
    #: (:class:`repro.transport.endpoint.ChannelFailureDetector`)
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
            setattr(
                self, name, per_link(getattr(self, name), self.n_channels, name)
            )
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
    links: List[Link]
    loss_models: List[BernoulliLoss]
    sender: StripeSenderPipeline
    receiver: StripeReceiverPipeline
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
    """Assemble hosts, N links, the two pipelines, and the message source.

    ``config.fast`` only picks the ports and the arrival wiring; the
    sender and the receiver are the same two pipelines either way.
    """
    n = config.n_channels
    loss_models = seeded_losses(config.loss_rates, n, config.seed)
    host_a, host_b, links = build_two_hosts(
        sim,
        n,
        link_mbps=config.link_mbps,
        prop_delay_s=config.prop_delay_s,
        queue_frames=config.link_queue_frames,
        loss_ab=[
            SizeGatedLoss(loss, min_size=500) if config.data_only_loss
            else loss
            for loss in loss_models
        ],
    )
    forward = [link.ab for link in links]
    reverse_to = host_a.local_addresses()[0]

    if config.discipline is not None:
        # Any (s0, f, g) scheme through the same testbed: the sender gets
        # the named discipline, the receiver its matching reception mode.
        options = dict(
            quantum=float(config.message_bytes), seed=config.seed
        )
        options.update(config.discipline_options or {})
        algorithm_s = make_discipline(config.discipline, n, **options)
        config.mode, algorithm_r = receiver_args_for(
            config.discipline, n, **options
        )
    else:
        algorithm_s = SRR([float(config.message_bytes)] * n)
        algorithm_r = SRR([float(config.message_bytes)] * n)
    marker_policy = None
    if config.mode == "marker" and config.marker_interval_rounds > 0:
        marker_policy = MarkerPolicy(
            interval_rounds=config.marker_interval_rounds,
            position=config.marker_position,
        )

    # FCVC credits and ARQ acks each ride a dedicated reverse flow to the
    # sender's first address.
    credit_sender: Optional[CreditSender] = None
    credit_receiver: Optional[CreditReceiver] = None
    if config.use_credit:
        if config.buffer_packets is None:
            raise ValueError("use_credit requires buffer_packets")
        credit_sender = CreditSender(n, initial_credit=config.buffer_packets)
        udp_listen(host_a, CREDIT_PORT, credit_listener(credit_sender))
        credit_receiver = CreditReceiver(
            n, config.buffer_packets,
            send_credit=udp_credit_flow(host_b, reverse_to, CREDIT_PORT),
        )

    reliable = arq_enabled(config.reliability)
    arq_options = config.reliability_options or {}
    if config.fast:
        ports = [FastChannelPort(channel) for channel in forward]
    else:
        ports = udp_ports(
            host_a,
            [
                (ip, BASE_PORT + index)
                for index, ip in enumerate(host_b.local_addresses())
            ],
            credit=credit_sender,
        )
    sender = StripeSenderPipeline(
        ports, algorithm_s,
        marker_policy=marker_policy,
        credit=credit_sender,
        sim=sim,
        reliability=config.reliability,
        reliability_options=arq_options.get("sender"),
    )
    send_ack = None
    if reliable and config.fast:
        # Acks ride the first link's reverse channel directly (the
        # reference path routes its UDP ack flow over the same link).
        send_ack = wire_fast_ack_path(links[0].ba, sender).send_sack
    elif reliable:
        udp_listen(host_a, ACK_PORT, ack_listener(sender))
        send_ack = udp_ack_flow(host_b, reverse_to, ACK_PORT)

    deliveries: List[Delivery] = []
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
        deliveries.append(Delivery(time=sim.now, seq=seq, size=packet.size))
        if release_on_delivery:
            pool.release(packet)

    receiver = StripeReceiverPipeline(
        n, algorithm_r,
        mode=config.mode,
        on_message=on_message,
        buffer_packets=config.buffer_packets,
        credit=credit_receiver,
        failure_detector=config.failure_detector,
        sim=sim,
        reliability=config.reliability,
        send_ack=send_ack,
        reliability_options=arq_options.get("receiver"),
    )
    if config.fast:
        bind_fast_receiver(forward, receiver)
    else:
        bind_udp_receiver(host_b, receiver, BASE_PORT)

    if pool is not None:
        receiver.retain_delivered = False
        if reliable:
            sender.reliable.on_retire = pool.release
        else:
            # Transmit-side drops (loss, corruption, full queue) end a
            # packet's life in best-effort/quasi-FIFO mode.
            def release_drop(packet, reason) -> None:
                pool.release(packet)

            for channel in forward:
                if channel.on_drop is None:
                    channel.on_drop = release_drop

    source: Optional[ClosedLoopSource] = None
    if config.closed_loop:
        source = drive_closed_loop(
            sim, sender, forward,
            ConstantSizes(config.message_bytes),
            target=config.source_backlog,
            submit_many=sender.submit_packets,
            pool=pool,
        )
    else:
        for channel in forward:
            channel.on_space = sender.pump

    return SocketTestbed(
        sim=sim,
        config=config,
        links=links,
        loss_models=loss_models,
        sender=sender,
        receiver=receiver,
        source=source,
        pool=pool,
        deliveries=deliveries,
    )
