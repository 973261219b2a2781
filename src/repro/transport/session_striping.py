"""Session-managed striping over UDP: resets, reconfiguration, stabilization.

Wraps :mod:`repro.core.session` around the UDP channel machinery of
:mod:`repro.transport.socket_striping`: data, markers, and in-band RESETs
travel per striped channel; ACKs and reset requests ride a dedicated
reverse control flow.  The stripe/resequence pumps live in the session
objects (:mod:`repro.core.session`) — these classes only adapt them to
UDP sockets, reusing the shared :class:`UdpChannelPort` and the endpoint
layer's :class:`~repro.transport.endpoint.ChannelFailureDetector`
(re-exported here), whose ``attach`` wiring asks the sender to
reconfigure without a silent channel.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.core.resequencer import make_resequencer
from repro.core.session import (
    ChannelProber,
    LocalChecker,
    ResetRequestPacket,
    StripeConfig,
    StripeReceiverSession,
    StripeSenderSession,
)
from repro.core.striper import MarkerPolicy, Striper
from repro.net.addresses import IPAddress
from repro.net.stack import Stack
from repro.sim.engine import Simulator
from repro.transport.discipline import (
    make_discipline,
    receiver_args_for,
    receiver_mode_for,
)
from repro.transport.endpoint import (
    ChannelFailureDetector,
    SenderHealthMonitor,
    build_receiver_recovery,
    build_sender_recovery,
    chain_window_open,
)
from repro.transport.reliability import AckPacket, arq_enabled
from repro.transport.socket_striping import udp_flow, udp_listen, udp_ports

__all__ = [
    "ChannelFailureDetector",
    "SessionSocketReceiver",
    "SessionSocketSender",
]


class SessionSocketSender:
    """A resettable striped-UDP sender.

    Args:
        sim / stack: host context.
        destinations: per-channel ``(dst_ip, dst_port)`` (the full port
            set; the config's ``active_channels`` picks the live subset).
        config: initial striping configuration.
        marker_policy: markers per epoch (needed by the LocalChecker).
        control_port: local UDP port where ACKs / reset requests arrive.
        health_monitor: optional :class:`SenderHealthMonitor`; a stalled
            channel (wedged queue / starved credit) is excluded via a
            reconfiguration reset without waiting for receiver silence.
        enable_prober: create a :class:`~repro.core.session.ChannelProber`
            so excluded channels are probed with exponential backoff and
            rejoined (fresh quanta via RESET) once they answer.
        prober_options: forwarded to the prober's constructor.
        discipline: optional registry discipline name replacing the
            paper's SRR in every epoch's striper (the receiver must be
            built with the same name).  Marker-free disciplines
            (``sprinklers``, ``address_hash``) drop the marker policy —
            nothing at the far end would decode it.
        discipline_options: forwarded to ``make_discipline``.
    """

    def __init__(
        self,
        sim: Simulator,
        stack: Stack,
        destinations: Sequence[Tuple[str, int]],
        config: StripeConfig,
        marker_policy: Optional[MarkerPolicy] = None,
        control_port: int = 6900,
        health_monitor: Optional[SenderHealthMonitor] = None,
        enable_prober: bool = False,
        prober_options: Optional[dict] = None,
        reliability: str = "quasi_fifo",
        reliability_options: Optional[dict] = None,
        fabric: Any = None,
        discipline: Optional[str] = None,
        discipline_options: Optional[dict] = None,
    ) -> None:
        self.sim = sim
        self.reliability = reliability
        options = dict(reliability_options or {})
        if arq_enabled(reliability):
            options.setdefault("on_channel_suspect", self._exclude)
        # Recording proxies keep their *full-set* index, which is the
        # channel id resets and exclusions speak — escalation maps a
        # suspect packet straight onto session.exclude_channel.
        self.ports, self.reliable, self.fec = build_sender_recovery(
            udp_ports(stack, destinations), reliability, sim,
            self._stripe, self._stripe_many, options,
        )
        striper_factory = None
        if discipline is not None:
            made = dict(discipline_options or {})
            probe = make_discipline(discipline, len(self.ports), **made)
            _reject_transforming(discipline, probe)
            if receiver_mode_for(probe) != "marker":
                marker_policy = None  # nothing at the far end decodes them

            def striper_factory(cfg: StripeConfig, active: List[Any]):
                return Striper(
                    make_discipline(discipline, len(active), **made),
                    active,
                    marker_policy,
                )

        self.session = StripeSenderSession(
            sim, self.ports, config, marker_policy=marker_policy,
            striper_factory=striper_factory,
        )
        if self.reliable is not None:
            self.session.on_ack = self.reliable.on_ack
        #: top of the submit stack: FEC above ARQ above the epoch striper
        self._submit = (self.fec or self.reliable or self.session).submit
        for port in self.ports:
            port.on_unblocked = self.pump
        udp_listen(stack, control_port, self.session.on_control)
        self.messages_submitted = 0
        self.health_monitor = health_monitor
        if health_monitor is not None:
            health_monitor.bind(
                self.ports, self._exclude, backlog_fn=lambda: self.backlog
            )
        # Chain before the prober so its reset hook wraps ours.
        self.session.on_reset_complete = self._on_reset_complete
        self.prober: Optional[ChannelProber] = None
        if enable_prober:
            self.prober = ChannelProber(
                sim, self.session, **(prober_options or {})
            )
        self.fabric: Any = None
        if fabric is not None:
            self.attach_fabric(fabric)

    def attach_fabric(
        self, fabric: Any, *, backlog_limit: Optional[int] = None
    ) -> Any:
        """Mount a flow-layer scheduler above the session's submit path.

        The fabric drains through the reliable window when one exists
        (so ARQ sequencing covers fabric traffic) and is gated on the
        window besides the session's own RUNNING/backlog conditions; a
        draining window re-pumps the fabric via ``on_window_open``.
        """
        self.fabric = fabric
        downstream = extra_ready = None
        if self.reliable is not None:
            downstream = self.reliable.submit
            extra_ready = self.reliable.can_submit
            chain_window_open(self.reliable, fabric.pump)
        self.session.attach_fabric(
            fabric,
            downstream=downstream,
            backlog_limit=backlog_limit,
            extra_ready=extra_ready,
        )
        return fabric

    def submit(self, flow_id: Any, packet: Packet) -> bool:
        """Flow-addressed submission (requires :meth:`attach_fabric`)."""
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
        packet = Packet(size=size, seq=self.messages_submitted, payload=payload)
        self.submit_packet(packet, flow_id=flow_id)
        return packet

    def submit_packet(self, packet: Packet, flow_id: Any = None) -> None:
        if flow_id is not None:
            self.submit(flow_id, packet)
            return
        self.messages_submitted += 1
        self._submit(packet)

    def _stripe(self, packet: Any) -> None:
        self.session.submit(packet)

    def _stripe_many(self, packets: Sequence[Any]) -> None:
        # The session exposes a per-packet submit only (a reset may
        # start between two packets of a burst).
        for packet in packets:
            self.session.submit(packet)

    def flush(self) -> None:
        """Seal a partial FEC group immediately (end of stream)."""
        if self.fec is not None:
            self.fec.flush()

    def can_submit(self, flow_id: Any = None) -> bool:
        """Backpressure signal: False while a reliable window is full.

        With ``flow_id``: per-flow backpressure — False only while that
        flow's bounded fabric queue is full.
        """
        if flow_id is not None:
            if self.fabric is None:
                return False
            return self.fabric.can_submit(flow_id)
        return self.reliable is None or self.reliable.can_submit()

    def _exclude(self, port_index: int) -> None:
        """ARQ escalation (a packet kept dying on this channel) or a
        sender-side stall: reconfigure without the channel.

        ``exclude_channel`` itself declines non-actionable requests
        (already resetting, inactive, or the last surviving channel).
        """
        self.session.exclude_channel(port_index)

    @property
    def backlog(self) -> int:
        return self.session.striper.backlog + len(
            self.session._pending_during_reset
        )

    def pump(self) -> int:
        return self.session.pump()

    def _on_reset_complete(self, epoch: int) -> None:
        if self.health_monitor is not None:
            # Re-arm the stall watch for every channel the new epoch
            # carries (a rejoined channel must be watchable again).
            for index in self.session.config.active_channels:
                self.health_monitor.clear(index)
        if self.reliable is not None:
            # The reset handshake completed over the reverse ack path, so
            # the bundle is demonstrably exchanging control traffic again:
            # collapse any outage-accumulated RTO backoff rather than
            # letting the first post-rejoin retransmission wait it out.
            self.reliable.on_channel_rejoin()


class SessionSocketReceiver:
    """The resettable striped-UDP receiver with optional fault tolerance.

    Args:
        sim / stack: host context.
        n_ports: size of the full channel set (``base_port + i`` per port).
        config: initial configuration (matching the sender).
        control_to / control_port: where ACKs and requests are sent.
        checker: optional :class:`~repro.core.session.LocalChecker`.
        failure_detector: optional :class:`ChannelFailureDetector`.
        discipline: optional registry discipline name (matching the
            sender's); each epoch's reception engine is rebuilt in the
            discipline's own receiver mode — marker-free disciplines get
            :class:`~repro.core.resequencer.DirectReception`, i.e. no
            resequencer and no marker decoding across resets either.
        discipline_options: forwarded to ``make_discipline``.
    """

    def __init__(
        self,
        sim: Simulator,
        stack: Stack,
        n_ports: int,
        config: StripeConfig,
        base_port: int,
        control_to: str | IPAddress,
        control_port: int = 6900,
        on_message: Optional[Callable[[Packet], None]] = None,
        checker: Optional[LocalChecker] = None,
        failure_detector: Optional[ChannelFailureDetector] = None,
        reliability: str = "quasi_fifo",
        reliability_options: Optional[dict] = None,
        discipline: Optional[str] = None,
        discipline_options: Optional[dict] = None,
    ) -> None:
        self.sim = sim
        self.n_ports = n_ports
        self.on_message = on_message
        self.delivered: List[Packet] = []
        self.reliability = reliability
        self._send_control = send_control = udp_flow(
            stack, control_to, control_port, force=True
        )
        # Acks ride the existing reverse control flow (the RESET/ACK
        # path), so reliable mode needs no extra socket plumbing.
        self.reliable, self.fec, head = build_receiver_recovery(
            reliability, sim, self._deliver_final,
            lambda sack: send_control(AckPacket(sack=sack)),
            reliability_options,
        )

        receiver_factory = None
        if discipline is not None:
            options = dict(discipline_options or {})
            _reject_transforming(
                discipline, make_discipline(discipline, n_ports, **options)
            )

            def receiver_factory(cfg: StripeConfig, deliver):
                mode, algorithm = receiver_args_for(
                    discipline, cfg.n_channels, **options
                )
                return make_resequencer(
                    algorithm, mode,
                    n_channels=cfg.n_channels,
                    on_deliver=deliver,
                    clock=lambda: sim.now,
                    sim=sim,
                )

        self.session = StripeReceiverSession(
            sim, n_ports, config,
            send_control=self._send_control,
            on_deliver=head,
            checker=checker,
            receiver_factory=receiver_factory,
        )
        self.failure_detector = failure_detector
        if failure_detector is not None:
            failure_detector.attach(self)
        for index in range(n_ports):
            udp_listen(stack, base_port + index, self._arrival(index))

    def _arrival(self, index: int) -> Callable[[Any], None]:
        def arrive(payload: Any) -> None:
            if self.failure_detector is not None:
                self.failure_detector.note_arrival(index)
            self.session.push(index, payload)

        return arrive

    def _deliver_final(self, packet: Packet) -> None:
        self.delivered.append(packet)
        if self.on_message is not None:
            self.on_message(packet)

    def request_drop_channel(self, port_index: int) -> None:
        """Ask the sender to reconfigure without a dead channel."""
        self._send_control(
            ResetRequestPacket(
                reason=f"channel {port_index} silent",
                exclude_channel=port_index,
            )
        )


def _reject_transforming(discipline: str, probe: Any) -> None:
    if hasattr(probe, "wrap_packet"):
        raise ValueError(
            f"session transport cannot run {discipline!r}: the "
            "epoch striper moves whole packets, not fragments"
        )
