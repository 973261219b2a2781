"""Session-managed striping over UDP: resets, reconfiguration, stabilization.

The session transport is the one pipeline pair over :func:`udp_ports`,
each end driven by a reset controller from :mod:`repro.core.session`:
data, markers, and in-band RESETs travel per striped channel; ACKs and
reset requests ride a dedicated reverse control flow.
:func:`udp_session_sender` and :func:`bind_udp_session_receiver` build
and wire the two ends; each returns the controller, whose ``pipeline``
is the data path (submission, pump, fabric mount on the send side;
``delivered`` / ``on_message`` on the receive side).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.core.session import (
    LocalChecker,
    StripeConfig,
    StripeReceiverSession,
    StripeSenderSession,
)
from repro.core.striper import MarkerPolicy
from repro.net.addresses import IPAddress
from repro.net.stack import Stack
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    ChannelFailureDetector,
    SenderHealthMonitor,
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.reliability import AckPacket, arq_enabled
from repro.transport.socket_striping import udp_flow, udp_listen, udp_ports

__all__ = ["bind_udp_session_receiver", "udp_session_sender"]


def udp_session_sender(
    sim: Simulator,
    stack: Stack,
    destinations: Sequence[Tuple[str, int]],
    config: StripeConfig,
    marker_policy: Optional[MarkerPolicy] = None,
    control_port: int = 6900,
    health_monitor: Optional[SenderHealthMonitor] = None,
    reliability: str = "quasi_fifo",
    reliability_options: Optional[dict] = None,
    fabric: Any = None,
    discipline: Optional[str] = None,
    discipline_options: Optional[dict] = None,
) -> StripeSenderSession:
    """A resettable striped-UDP sender: pipeline plus reset controller.

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
        reliability / reliability_options / fabric: the pipeline's.  In
            the ARQ modes a packet that keeps dying on one channel
            excludes that channel (``on_channel_suspect``).
        discipline: optional registry discipline name replacing the
            paper's SRR in every epoch (the receiver must be built with
            the same name).  A named discipline runs without markers —
            its receiver half is the registry's marker-less mode.
        discipline_options: forwarded to the registry with the name.
    """
    options = dict(reliability_options or {})
    if arq_enabled(reliability):
        # Recording ports keep their *full-set* index, the channel id
        # resets and exclusions speak, so a suspect maps straight onto
        # exclude_channel (which declines what is not actionable).
        options.setdefault(
            "on_channel_suspect", lambda index: session.exclude_channel(index)
        )
    pipeline = StripeSenderPipeline(
        udp_ports(stack, destinations),
        config.algorithm() if discipline is None else discipline,
        marker_policy=marker_policy if discipline is None else None,
        sim=sim,
        reliability=reliability,
        reliability_options=options,
        discipline_options=discipline_options,
        fabric=fabric,
    )
    session = StripeSenderSession(
        sim, pipeline, config,
        discipline=discipline, discipline_options=discipline_options,
    )
    udp_listen(stack, control_port, session.on_control)
    if health_monitor is not None:
        health_monitor.bind(
            pipeline.ports, session.exclude_channel,
            backlog_fn=lambda: pipeline.backlog,
        )

        def rearm_stall_watch(epoch: int) -> None:
            # Every channel the new epoch carries is watchable again (a
            # rejoined channel must be).
            for index in session.config.active_channels:
                health_monitor.clear(index)

        session.on_reset_complete = rearm_stall_watch
    return session


def bind_udp_session_receiver(
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
) -> StripeReceiverSession:
    """The resettable striped-UDP receiver, bound to its ``n_ports`` sockets.

    Args:
        sim / stack: host context.
        n_ports: size of the full channel set (``base_port + i`` per port).
        config: initial configuration (matching the sender).
        control_to / control_port: where ACKs and requests are sent —
            reliability acks too, so reliable mode needs no extra socket.
        on_message / reliability / reliability_options: the pipeline's.
        checker / failure_detector / discipline / discipline_options:
            the :class:`~repro.core.session.StripeReceiverSession`'s.
    """
    send_control = udp_flow(stack, control_to, control_port, force=True)
    pipeline = StripeReceiverPipeline(
        config.n_channels,
        config.algorithm(),  # the controller installs every epoch's engine
        on_message=on_message,
        sim=sim,
        reliability=reliability,
        send_ack=lambda sack: send_control(AckPacket(sack=sack)),
        reliability_options=reliability_options,
    )
    session = StripeReceiverSession(
        pipeline, n_ports, config, send_control,
        checker=checker, failure_detector=failure_detector,
        discipline=discipline, discipline_options=discipline_options,
    )
    for index in range(n_ports):
        udp_listen(stack, base_port + index, partial(session.push, index))
    return session
