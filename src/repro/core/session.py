"""Session control: reset and reconfiguration.

Section 5 of the paper sketches what this package-of-three implements:

    "It is also possible to make the marker algorithm self-stabilizing
    (i.e., robust against any error in the state) by periodically running
    a snapshot [CL85] and then doing a reset [Var93].  We deal with sender
    or receiver node crashes by doing a reset."

The session layer is split across three modules:

* :mod:`repro.core.control` — the control-plane vocabulary:
  :class:`StripeConfig` (with O(1) channel-position lookups) and the
  RESET / PROBE packet family.
* :mod:`repro.core.stabilize` — the self-stabilization companions:
  :class:`ChannelProber` (channel revival) and :class:`LocalChecker`
  ([Var93] local checking).
* this module — the two session state machines.  They are *controllers*:
  a reset is a control-plane act over the same striper and the same
  logical receiver, so the data path is the one
  :class:`~repro.transport.endpoint.StripeSenderPipeline` /
  :class:`~repro.transport.endpoint.StripeReceiverPipeline` pair each
  controller is handed, and nothing here duplicates it.

Two protocol pieces live in the state machines:

* **Reset protocol** — an epoch-numbered, per-channel in-band RESET
  exchange that reinitializes both ends of a striped channel group.  A
  RESET packet travels down every channel; it is the *separator* between
  the old and new packet streams, so no data packet needs tagging.  The
  receiver flushes (discards) pre-reset data still in flight, installs the
  configuration carried by the RESET (quanta — so reconfiguration is just
  reset-with-new-parameters), and acknowledges on the reverse control
  path.  Lost RESETs/ACKs are retried on a timer.  The sender holds its
  striper from the first RESET to the acknowledgment; submissions, ARQ
  retransmissions, FEC parity and fabric drain issued meanwhile wait in
  the striper's input queue and open the new epoch.

* **Reconfiguration** — because the RESET carries the striping
  configuration, changing quanta (capacity re-estimation) or dropping a
  dead channel is a single reset round trip: both ends atomically agree on
  the new `(channels, quanta)` at the epoch boundary, and each pipeline
  installs the new epoch's striper / reception engine by the same
  construction that built its first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Any, Callable, Optional

from repro.core.control import (
    CODEPOINT_PROBE,
    CODEPOINT_RESET,
    ProbeAckPacket,
    ProbePacket,
    ResetAckPacket,
    ResetPacket,
    ResetRequestPacket,
    StripeConfig,
)
from repro.core.packet import Codepoint, MarkerPacket
from repro.core.stabilize import ChannelProber, LocalChecker
from repro.sim.engine import Event, Simulator

__all__ = [
    "ChannelProber",
    "LocalChecker",
    "ProbeAckPacket",
    "ProbePacket",
    "ResetAckPacket",
    "ResetPacket",
    "ResetRequestPacket",
    "StripeConfig",
    "StripeReceiverSession",
    "StripeSenderSession",
]


def _all_active(config: StripeConfig) -> StripeConfig:
    """``config`` with ``active_channels`` spelled out (default: the first
    ``n_channels`` ports, in order)."""
    if config.active_channels is not None:
        return config
    return replace(config, active_channels=tuple(range(config.n_channels)))


def _policy(discipline: Optional[str], config: StripeConfig) -> Any:
    """What an epoch stripes by: the named registry discipline, else the
    paper's SRR at the configuration's quanta (one instance per end)."""
    return config.algorithm() if discipline is None else discipline


class StripeSenderSession:
    """The sender's reset / reconfiguration controller.

    It owns no data path: packets are submitted to, queued in and pumped
    by the :class:`~repro.transport.endpoint.StripeSenderPipeline` it
    drives.  The controller owns the epoch, the agreed configuration and
    the RESET retry timer; it holds the pipeline's striper for the span of
    a reset (whatever is submitted, retransmitted or drained from a
    fabric meanwhile waits in the striper's one input queue) and, on the
    acknowledgment, has the pipeline install the new epoch's striper over
    the configuration's active ports with that queue carried across.

    Args:
        sim: event engine (for retry timers).
        pipeline: the sender pipeline, built over the *full* port set (a
            configuration activates a subset).  Its striper is replaced
            by ``config``'s at construction, so whatever discipline it
            was built with only had to match the port count.
        config: initial striping configuration.
        retry_timeout: seconds before an unacked RESET is retransmitted.
        max_retries: RESET rounds before the session gives up (raises).
        discipline: optional registry name striped in every epoch in
            place of the paper's SRR at the configuration's quanta (the
            receiver session must name the same one).
        discipline_options: forwarded to the registry with the name.
    """

    RUNNING = "running"
    RESETTING = "resetting"

    def __init__(
        self,
        sim: Simulator,
        pipeline: Any,
        config: StripeConfig,
        retry_timeout: float = 0.25,
        max_retries: int = 20,
        discipline: Optional[str] = None,
        discipline_options: Optional[dict] = None,
    ) -> None:
        self.sim = sim
        self.pipeline = pipeline
        #: the full port set (RESETs and probes address ports, not
        #: positions in the current epoch's striper)
        self.all_ports = pipeline.ports
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.discipline = discipline
        self.discipline_options = dict(discipline_options or {})
        self.epoch = 0
        self.config = self._checked(config)
        self.state = self.RUNNING
        self._install()
        self._retry_event: Optional[Event] = None
        self._retries = 0
        self.resets_completed = 0
        self.reset_packets_sent = 0
        self.on_reset_complete: Optional[Callable[[int], None]] = None
        #: routed ProbeAck packets (claimed by a ChannelProber)
        self.on_probe_ack: Optional[Callable[["ProbeAckPacket"], None]] = None

    # ------------------------------------------------------------------ #

    def _checked(self, config: StripeConfig) -> StripeConfig:
        config = _all_active(config)
        if len(config.active_channels) != config.n_channels:
            raise ValueError("active_channels must match quanta length")
        if any(i >= len(self.all_ports) for i in config.active_channels):
            raise ValueError("active channel index out of range")
        return config

    def _install(self) -> None:
        """Have the pipeline stripe the current configuration."""
        config = self.config
        self.pipeline.restripe(
            _policy(self.discipline, config),
            config.active_channels,
            **self.discipline_options,
        )

    # ------------------------------------------------------------------ #
    # reset / reconfiguration

    def initiate_reset(self, new_config: Optional[StripeConfig] = None) -> int:
        """Start a reset (optionally with a new configuration).

        Returns the new epoch number.  The striper is held from here to
        the acknowledgment: what its input queue holds, and whatever is
        submitted meanwhile, goes out in the new epoch, in order.  A
        reset started while one is in flight supersedes it (only the
        latest epoch's acknowledgment completes).
        """
        new_config = self._checked(
            self.config if new_config is None else new_config
        )
        self.epoch += 1
        self.pipeline.striper.held = True
        self.config = new_config
        self.state = self.RESETTING
        self._retries = 0
        self._send_resets()
        return self.epoch

    def _send_resets(self) -> None:
        for index in self.config.active_channels:
            self.all_ports[index].send(
                ResetPacket(epoch=self.epoch, config=self.config), force=True
            )
            self.reset_packets_sent += 1
        self._arm_retry()

    def _arm_retry(self) -> None:
        self._cancel_retry()
        self._retry_event = self.sim.schedule(
            self.retry_timeout, self._on_retry_timeout
        )

    def _cancel_retry(self) -> None:
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    def _on_retry_timeout(self) -> None:
        self._retry_event = None
        if self.state != self.RESETTING:
            return
        self._retries += 1
        if self._retries > self.max_retries:
            raise RuntimeError(
                f"reset epoch {self.epoch} unacknowledged after "
                f"{self.max_retries} retries"
            )
        self._send_resets()

    def on_control(self, packet: Any) -> None:
        """Reverse-path control input (ACKs, reset requests, probe ACKs)."""
        if getattr(packet, "codepoint", None) == Codepoint.ACK:
            # Matched by codepoint, so the session layer does not depend
            # on the transport-level AckPacket type.
            self.pipeline.on_ack(packet)
        elif isinstance(packet, ResetAckPacket):
            if packet.epoch == self.epoch and self.state == self.RESETTING:
                self._complete_reset()
        elif isinstance(packet, ProbeAckPacket):
            if self.on_probe_ack is not None:
                self.on_probe_ack(packet)
        elif isinstance(packet, ResetRequestPacket):
            if self.state == self.RUNNING and (
                packet.exclude_channel is None
                or not self.exclude_channel(packet.exclude_channel)
            ):
                # Nothing (actionable) to exclude: a plain reset.
                self.initiate_reset()

    def _complete_reset(self) -> None:
        self._cancel_retry()
        self.state = self.RUNNING
        self.resets_completed += 1
        pipeline = self.pipeline
        self._install()
        if pipeline.fabric is not None:
            # The new epoch's striper has room again: let the DRR refill
            # it from the per-flow queues that absorbed the reset window.
            pipeline.fabric.pump()
        if pipeline.reliable is not None:
            # The handshake completed over the reverse ack path, so the
            # bundle is demonstrably exchanging control traffic again:
            # collapse any outage-accumulated RTO backoff rather than
            # letting the first post-reset retransmission wait it out.
            pipeline.reliable.on_channel_rejoin()
        if self.on_reset_complete is not None:
            self.on_reset_complete(self.epoch)

    def config_without(self, port_index: int) -> StripeConfig:
        """The current configuration minus one (failed) channel.  O(n) in
        the rebuilt tuples, O(1) in lookups — no per-channel scan."""
        position = self.config.position_of(port_index)
        if position is None:
            raise ValueError(f"channel {port_index} is not active")
        if len(self.config.active_channels) <= 1:
            raise ValueError("cannot drop the last active channel")
        channels = self.config.active_channels
        quanta = self.config.quanta
        return replace(
            self.config,
            quanta=quanta[:position] + quanta[position + 1 :],
            active_channels=channels[:position] + channels[position + 1 :],
        )

    def config_with(
        self, port_index: int, quantum: Optional[float] = None
    ) -> StripeConfig:
        """The current configuration plus one (recovered) channel.

        ``quantum`` defaults to the mean of the active quanta — a neutral
        share for a channel whose pre-failure quantum is unknown.
        """
        if self.config.is_active(port_index):
            raise ValueError(f"channel {port_index} is already active")
        if not 0 <= port_index < len(self.all_ports):
            raise ValueError(f"channel {port_index} out of range")
        if quantum is None:
            quantum = sum(self.config.quanta) / len(self.config.quanta)
        channels = self.config.active_channels
        quanta = self.config.quanta
        # active_channels is sorted by construction, so the insertion
        # point comes from a binary search rather than a re-sort.
        position = bisect_left(channels, port_index)
        return replace(
            self.config,
            quanta=quanta[:position] + (float(quantum),) + quanta[position:],
            active_channels=(
                channels[:position] + (port_index,) + channels[position:]
            ),
        )

    def exclude_channel(self, port_index: int) -> bool:
        """Drop a channel via a reconfiguration reset (stall detection path).

        Returns True if a reset was initiated; False when the request is
        not actionable right now (already resetting, channel not active, or
        it is the last active channel).
        """
        if self.state != self.RUNNING:
            return False
        if not self.config.is_active(port_index):
            return False
        if len(self.config.active_channels) <= 1:
            return False
        self.initiate_reset(self.config_without(port_index))
        return True


class StripeReceiverSession:
    """The receiver's reset controller: demuxes in-band control packets.

    It sits in front of the
    :class:`~repro.transport.endpoint.StripeReceiverPipeline` it drives:
    RESETs and PROBEs are consumed here, everything else passes the
    per-channel epoch gate and the port→position map and enters through
    ``pipeline.push`` (so a damaged wire frame is counted and dropped by
    the pipeline's codec path, like on any other transport).  The first
    RESET of a new epoch has the pipeline install a fresh reception
    engine for the configuration the RESET carries; delivery, the
    ARQ/FEC chain and the piggyback sinks are the pipeline's and survive.

    Args:
        pipeline: the receiver pipeline.  Its reception engine is
            replaced by ``config``'s at construction.
        n_ports: size of the full channel set.
        config: initial configuration (must match the sender's).
        send_control: reverse-path transmit function for ACKs/requests.
        checker: optional :class:`LocalChecker` for self-stabilization.
        failure_detector: optional
            :class:`~repro.transport.health.ChannelFailureDetector` over
            the full port set; a silent channel becomes a reset request
            excluding it.  A ``ChannelLifecycleManager`` also gates probe
            acknowledgments behind its hold-down and revival thresholds.
        discipline / discipline_options: the sender session's.
    """

    def __init__(
        self,
        pipeline: Any,
        n_ports: int,
        config: StripeConfig,
        send_control: Callable[[Any], None],
        checker: Optional["LocalChecker"] = None,
        failure_detector: Optional[Any] = None,
        discipline: Optional[str] = None,
        discipline_options: Optional[dict] = None,
    ) -> None:
        self.pipeline = pipeline
        self.n_ports = n_ports
        self.send_control = send_control
        self.checker = checker
        self.failure_detector = failure_detector
        if failure_detector is not None:
            failure_detector.bind(
                n_ports,
                lambda index: self.request_reset(
                    f"channel {index} silent", exclude_channel=index
                ),
                lambda: self.config.active_channels,
            )
        self.discipline = discipline
        self.discipline_options = dict(discipline_options or {})
        self.epoch = 0
        self.config = _all_active(config)
        self._install()
        #: epoch each physical channel's stream is currently in
        self._channel_epoch = [0] * n_ports
        self.reset_discards = 0
        self.resets_seen = 0
        self.acks_sent = 0
        self.probes_seen = 0
        self.probe_acks_sent = 0

    def _install(self) -> None:
        """Have the pipeline receive the current configuration: both ends
        start an epoch from the same initial kernel state."""
        config = self.config
        self.pipeline.restart_reception(
            _policy(self.discipline, config),
            config.n_channels,
            markers=self.discipline is None,
            **self.discipline_options,
        )

    # ------------------------------------------------------------------ #

    def push(self, port_index: int, packet: Any) -> None:
        """Physical arrival on a channel (by *original* port index)."""
        if self.failure_detector is not None:
            self.failure_detector.note_arrival(port_index)
        codepoint = getattr(packet, "codepoint", Codepoint.DATA)
        if codepoint == CODEPOINT_RESET:
            self._on_reset(port_index, packet)
            return
        if codepoint == CODEPOINT_PROBE:
            # Liveness probes are not stream data: they are meaningful on
            # excluded channels and across epochs, so they bypass both the
            # epoch gate and the active-channel gate.
            self._on_probe(port_index, packet)
            return
        if self._channel_epoch[port_index] != self.epoch:
            # Pre-reset stragglers (or packets racing ahead of this
            # channel's RESET): not part of the current stream.
            self.reset_discards += 1
            return
        channel = self.config.position_of(port_index)
        if channel is None:
            self.reset_discards += 1
            return
        if self.checker is not None and isinstance(packet, MarkerPacket):
            self.checker.observe_marker(packet, self)
        self.pipeline.push(channel, packet)

    def _on_reset(self, port_index: int, packet: ResetPacket) -> None:
        if packet.epoch < self.epoch:
            return  # stale duplicate
        if packet.epoch > self.epoch:
            # First RESET of a new epoch: reinitialize wholesale.
            self.epoch = packet.epoch
            self.config = _all_active(packet.config)
            # Marker-free reception engines hold no per-channel buffers
            # (delivery at arrival), so there is nothing to discard.
            self.reset_discards += sum(
                len(b)
                for b in getattr(self.pipeline.resequencer, "buffers", ())
            )
            self._install()
            self.resets_seen += 1
            if self.checker is not None:
                self.checker.on_reset(self.epoch)
            note_rejoin = getattr(self.failure_detector, "note_rejoin", None)
            if note_rejoin is not None:
                # A rejoin RESET re-admits previously failed channels; the
                # lifecycle manager must rearm its silence watch for them.
                note_rejoin(self.config.active_channels)
        # Mark this channel as switched (idempotent for retries).
        self._channel_epoch[port_index] = packet.epoch
        if all(
            self._channel_epoch[i] == self.epoch
            for i in self.config.active_channels
        ):
            self.acks_sent += 1
            self.send_control(ResetAckPacket(epoch=self.epoch))

    def _on_probe(self, port_index: int, packet: "ProbePacket") -> None:
        self.probes_seen += 1
        # A lifecycle manager gates the acknowledgment behind its
        # hold-down and revival thresholds; otherwise every probe is acked.
        note_probe = getattr(self.failure_detector, "note_probe", None)
        if note_probe is None or note_probe(port_index):
            self.probe_acks_sent += 1
            self.send_control(
                ProbeAckPacket(channel=port_index, seq=packet.seq)
            )

    def request_reset(
        self, reason: str, exclude_channel: Optional[int] = None
    ) -> None:
        """Ask the sender for a reset (reboot, detected corruption), or —
        with ``exclude_channel`` — to reconfigure without a dead channel."""
        self.send_control(
            ResetRequestPacket(reason=reason, exclude_channel=exclude_channel)
        )
