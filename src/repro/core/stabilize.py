"""Self-stabilization companions of the session layer.

Split out of :mod:`repro.core.session`: the sender-side channel prober
(revival detection for excluded channels) and the [Var93]-style local
checker (round-divergence detection on markers).  Both work on the
session controllers of :mod:`repro.core.session` but carry no session
state of their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.control import ProbeAckPacket, ProbePacket
from repro.core.packet import MarkerPacket
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.session import StripeReceiverSession, StripeSenderSession


class ChannelProber:
    """Sender-side revival: probe excluded channels, rejoin on an ACK.

    The receiver cannot transmit on a failed *forward* channel, so revival
    detection is the sender's job.  Every channel excluded from the bundle
    is probed with exponentially backed-off :class:`ProbePacket` sends
    (forced past the queue limit, so a wedged queue cannot mask a probe).
    A probe that gets through elicits a :class:`ProbeAckPacket` on the
    reverse control path — gated by the receiver's lifecycle manager's
    hold-down — and the prober then re-admits the channel via a
    reconfiguration RESET carrying its pre-failure quantum: the paper's
    reset machinery doubles as the rejoin path, so the revived channel
    re-enters with fresh epoch-initial striping state.

    Flap damping mirrors the receiver's: a channel that fails again within
    ``flap_window`` seconds of rejoining must sit out a hold-down that
    doubles per flap (``flap_penalty``, ``flap_factor``, capped at
    ``max_hold_down``) before the next rejoin.

    Bookkeeping is dict/set based: reconciliation after a reset touches
    only the channels whose membership actually changed plus a C-level
    set difference, so per-event cost stays flat at fabric scale.
    """

    def __init__(
        self,
        sim: Simulator,
        session: "StripeSenderSession",
        *,
        initial_interval: float = 0.05,
        backoff: float = 2.0,
        max_interval: float = 1.0,
        max_probes: int = 200,
        min_hold_down: float = 0.0,
        flap_penalty: float = 0.2,
        flap_window: float = 2.0,
        flap_factor: float = 2.0,
        max_hold_down: float = 4.0,
    ) -> None:
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        self.sim = sim
        self.session = session
        self.initial_interval = initial_interval
        self.backoff = backoff
        self.max_interval = max_interval
        self.max_probes = max_probes
        self.min_hold_down = min_hold_down
        self.flap_penalty = flap_penalty
        self.flap_window = flap_window
        self.flap_factor = flap_factor
        self.max_hold_down = max_hold_down
        self.probes_sent = 0
        self.rejoins = 0
        #: channels given up on after ``max_probes`` unanswered probes
        self.abandoned: List[int] = []
        self._probing: dict = {}
        self._quantum: dict = {}
        self._hold_down: dict = {}
        self._down_at: dict = {}
        self._rejoined_at: dict = {}
        self._probe_seq = 0
        #: the full channel universe, computed once (the port set is fixed
        #: for a session's lifetime; only membership in ``active`` moves)
        self._all_channels = frozenset(range(len(session.all_ports)))
        session.on_probe_ack = self._on_probe_ack
        self._chained_on_reset = session.on_reset_complete
        session.on_reset_complete = self._on_reset_complete
        self._sync()

    @property
    def probing_channels(self) -> List[int]:
        """Original port indices currently under probe, sorted."""
        return sorted(self._probing)

    def hold_down(self, channel: int) -> float:
        """Current flap-damped rejoin hold-down of ``channel``."""
        return self._hold_down.get(channel, self.min_hold_down)

    # ------------------------------------------------------------------ #

    def _on_reset_complete(self, epoch: int) -> None:
        if self._chained_on_reset is not None:
            self._chained_on_reset(epoch)
        self._sync()

    def _sync(self) -> None:
        """Reconcile probing state with the session's active-channel set."""
        config = self.session.config
        for channel, quantum in zip(config.active_channels, config.quanta):
            # Remember each channel's quantum while it is healthy, so a
            # later rejoin restores its pre-failure share.
            self._quantum[channel] = quantum
        # Probes to stop: channels the new epoch re-admitted.
        for channel in [c for c in self._probing if config.is_active(c)]:
            self._stop(channel)
        # Probes to start: excluded channels not already under probe
        # (abandoned channels get a fresh probe budget, as before).
        for channel in self._all_channels.difference(
            config.active_channels, self._probing
        ):
            self._start(channel)

    def _start(self, channel: int) -> None:
        now = self.sim.now
        rejoined = self._rejoined_at.get(channel)
        if rejoined is not None and now - rejoined < self.flap_window:
            previous = self._hold_down.get(channel, 0.0)
            self._hold_down[channel] = min(
                max(previous * self.flap_factor, self.flap_penalty),
                self.max_hold_down,
            )
        else:
            self._hold_down[channel] = self.min_hold_down
        self._down_at[channel] = now
        state = {"interval": self.initial_interval, "sent": 0, "event": None}
        self._probing[channel] = state
        state["event"] = self.sim.schedule(
            state["interval"], self._probe, channel
        )

    def _stop(self, channel: int) -> None:
        state = self._probing.pop(channel, None)
        if state is not None and state["event"] is not None:
            state["event"].cancel()

    def _probe(self, channel: int) -> None:
        state = self._probing.get(channel)
        if state is None:
            return
        state["event"] = None
        if state["sent"] >= self.max_probes:
            self.abandoned.append(channel)
            del self._probing[channel]
            return
        state["sent"] += 1
        self.probes_sent += 1
        self._probe_seq += 1
        self.session.all_ports[channel].send(
            ProbePacket(channel=channel, seq=self._probe_seq), force=True
        )
        state["interval"] = min(
            state["interval"] * self.backoff, self.max_interval
        )
        state["event"] = self.sim.schedule(
            state["interval"], self._probe, channel
        )

    def _on_probe_ack(self, packet: ProbeAckPacket) -> None:
        channel = packet.channel
        if channel not in self._probing:
            return
        now = self.sim.now
        if now - self._down_at[channel] < self._hold_down[channel]:
            return  # flap-damped: not willing to rejoin yet
        session = self.session
        if session.state != session.RUNNING:
            return  # a reset is in flight; _sync re-evaluates after it
        if session.config.is_active(channel):
            self._stop(channel)
            return
        self._stop(channel)
        self.rejoins += 1
        self._rejoined_at[channel] = now
        session.initiate_reset(
            session.config_with(channel, self._quantum.get(channel))
        )


class LocalChecker:
    """Self-stabilization by local checking ([Var93]) and correction.

    The sender's markers each carry the sender round number ``r`` for the
    channel they ride; with bounded in-flight data the receiver's global
    round ``G`` must satisfy ``r - window <= G <= r + window`` whenever a
    marker is *observed on arrival* (no blocking involved).  A violation
    proves state corruption; the correction is a reset request.

    Args:
        window_rounds: tolerated |marker round − receiver round| slack;
            choose ≥ the worst-case in-flight rounds (channel queue depth /
            packets-per-round) plus the marker interval.
    """

    def __init__(self, window_rounds: int = 50) -> None:
        if window_rounds < 1:
            raise ValueError("window must be >= 1 round")
        self.window_rounds = window_rounds
        self.violations = 0
        self.resets_requested = 0
        self._requested_this_epoch = False

    def on_reset(self, epoch: int) -> None:
        self._requested_this_epoch = False

    def observe_marker(
        self, marker: MarkerPacket, session: "StripeReceiverSession"
    ) -> None:
        """A marker arrived at ``session``, before its engine sees it."""
        receiver_round = session.pipeline.resequencer.round_number
        if abs(marker.round_number - receiver_round) > self.window_rounds:
            self.violations += 1
            if not self._requested_this_epoch:
                self._requested_this_epoch = True
                self.resets_requested += 1
                session.request_reset(
                    f"round divergence {marker.round_number} vs "
                    f"{receiver_round}"
                )


__all__ = ["ChannelProber", "LocalChecker"]
