"""Channel-health machinery: failure detection, lifecycle, stall watch.

Split out of :mod:`repro.transport.endpoint` by the synchronization-model
refactor: none of these classes depends on how the endpoint synchronizes
(markers, hashes, or headers), only on per-channel arrival/progress
signals, so they live below the sync-model layer.

* :class:`ChannelFailureDetector` — receiver-side silence watchdog.
* :class:`ChannelLifecycleManager` — the full
  ``active -> failed -> probing -> revived`` state machine with flap
  damping (PR 4).
* :class:`SenderHealthMonitor` — sender-side queue-stall and
  credit-starvation watch.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence


class ChannelFailureDetector:
    """Receiver-side dead-channel watchdog, transport-agnostic.

    Every ``check_interval`` seconds it compares per-channel arrival
    times; a channel that saw nothing for ``silence_threshold`` seconds
    while the others progressed is declared dead and reported through the
    bound failure callback — a session receiver reconfigures the sender,
    a plain pipeline writes the channel off so delivery keeps flowing.
    """

    def __init__(
        self,
        sim: Any,
        silence_threshold: float = 0.25,
        check_interval: float = 0.05,
    ) -> None:
        self.sim = sim
        self.silence_threshold = silence_threshold
        self.check_interval = check_interval
        self.last_arrival: List[float] = []
        self.failed: set = set()
        self.failures_reported: List[int] = []
        self._on_failure: Optional[Callable[[int], Any]] = None
        self._on_revival: Optional[Callable[[int], Any]] = None
        self._active: Optional[Callable[[], Sequence[int]]] = None
        self._started = False

    def bind(
        self,
        n_channels: int,
        on_failure: Callable[[int], Any],
        active_channels: Optional[Callable[[], Sequence[int]]] = None,
        on_revival: Optional[Callable[[int], Any]] = None,
    ) -> None:
        """Generic wiring: watch ``n_channels``, report via ``on_failure``.

        ``active_channels`` yields the channel set currently expected to
        carry traffic (a session's live subset); by default every channel
        not yet declared failed.  ``on_revival`` is stored for lifecycle
        subclasses; the fail-only detector never invokes it.
        """
        self.last_arrival = [0.0] * n_channels
        self._on_failure = on_failure
        self._on_revival = on_revival
        if active_channels is None:
            active_channels = lambda: [  # noqa: E731
                i for i in range(n_channels) if i not in self.failed
            ]
        self._active = active_channels

    def note_arrival(self, port_index: int) -> None:
        if not 0 <= port_index < len(self.last_arrival):
            # A negative index would silently alias last_arrival[-1] and an
            # oversized one would vanish — both are wiring bugs upstream.
            raise ValueError(
                f"arrival on port {port_index}, but the detector watches "
                f"{len(self.last_arrival)} channels (was bind() called?)"
            )
        self.last_arrival[port_index] = self.sim.now
        if not self._started:
            self._started = True
            self.sim.schedule(self.check_interval, self._check)

    def _check(self) -> None:
        if self._on_failure is None or self._active is None:
            return
        now = self.sim.now
        active = list(self._active())
        alive = [
            i
            for i in active
            if now - self.last_arrival[i] < self.silence_threshold
        ]
        if alive and len(alive) < len(active):
            for index in active:
                if index not in alive and index not in self.failed:
                    self.failed.add(index)
                    self.failures_reported.append(index)
                    self._on_failure(index)
        self.sim.schedule(self.check_interval, self._check)

    def note_suspect(self, channel: int) -> None:
        """An external signal suspects ``channel`` (ARQ max-retry
        escalation: a packet that keeps dying on one channel looks
        exactly like that channel dying).

        Declares the channel failed through the same path a silence
        detection would, once; lifecycle subclasses then run their
        normal probing/revival machinery on it.
        """
        if self._on_failure is None:
            raise ValueError(
                f"suspect on channel {channel}, but the detector is not "
                "bound (was bind() called?)"
            )
        if not 0 <= channel < len(self.last_arrival):
            raise ValueError(
                f"suspect on channel {channel}, but the detector watches "
                f"{len(self.last_arrival)} channels"
            )
        if channel in self.failed:
            return
        self.failed.add(channel)
        self.failures_reported.append(channel)
        self._on_failure(channel)


class ChannelLifecycleManager(ChannelFailureDetector):
    """Full channel lifecycle: ``active -> failed -> probing -> revived``.

    Generalizes the fail-only watchdog.  A failed channel that shows signs
    of life again (sender probes, or data arrivals from stale in-flight
    packets) moves to ``probing``; once it has produced
    ``revival_arrivals`` arrivals *and* its hold-down has elapsed it is
    declared ``revived`` — the bound revival callback re-admits it (a plain
    pipeline un-fails its resequencer; a session receiver acknowledges the
    sender's probes so the sender rejoins the channel via a RESET).

    Flap damping: each failure that follows a revival within
    ``flap_window`` seconds doubles the channel's hold-down (capped at
    ``max_down_time``), so an intermittent link is re-admitted ever more
    reluctantly instead of thrashing the bundle with resets.
    """

    #: lifecycle states, as stored in :attr:`state`
    ACTIVE = "active"
    FAILED = "failed"
    PROBING = "probing"
    REVIVED = "revived"

    def __init__(
        self,
        sim: Any,
        silence_threshold: float = 0.25,
        check_interval: float = 0.05,
        *,
        revival_arrivals: int = 2,
        min_down_time: float = 0.2,
        flap_window: float = 2.0,
        flap_factor: float = 2.0,
        max_down_time: float = 5.0,
    ) -> None:
        super().__init__(sim, silence_threshold, check_interval)
        if revival_arrivals < 1:
            raise ValueError("revival_arrivals must be >= 1")
        self.revival_arrivals = revival_arrivals
        self.min_down_time = min_down_time
        self.flap_window = flap_window
        self.flap_factor = flap_factor
        self.max_down_time = max_down_time
        self.state: List[str] = []
        self.revivals_reported: List[int] = []
        self.flap_counts: List[int] = []
        self._failed_at: List[float] = []
        self._life_seen: List[int] = []
        self._hold_down: List[float] = []
        self._revived_at: List[float] = []

    def bind(
        self,
        n_channels: int,
        on_failure: Callable[[int], Any],
        active_channels: Optional[Callable[[], Sequence[int]]] = None,
        on_revival: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self._user_on_failure = on_failure
        super().bind(
            n_channels, self._note_failure, active_channels, on_revival
        )
        self.state = [self.ACTIVE] * n_channels
        self.flap_counts = [0] * n_channels
        self._failed_at = [0.0] * n_channels
        self._life_seen = [0] * n_channels
        self._hold_down = [self.min_down_time] * n_channels
        self._revived_at = [float("-inf")] * n_channels

    def channel_state(self, channel: int) -> str:
        return self.state[channel]

    def hold_down(self, channel: int) -> float:
        """Current flap-damped hold-down of ``channel``, in seconds."""
        return self._hold_down[channel]

    # -- failure path -------------------------------------------------- #

    def _note_failure(self, channel: int) -> None:
        now = self.sim.now
        self.state[channel] = self.FAILED
        self._failed_at[channel] = now
        self._life_seen[channel] = 0
        if now - self._revived_at[channel] < self.flap_window:
            # Flapping: it died again right after we let it back in.
            self.flap_counts[channel] += 1
            self._hold_down[channel] = min(
                self._hold_down[channel] * self.flap_factor,
                self.max_down_time,
            )
        else:
            self._hold_down[channel] = self.min_down_time
        self._user_on_failure(channel)

    # -- revival path -------------------------------------------------- #

    def note_arrival(self, port_index: int) -> None:
        """Every physical arrival — data, marker, or probe — is a life sign.

        On a failed channel, arrivals move it to ``probing`` and count
        toward the revival threshold; revival itself fires here too, so a
        plain pipeline (no probes) still revives on returning data.
        """
        super().note_arrival(port_index)
        if self.state and self.state[port_index] in (
            self.FAILED,
            self.PROBING,
        ):
            self.state[port_index] = self.PROBING
            self._life_seen[port_index] += 1
            self._try_revive(port_index)

    def note_probe(self, port_index: int) -> bool:
        """Should a sender probe on ``port_index`` be acknowledged?

        Life signals are counted by :meth:`note_arrival` (the transport
        reports every arrival, probes included); this method only
        *evaluates* the channel's standing — and performs the revival
        transition when the threshold and hold-down have been cleared.
        Returns True when the probe should be acknowledged.
        """
        if not 0 <= port_index < len(self.state):
            raise ValueError(
                f"probe on port {port_index}, but the lifecycle manager "
                f"watches {len(self.state)} channels (was bind() called?)"
            )
        self.last_arrival[port_index] = self.sim.now
        if self.state[port_index] in (self.ACTIVE, self.REVIVED):
            return True
        return self._try_revive(port_index)

    def note_rejoin(self, active_channels: Sequence[int]) -> None:
        """A reconfiguration re-activated channels (rejoin RESET installed).

        Rearms silence detection for every re-admitted channel: clears the
        ``failed`` latch (so a second death is reported again) and resets
        its arrival clock (its ``last_arrival`` is stale from the outage,
        which would otherwise re-fail it on the next check).
        """
        now = self.sim.now
        for channel in active_channels:
            if channel in self.failed or self.state[channel] != self.ACTIVE:
                self.failed.discard(channel)
                self.last_arrival[channel] = now
                if self.state[channel] != self.REVIVED:
                    self._revived_at[channel] = now
                self.state[channel] = self.ACTIVE

    def _try_revive(self, channel: int) -> bool:
        now = self.sim.now
        if self._life_seen[channel] < self.revival_arrivals:
            return False
        if now - self._failed_at[channel] < self._hold_down[channel]:
            return False  # hysteresis: not convinced yet, keep damping
        self.state[channel] = self.REVIVED
        self.revivals_reported.append(channel)
        self._revived_at[channel] = now
        self.failed.discard(channel)
        if self._on_revival is not None:
            self._on_revival(channel)
        return True


class SenderHealthMonitor:
    """Sender-side channel health: queue-stall and credit-starvation watch.

    The receiver-side detector sees silence; the sender sees *backpressure*.
    Every ``check_interval`` seconds each port is examined: a port that is
    blocked (its transmit queue full, or its FCVC credit exhausted) and
    makes no drain progress for ``stall_timeout`` seconds while traffic is
    pending is declared stalled and reported through the bound callback —
    a session sender excludes the channel via a reconfiguration RESET
    without waiting for the receiver to notice the silence.
    """

    def __init__(
        self,
        sim: Any,
        stall_timeout: float = 0.25,
        check_interval: float = 0.05,
    ) -> None:
        self.sim = sim
        self.stall_timeout = stall_timeout
        self.check_interval = check_interval
        self.stalled: set = set()
        self.stalls_reported: List[int] = []
        self._ports: List[Any] = []
        self._on_stall: Optional[Callable[[int], Any]] = None
        self._credit: Any = None
        self._backlog: Callable[[], int] = lambda: 1
        self._last_progress: List[float] = []
        self._last_queue: List[int] = []
        self._last_drained: List[int] = []

    def bind(
        self,
        ports: Sequence[Any],
        on_stall: Callable[[int], Any],
        *,
        credit: Any = None,
        backlog_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        """Watch ``ports``; report stalled port indices via ``on_stall``.

        ``credit`` (a :class:`~repro.transport.credit.CreditSender`) adds
        credit starvation as a blocking condition; ``backlog_fn`` reports
        pending traffic (no backlog means an idle sender, never a stall).
        """
        self._ports = list(ports)
        self._on_stall = on_stall
        self._credit = credit
        if backlog_fn is not None:
            self._backlog = backlog_fn
        now = self.sim.now
        self._last_progress = [now] * len(self._ports)
        self._last_queue = [port.queue_length for port in self._ports]
        self._last_drained = [
            getattr(port, "drained", 0) for port in self._ports
        ]
        self.sim.schedule(self.check_interval, self._check)

    def clear(self, port_index: int) -> None:
        """Forget a stall (the channel was reset/revived); re-arm the watch."""
        self.stalled.discard(port_index)
        self._last_progress[port_index] = self.sim.now

    def _check(self) -> None:
        now = self.sim.now
        backlogged = self._backlog() > 0
        for i, port in enumerate(self._ports):
            qlen = port.queue_length
            blocked = not port.can_accept()
            if (
                self._credit is not None
                and self._credit.available(i) <= 0
            ):
                blocked = True
            drained = getattr(port, "drained", None)
            if drained is not None:
                # Transmission completions are the real progress signal: a
                # saturated queue sits at its limit between checks even
                # while frames flow through it.
                progressed = drained > self._last_drained[i]
                self._last_drained[i] = drained
            else:
                progressed = qlen < self._last_queue[i]
            self._last_queue[i] = qlen
            # Traffic is pending if the pipeline has backlog *or* this
            # port itself still holds undrained packets.
            if progressed or not blocked or not (backlogged or qlen > 0):
                self._last_progress[i] = now
            elif (
                i not in self.stalled
                and now - self._last_progress[i] >= self.stall_timeout
            ):
                self.stalled.add(i)
                self.stalls_reported.append(i)
                assert self._on_stall is not None
                self._on_stall(i)
        self.sim.schedule(self.check_interval, self._check)
