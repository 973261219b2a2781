"""Channel health: the receiver's failure detector, the sender's stall watch.

Neither depends on how the endpoint synchronizes (markers, hashes, or
headers), only on per-channel arrival and progress signals, so they live
below the reception layer.

* :class:`ChannelFailureDetector` — the receiver-side channel lifecycle,
  ``active -> failed -> probing -> revived``: a silence watchdog that
  reports a dead channel, gates the sender's probe acks behind a
  flap-damped hold-down, and re-arms a channel that rejoins.
* :class:`SenderHealthMonitor` — sender-side queue-stall watch.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

#: how often (s) the receiver watchdog and the sender monitor look
CHECK_INTERVAL_S = 0.05
#: arrivals a failed channel must produce before it is revived
REVIVAL_ARRIVALS = 2
#: a failed channel's hold-down (s); each failure within FLAP_WINDOW_S of
#: a revival multiplies it by FLAP_FACTOR, up to MAX_DOWN_TIME_S
MIN_DOWN_TIME_S = 0.1
FLAP_WINDOW_S = 2.0
FLAP_FACTOR = 2.0
MAX_DOWN_TIME_S = 5.0
#: how long (s) a blocked port may make no progress before it is stalled
STALL_TIMEOUT_S = 0.25


class ChannelFailureDetector:
    """Receiver-side channel lifecycle: ``active -> failed -> probing ->
    revived``, transport-agnostic.

    Every ``CHECK_INTERVAL_S`` seconds it compares per-channel arrival
    times; a channel that saw nothing for ``silence_threshold`` seconds
    while the others progressed is declared ``failed`` and reported
    through the bound failure callback — a session receiver asks the
    sender to exclude it, a plain pipeline writes it off so delivery
    keeps flowing.

    A failed channel that shows signs of life again (sender probes, or
    data arrivals from stale in-flight packets) moves to ``probing``; once
    it has produced ``REVIVAL_ARRIVALS`` arrivals *and* its hold-down has
    elapsed it is ``revived`` — the bound revival callback re-admits it (a
    plain pipeline un-fails its resequencer; a session receiver
    acknowledges the sender's probes, so the sender rejoins the channel
    via a RESET, which :meth:`note_rejoin` turns back into ``active`` so a
    second death is reported too).

    Flap damping: each failure that follows a revival within
    ``FLAP_WINDOW_S`` seconds doubles the channel's hold-down
    (``MIN_DOWN_TIME_S``, capped at ``MAX_DOWN_TIME_S``), so an
    intermittent link is re-admitted ever more reluctantly instead of
    thrashing the bundle with resets.
    """

    #: lifecycle states, as stored in :attr:`state`
    ACTIVE = "active"
    FAILED = "failed"
    PROBING = "probing"
    REVIVED = "revived"

    def __init__(self, sim: Any, silence_threshold: float) -> None:
        self.sim = sim
        self.silence_threshold = silence_threshold
        self.last_arrival: List[float] = []
        self.state: List[str] = []
        self.failures_reported: List[int] = []
        self.revivals_reported: List[int] = []
        self._started = False

    def bind(
        self,
        n_channels: int,
        on_failure: Callable[[int], Any],
        active_channels: Optional[Callable[[], Sequence[int]]] = None,
        on_revival: Optional[Callable[[int], Any]] = None,
    ) -> None:
        """Watch ``n_channels``; report via ``on_failure`` / ``on_revival``.

        ``active_channels`` yields the channel set currently expected to
        carry traffic (a session's live subset); by default every channel
        neither failed nor probing.
        """
        self._on_failure = on_failure
        self._on_revival = on_revival
        if active_channels is None:
            active_channels = lambda: [  # noqa: E731
                i for i in range(n_channels) if self._up(i)
            ]
        self._active = active_channels
        self.last_arrival = [0.0] * n_channels
        self.state = [self.ACTIVE] * n_channels
        self.flap_counts = [0] * n_channels
        self._failed_at = [0.0] * n_channels
        self._life_seen = [0] * n_channels
        self._hold_down = [MIN_DOWN_TIME_S] * n_channels
        self._revived_at = [float("-inf")] * n_channels

    def _up(self, channel: int) -> bool:
        return self.state[channel] in (self.ACTIVE, self.REVIVED)

    def _watched(self, port_index: int, what: str) -> None:
        if not 0 <= port_index < len(self.state):
            # A negative index would silently alias the last channel and an
            # oversized one would vanish — both are wiring bugs upstream.
            raise ValueError(
                f"{what} on port {port_index}, but the detector watches "
                f"{len(self.state)} channels (was bind() called?)"
            )

    # -- failure path -------------------------------------------------- #

    def _check(self) -> None:
        now = self.sim.now
        active = list(self._active())
        alive = [
            i
            for i in active
            if now - self.last_arrival[i] < self.silence_threshold
        ]
        if alive and len(alive) < len(active):
            for index in active:
                if index not in alive and self._up(index):
                    self._fail(index)
        self.sim.schedule(CHECK_INTERVAL_S, self._check)

    def _fail(self, channel: int) -> None:
        now = self.sim.now
        self.failures_reported.append(channel)
        self.state[channel] = self.FAILED
        self._failed_at[channel] = now
        self._life_seen[channel] = 0
        if now - self._revived_at[channel] < FLAP_WINDOW_S:
            # Flapping: it died again right after we let it back in.
            self.flap_counts[channel] += 1
            self._hold_down[channel] = min(
                self._hold_down[channel] * FLAP_FACTOR, MAX_DOWN_TIME_S
            )
        else:
            self._hold_down[channel] = MIN_DOWN_TIME_S
        self._on_failure(channel)

    # -- revival path -------------------------------------------------- #

    def note_arrival(self, port_index: int) -> None:
        """Every physical arrival — data, marker, or probe — is a life sign.

        On a failed channel, arrivals move it to ``probing`` and count
        toward the revival threshold; revival itself fires here too, so a
        plain pipeline (no probes) still revives on returning data.
        """
        self._watched(port_index, "arrival")
        self.last_arrival[port_index] = self.sim.now
        if not self._started:
            self._started = True
            self.sim.schedule(CHECK_INTERVAL_S, self._check)
        if not self._up(port_index):
            self.state[port_index] = self.PROBING
            self._life_seen[port_index] += 1
            self._try_revive(port_index)

    def note_probe(self, port_index: int) -> bool:
        """Should a sender probe on ``port_index`` be acknowledged?

        Life signals are counted by :meth:`note_arrival` (the transport
        reports every arrival, probes included); this method only
        *evaluates* the channel's standing — and performs the revival
        transition when the threshold and hold-down have been cleared.
        """
        self._watched(port_index, "probe")
        return self._up(port_index) or self._try_revive(port_index)

    def note_rejoin(self, active_channels: Sequence[int]) -> None:
        """A reconfiguration re-activated channels (rejoin RESET installed).

        Re-arms silence detection for every re-admitted channel that is
        not ``active``: its failure is reported again on a second death,
        and its arrival clock restarts (its ``last_arrival`` is stale from
        the outage, which would otherwise re-fail it on the next check).
        """
        now = self.sim.now
        for channel in active_channels:
            if self.state[channel] != self.ACTIVE:
                self.last_arrival[channel] = now
                if self.state[channel] != self.REVIVED:
                    self._revived_at[channel] = now
                self.state[channel] = self.ACTIVE

    def _try_revive(self, channel: int) -> bool:
        now = self.sim.now
        if self._life_seen[channel] < REVIVAL_ARRIVALS:
            return False
        if now - self._failed_at[channel] < self._hold_down[channel]:
            return False  # hysteresis: not convinced yet, keep damping
        self.state[channel] = self.REVIVED
        self.revivals_reported.append(channel)
        self._revived_at[channel] = now
        if self._on_revival is not None:
            self._on_revival(channel)
        return True


class SenderHealthMonitor:
    """Sender-side channel health: the queue-stall watch.

    The receiver-side detector sees silence; the sender sees *backpressure*.
    Every ``CHECK_INTERVAL_S`` seconds each port is examined: a port that
    is blocked (``can_accept()`` is False: its transmit queue is full, or
    its FCVC credit is exhausted) and makes no drain progress for
    ``STALL_TIMEOUT_S`` seconds while traffic is pending is declared
    stalled and reported through the bound callback — a session sender
    excludes the channel via a reconfiguration RESET without waiting for
    the receiver to notice the silence.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.stalled: set = set()
        self.stalls_reported: List[int] = []

    def bind(
        self,
        ports: Sequence[Any],
        on_stall: Callable[[int], Any],
        backlog_fn: Callable[[], int],
    ) -> None:
        """Watch ``ports``; report stalled port indices via ``on_stall``.

        ``backlog_fn`` reports the traffic pending above the ports (no
        backlog and empty ports mean an idle sender, never a stall).
        """
        self._ports = list(ports)
        self._on_stall = on_stall
        self._backlog = backlog_fn
        now = self.sim.now
        self._last_progress = [now] * len(self._ports)
        self._last_queue = [port.queue_length for port in self._ports]
        self._last_drained = [
            getattr(port, "drained", 0) for port in self._ports
        ]
        self.sim.schedule(CHECK_INTERVAL_S, self._check)

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
                and now - self._last_progress[i] >= STALL_TIMEOUT_S
            ):
                self.stalled.add(i)
                self.stalls_reported.append(i)
                self._on_stall(i)
        self.sim.schedule(CHECK_INTERVAL_S, self._check)
