"""Composable, time-varying fault injection for simulated channels.

The static loss models in :mod:`repro.sim.loss` answer "what fraction of
packets does this channel lose?".  Validating the protocol's reliability
claim (Theorem 5.1: marker resync restores FIFO within one one-way delay
after faults stop) needs the adversarial complement: *timed* faults that
start, mutate the channel's behaviour, and cease.  This module provides
that as a layer over any existing :class:`~repro.sim.loss.LossModel` and
any receiver wiring — nothing in :mod:`repro.sim.channel` or the endpoint
pipelines knows it is being injected against.

* :class:`FaultEvent` — one timed fault on one channel: ``crash`` (drop
  everything offered for the window), ``pause`` (freeze the transmitter;
  backpressure, no loss), ``delay_spike`` (extra one-way latency,
  FIFO-preserving), ``duplicate`` (deliver arrivals twice), ``reorder``
  (release a window of arrivals in reversed order — the "occasional
  non-FIFO behaviour" of section 2), ``corrupt`` (discard arrivals, the
  CRC-failure path), ``marker_loss`` (drop only control-sized packets
  — adversarially targets the resync machinery), and ``burst_loss``
  (transmit-side Gilbert–Elliott bursts — the correlated-loss regime
  FEC groups must survive; a long enough burst erases a whole k+m
  group), ``corrupt_deliver`` (flip a byte and *deliver* the damaged
  packet — unlike ``corrupt``, which models the CRC-drop path, this
  exercises the receiver's own decode-and-discard handling), and
  ``endpoint_crash`` (kill a whole endpoint — sender or receiver — for
  the window and restart it; exercises :mod:`repro.transport.recovery`).
* :class:`FaultSchedule` — an ordered set of events with an installation
  hook that wires injectors onto live :class:`~repro.sim.channel.Channel`
  objects (transmit side via a wrapping loss model and pause/resume,
  receive side via an ``on_deliver`` interposer).
* :class:`FaultPlan` — a seeded generator of randomized schedules whose
  faults all cease before a horizon, for chaos property tests.

Install order matters: :meth:`FaultSchedule.install` must run *after* the
receiver wiring has claimed ``channel.on_deliver``, because the injector
interposes on whatever handler is present at install time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.loss import GilbertElliottLoss, LossModel

#: Every fault kind the machinery understands.
FAULT_KINDS = (
    "crash",
    "pause",
    "delay_spike",
    "duplicate",
    "reorder",
    "corrupt",
    "corrupt_deliver",
    "marker_loss",
    "burst_loss",
    "endpoint_crash",
)

#: Kinds that perturb a *channel*.  ``endpoint_crash`` instead targets a
#: whole endpoint and needs an :class:`~repro.sim.host` crash controller
#: wired at install time, so randomized plans exclude it by default.
CHANNEL_FAULT_KINDS = tuple(
    kind for kind in FAULT_KINDS if kind != "endpoint_crash"
)

#: Kinds for which the protocol promises exactly-once delivery of whatever
#: physically arrives (duplication injects extra copies by definition, so
#: chaos invariant suites draw from this set and test ``duplicate``
#: separately with a bounded-duplication assertion).
EXACTLY_ONCE_KINDS = (
    "crash",
    "pause",
    "delay_spike",
    "reorder",
    "corrupt",
    "corrupt_deliver",
    "marker_loss",
    "burst_loss",
)

#: Packets at or below this size are treated as control traffic by
#: ``marker_loss`` faults (markers are 32 B, credits smaller; data packets
#: in the testbeds are hundreds of bytes).
CONTROL_SIZE_MAX = 64


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault on one channel.

    ``magnitude`` is kind-specific: drop probability for ``crash`` /
    ``corrupt`` / ``marker_loss`` / ``duplicate``, corruption probability
    for ``corrupt_deliver``, extra one-way seconds for ``delay_spike``,
    window depth (packets) for ``reorder``, target steady-state loss rate
    for ``burst_loss`` (>= 1 means the channel is pinned in the bad state
    for the whole window); unused for ``pause`` and ``endpoint_crash``.

    ``target`` applies only to ``endpoint_crash``: which endpoint dies
    (``"sender"`` or ``"receiver"``).  The endpoint is killed at ``time``
    and restarted at ``end``; ``channel`` is ignored for that kind.
    """

    time: float
    channel: int
    kind: str
    duration: float = 0.05
    magnitude: float = 1.0
    target: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise ValueError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        if self.channel < 0:
            raise ValueError(f"channel must be >= 0, got {self.channel}")
        if self.kind == "endpoint_crash":
            if self.target not in ("sender", "receiver"):
                raise ValueError(
                    "endpoint_crash needs target='sender' or 'receiver', "
                    f"got {self.target!r}"
                )
        elif self.target:
            raise ValueError(
                f"target is only meaningful for endpoint_crash faults, "
                f"got {self.target!r} on {self.kind!r}"
            )

    @property
    def end(self) -> float:
        """Simulated time at which this fault ceases."""
        return self.time + self.duration


class _FaultLoss(LossModel):
    """Wraps a channel's loss model with the injector's transmit-side drops.

    Composable by construction: the inner model keeps making its own draws
    for every packet the fault layer lets through, so a crashed window on a
    lossy channel behaves exactly like the lossy channel once the crash
    ceases.  The wrapper deliberately has no ``p`` attribute, which keeps
    an injected channel off the burst-batched fast path (fault draws must
    happen at per-packet transmission boundaries).
    """

    def __init__(self, injector: "FaultInjector", inner: LossModel) -> None:
        self.injector = injector
        self.inner = inner

    def should_drop(self, packet_index: int, size: int) -> bool:
        if self.injector._transmit_drop(size):
            return True
        return self.inner.should_drop(packet_index, size)

    def reset(self) -> None:
        self.inner.reset()


def _burst_model_for(
    magnitude: float, rng: random.Random
) -> GilbertElliottLoss:
    """Build the Gilbert–Elliott model behind a ``burst_loss`` event.

    ``magnitude`` is the *target steady-state loss rate*.  The recovery
    probability is fixed at ``p_b2g = 0.25`` (mean burst length of four
    packets — long enough to straddle an FEC group member on every
    channel), and the entry probability is solved from the steady-state
    equation ``pi_bad = p_g2b / (p_g2b + p_b2g) = magnitude``, i.e.
    ``p_g2b = magnitude * p_b2g / (1 - magnitude)``.  A magnitude at or
    above 1 pins the channel in the bad state deterministically, which is
    the regression fixture for "a burst erases a whole k+m group".
    """
    if magnitude <= 0.0:
        raise ValueError(
            f"burst_loss magnitude must be > 0, got {magnitude}"
        )
    if magnitude >= 1.0:
        return GilbertElliottLoss(p_g2b=1.0, p_b2g=0.0, rng=rng)
    p_b2g = 0.25
    p_g2b = min(1.0, magnitude * p_b2g / (1.0 - magnitude))
    return GilbertElliottLoss(p_g2b=p_g2b, p_b2g=p_b2g, rng=rng)


class FaultInjector:
    """Applies one channel's share of a :class:`FaultSchedule`.

    Transmit-side faults (``crash``, ``burst_loss``) ride a wrapping loss
    model so the channel's own statistics count them; ``pause`` uses the
    channel's administrative pause.  Receive-side faults interpose on the channel's
    ``on_deliver``.  Delay spikes are clamped so per-channel release times
    stay non-decreasing — the channel model remains FIFO, as the paper
    requires; reordering comes only from explicit ``reorder`` bursts.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Any,
        rng: Optional[random.Random] = None,
        control_size_max: int = CONTROL_SIZE_MAX,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.rng = rng if rng is not None else random.Random(0)
        self.control_size_max = control_size_max

        self._crash_until = -1.0
        self._crash_p = 1.0
        self._corrupt_until = -1.0
        self._corrupt_p = 1.0
        self._corrupt_deliver_until = -1.0
        self._corrupt_deliver_p = 1.0
        self._marker_loss_until = -1.0
        self._marker_loss_p = 1.0
        self._burst_until = -1.0
        self._burst_model: Optional[GilbertElliottLoss] = None
        self._dup_until = -1.0
        self._dup_p = 1.0
        self._delay_until = -1.0
        self._delay_extra = 0.0
        self._reorder_until = -1.0
        self._reorder_depth = 2
        self._reorder_buf: List[Any] = []
        self._pause_depth = 0
        self._last_release = 0.0
        self._scheduled = 0

        self.crash_drops = 0
        self.burst_drops = 0
        self.corrupt_drops = 0
        self.corrupt_delivered = 0
        self.marker_drops = 0
        self.duplicates_injected = 0
        self.reordered = 0
        self.delayed = 0

        channel.loss_model = _FaultLoss(self, channel.loss_model)
        self._downstream: Callable[[Any], None] = (
            channel.on_deliver if channel.on_deliver is not None else _sink
        )
        channel.on_deliver = self._on_deliver

    # ------------------------------------------------------------------ #
    # schedule activation

    def apply(self, event: FaultEvent) -> None:
        """Activate ``event`` now (called by the schedule at event.time)."""
        kind = event.kind
        end = event.end
        if kind == "crash":
            self._crash_until = max(self._crash_until, end)
            self._crash_p = event.magnitude
        elif kind == "pause":
            self._pause_depth += 1
            self.channel.pause()
            self.sim.schedule_at(end, self._end_pause)
        elif kind == "delay_spike":
            self._delay_until = max(self._delay_until, end)
            self._delay_extra = event.magnitude
        elif kind == "duplicate":
            self._dup_until = max(self._dup_until, end)
            self._dup_p = event.magnitude
        elif kind == "reorder":
            self._reorder_until = max(self._reorder_until, end)
            self._reorder_depth = max(2, int(event.magnitude))
            self.sim.schedule_at(end, self._flush_reorder)
        elif kind == "corrupt":
            self._corrupt_until = max(self._corrupt_until, end)
            self._corrupt_p = event.magnitude
        elif kind == "corrupt_deliver":
            self._corrupt_deliver_until = max(
                self._corrupt_deliver_until, end
            )
            self._corrupt_deliver_p = event.magnitude
        elif kind == "marker_loss":
            self._marker_loss_until = max(self._marker_loss_until, end)
            self._marker_loss_p = event.magnitude
        elif kind == "burst_loss":
            self._burst_until = max(self._burst_until, end)
            self._burst_model = _burst_model_for(
                event.magnitude, rng=self.rng
            )

    def _end_pause(self) -> None:
        self._pause_depth -= 1
        if self._pause_depth == 0:
            self.channel.resume()

    # ------------------------------------------------------------------ #
    # transmit side (consulted by the wrapping loss model)

    def _transmit_drop(self, size: int) -> bool:
        if self.sim.now < self._crash_until and (
            self._crash_p >= 1.0 or self.rng.random() < self._crash_p
        ):
            self.crash_drops += 1
            return True
        if (
            self.sim.now < self._burst_until
            and self._burst_model is not None
            and self._burst_model.should_drop(0, size)
        ):
            self.burst_drops += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # receive side (interposed on channel.on_deliver)

    def _on_deliver(self, packet: Any) -> None:
        now = self.sim.now
        size = getattr(packet, "size", 0)
        if now < self._corrupt_until and self.rng.random() < self._corrupt_p:
            self.corrupt_drops += 1
            return
        if (
            now < self._marker_loss_until
            and size <= self.control_size_max
            and self.rng.random() < self._marker_loss_p
        ):
            self.marker_drops += 1
            return
        if (
            now < self._corrupt_deliver_until
            and self.rng.random() < self._corrupt_deliver_p
        ):
            packet = self._corrupted_copy(packet)
        if now < self._reorder_until:
            self._reorder_buf.append(packet)
            if len(self._reorder_buf) >= self._reorder_depth:
                self._flush_reorder()
            return
        self._release(packet)

    def _corrupted_copy(self, packet: Any) -> Any:
        """A delivered-but-damaged copy of ``packet`` (one byte flipped).

        Markers are corrupted *on the wire*: the marker is encoded, its
        magic byte flipped (guaranteeing :class:`MarkerDecodeError` rather
        than a silently-wrong snapshot), and the raw bytes delivered —
        the receiver's decode path does the counting and discarding.
        Data packets get a payload byte flipped on a **copy**; the
        original object is never mutated because it may be aliased by the
        sender's retransmission buffer.  Payload-less packets (size-only
        models) pass through unchanged.
        """
        # Protocol imports are deliberately lazy: the fault layer stays
        # ignorant of endpoint machinery except inside this one fault.
        from repro.core.markers import encode_marker
        from repro.core.packet import is_marker

        if isinstance(packet, (bytes, bytearray)):
            wire = bytearray(packet)
            if not wire:
                return packet
            wire[self.rng.randrange(len(wire))] ^= 0xFF
            self.corrupt_delivered += 1
            return bytes(wire)
        if is_marker(packet):
            wire = bytearray(encode_marker(packet))
            wire[0] ^= 0xFF
            self.corrupt_delivered += 1
            return bytes(wire)
        payload = getattr(packet, "payload", None)
        if not payload or not isinstance(payload, (bytes, bytearray)):
            # Size-only models and structured payloads (e.g. a Frame
            # carrying an IPPacket) have no byte image to damage.
            return packet
        import copy as _copy

        clone = _copy.copy(packet)
        damaged = bytearray(payload)
        damaged[self.rng.randrange(len(damaged))] ^= 0xFF
        clone.payload = bytes(damaged)
        self.corrupt_delivered += 1
        return clone

    def _flush_reorder(self) -> None:
        buffered = self._reorder_buf
        if not buffered:
            return
        self._reorder_buf = []
        self.reordered += len(buffered)
        for packet in reversed(buffered):
            self._release(packet)

    def _release(self, packet: Any) -> None:
        now = self.sim.now
        copies = 1
        if now < self._dup_until and self.rng.random() < self._dup_p:
            self.duplicates_injected += 1
            copies = 2
        extra = self._delay_extra if now < self._delay_until else 0.0
        release_at = now + extra
        if release_at < self._last_release:
            release_at = self._last_release
        self._last_release = release_at
        for _ in range(copies):
            if release_at <= now and self._scheduled == 0:
                self._downstream(packet)
            else:
                # Keep per-channel FIFO: once one release is scheduled,
                # everything behind it goes through the engine too
                # (insertion order breaks same-time ties).
                if extra > 0.0:
                    self.delayed += 1
                self._scheduled += 1
                self.sim.schedule_at(release_at, self._deliver_later, packet)

    def _deliver_later(self, packet: Any) -> None:
        self._scheduled -= 1
        self._downstream(packet)


def _sink(packet: Any) -> None:
    """Delivery into the void (a channel nobody wired a receiver to)."""


@dataclass
class InstalledFaults:
    """Handle returned by :meth:`FaultSchedule.install`."""

    schedule: "FaultSchedule"
    injectors: List[FaultInjector]

    @property
    def crash_drops(self) -> int:
        return sum(i.crash_drops for i in self.injectors)

    @property
    def burst_drops(self) -> int:
        return sum(i.burst_drops for i in self.injectors)

    @property
    def corrupt_drops(self) -> int:
        return sum(i.corrupt_drops for i in self.injectors)

    @property
    def corrupt_delivered(self) -> int:
        return sum(i.corrupt_delivered for i in self.injectors)

    @property
    def marker_drops(self) -> int:
        return sum(i.marker_drops for i in self.injectors)

    @property
    def duplicates_injected(self) -> int:
        return sum(i.duplicates_injected for i in self.injectors)

    @property
    def reordered(self) -> int:
        return sum(i.reordered for i in self.injectors)

    @property
    def total_faulted(self) -> int:
        """Packets visibly perturbed (dropped, duplicated, or reordered)."""
        return (
            self.crash_drops
            + self.burst_drops
            + self.corrupt_drops
            + self.corrupt_delivered
            + self.marker_drops
            + self.duplicates_injected
            + self.reordered
        )


class FaultSchedule:
    """An ordered set of timed per-channel fault events.

    Args:
        events: the fault events (any order; stored sorted by time).
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.channel))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def last_fault_end(self) -> float:
        """Time after which every scheduled fault has ceased."""
        return max((e.end for e in self.events), default=0.0)

    def kinds_used(self) -> Tuple[str, ...]:
        return tuple(sorted({e.kind for e in self.events}))

    def for_channel(self, channel: int) -> List[FaultEvent]:
        return [e for e in self.events if e.channel == channel]

    def install(
        self,
        sim: Simulator,
        channels: Sequence[Any],
        *,
        seed: int = 0,
        control_size_max: int = CONTROL_SIZE_MAX,
        endpoints: Optional[Any] = None,
    ) -> InstalledFaults:
        """Wire injectors onto live channels and arm every event.

        Must be called after the receiver side has claimed each channel's
        ``on_deliver`` (the injector interposes on the current handler).
        Injector randomness is derived from ``seed`` per channel, so a
        schedule replays identically for the same seed.

        ``endpoints`` (anything with ``crash(target)`` / ``restart(target)``
        methods, e.g. :class:`repro.sim.host.EndpointCrashController`) is
        required iff the schedule contains ``endpoint_crash`` events: each
        such event kills its target at ``event.time`` and restarts it at
        ``event.end``.
        """
        crash_events = [e for e in self.events if e.kind == "endpoint_crash"]
        if crash_events and endpoints is None:
            raise ValueError(
                "schedule contains endpoint_crash events; install() needs "
                "an endpoints= crash controller to apply them"
            )
        for event in self.events:
            if event.kind == "endpoint_crash":
                continue
            if event.channel >= len(channels):
                raise ValueError(
                    f"event targets channel {event.channel} but only "
                    f"{len(channels)} channels were supplied"
                )
        injectors = [
            FaultInjector(
                sim,
                channel,
                rng=random.Random((seed << 8) ^ index),
                control_size_max=control_size_max,
            )
            for index, channel in enumerate(channels)
        ]
        for event in self.events:
            if event.kind == "endpoint_crash":
                sim.schedule_at(event.time, endpoints.crash, event.target)
                sim.schedule_at(event.end, endpoints.restart, event.target)
            else:
                sim.schedule_at(
                    event.time, injectors[event.channel].apply, event
                )
        return InstalledFaults(schedule=self, injectors=injectors)


def persistent_loss_schedule(
    n_channels: int,
    p: float,
    start: float = 0.0,
    until: float = 1.0,
) -> FaultSchedule:
    """A schedule that drops each packet with probability ``p`` everywhere.

    Unlike the ceasing faults of :class:`FaultPlan`, this models a channel
    set that is *persistently* lossy for the whole window ``[start, until)``
    — the regime where quasi-FIFO striping alone cannot deliver everything
    and the reliability layer's retransmissions are load-bearing.  Built
    from one long fractional ``crash`` event per channel so the existing
    injector machinery (transmit-side drops, per-channel seeded RNG,
    channel-local statistics) applies unchanged.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"loss probability must be in (0, 1], got {p}")
    if until <= start:
        raise ValueError("loss window must have positive duration")
    return FaultSchedule(
        [
            FaultEvent(
                time=start,
                channel=channel,
                kind="crash",
                duration=until - start,
                magnitude=p,
            )
            for channel in range(n_channels)
        ]
    )


def burst_loss_schedule(
    n_channels: int,
    loss_rate: float,
    start: float = 0.0,
    until: float = 1.0,
) -> FaultSchedule:
    """A schedule imposing Gilbert–Elliott burst loss on every channel.

    The burst-loss complement of :func:`persistent_loss_schedule`: the
    same long-run loss rate, but correlated into multi-packet bursts (mean
    burst length four packets) instead of i.i.d. drops.  This is the
    regime that separates FEC parameterizations — i.i.d. loss rarely
    claims two members of the same group, bursts routinely do.  A
    ``loss_rate >= 1`` pins every channel in the bad state for the whole
    window, deterministically erasing each group that transits it.
    """
    if loss_rate <= 0.0:
        raise ValueError(f"loss rate must be > 0, got {loss_rate}")
    if until <= start:
        raise ValueError("loss window must have positive duration")
    return FaultSchedule(
        [
            FaultEvent(
                time=start,
                channel=channel,
                kind="burst_loss",
                duration=until - start,
                magnitude=loss_rate,
            )
            for channel in range(n_channels)
        ]
    )


def endpoint_crash_schedule(
    crashes: Sequence[Tuple[float, str]],
    *,
    outage: float = 0.05,
) -> FaultSchedule:
    """A schedule of endpoint kills from ``(time, target)`` pairs.

    Each pair kills ``target`` (``"sender"`` or ``"receiver"``) at
    ``time`` and restarts it ``outage`` seconds later.  Installing the
    resulting schedule requires an ``endpoints=`` crash controller (see
    :meth:`FaultSchedule.install`).
    """
    if outage < 0:
        raise ValueError(f"outage must be >= 0, got {outage}")
    return FaultSchedule(
        [
            FaultEvent(
                time=time,
                channel=0,
                kind="endpoint_crash",
                duration=outage,
                target=target,
            )
            for time, target in crashes
        ]
    )


#: Per-kind magnitude samplers for randomized plans.
_MAGNITUDES: dict = {
    "crash": lambda rng: 1.0,
    "pause": lambda rng: 1.0,
    "delay_spike": lambda rng: rng.uniform(0.004, 0.03),
    "duplicate": lambda rng: rng.uniform(0.2, 1.0),
    "reorder": lambda rng: float(rng.randint(2, 6)),
    "corrupt": lambda rng: rng.uniform(0.3, 1.0),
    "corrupt_deliver": lambda rng: rng.uniform(0.3, 1.0),
    "marker_loss": lambda rng: rng.uniform(0.5, 1.0),
    "burst_loss": lambda rng: rng.uniform(0.05, 0.3),
    "endpoint_crash": lambda rng: 1.0,
}


class FaultPlan:
    """A seeded generator of randomized chaos schedules.

    Every generated fault starts after ``start_after`` and ends before
    ``cease_by`` — the "faults eventually cease" premise of Theorem 5.1 is
    guaranteed by construction, so a chaos run can assert recovery after
    ``schedule.last_fault_end``.

    Args:
        n_channels: channels the target bundle has.
        cease_by: all faults end strictly before this simulated time.
        kinds: fault kinds to draw from (default: every *channel* kind;
            ``endpoint_crash`` must be opted into explicitly because it
            needs a crash controller at install time).
        max_events: up to this many events per schedule (at least 1).
        start_after: no fault starts before this time (lets the protocol
            reach steady state first).
        min_duration / max_duration: fault length bounds in seconds.
    """

    def __init__(
        self,
        n_channels: int,
        cease_by: float,
        *,
        kinds: Sequence[str] = CHANNEL_FAULT_KINDS,
        max_events: int = 6,
        start_after: float = 0.1,
        min_duration: float = 0.02,
        max_duration: float = 0.25,
    ) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if not kinds:
            raise ValueError("need at least one fault kind")
        if max_events < 1:
            raise ValueError("need at least one event per schedule")
        if start_after + min_duration >= cease_by:
            raise ValueError("no room for any fault before cease_by")
        self.n_channels = n_channels
        self.cease_by = cease_by
        self.kinds = tuple(kinds)
        self.max_events = max_events
        self.start_after = start_after
        self.min_duration = min_duration
        self.max_duration = max_duration

    def schedule(self, seed: int) -> FaultSchedule:
        """The deterministic schedule for ``seed``."""
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for _ in range(rng.randint(1, self.max_events)):
            kind = rng.choice(self.kinds)
            latest_start = self.cease_by - self.min_duration
            start = rng.uniform(self.start_after, latest_start)
            duration = rng.uniform(
                self.min_duration,
                min(self.max_duration, self.cease_by - start),
            )
            events.append(
                FaultEvent(
                    time=start,
                    channel=rng.randrange(self.n_channels),
                    kind=kind,
                    duration=duration,
                    magnitude=_MAGNITUDES[kind](rng),
                    target=(
                        rng.choice(("sender", "receiver"))
                        if kind == "endpoint_crash"
                        else ""
                    ),
                )
            )
        return FaultSchedule(events)
