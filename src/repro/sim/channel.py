"""A simulated FIFO channel.

The paper's channel abstraction (section 2): a logical FIFO path with

* a transmission rate (bits/second) — packets are serialized onto the wire,
* a propagation delay, possibly different per channel (static *skew*),
* per-packet delay variation (dynamic skew) that still preserves FIFO order,
* packet loss and corruption (corrupted packets are discarded on arrival).

A channel also has a finite transmit queue.  A full queue exerts
*backpressure* on the striping sender: this is what makes plain round robin
throughput collapse to the slowest link in Figure 15 — the sender must wait
for the slow channel's queue to drain before it may send the next packet in
order.

Fast path (``fast=True``): while the channel is *static* — no live loss,
no corruption, no dynamic skew — the whole transmit queue is serialized as
one back-to-back burst per event instead of one ``_tx_done`` event per
packet.  Completion and arrival times are accumulated with exactly the
same floating-point expressions the per-packet path evaluates, so a packet
that enters the queue at the same instant on both paths arrives at the
same instant.  What differs is the sender's view: a burst moves the whole
queue out of the counted ``queue_length`` at burst start and signals
``on_space`` once per burst, so a back-pressured sender gets up to
2 x ``queue_limit`` of buffering, and anything that reads queue depth or
samples a counter mid-burst (a receiver buffer cap, ``sent`` at the
horizon) can see up to one transmit queue of difference.  Deliveries run
off a *train*:
a FIFO of precomputed ``(arrival, packet, size)`` entries with a single
armed slot-free engine callback that re-arms itself for the next distinct
arrival time.  A channel whose loss model is live (or that has corruption
or skew) keeps the classic per-packet pipeline, because loss and
corruption draws must happen at exact per-packet transmission boundaries
(``stop_losses_at`` mutates the loss probability at a simulated time).
That pipeline schedules one transmit-complete and one delivery event per
packet, both slot-free engine entries carrying the packet and its size
(no :class:`~repro.sim.engine.Event` handle), and a transmit-complete
starts the next packet itself while the channel stays per-packet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.loss import CorruptionModel, LossModel, NoLoss


@dataclass
class ChannelStats:
    """Counters accumulated by a :class:`Channel` over its lifetime."""

    offered_packets: int = 0
    offered_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    lost_packets: int = 0
    corrupted_packets: int = 0
    queue_drops: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter spent sending."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Channel:
    """A FIFO channel between one sender and one receiver.

    Args:
        sim: the event engine.
        bandwidth_bps: transmission rate in bits per second.
        prop_delay: one-way propagation delay in seconds.
        name: label used in traces and errors.
        queue_limit: max packets waiting in the transmit queue (excludes the
            packet on the wire).  ``None`` means unbounded.
        loss_model: decides which packets the channel loses.
        corruption: optional bit-error model; corrupted packets are dropped
            at the receiver (CRC failure), exactly like losses but counted
            separately.
        skew: optional callable ``() -> float`` giving extra per-packet delay
            (dynamic skew).  Arrival times are clamped to be non-decreasing
            so the channel remains FIFO, as the paper's model requires.
        size_of: maps a packet object to its size in bytes on this channel
            (default: ``packet.size`` attribute).  Interfaces override this
            to add framing overhead (Ethernet headers, ATM cell padding).
            Called once per offered packet, at :meth:`send`; the size then
            travels with the packet through the queue and the wire.
        fast: opt in to the burst-batched transmit path (see module
            docstring).  Same arrival instants for the same enqueue
            instants; a back-pressured sender sees up to 2 x
            ``queue_limit`` of buffering.  Lossy or skewed channels
            automatically stay on the classic pipeline.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        prop_delay: float,
        *,
        name: str = "channel",
        queue_limit: Optional[int] = None,
        loss_model: Optional[LossModel] = None,
        corruption: Optional[CorruptionModel] = None,
        skew: Optional[Callable[[], float]] = None,
        size_of: Optional[Callable[[Any], int]] = None,
        fast: bool = False,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if prop_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.name = name
        self.queue_limit = queue_limit
        self.loss_model: LossModel = loss_model if loss_model is not None else NoLoss()
        self.corruption = corruption
        self.skew = skew
        self.size_of = size_of if size_of is not None else _default_size
        self.fast = fast
        self.stats = ChannelStats()

        self.on_deliver: Optional[Callable[[Any], None]] = None
        self.on_drop: Optional[Callable[[Any, str], None]] = None
        self.on_space: Optional[Callable[[], None]] = None

        # Transmit queue of (packet, wire size) pairs.
        self._queue: Deque[Any] = deque()
        self._transmitting = False
        self._paused = False
        self._last_arrival = 0.0
        self._offered_index = 0
        # Fast-path delivery train: (arrival, packet, size) in FIFO order
        # with at most one armed engine callback at a time.
        self._train: Deque[Any] = deque()
        self._train_armed = False

    # ------------------------------------------------------------------ #
    # sender side

    @property
    def queue_length(self) -> int:
        """Packets waiting in the transmit queue (not counting in-flight)."""
        return len(self._queue)

    @property
    def queued_bytes(self) -> int:
        return sum(size for _, size in self._queue)

    @property
    def in_flight(self) -> int:
        """Packets serialized but not yet delivered (burst-mode train)."""
        return len(self._train)

    def can_accept(self) -> bool:
        """True if :meth:`send` would enqueue rather than drop."""
        if self.queue_limit is None:
            return True
        return len(self._queue) < self.queue_limit

    def send(self, packet: Any, force: bool = False) -> bool:
        """Offer a packet to the channel.

        Returns True if the packet was queued for transmission, False if it
        was dropped because the transmit queue is full.  ``force`` bypasses
        the queue limit — used for tiny control packets (markers, credits)
        that must not be lost to transient data backlog.
        """
        size = self.size_of(packet)
        stats = self.stats
        stats.offered_packets += 1
        stats.offered_bytes += size
        if (
            not force
            and self.queue_limit is not None
            and len(self._queue) >= self.queue_limit
        ):
            stats.queue_drops += 1
            if self.on_drop is not None:
                self.on_drop(packet, "queue_full")
            return False
        self._queue.append((packet, size))
        if not self._transmitting:
            self._kick()
        return True

    @property
    def paused(self) -> bool:
        """True while the transmitter is administratively paused."""
        return self._paused

    def pause(self) -> None:
        """Freeze the transmitter (a link outage that loses nothing).

        Queued packets stay queued and new sends keep enqueueing (or hit
        the queue limit — exactly the backpressure a stalled link exerts on
        the striping sender).  Packets already serialized keep propagating
        and are delivered normally.
        """
        self._paused = True

    def resume(self) -> None:
        """Unfreeze the transmitter and restart service of the queue."""
        if not self._paused:
            return
        self._paused = False
        if self._queue and not self._transmitting:
            self._kick()

    def send_burst(self, packets: Sequence[Any]) -> None:
        """Bulk-enqueue a batch the caller has already capacity-checked.

        The batched striper pump admits packets against the channel's free
        queue slots before calling this, so there is no per-packet drop
        check here.  Equivalent to ``send(p)`` for each packet.
        """
        queue = self._queue
        stats = self.stats
        size_of = self.size_of
        for packet in packets:
            size = size_of(packet)
            stats.offered_packets += 1
            stats.offered_bytes += size
            queue.append((packet, size))
        if not self._transmitting:
            self._kick()

    # ------------------------------------------------------------------ #
    # internal transmission pipeline

    def _kick(self) -> None:
        """Start transmitting: burst mode when eligible, else per-packet.

        Eligibility is re-evaluated at every transmission start, so a
        channel whose loss model goes quiescent mid-run (``stop_losses_at``
        zeroing the drop probability) upgrades to burst mode for the rest
        of the run, and vice versa.

        A burst is eligible when per-packet boundary work cannot observe
        anything.  Loss and corruption draws happen at per-packet
        transmission boundaries and may consume RNG state or see mutated
        probabilities, so any live model forces the classic pipeline.  A
        Bernoulli-style model with ``p == 0.0`` draws nothing, so it is
        safe to batch — note this assumes the probability is only ever
        *lowered* mid-run (the ``stop_losses_at`` pattern), never raised.
        """
        if self._paused:
            # The in-flight packet (if any) just completed; service of the
            # queue resumes only via :meth:`resume`.
            self._transmitting = False
            return
        loss = self.loss_model
        if (
            self.fast
            and self._queue
            and self.corruption is None
            and self.skew is None
            and (type(loss) is NoLoss or getattr(loss, "p", 1.0) == 0.0)
        ):
            self._start_burst()
        else:
            self._start_next()

    def _start_burst(self) -> None:
        """Serialize the whole queue back-to-back in one engine event.

        Times are accumulated with exactly the per-packet path's
        floating-point expressions (``tx = 8.0 * size / bandwidth`` chained
        by addition), so completion and arrival instants are bit-identical
        to ``_start_next``/``_tx_done`` chains over the same packets.
        """
        self._transmitting = True
        queue = self._queue
        sim = self.sim
        bandwidth = self.bandwidth_bps
        prop = self.prop_delay
        stats = self.stats
        train = self._train
        last_arrival = self._last_arrival
        busy = stats.busy_time
        t = sim.now
        count = len(queue)
        while queue:
            packet, size = queue.popleft()
            tx_time = (8.0 * size) / bandwidth
            busy += tx_time
            t += tx_time
            arrival = t + prop
            if arrival < last_arrival:
                arrival = last_arrival
            last_arrival = arrival
            train.append((arrival, packet, size))
        stats.busy_time = busy
        self._last_arrival = last_arrival
        self._offered_index += count
        sim.schedule_call(t, self._burst_done)
        if not self._train_armed:
            self._train_armed = True
            sim.schedule_call(train[0][0], self._run_train)

    def _burst_done(self) -> None:
        self._transmitting = False
        if self._queue:
            self._kick()
        if self.on_space is not None and (
            self.queue_limit is None or len(self._queue) < self.queue_limit
        ):
            self.on_space()

    def _run_train(self) -> Optional[float]:
        train = self._train
        # Armed for the head's arrival instant, and only this callback
        # pops the train: the head's stamp is the clock.
        now = train[0][0]
        stats = self.stats
        on_deliver = self.on_deliver
        while train and train[0][0] <= now:
            _, packet, size = train.popleft()
            stats.delivered_packets += 1
            stats.delivered_bytes += size
            if on_deliver is not None:
                on_deliver(packet)
        # Re-arm for the next distinct arrival instant by returning it
        # (the engine's re-arm contract); a delivery above may have
        # lengthened the train.
        if train:
            return train[0][0]
        self._train_armed = False
        return None

    def _start_next(self) -> None:
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet, size = self._queue.popleft()
        tx_time = (8.0 * size) / self.bandwidth_bps
        self.stats.busy_time += tx_time
        sim = self.sim
        sim.schedule_call(sim.now + tx_time, self._tx_done, packet, size)

    def _tx_done(self, packet: Any, size: int) -> None:
        index = self._offered_index
        self._offered_index += 1
        sim = self.sim
        stats = self.stats

        lost = self.loss_model.should_drop(index, size)
        corrupted = (
            not lost
            and self.corruption is not None
            and self.corruption.is_corrupted(size)
        )
        if lost:
            stats.lost_packets += 1
            if self.on_drop is not None:
                self.on_drop(packet, "loss")
        elif corrupted:
            stats.corrupted_packets += 1
            if self.on_drop is not None:
                self.on_drop(packet, "corruption")
        else:
            arrival = sim.now + self.prop_delay
            if self.skew is not None:
                extra = self.skew()
                if extra < 0:
                    extra = 0.0
                arrival += extra
            # Clamp so arrivals are non-decreasing: the channel is FIFO even
            # under dynamic skew (the paper's model, section 2).
            if arrival < self._last_arrival:
                arrival = self._last_arrival
            self._last_arrival = arrival
            sim.schedule_call(arrival, self._deliver, packet, size)

        # Restart the transmitter.  While ``_kick`` would pick the
        # per-packet pipeline again (its predicate, negated: live loss,
        # corruption or skew, or not fast), the next packet starts here.
        queue = self._queue
        loss = self.loss_model
        if queue and not self._paused and not (
            self.fast
            and self.corruption is None
            and self.skew is None
            and (type(loss) is NoLoss or getattr(loss, "p", 1.0) == 0.0)
        ):
            packet, size = queue.popleft()
            tx_time = (8.0 * size) / self.bandwidth_bps
            stats.busy_time += tx_time
            sim.schedule_call(sim.now + tx_time, self._tx_done, packet, size)
        else:
            self._kick()
        # The queue just shrank by one; tell the sender space is available.
        if self.on_space is not None and (
            self.queue_limit is None or len(queue) < self.queue_limit
        ):
            self.on_space()

    def _deliver(self, packet: Any, size: int) -> None:
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += size
        if self.on_deliver is not None:
            self.on_deliver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel {self.name} {self.bandwidth_bps / 1e6:.2f} Mbps "
            f"prop={self.prop_delay * 1e3:.2f} ms qlen={len(self._queue)}>"
        )


def _default_size(packet: Any) -> int:
    size = getattr(packet, "size", None)
    if size is None:
        raise TypeError(f"packet {packet!r} has no 'size' attribute")
    return int(size)
