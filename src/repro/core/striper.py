"""The event-driven sender: stripe an input stream across channel ports.

The :class:`Striper` connects three things:

* an input FIFO of data packets from the upper layer,
* a :class:`~repro.core.transform.LoadSharer` policy deciding, in input
  order, which channel each packet goes to,
* N *channel ports* (anything with ``send``/``can_accept``) with finite
  transmit queues.

Backpressure semantics are the crux: a causal policy commits to the channel
of the next packet *before* sending it, so if that channel's queue is full
the sender must **wait** — it may not reorder around the full queue.  This
is what makes plain round robin collapse to the slowest channel's rate in
Figure 15, and it is faithfully what a kernel implementation does (the
driver queue fills and the upper layer blocks).

Because that choice never looks at the packet (Theorem 3.1), an SRR-family
policy's pump assigns a whole burst in one kernel pass
(:meth:`~repro.core.kernel.SRRKernel.assign_admitted`) and hands each port
its share at once; policies that pick from live queue depths are asked
packet by packet.

The striper also hosts the :class:`MarkerScheduler` (section 5): every
``interval`` rounds, at a configurable position within the round, it
injects one marker per channel carrying that channel's next implicit packet
number ``(r, d)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.kernel import SRRKernel
from repro.core.packet import MarkerPacket
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.sim.trace import NULL_TRACER, Tracer


@runtime_checkable
class ChannelPort(Protocol):
    """What the striper needs from one channel's sender side.

    Required surface::

        send(packet, force=False) -> bool   # enqueue for transmission
        can_accept() -> bool                # queue space for one more?
        queue_length -> int                 # packets waiting now, not yet
                                            # transmitted (depth policies,
                                            # stop/wake marks)

    Optional surface, detected by attribute presence:

    * ``free_capacity() -> int`` — queue slots a non-forced send could
      still fill; without it the port offers one slot while
      ``can_accept()`` is true.
    * ``send_burst(packets)`` — enqueue packets the pump has already
      admitted against ``free_capacity``; without it each packet goes
      through ``send``.
    * ``close()`` — release the underlying transport resource.
    * ``on_unblocked`` — a slot the endpoint pipeline fills with its pump
      so the port can resume a stalled sender (ARP resolution, credit
      arrival).
    """

    def send(self, packet: Any, force: bool = False) -> bool: ...

    def can_accept(self) -> bool: ...

    @property
    def queue_length(self) -> int: ...


@dataclass
class MarkerPolicy:
    """When and where markers are emitted (section 5, section 6.3).

    Attributes:
        interval_rounds: emit a marker batch every this many rounds; 0
            disables markers.
        position: emit when the round-robin pointer advances *into* this
            channel index.  Position 0 is the round boundary — the paper's
            "beginning or end of the round", found optimal in section 6.3.
        initial_markers: emit a batch before the first data packet, so the
            receiver starts synchronized even if it boots late.

    A marker is :attr:`~repro.core.packet.MarkerPacket.size` bytes on the
    wire, the codec's frame.
    """

    interval_rounds: int = 1
    position: int = 0
    initial_markers: bool = True

    def __post_init__(self) -> None:
        if self.interval_rounds < 0:
            raise ValueError("interval_rounds must be >= 0")
        if self.position < 0:
            raise ValueError("position must be >= 0")


class Striper:
    """Stripes an input packet stream across channel ports.

    Args:
        sharer: the striping policy.  If it is a
            :class:`TransformedLoadSharer` wrapping an :class:`SRR`-family
            algorithm and ``marker_policy`` is set, markers are emitted.
        ports: one sender port per channel.
        marker_policy: optional marker emission policy.
        marker_decorator: invoked as ``decorator(channel, marker)`` just
            before each marker is sent — the hook that lets reverse-path
            state (FCVC credits, §6.3) piggyback on markers.

    The upper layer calls :meth:`submit`; packets the currently selected
    channel cannot accept wait in the input queue, and the owner must call
    :meth:`pump` when a channel reports queue space (the sim wiring hooks
    ``channel.on_space`` to ``pump``).
    """

    #: while True :meth:`pump` sends nothing and submissions only queue —
    #: set by a session controller for the span of a reset, so nothing of
    #: the next epoch's stream is striped under the old epoch's state
    held = False

    def __init__(
        self,
        sharer: LoadSharer,
        ports: Sequence[ChannelPort],
        marker_policy: Optional[MarkerPolicy] = None,
        marker_decorator: Optional[Callable[[int, MarkerPacket], None]] = None,
        tracer: Tracer = NULL_TRACER,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if len(ports) != sharer.n_channels:
            raise ValueError(
                f"policy expects {sharer.n_channels} channels, got {len(ports)} ports"
            )
        self.sharer = sharer
        self.ports = list(ports)
        self.marker_policy = marker_policy
        self.marker_decorator = marker_decorator
        self.tracer = tracer
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.input_queue: Deque[Any] = deque()
        #: packets at the head of the input queue that :meth:`expedite`
        #: put there and no pass has sent yet
        self._expedited = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.markers_sent = 0
        #: the policy's scheduler kernel, when it has one (causal policies)
        self._kernel: Optional[SRRKernel] = None
        if isinstance(sharer, TransformedLoadSharer) and isinstance(
            sharer.kernel, SRRKernel
        ):
            self._kernel = sharer.kernel
        self._markers_enabled = (
            marker_policy is not None
            and marker_policy.interval_rounds > 0
            and self._kernel is not None
        )
        if marker_policy is not None and not self._markers_enabled:
            if marker_policy.interval_rounds > 0:
                raise ValueError(
                    "marker emission requires a TransformedLoadSharer "
                    "wrapping an SRR-family algorithm"
                )
        self._crossings_seen = 0
        self._initial_markers_pending = (
            self._markers_enabled and marker_policy.initial_markers
        )
        # Bound once: a striper's port list is fixed at construction.
        self._capacity = [_capacity_of(port) for port in self.ports]
        self._send_burst = [_send_burst_of(port) for port in self.ports]

    # ------------------------------------------------------------------ #
    # upper-layer API

    def submit(self, packet: Any) -> None:
        """Queue a data packet from the upper layer and try to send."""
        self.input_queue.append(packet)
        self.pump()

    def submit_many(self, packets: Any) -> None:
        """Queue a burst of data packets and pump once.

        Equivalent to ``submit(p)`` per packet — the pump drains greedily
        either way, so sends, marker points, and backpressure stops are
        identical — but the pump sees the whole burst at once and assigns
        it in one kernel pass.
        """
        self.input_queue.extend(packets)
        self.pump()

    def expedite(self, packets: Sequence[Any]) -> None:
        """Queue a burst ahead of everything waiting, except earlier
        expedited packets not yet sent, and pump.

        The entry for repairs of proven losses (RFC 6675's NextSeg): they
        leave before queued new data.  Only the queue order changes — the
        policy still assigns each packet one kernel step on the channel
        its pointer names when the packet reaches the head, so a receiver
        simulating this striper's kernel sees nothing different.
        """
        queue = self.input_queue
        ahead = self._expedited
        queue.rotate(-ahead)
        queue.extendleft(reversed(packets))
        queue.rotate(ahead)
        self._expedited = ahead + len(packets)
        self.pump()

    def withdraw(self, packet: Any) -> bool:
        """Take ``packet`` back out of the input queue before the policy
        assigns it a channel; True if it was queued.

        The queue is searched by identity, not ``==``: packets compare by
        contents, and an equal packet is another transmission.  A
        withdrawn packet was never assigned, so no kernel step, marker
        crossing or send counter saw it, and a receiver simulating this
        striper's kernel cannot tell it was ever queued.  A discipline
        that queues wrapped units (MPPP fragments, BONDING frames) never
        holds the packet itself, so nothing is found and its units go out.
        """
        queue = self.input_queue
        for index, queued in enumerate(queue):
            if queued is packet:
                del queue[index]
                if index < self._expedited:
                    self._expedited -= 1
                return True
        return False

    @property
    def backlog(self) -> int:
        """Packets waiting in the striper's input queue."""
        return len(self.input_queue)

    def pump(self) -> int:
        """Send as many queued packets as backpressure allows.

        Returns the number of data packets sent.  Called by the owner when
        a channel frees queue space.

        With an SRR kernel each pass is one
        :meth:`~repro.core.kernel.SRRKernel.assign_admitted` — one kernel
        step per packet sent, stopped where the pointer port has no room or
        a marker batch falls due — and one ``send_burst`` per channel.  A
        one-slot port (no ``free_capacity``) is visited at most once per
        pass, so it sees the calls the packet-at-a-time loop would make,
        except that the next channel's ``can_accept`` comes before the
        previous channel's ``send``.
        """
        if self.held:
            return 0
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        kernel = self._kernel
        if kernel is None:
            return self._pump_choosing()
        queue = self.input_queue
        if not queue:
            return 0
        capacity = self._capacity
        room = capacity[kernel.ptr]()
        if room <= 0:
            # Head-of-line: causality forbids sending anywhere but the
            # pointer channel, so no other port's room can matter.
            return 0
        send_burst = self._send_burst
        position, interval = -1, 0
        if self._markers_enabled:
            policy = self.marker_policy
            position = policy.position % len(self.ports)
            interval = policy.interval_rounds
        trace = self.tracer.enabled
        popleft = queue.popleft
        sent = 0
        while queue:
            # Stop the pass where the next marker batch falls due, so the
            # batch lands exactly between the packets it separates.
            seen = self._crossings_seen
            due = interval - seen % interval if interval else 0
            channels, crossings = kernel.assign_admitted(
                queue, capacity, position, due, room
            )
            room = None  # the next pass asks the pointer port itself
            bursts: Dict[int, List[Any]] = {}
            size = 0
            for channel in channels:
                packet = popleft()
                size += packet.size
                burst = bursts.get(channel)
                if burst is None:
                    bursts[channel] = [packet]
                else:
                    burst.append(packet)
                if trace:
                    self.tracer.emit(
                        self.clock(), "striper", "send",
                        channel=channel, size=packet.size,
                    )
            for channel, burst in bursts.items():
                send_burst[channel](burst)
            sent += len(channels)
            self.packets_sent += len(channels)
            if self._expedited:
                self._expedited = max(self._expedited - len(channels), 0)
            self.bytes_sent += size
            if crossings:
                self._crossings_seen = seen + crossings
                for _ in range(
                    (seen + crossings) // interval - seen // interval
                ):
                    self._emit_markers()
            if due and crossings >= due:
                continue  # the pass stopped for the marker batch
            if kernel.ptr not in bursts:
                # The pass stopped on a port it asked and found full (not
                # on one it filled, which the next pass asks again).
                break
        return sent

    def _pump_choosing(self) -> int:
        """The pump of a policy without an SRR kernel: ask it for each
        packet's channel from the live queue depths, one at a time."""
        sent = 0
        trace = self.tracer.enabled
        while self.input_queue:
            packet = self.input_queue[0]
            depths = [p.queue_length for p in self.ports]
            channel = self.sharer.choose(packet, depths)
            port = self.ports[channel]
            if not port.can_accept():
                break  # must wait: causality forbids sending elsewhere
            self.input_queue.popleft()
            if self._expedited:
                self._expedited -= 1
            port.send(packet)
            self.sharer.notify_sent(channel, packet)
            self.packets_sent += 1
            self.bytes_sent += getattr(packet, "size", 0)
            sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "send",
                    channel=channel, size=getattr(packet, "size", 0),
                )
        return sent

    # ------------------------------------------------------------------ #
    # marker machinery

    def _emit_markers(self) -> None:
        """Send one marker per channel with its next implicit number."""
        kernel = self._kernel
        assert kernel is not None
        trace = self.tracer.enabled
        decorator = self.marker_decorator
        ports = self.ports
        for channel, (round_number, deficit) in enumerate(
            kernel.next_numbers()
        ):
            marker = MarkerPacket(channel, round_number, deficit)
            if decorator is not None:
                decorator(channel, marker)
            ports[channel].send(marker, True)
            self.markers_sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "marker",
                    channel=channel, r=round_number, d=deficit,
                )

    def force_marker_batch(self) -> None:
        """Emit a marker batch now (used for time-based keepalive markers)."""
        if not self._markers_enabled:
            raise RuntimeError("markers are not enabled on this striper")
        self._emit_markers()

    # ------------------------------------------------------------------ #
    # checkpoint support (repro.transport.recovery)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-value capture: the policy state, the send counters, the
        marker crossings and initial-marker flag, and the input queue."""
        return {
            "sharer": self.sharer.snapshot(),
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "markers_sent": self.markers_sent,
            "crossings": self._crossings_seen,
            "initial_markers": self._initial_markers_pending,
            "queue": list(self.input_queue),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`snapshot` capture.  The input queue comes back
        as it was — the packets the layers above already stamped, parity
        and discipline frames included — and nothing is sent until the
        next :meth:`pump`.  Which of them :meth:`expedite` queued is not
        kept: the next expedited burst goes ahead of all of them."""
        self.sharer.restore(state["sharer"])
        self.packets_sent = state["packets_sent"]
        self.bytes_sent = state["bytes_sent"]
        self.markers_sent = state["markers_sent"]
        self._crossings_seen = state["crossings"]
        self._initial_markers_pending = state["initial_markers"]
        self.input_queue.clear()
        self.input_queue.extend(state["queue"])
        self._expedited = 0


def _capacity_of(port: ChannelPort) -> Callable[[], int]:
    """``port.free_capacity``, or one slot while ``port.can_accept()``."""
    free_capacity = getattr(port, "free_capacity", None)
    if free_capacity is not None:
        return free_capacity
    return lambda: 1 if port.can_accept() else 0


def _send_burst_of(port: ChannelPort) -> Callable[[List[Any]], Any]:
    """``port.send_burst``, or one ``send`` per packet."""
    send_burst = getattr(port, "send_burst", None)
    if send_burst is not None:
        return send_burst

    def send_each(packets: List[Any]) -> None:
        for packet in packets:
            port.send(packet)

    return send_each


class ListPort:
    """A trivial in-memory channel port: records everything sent.

    Used by offline tests and the Figure 3/6 reproductions, where no
    event-driven timing is needed.  Nothing drains it: :attr:`sent` is
    its queue, so its depth is everything it took (what a depth policy
    such as ``sqf`` reads), and a recovery-mode sender sets it no
    stop/wake marks, which would wait for a depth that never falls.
    """

    def __init__(self) -> None:
        self.sent: List[Any] = []

    def send(self, packet: Any, force: bool = False) -> bool:
        self.sent.append(packet)
        return True

    def can_accept(self) -> bool:
        return True

    @property
    def queue_length(self) -> int:
        return len(self.sent)
