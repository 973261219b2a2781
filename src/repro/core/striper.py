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
from repro.core.packet import MarkerPacket, Packet
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.sim.trace import NULL_TRACER, Tracer


@runtime_checkable
class ChannelPort(Protocol):
    """What the striper needs from one channel's sender side.

    Required surface::

        send(packet, force=False) -> bool   # enqueue for transmission
        can_accept() -> bool                # queue space for one more?
        queue_length -> int                 # packets queued (depth policies)

    Optional surface, detected by attribute presence:

    * ``send_burst(packets)`` + ``free_capacity() -> int`` — enables the
      batched pump (:class:`repro.transport.endpoint.FastStriper`).
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
        marker_size: bytes per marker packet on the wire.
    """

    interval_rounds: int = 1
    position: int = 0
    initial_markers: bool = True
    marker_size: int = 32

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
        on_marker: test hook invoked as ``on_marker(channel, marker)``
            after the marker is sent.

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
        on_marker: Optional[Callable[[int, MarkerPacket], None]] = None,
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
        self.on_marker = on_marker
        self.marker_decorator = marker_decorator
        self.tracer = tracer
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.input_queue: Deque[Any] = deque()
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
        identical — but a batched pump (``FastStriper``) sees the whole
        burst at once and can assign it in one kernel pass.
        """
        self.input_queue.extend(packets)
        self.pump()

    @property
    def backlog(self) -> int:
        """Packets waiting in the striper's input queue."""
        return len(self.input_queue)

    def can_send_now(self) -> bool:
        """True if the next packet's designated channel has queue space."""
        if not self.input_queue:
            return False
        if self._kernel is not None:
            channel = self._kernel.ptr
        else:
            channel = self.sharer.choose(
                self.input_queue[0], [p.queue_length for p in self.ports]
            )
        return self.ports[channel].can_accept()

    def pump(self) -> int:
        """Send as many queued packets as backpressure allows.

        Returns the number of data packets sent.  Called by the owner when
        a channel frees queue space.
        """
        if self.held:
            return 0
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        sent = 0
        kernel = self._kernel
        markers = self._markers_enabled
        trace = self.tracer.enabled
        while self.input_queue:
            packet = self.input_queue[0]
            if kernel is not None:
                # Causal policy: the kernel's pointer *is* the choice; no
                # need to materialize queue depths it cannot look at.
                channel = kernel.ptr
            else:
                depths = [p.queue_length for p in self.ports]
                channel = self.sharer.choose(packet, depths)
            port = self.ports[channel]
            if not port.can_accept():
                break  # must wait: causality forbids sending elsewhere
            self.input_queue.popleft()
            if markers:
                old_ptr, old_round = kernel.ptr, kernel.round_number
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
            if markers:
                self._check_marker_crossing(old_ptr, old_round)
        return sent

    # ------------------------------------------------------------------ #
    # marker machinery

    def _check_marker_crossing(self, old_ptr: int, old_round: int) -> None:
        """Emit markers if the pointer advanced into the policy position.

        A single step can hop several channels (deep overdraw skipping), so
        we walk the pointer path from ``(old_ptr, old_round)`` to the
        kernel's live position and count every entry into ``position``.
        """
        kernel = self._kernel
        policy = self.marker_policy
        assert kernel is not None and policy is not None
        new_ptr, new_round = kernel.ptr, kernel.round_number
        if old_ptr == new_ptr and old_round == new_round:
            return
        n = kernel.n_channels
        position = policy.position % n
        crossings = 0
        ptr, rnd = old_ptr, old_round
        while (ptr, rnd) != (new_ptr, new_round):
            ptr += 1
            if ptr == n:
                ptr = 0
                rnd += 1
            if ptr == position:
                crossings += 1
            if rnd > new_round:  # safety: should never happen
                break
        for _ in range(crossings):
            self._crossings_seen += 1
            if self._crossings_seen % policy.interval_rounds == 0:
                self._emit_markers()

    def _emit_markers(self) -> None:
        """Send one marker per channel with its next implicit number."""
        kernel = self._kernel
        policy = self.marker_policy
        assert kernel is not None and policy is not None
        trace = self.tracer.enabled
        size = policy.marker_size
        decorator = self.marker_decorator
        on_marker = self.on_marker
        ports = self.ports
        for channel, (round_number, deficit) in enumerate(
            kernel.next_numbers()
        ):
            marker = MarkerPacket(channel, round_number, deficit, size)
            if decorator is not None:
                decorator(channel, marker)
            ports[channel].send(marker, True)
            self.markers_sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "marker",
                    channel=channel, r=round_number, d=deficit,
                )
            if on_marker is not None:
                on_marker(channel, marker)

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
        next :meth:`pump`."""
        self.sharer.restore(state["sharer"])
        self.packets_sent = state["packets_sent"]
        self.bytes_sent = state["bytes_sent"]
        self.markers_sent = state["markers_sent"]
        self._crossings_seen = state["crossings"]
        self._initial_markers_pending = state["initial_markers"]
        self.input_queue.clear()
        self.input_queue.extend(state["queue"])


class ListPort:
    """A trivial in-memory channel port: records everything sent.

    Used by offline tests and the Figure 3/6 reproductions, where no
    event-driven timing is needed.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.sent: List[Any] = []
        self.limit = limit

    def send(self, packet: Any, force: bool = False) -> bool:
        if not force and self.limit is not None and len(self.sent) >= self.limit:
            return False
        self.sent.append(packet)
        return True

    def can_accept(self) -> bool:
        return self.limit is None or len(self.sent) < self.limit

    @property
    def queue_length(self) -> int:
        return len(self.sent)

    def data_packets(self) -> List[Packet]:
        return [p for p in self.sent if isinstance(p, Packet)]
