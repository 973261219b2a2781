"""Receiver host CPU and interrupt model.

Section 6.2 of the paper explains the Figure 15 throughput ceiling:

    "With a single interface under heavy load, multiple packets can be
    received in a single interrupt routine.  This effect is less pronounced
    with striping, where interrupts are received from multiple interfaces.
    Consequently, there is a significant increase in the number of
    interrupts, and correspondingly in the processing overhead."

We model exactly that mechanism.  Each NIC has a receive queue
(:class:`NicQueue`).  When a packet arrives on an idle NIC, the NIC raises an
interrupt; the CPU services interrupts in FIFO order.  Servicing an interrupt
costs ``per_interrupt_cost`` plus ``per_packet_cost`` for every packet
drained from that NIC's queue *at service time* — so a heavily loaded single
interface amortizes the interrupt cost over a large batch, while the same
aggregate rate split across several interfaces produces more interrupts with
smaller batches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

from repro.sim.engine import Simulator


class NicQueue:
    """Receive-side queue of one network interface.

    Packets delivered by the channel land here and wait for the host CPU to
    process them.  ``queue_limit`` models receive-ring exhaustion: arrivals
    beyond the limit are dropped (counted in ``drops``).
    """

    #: ring size; None (the default) is unbounded
    queue_limit: Optional[int] = None

    def __init__(self, name: str, cpu: "HostCPU") -> None:
        self.name = name
        self.cpu = cpu
        self.queue: Deque[Any] = deque()
        self.interrupt_pending = False
        self.drops = 0
        self.interrupts = 0

    def enqueue(self, packet: Any) -> bool:
        """Packet arrival from the wire.  Returns False if the ring was full."""
        if self.queue_limit is not None and len(self.queue) >= self.queue_limit:
            self.drops += 1
            return False
        self.queue.append(packet)
        if not self.interrupt_pending:
            self.interrupt_pending = True
            self.interrupts += 1
            self.cpu._post_interrupt(self)
        return True


class HostCPU:
    """A single CPU servicing NIC interrupts.

    Args:
        sim: the event engine.
        per_packet_cost: seconds of CPU time to process one received packet
            (header parsing, demux, copy).
        per_interrupt_cost: fixed seconds of CPU time per interrupt
            (context switch, handler entry/exit).
        max_batch: ring-DMA budget, packets drained per interrupt (None:
            unbounded).

    :attr:`on_packet` is invoked (in simulated time) when the CPU finishes
    processing a packet — this hands the packet to the protocol stack.
    """

    def __init__(
        self,
        sim: Simulator,
        per_packet_cost: float,
        per_interrupt_cost: float,
        max_batch: Optional[int],
    ) -> None:
        if per_packet_cost < 0 or per_interrupt_cost < 0:
            raise ValueError("CPU costs must be non-negative")
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.sim = sim
        self.per_packet_cost = per_packet_cost
        self.per_interrupt_cost = per_interrupt_cost
        self.on_packet: Optional[Callable[[Any, str], None]] = None
        #: ring-DMA budget: at most this many packets drained per interrupt;
        #: the remainder re-raises the interrupt.  This bounds coalescing
        #: gains, so an aggregate load sharing one CPU saturates where two
        #: separately measured loads would not (Figure 15's flattening).
        self.max_batch = max_batch
        self.busy = False
        self.busy_time = 0.0
        self.total_interrupts = 0
        self.total_packets = 0
        self._pending: Deque[NicQueue] = deque()

    def new_nic(self, name: str) -> NicQueue:
        """Create a NIC receive queue attached to this CPU."""
        return NicQueue(name, self)

    # ------------------------------------------------------------------ #

    def _post_interrupt(self, nic: NicQueue) -> None:
        self._pending.append(nic)
        if not self.busy:
            self._service_next()

    def _service_next(self) -> None:
        if not self._pending:
            self.busy = False
            return
        self.busy = True
        nic = self._pending.popleft()
        # Drain the batch present at service time (interrupt coalescing),
        # bounded by the ring-DMA budget; packets arriving during service
        # raise a fresh interrupt because interrupt_pending is cleared.
        if self.max_batch is None or len(nic.queue) <= self.max_batch:
            batch = list(nic.queue)
            nic.queue.clear()
            nic.interrupt_pending = False
        else:
            batch = [nic.queue.popleft() for _ in range(self.max_batch)]
            # Budget exhausted with work left: the NIC immediately re-raises.
            self._pending.append(nic)
            nic.interrupts += 1
        self.total_interrupts += 1
        self.total_packets += len(batch)
        cost = self.per_interrupt_cost + self.per_packet_cost * len(batch)
        self.busy_time += cost
        self.sim.schedule(cost, self._finish_batch, nic.name, batch)

    def _finish_batch(self, nic_name: str, batch: List[Any]) -> None:
        if self.on_packet is not None:
            for packet in batch:
                self.on_packet(packet, nic_name)
        self._service_next()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the CPU spent in interrupt handlers."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


@dataclass
class Outage:
    """One completed (or still-open) endpoint outage window."""

    target: str
    down_at: float
    up_at: float = -1.0

    @property
    def open(self) -> bool:
        return self.up_at < 0


class EndpointCrashController:
    """Kill and restart whole endpoints mid-run (``endpoint_crash`` faults).

    The paper's crash story is a reset: "We deal with sender or receiver
    node crashes by doing a reset."  This controller models the node
    itself: at ``crash(target)`` the endpoint object is torn down via the
    rig-supplied ``kill_*`` callable (cancelling its timers — a dead host
    takes no further actions, but packets already handed to the channels
    stay in flight, they are *in the network*); at ``restart(target)`` the
    ``build_*`` callable reconstructs a fresh incarnation, typically from
    its last :mod:`repro.transport.recovery` checkpoint.

    The controller is deliberately ignorant of endpoint internals: the
    rig owns construction, teardown, and rewiring (its stable per-channel
    dispatchers must be installed *before* fault injectors wrap
    ``channel.on_deliver``, so a rebuilt endpoint swaps in behind the
    injector, never over it).

    Crash/restart are idempotent per target — overlapping schedules
    collapse into one outage window.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        kill_sender: Callable[[], None],
        build_sender: Callable[[], None],
        kill_receiver: Callable[[], None],
        build_receiver: Callable[[], None],
    ) -> None:
        self.sim = sim
        self._kill = {"sender": kill_sender, "receiver": kill_receiver}
        self._build = {"sender": build_sender, "receiver": build_receiver}
        self.alive = {"sender": True, "receiver": True}
        self.outages: List[Outage] = []
        self._open: dict = {}
        self.crashes = {"sender": 0, "receiver": 0}
        self.restarts = {"sender": 0, "receiver": 0}

    def crash(self, target: str) -> None:
        """Destroy ``target`` now (no-op if it is already down)."""
        if target not in self.alive:
            raise ValueError(f"unknown crash target {target!r}")
        if not self.alive[target]:
            return
        self.alive[target] = False
        self.crashes[target] += 1
        outage = Outage(target=target, down_at=self.sim.now)
        self.outages.append(outage)
        self._open[target] = outage
        self._kill[target]()

    def restart(self, target: str) -> None:
        """Reconstruct ``target`` now (no-op if it is already up)."""
        if target not in self.alive:
            raise ValueError(f"unknown crash target {target!r}")
        if self.alive[target]:
            return
        self._build[target]()
        self.alive[target] = True
        self.restarts[target] += 1
        outage = self._open.pop(target, None)
        if outage is not None:
            outage.up_at = self.sim.now

    @property
    def total_crashes(self) -> int:
        return sum(self.crashes.values())
