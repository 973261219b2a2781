"""The multi-tenant session fabric: per-flow fair queuing above the striper.

The paper's duality (Theorem 3.1) says fair queuing and load sharing are
the same ``(s0, f, g)`` algorithm run in opposite directions.  This module
runs it in *both* directions at once, stacked:

* **above** the striper, a :class:`FabricScheduler` runs weighted Deficit
  Round Robin across per-flow queues (the fair-queuing direction — the
  non-causal :class:`repro.core.srr.DRR`, here in an active-list
  formulation that is O(1) amortized at 10k+ flows);
* **below**, the unchanged SRR striper spreads the merged stream across
  channels (the load-sharing direction).

So one bundle carries many flows: FQ across flows x SRR across channels.
The composition is loss-free in ordering terms — the bundle delivers the
*global* sender order, which contains each flow's order, so per-flow FIFO
needs no extra machinery (the same argument
:mod:`repro.experiments.multiflow` makes for TCP flows).

Weight policy: per-tenant weights come from the :class:`FlowTable`'s
tenant map.  Two of the related-work results motivate the shape of that
map: weighted fair packet scheduling gives each class a bandwidth share
proportional to its weight with a bounded per-visit deviation (the NoC
fair-packet-scheduling line of work), and logarithmic weight scaling keeps
a heavy tenant from starving light ones as its population grows (the
stochastic analysis of resource sharing with logarithmic weights) —
:func:`logarithmic_tenant_weights` implements that policy.

Backpressure is strictly per flow: each flow owns a bounded queue, and
:meth:`FabricScheduler.can_submit` goes False only for the flow whose
queue is full.  A stalled flow's surplus never reaches the downstream
ARQ window or the striper backlog, so it cannot head-of-line block its
siblings or leak shared window slots (the PR-5 interop requirement).

Fairness bound (the weighted-DRR analogue of Theorem 3.2): while a flow
stays backlogged, its serviced bytes after ``V`` completed visits differ
from ``V * quantum_i`` by less than one maximum packet — the deficit a
backlogged flow carries between visits is always smaller than its
head-of-line packet.  Property tests assert this bound simultaneously
with the per-channel Theorem 3.2 envelope below the striper.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)


def logarithmic_tenant_weights(
    populations: Mapping[Any, int], base: float = 2.0
) -> Dict[Any, float]:
    """Tenant weights growing logarithmically with tenant population.

    ``weight(t) = 1 + log_base(1 + n_t)``: a tenant with more flows gets a
    larger aggregate share, but sublinearly, so small tenants keep a
    usable floor — the regime the logarithmic-weights resource-sharing
    analysis shows is stable (see PAPERS.md).
    """
    if base <= 1.0:
        raise ValueError("base must be > 1")
    return {
        tenant: 1.0 + math.log(1 + max(0, int(count))) / math.log(base)
        for tenant, count in populations.items()
    }


class FlowState:
    """Per-flow scheduling state and statistics (one row of the table)."""

    __slots__ = (
        "flow_id", "tenant", "weight", "quantum", "queue", "deficit",
        "active", "visits", "submitted_packets", "submitted_bytes",
        "serviced_packets", "serviced_bytes", "refusals",
    )

    def __init__(
        self, flow_id: Any, weight: float, quantum: float, tenant: Any = None
    ) -> None:
        self.flow_id = flow_id
        self.tenant = tenant
        self.weight = weight
        #: DRR quantum: bytes of service credit banked per scheduler visit
        self.quantum = quantum
        self.queue: Deque[Any] = deque()
        self.deficit = 0.0
        self.active = False
        #: completed scheduler visits (the ``V`` of the fairness bound)
        self.visits = 0
        self.submitted_packets = 0
        self.submitted_bytes = 0
        self.serviced_packets = 0
        self.serviced_bytes = 0
        #: submissions refused because the flow's bounded queue was full
        self.refusals = 0

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:
        return (
            f"FlowState({self.flow_id!r}, w={self.weight}, "
            f"q={len(self.queue)}, sent={self.serviced_packets})"
        )


class FlowTable:
    """O(1) flow registry with per-tenant weight resolution.

    Args:
        tenant_weights: weight per tenant name; a flow registered under a
            tenant inherits its weight unless given one explicitly.
        default_weight: weight for flows with neither an explicit weight
            nor a weighted tenant.
        quantum_bytes: base DRR quantum; a flow's quantum is
            ``quantum_bytes * weight``.  For O(1)-amortized scheduling
            keep it >= the maximum packet size (Shreedhar & Varghese).
    """

    def __init__(
        self,
        tenant_weights: Optional[Mapping[Any, float]] = None,
        default_weight: float = 1.0,
        quantum_bytes: float = 1500.0,
    ) -> None:
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if quantum_bytes <= 0:
            raise ValueError("quantum_bytes must be positive")
        self.tenant_weights: Dict[Any, float] = dict(tenant_weights or {})
        self.default_weight = float(default_weight)
        self.quantum_bytes = float(quantum_bytes)
        self._flows: Dict[Any, FlowState] = {}

    def register(
        self,
        flow_id: Any,
        *,
        weight: Optional[float] = None,
        tenant: Any = None,
    ) -> FlowState:
        """Add a flow; weight resolves explicit > tenant > default."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} is already registered")
        if weight is None:
            weight = self.tenant_weights.get(tenant, self.default_weight)
        if weight <= 0:
            raise ValueError("flow weight must be positive")
        flow = FlowState(
            flow_id, float(weight), self.quantum_bytes * float(weight), tenant
        )
        self._flows[flow_id] = flow
        return flow

    def get(self, flow_id: Any) -> Optional[FlowState]:
        return self._flows.get(flow_id)

    def __getitem__(self, flow_id: Any) -> FlowState:
        return self._flows[flow_id]

    def __contains__(self, flow_id: Any) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowState]:
        return iter(self._flows.values())

    def remove(self, flow_id: Any) -> FlowState:
        """Drop a flow (its queued packets are discarded with it)."""
        flow = self._flows.pop(flow_id)
        flow.active = False
        return flow

    def snapshot(self) -> List[List[Any]]:
        """Plain-value capture of the registry: each flow's id, tenant,
        weight and queued packets.  Scheduling state is the scheduler's
        (:meth:`FabricScheduler.snapshot`)."""
        return [
            [flow.flow_id, flow.tenant, flow.weight, list(flow.queue)]
            for flow in self._flows.values()
        ]

    def restore(self, rows: List[List[Any]]) -> None:
        """Reinstall a :meth:`snapshot` capture: captured flows missing
        here are registered, and each captured queue replaces its flow's."""
        for flow_id, tenant, weight, queue in rows:
            flow = self._flows.get(flow_id)
            if flow is None:
                flow = self.register(flow_id, weight=weight, tenant=tenant)
            flow.queue.clear()
            flow.queue.extend(queue)

    def tenant_totals(self) -> Dict[Any, int]:
        """Serviced bytes aggregated per tenant (weighted-share audits)."""
        totals: Dict[Any, int] = {}
        for flow in self._flows.values():
            totals[flow.tenant] = (
                totals.get(flow.tenant, 0) + flow.serviced_bytes
            )
        return totals


@dataclass
class FabricStats:
    packets_scheduled: int = 0
    bytes_scheduled: int = 0
    #: submissions refused across all flows (bounded per-flow queues)
    refusals: int = 0


@dataclass(frozen=True)
class FabricSnapshot:
    """Scheduling state only — flow queues are the caller's to preserve.

    Mirrors the kernel snapshots (:class:`repro.core.srr.SRRState`): the
    ``(ptr, deficits)`` pair of :class:`repro.core.srr.DRR`
    generalized to the active list — per-flow ``(deficit, visits)`` plus
    the active ring order and whether the head flow has already banked
    this visit's quantum.
    """

    flows: Tuple[Tuple[Any, float, int], ...]  # (flow_id, deficit, visits)
    active_order: Tuple[Any, ...]
    head_credited: bool


class FabricScheduler:
    """Weighted DRR across registered flows, feeding one striper below.

    The scheduler is the fair-queuing direction of the CFQ transform run
    above the load-sharing direction: packets submitted per flow wait in
    per-flow queues; :meth:`pump` merges them in weighted-DRR order into
    the ``downstream`` callable (typically a
    :class:`~repro.transport.endpoint.StripeSenderPipeline`'s submit
    path), but only as many as ``ready()`` has room for — the hook
    through which the downstream ARQ window and striper backlog exert
    backpressure without ever holding fabric packets themselves.

    Active-list formulation (Shreedhar & Varghese): only backlogged flows
    are visited, so scheduling cost is O(1) amortized per packet
    regardless of how many of the 10k+ registered flows are idle.

    Args:
        table: the :class:`FlowTable` (one is created if omitted).
        flow_buffer_packets: per-flow queue bound; ``None`` = unbounded.
            A full flow refuses further submissions (``can_submit`` goes
            False for that flow only).
        auto_register: register unknown flow ids on first submit with
            table-default weight (experiments at fabric scale should not
            need 10k explicit register calls).
    """

    def __init__(
        self,
        table: Optional[FlowTable] = None,
        *,
        flow_buffer_packets: Optional[int] = 64,
        auto_register: bool = True,
    ) -> None:
        if flow_buffer_packets is not None and flow_buffer_packets < 1:
            raise ValueError("flow_buffer_packets must be >= 1 or None")
        self.table = table if table is not None else FlowTable()
        self.flow_buffer_packets = flow_buffer_packets
        self.auto_register = auto_register
        self.stats = FabricStats()
        self._active: Deque[FlowState] = deque()
        self._downstream: Optional[Callable[[Any], None]] = None
        self._downstream_many: Optional[Callable[[List[Any]], None]] = None
        self._ready: Optional[Callable[[], int]] = None
        self._head_credited = False
        self._pumping = False

    # ------------------------------------------------------------------ #
    # wiring

    def bind(
        self,
        downstream: Callable[[Any], None],
        ready: Optional[Callable[[], int]] = None,
        *,
        downstream_many: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        """Connect the drain: ``downstream(packet)`` gated by ``ready()``.

        ``ready()`` returns how many packets the downstream can take now;
        a bool gate works unchanged (True is room for one, False for
        none) and ``None`` means unlimited.  With ``downstream_many``
        each drained batch goes down as one list in service order
        instead of one ``downstream`` call per packet.
        """
        self._downstream = downstream
        self._downstream_many = downstream_many
        self._ready = ready

    def register(self, flow_id: Any, **kwargs: Any) -> FlowState:
        return self.table.register(flow_id, **kwargs)

    # ------------------------------------------------------------------ #
    # submission side

    def can_submit(self, flow_id: Any) -> bool:
        """Per-flow backpressure: False only while *this* flow's queue is
        full — a stalled sibling never shows through here."""
        flow = self.table.get(flow_id)
        if flow is None:
            return self.auto_register
        return (
            self.flow_buffer_packets is None
            or len(flow.queue) < self.flow_buffer_packets
        )

    def submit(self, flow_id: Any, packet: Any) -> bool:
        """Queue ``packet`` on its flow; returns False if refused (full).

        The packet's ``flow`` field is stamped with ``flow_id`` when unset,
        so receivers and experiments can demux per-flow without any
        fabric-side delivery machinery.
        """
        flow = self.table.get(flow_id)
        if flow is None:
            if not self.auto_register:
                raise KeyError(f"unknown flow {flow_id!r}")
            flow = self.table.register(flow_id)
        if (
            self.flow_buffer_packets is not None
            and len(flow.queue) >= self.flow_buffer_packets
        ):
            flow.refusals += 1
            self.stats.refusals += 1
            return False
        if getattr(packet, "flow", None) is None:
            try:
                packet.flow = flow_id
            except AttributeError:
                pass  # foreign packet types without a flow slot
        flow.queue.append(packet)
        flow.submitted_packets += 1
        flow.submitted_bytes += getattr(packet, "size", 0)
        if not flow.active:
            flow.active = True
            self._active.append(flow)
        self.pump()
        return True

    @property
    def backlog(self) -> int:
        """Packets waiting in per-flow queues (not yet handed downstream)."""
        return sum(len(flow.queue) for flow in self._active)

    @property
    def active_flows(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------ #
    # the weighted-DRR drain

    def pump(self) -> int:
        """Drain in weighted-DRR order, one batch per downstream room count.

        Semantics match :class:`repro.core.srr.DRR` over the
        backlogged flows: each visit banks the flow's quantum once, the
        flow sends while its head fits the deficit, an emptied flow
        forfeits its deficit and leaves the active list, a flow whose
        head no longer fits rotates to the tail carrying its deficit.

        ``ready()`` says how many packets the downstream has room for
        (a plain bool gate reads as 0 or 1).  Visits are walked until
        that room is spent and the packets go down as one batch; the
        gate is asked again after each batch.  The service order is a
        function of the deficits alone, so it does not depend on where
        the batches are cut.  Re-entrant calls (downstream submit can
        re-trigger port pumps) are folded into the outer drain.
        """
        if self._pumping or self._downstream is None:
            return 0
        active = self._active
        ready = self._ready
        sent = 0
        self._pumping = True
        try:
            while active:
                room = math.inf if ready is None else ready()
                if room <= 0:
                    break
                batch: List[Any] = []
                batch_bytes = 0
                while active and room > 0:
                    flow = active[0]
                    if not self._head_credited:
                        flow.deficit += flow.quantum
                        self._head_credited = True
                    queue = flow.queue
                    while (
                        queue
                        and getattr(queue[0], "size", 0) <= flow.deficit
                    ):
                        if room <= 0:
                            # Mid-visit pause: keep the head flow (and its
                            # banked quantum) in place so the next batch
                            # continues exactly where this one stopped.
                            break
                        packet = queue.popleft()
                        size = getattr(packet, "size", 0)
                        flow.deficit -= size
                        flow.serviced_packets += 1
                        flow.serviced_bytes += size
                        batch_bytes += size
                        batch.append(packet)
                        room -= 1
                    else:
                        # The visit is over: empty flows forfeit their
                        # deficit and deactivate; backlogged flows rotate
                        # to the tail with the remainder (always < their
                        # head packet's size).
                        self._head_credited = False
                        flow.visits += 1
                        active.popleft()
                        if queue:
                            active.append(flow)
                        else:
                            flow.deficit = 0.0
                            flow.active = False
                if not batch:
                    break  # only flows with nothing queued were active
                self.stats.packets_scheduled += len(batch)
                self.stats.bytes_scheduled += batch_bytes
                sent += len(batch)
                if self._downstream_many is not None:
                    self._downstream_many(batch)
                else:
                    downstream = self._downstream
                    for packet in batch:
                        downstream(packet)
        finally:
            self._pumping = False
        return sent

    # ------------------------------------------------------------------ #
    # snapshot / restore (session resets, duality tests)

    def snapshot(self) -> FabricSnapshot:
        return FabricSnapshot(
            flows=tuple(
                (f.flow_id, f.deficit, f.visits) for f in self.table
            ),
            active_order=tuple(f.flow_id for f in self._active),
            head_credited=self._head_credited,
        )

    def restore(self, snapshot: FabricSnapshot) -> None:
        """Reinstall scheduling state over the *current* flow queues."""
        for flow_id, deficit, visits in snapshot.flows:
            flow = self.table.get(flow_id)
            if flow is None:
                raise ValueError(f"snapshot names unknown flow {flow_id!r}")
            flow.deficit = deficit
            flow.visits = visits
        for flow in self.table:
            flow.active = False
        order: List[FlowState] = []
        for flow_id in snapshot.active_order:
            flow = self.table[flow_id]
            flow.active = True
            order.append(flow)
        self._active = deque(order)
        self._head_credited = snapshot.head_credited


__all__ = [
    "FabricScheduler",
    "FabricSnapshot",
    "FabricStats",
    "FlowState",
    "FlowTable",
    "logarithmic_tenant_weights",
]
