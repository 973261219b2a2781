"""Unit tests for the session fabric: flow table, weighted DRR, interop.

Covers the flow registry (weight resolution, O(1) lookups), the
FabricScheduler's DRR semantics (visit crediting, rotation, mid-visit
pause under a closed downstream gate, snapshot/restore), the per-flow
backpressure contract against PR-5's reliable mode (a stalled flow must
neither block siblings nor leak shared window slots), and the 512-flow
fairness smoke run backing ``make fabric-smoke``; and the logarithmic
tenant-weight policy, defined here with its test, its only user.
"""

from collections import deque
import math
from typing import Any, Dict, List, Mapping, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort


def pkt(size: int = 100, **kwargs) -> Packet:
    return Packet(size=size, **kwargs)


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


class TestFlowTable:
    def test_weight_resolution_explicit_beats_tenant_beats_default(self):
        table = FlowTable(
            tenant_weights={"gold": 4.0},
            quantum_bytes=100.0,
        )
        assert table.register("a", weight=9.0, tenant="gold").weight == 9.0
        assert table.register("b", tenant="gold").weight == 4.0
        assert table.register("c", tenant="unknown").weight == 1.0
        assert table.register("d").weight == 1.0
        # quantum scales with the resolved weight
        assert table["b"].quantum == 400.0

    def test_duplicate_and_invalid_registration(self):
        table = FlowTable()
        table.register("a")
        with pytest.raises(ValueError):
            table.register("a")
        with pytest.raises(ValueError):
            table.register("b", weight=0.0)

    def test_lookup_remove_and_tenant_totals(self):
        table = FlowTable(tenant_weights={"t1": 2.0})
        table.register("a", tenant="t1")
        table.register("b", tenant="t2")
        assert "a" in table and table.get("missing") is None
        assert len(table) == 2
        table["a"].serviced_bytes = 300
        table["b"].serviced_bytes = 100
        totals = {}
        for flow in table:
            totals[flow.tenant] = totals.get(flow.tenant, 0) + flow.serviced_bytes
        assert totals == {"t1": 300, "t2": 100}

    def test_logarithmic_tenant_weights(self):
        weights = logarithmic_tenant_weights({"big": 7, "small": 1, "none": 0})
        assert weights["none"] == 1.0
        assert weights["small"] == 2.0  # 1 + log2(2)
        assert weights["big"] == 4.0  # 1 + log2(8)
        # sublinear: 7x the flows buys 2x the weight, not 7x
        assert weights["big"] / weights["small"] < 7


class TestFabricScheduler:
    def drain_setup(self, **kwargs):
        table = FlowTable(quantum_bytes=100.0)
        fabric = FabricScheduler(table, **kwargs)
        out: List[Packet] = []
        fabric.bind(out.append)
        return table, fabric, out

    def test_weighted_service_order(self):
        table, fabric, out = self.drain_setup()
        table.register("w1", weight=1.0)
        table.register("w2", weight=2.0)
        gate_open = [False]
        fabric.bind(out.append, ready=lambda: gate_open[0])
        for k in range(6):
            fabric.submit("w1", pkt(100, label=f"a{k}"))
            fabric.submit("w2", pkt(100, label=f"b{k}"))
        gate_open[0] = True
        fabric.pump()
        # per DRR lap: one packet from w1, two from w2
        assert [p.label for p in out][:6] == ["a0", "b0", "b1", "a1", "b2",
                                              "b3"]

    def test_flow_stamping_and_stats(self):
        table, fabric, out = self.drain_setup()
        fabric.submit("f", pkt(100))
        assert out[0].flow == "f"
        flow = table["f"]  # auto-registered
        assert flow.submitted_packets == flow.serviced_packets == 1
        assert fabric.stats.packets_scheduled == 1
        assert fabric.stats.bytes_scheduled == 100

    def test_per_flow_backpressure_is_isolated(self):
        table, fabric, out = self.drain_setup(flow_buffer_packets=2)
        fabric.bind(out.append, ready=lambda: False)  # nothing drains
        for _ in range(5):
            fabric.submit("full", pkt())
        assert not fabric.can_submit("full")
        assert fabric.can_submit("other")  # sibling unaffected
        assert table["full"].backlog == 2
        assert table["full"].refusals == 3
        assert fabric.stats.refusals == 3

    def test_mid_visit_pause_resumes_in_place(self):
        table, fabric, out = self.drain_setup()
        table.register("x", weight=2.0)  # quantum 200 = two packets/visit
        table.register("y", weight=1.0)
        budget = [0]

        def gate():
            return budget[0] > 0

        def downstream(packet):
            out.append(packet)
            budget[0] -= 1

        fabric.bind(downstream, ready=gate)
        for k in range(4):
            fabric.submit("x", pkt(100, label=f"x{k}"))
            fabric.submit("y", pkt(100, label=f"y{k}"))
        budget[0] = 1
        fabric.pump()
        # x's visit paused mid-way: one of its two packets went out.
        assert [p.label for p in out] == ["x0"]
        budget[0] = 100
        fabric.pump()
        # The resumed pump finishes x's visit (no re-credit) then proceeds
        # in the same lap order.
        assert [p.label for p in out][:6] == ["x0", "x1", "y0", "x2", "x3",
                                              "y1"]

    def test_snapshot_restore_roundtrip(self):
        table, fabric, out = self.drain_setup()
        table.register("a", weight=1.5)
        table.register("b", weight=1.0)
        gate_open = [True]
        fabric.bind(out.append, ready=lambda: gate_open[0])
        gate_open[0] = False
        for k in range(4):
            fabric.submit("a", pkt(100, label=f"a{k}"))
            fabric.submit("b", pkt(100, label=f"b{k}"))
        gate_open[0] = True
        budget_pump = fabric.pump()
        assert budget_pump > 0
        snap = fabric.snapshot()

        # Drain the original to completion and record the tail order.
        gate_open[0] = True
        fabric.pump()
        tail_a = [p.label for p in out[budget_pump:]]

        # Rebuild the same queues, restore the snapshot, drain again: the
        # tail must replay identically.
        table2 = FlowTable(quantum_bytes=100.0)
        fabric2 = FabricScheduler(table2)
        out2: List[Packet] = []
        closed = [True]
        fabric2.bind(out2.append, ready=lambda: not closed[0])
        table2.register("a", weight=1.5)
        table2.register("b", weight=1.0)
        for k in range(4):
            fabric2.submit("a", pkt(100, label=f"a{k}"))
            fabric2.submit("b", pkt(100, label=f"b{k}"))
        # Fast-forward: drop the packets the original already serviced.
        for packet in out[:budget_pump]:
            assert fabric2.take_head(packet.flow).label == packet.label
        fabric2.restore(snap)
        closed[0] = False
        fabric2.pump()
        assert [p.label for p in out2] == tail_a

    def test_restore_unknown_flow_rejected(self):
        _, fabric, _ = self.drain_setup()
        fabric.submit("a", pkt())
        snap = fabric.snapshot()
        other = FabricScheduler(FlowTable())
        with pytest.raises(ValueError):
            other.restore(snap)


class PerPacketDRR:
    """Weighted DRR that asks its gate before every packet: the reference.

    Written from the algorithm, not from :class:`FabricScheduler`: one
    permit moves one packet, and a visit whose flow can send nothing more
    is closed before the permits are looked at again.
    """

    def __init__(self, quanta: Dict[str, float]) -> None:
        self.quantum = dict(quanta)
        self.queue: Dict[str, deque] = {f: deque() for f in quanta}
        self.deficit = dict.fromkeys(quanta, 0.0)
        self.visits = dict.fromkeys(quanta, 0)
        self.serviced_packets = dict.fromkeys(quanta, 0)
        self.serviced_bytes = dict.fromkeys(quanta, 0)
        self.active: deque = deque()
        self.head_credited = False
        self.out: List[int] = []

    def submit(self, flow: str, label: int, size: int) -> None:
        self.queue[flow].append((label, size))
        if flow not in self.active:
            self.active.append(flow)

    def pump(self, permits: int) -> None:
        while self.active and permits > 0:
            flow = self.active[0]
            if not self.head_credited:
                self.deficit[flow] += self.quantum[flow]
                self.head_credited = True
            queue = self.queue[flow]
            while queue and queue[0][1] <= self.deficit[flow]:
                if permits <= 0:
                    return  # mid-visit pause
                label, size = queue.popleft()
                permits -= 1
                self.deficit[flow] -= size
                self.serviced_packets[flow] += 1
                self.serviced_bytes[flow] += size
                self.out.append(label)
            self.head_credited = False
            self.visits[flow] += 1
            self.active.popleft()
            if queue:
                self.active.append(flow)
            else:
                self.deficit[flow] = 0.0

    def state(self):
        return (
            {
                f: (
                    self.deficit[f], self.visits[f],
                    self.serviced_packets[f], self.serviced_bytes[f],
                )
                for f in self.quantum
            },
            tuple(self.active),
            self.head_credited,
        )


def fabric_state(fabric: FabricScheduler):
    return (
        {
            f.flow_id: (
                f.deficit, f.visits, f.serviced_packets, f.serviced_bytes
            )
            for f in fabric.table
        },
        tuple(f.flow_id for f in fabric._active),
        fabric._head_credited,
    )


def permits_of(rooms) -> int:
    """Packets a drain may move when its gate answers ``rooms`` in turn."""
    total = 0
    for room in rooms:
        if int(room) <= 0:
            break
        total += int(room)
    return total


ROOMS = st.lists(
    st.sampled_from([0, 1, 2, 3, 7, True, False]), min_size=1, max_size=4
)
WEIGHTS = st.lists(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]), min_size=1, max_size=5
)
SIZES = st.sampled_from([40, 100, 150, 250, 400])


@st.composite
def drain_scripts(draw):
    weights = draw(WEIGHTS)
    flows = st.integers(0, len(weights) - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"), flows, SIZES),
                st.tuples(st.just("pump"), ROOMS),
                st.tuples(st.just("snapshot")),
            ),
            max_size=60,
        )
    )
    return weights, ops


class TestBatchedDrainMatchesPerPacket:
    """The batch the room count cuts is invisible in the service order."""

    @given(script=drain_scripts(), batched=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_rooms_and_snapshots(self, script, batched):
        weights, ops = script
        table = FlowTable(quantum_bytes=100.0)
        fabric = FabricScheduler(
            table, flow_buffer_packets=None
        )
        names = [f"f{i}" for i in range(len(weights))]
        for name, weight in zip(names, weights):
            table.register(name, weight=weight)
        reference = PerPacketDRR(
            {n: 100.0 * w for n, w in zip(names, weights)}
        )
        out: List[int] = []
        rooms: List = []  # what the gate answers next; empty reads closed

        def ready():
            return rooms.pop(0) if rooms else 0

        fabric.bind(
            lambda p: out.append(p.label),
            ready=ready,
            downstream_many=(
                (lambda ps: out.extend(p.label for p in ps))
                if batched else None
            ),
        )
        label = 0
        for op in ops + [("pump", [10**6])]:
            if op[0] == "submit":
                _, flow, size = op
                fabric.submit(names[flow], pkt(size, label=label))
                reference.submit(names[flow], label, size)
                label += 1
            elif op[0] == "pump":
                rooms[:] = op[1]
                fabric.pump()
                reference.pump(permits_of(op[1]))
                rooms.clear()
            else:
                # Scramble everything a snapshot covers, then restore it.
                snap = fabric.snapshot()
                for flow in table:
                    flow.deficit += 17.0
                    flow.visits += 3
                fabric._active.rotate(1)
                fabric._head_credited = not fabric._head_credited
                fabric.restore(snap)
            assert out == reference.out
            assert fabric_state(fabric) == reference.state()
        assert len(out) == label and not any(flow.backlog for flow in fabric.table)

    @given(
        weights=WEIGHTS,
        demand=st.lists(st.tuples(st.integers(0, 4), SIZES), max_size=80),
        window=st.integers(1, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_arq_window_smaller_than_backlog_limit(
        self, weights, demand, window
    ):
        """Two channels give a backlog limit of 8; the window is smaller,
        so it is the window that sizes every batch.  Nothing may be parked
        behind it, and the order is still the DRR order."""
        names = [f"f{i}" for i in range(len(weights))]
        table = FlowTable(quantum_bytes=200.0)
        fabric = FabricScheduler(
            table, flow_buffer_packets=None
        )
        reference = PerPacketDRR(
            {n: 200.0 * w for n, w in zip(names, weights)}
        )
        for name, weight in zip(names, weights):
            table.register(name, weight=weight)
        # Unbound, the fabric only queues: the whole demand is in the
        # per-flow queues before the pipeline's gate first answers.
        for label, (flow, size) in enumerate(demand):
            name = names[flow % len(names)]
            fabric.submit(name, pkt(size, payload=label))
            reference.submit(name, label, size)
        reference.pump(len(demand))

        sim = Simulator()
        rig = ReliableFabricRig(
            sim, fabric=fabric,
            reliability_options={"window_packets": window},
        )
        rig.sender.pump()
        sim.run(until=5.0)
        assert rig.delivered == reference.out
        arq = rig.sender.reliable
        assert arq.stats.backpressure_stalls == 0 and not arq.unacked
        assert arq.stats.submitted == len(demand)


class ReliableFabricRig:
    """Two channels, reliable mode, a fabric with a small per-flow cap."""

    def __init__(
        self,
        sim: Simulator,
        flow_buffer_packets: int = 4,
        fabric: FabricScheduler = None,
        reliability_options: dict = None,
    ) -> None:
        self.sim = sim
        self.channels = [
            Channel(sim, bandwidth_bps=8e6, prop_delay=0.5e-3,
                    queue_limit=32, name=f"ch{i}")
            for i in range(2)
        ]
        ports = [FastChannelPort(ch) for ch in self.channels]
        quanta = [200.0, 200.0]
        self.fabric = fabric if fabric is not None else FabricScheduler(
            FlowTable(quantum_bytes=200.0),
            flow_buffer_packets=flow_buffer_packets,
        )
        self.sender = StripeSenderPipeline(
            ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
            marker_keepalive_s=0.02,
            reliability="reliable",
            reliability_options=reliability_options,
            fabric=self.fabric,
        )
        self.delivered: List[Tuple[str, int]] = []
        self.receiver = StripeReceiverPipeline(
            2,
            SRR(quanta),
            mode="marker",
            on_message=lambda p: self.delivered.append(p.payload),
            sim=sim,
            reliability="reliable",
            send_ack=lambda sack: sim.schedule(
                0.5e-3, self.sender.on_ack, sack
            ),
        )
        for index, channel in enumerate(self.channels):
            channel.on_deliver = self.receiver.channel_handler(index)
            channel.on_space = self.sender.pump


class TestReliableInterop:
    """Satellite 6: per-flow backpressure vs the PR-5 reliable mode."""

    def test_stalled_flow_blocks_neither_siblings_nor_window(self):
        sim = Simulator()
        rig = ReliableFabricRig(sim, flow_buffer_packets=4)
        sender = rig.sender

        # Flow A floods far beyond its 4-packet fabric queue in one burst
        # (an aggressive tenant); flow B trickles alongside.
        a_accepted = sum(
            1 if sender.submit("A", pkt(200, payload=("A", k))) else 0
            for k in range(200)
        )
        assert a_accepted < 200, "the flow cap never engaged"
        assert not sender.can_submit(flow_id="A")  # A is backpressured...
        assert sender.can_submit(flow_id="B")  # ...B is not

        b_sent = 0

        def trickle():
            nonlocal b_sent
            if b_sent >= 50:
                return
            # B honors its own (open) gate, never consults A's.
            if sender.can_submit(flow_id="B"):
                assert sender.submit("B", pkt(200, payload=("B", b_sent)))
                b_sent += 1
            sim.schedule(1e-3, trickle)

        sim.schedule_at(0.0, trickle)
        sim.run(until=0.5)

        # Every accepted packet of both flows arrived exactly once.
        a_delivered = [k for f, k in rig.delivered if f == "A"]
        b_delivered = [k for f, k in rig.delivered if f == "B"]
        assert b_sent == 50 and b_delivered == list(range(50)), (
            "the stalled flow A throttled its sibling B"
        )
        assert a_delivered == list(range(a_accepted))

        # No leaked window slots: the ARQ window fully drained, and the
        # refusals were absorbed by the fabric, not the shared window.
        arq = sender.reliable
        assert not arq.unacked and not arq.backlog
        assert rig.fabric.table["A"].refusals == 200 - a_accepted
        assert not any(flow.backlog for flow in rig.fabric.table)

    def test_window_reopen_refills_from_fabric(self):
        sim = Simulator()
        rig = ReliableFabricRig(sim, flow_buffer_packets=256)
        sender = rig.sender
        for k in range(150):
            sender.submit("A", pkt(200, payload=("A", k)))
        # More packets were queued than the downstream (ARQ window +
        # striper backlog gate) accepted up front: completing the run
        # requires the window-open / port-space pumps to keep refilling
        # from the fabric queues.
        assert 0 < len(sender.reliable.unacked) <= 64
        assert any(flow.backlog for flow in rig.fabric.table)
        sim.run(until=1.0)
        assert [k for f, k in rig.delivered] == list(range(150))
        assert not sender.reliable.unacked


class TestFabricSmoke:
    """The 512-flow quick fairness run behind ``make fabric-smoke``."""

    def test_512_flows_fair_within_tenants(self):
        from repro.experiments.fabric import run_fabric

        result = run_fabric(n_flows=512)
        assert result.delivered_packets == result.total_packets
        assert result.jain_min >= 0.95, result.render()
        assert result.max_share_error <= 0.10, result.render()
