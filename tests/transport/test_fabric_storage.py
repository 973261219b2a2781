"""What a flow holds: per-flow storage exists only while the flow has
packets queued.

Pins the bytes an idle registered flow costs (``make frames`` prints the
same figures at 1k, 10k and 100k flows), the deep-backlog drain (order,
a list never much longer than twice the backlog, nothing left after) and
the out-of-order head removal recovery replays drains through.
"""

import random

import pytest

from repro.core.packet import Packet
from repro.transport.fabric import FabricScheduler, FlowTable
from tests.frames import bytes_per_flow


def test_an_idle_registered_flow_costs_at_most_320_bytes():
    idle = bytes_per_flow(1_000, 0)
    assert idle <= 320, f"an idle registered flow costs {idle:.0f} B"
    # The flows axis stays flat: 100x the flows, about the same per flow.
    at_100k = bytes_per_flow(100_000, 0)
    assert at_100k <= 1.25 * idle, (
        f"{at_100k:.0f} B per flow at 100k flows vs {idle:.0f} B at 1k"
    )


def test_eight_queued_packets_cost_at_most_160_bytes_beyond_idle():
    beyond = bytes_per_flow(10_000, 8) - bytes_per_flow(10_000, 0)
    assert beyond <= 160, f"8 queued packets cost {beyond:.0f} B of storage"


def test_deep_backlog_drains_in_order_in_bounded_storage():
    """One flow holding 100k packets, drained through rooms of 1 to 64:
    submission order, at most ``2 * backlog + 64`` list slots while it
    drains, the consumed prefix really cut, and no storage at the end."""
    table = FlowTable(quantum_bytes=1500.0)
    fabric = FabricScheduler(table, flow_buffer_packets=None)
    flow = table.register("deep")
    rooms = random.Random(7)
    gate = [False]
    served = []
    lengths = []

    def drain(batch):
        served.extend(batch)
        slots = flow._packets  # the storage itself, read only
        if slots is not None:
            assert len(slots) <= 2 * flow.backlog + 64
            lengths.append(len(slots))

    fabric.bind(
        downstream_many=drain,
        ready=lambda: rooms.randint(1, 64) if gate[0] else 0,
    )
    packets = [
        Packet(size=100 * (1 + seq % 7), seq=seq) for seq in range(100_000)
    ]
    for packet in packets:
        assert fabric.submit("deep", packet)
    assert flow.backlog == 100_000
    gate[0] = True
    fabric.pump()

    assert [p.seq for p in served] == list(range(100_000))
    assert min(lengths) < 100_000, "the consumed prefix was never cut"
    assert flow.backlog == 0 and flow.queued == ()
    assert flow._packets is None and not flow.active
    assert not fabric._active


def test_storage_exists_only_while_backlogged():
    table = FlowTable(quantum_bytes=100.0)
    fabric = FabricScheduler(table)
    out = []
    budget = [0]

    def drain(batch):
        out.extend(batch)
        budget[0] -= len(batch)

    fabric.bind(downstream_many=drain, ready=lambda: budget[0])
    flow = table.register("a")
    assert flow._packets is None
    for seq in range(3):
        fabric.submit("a", Packet(size=100, seq=seq))
    assert flow.backlog == 3
    assert [p.seq for p in flow.queued] == [0, 1, 2]
    budget[0] = 1
    fabric.pump()
    assert [p.seq for p in flow.queued] == [1, 2]
    budget[0] = 10
    fabric.pump()
    assert [p.seq for p in out] == [0, 1, 2]
    assert flow._packets is None and flow.backlog == 0
    assert not flow.active and flow.deficit == 0.0


def test_flows_of_one_weight_share_their_weight_and_quantum():
    table = FlowTable(tenant_weights={"gold": 4}, quantum_bytes=400.0)
    first = table.register(1, tenant="gold")
    second = table.register(2, tenant="gold")
    assert first.weight is second.weight and first.quantum is second.quantum
    assert (first.weight, first.quantum) == (4.0, 1600.0)
    other = table.register(3, weight=2)
    assert (other.weight, other.quantum) == (2.0, 800.0)


class TestTakeHead:
    def setup_fabric(self):
        table = FlowTable(quantum_bytes=100.0)
        fabric = FabricScheduler(table)
        fabric.bind(lambda packet: None, ready=lambda: 0)
        for flow_id in ("a", "b"):
            for seq in range(2):
                fabric.submit(flow_id, Packet(size=100, seq=seq))
        return table, fabric

    def test_takes_in_order_and_retires_the_emptied_flow(self):
        table, fabric = self.setup_fabric()
        assert fabric.take_head("b").seq == 0
        assert table["b"].active and table["b"].backlog == 1
        assert fabric.take_head("b").seq == 1
        flow = table["b"]
        assert not flow.active and flow._packets is None
        assert [f.flow_id for f in fabric._active] == ["a"]

    def test_retiring_the_ring_head_clears_its_banked_quantum(self):
        table, fabric = self.setup_fabric()
        fabric._head_credited = True  # "a" heads the ring mid-visit
        fabric.take_head("a")
        fabric.take_head("a")
        assert not fabric._head_credited
        assert [f.flow_id for f in fabric._active] == ["b"]

    def test_an_empty_flow_has_no_head(self):
        table, fabric = self.setup_fabric()
        table.register("idle")
        with pytest.raises(IndexError):
            fabric.take_head("idle")
