"""Composed fairness invariants: weighted DRR above x SRR below, at once.

The fabric claims two simultaneous guarantees for one bundle under load:

* **Theorem 3.2 envelope (below)** — per-channel transmitted data bytes
  (first transmissions *and* ARQ retransmissions, recorded at the ports)
  differ by at most ``Max + 2 * Quantum``;
* **weighted-DRR bound (above)** — while a flow stays backlogged, its
  serviced bytes differ from ``visits * quantum_i`` by at most one
  maximum packet plus one in-progress visit, and backlogged flows' visit
  counts differ by at most one ring lap.

These must hold *together*, under 10% persistent loss on every channel
plus a full mid-run crash of one channel, in reliable mode — the regime
where retransmission traffic could plausibly break either layer's
accounting.  Flows are prefilled far beyond what the run can drain, so
every flow is backlogged for the entire measurement window (fairness is
only defined over backlogged flows).
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.fairness import normalized_shares
from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import FaultEvent, FaultSchedule, persistent_loss_schedule
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort

N_CHANNELS = 3
PACKET_BYTES = 500
BANDWIDTH_BPS = 8e6
PROP_DELAY = 0.5e-3
QUEUE_LIMIT = 64
#: Theorem 3.2: per-channel byte counts differ by <= Max + 2 * Quantum
CHANNEL_ENVELOPE = PACKET_BYTES + 2 * PACKET_BYTES

#: (flow_id, weight): two flows per weight class, skewed 1:2:3
FLOW_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("a1", 1.0), ("a2", 1.0), ("b1", 2.0),
    ("b2", 2.0), ("c1", 3.0), ("c2", 3.0),
)
PREFILL_PACKETS = 2500  # per flow; far more than a run can drain


@pytest.fixture
def sim():
    return Simulator()


class FabricChaosRig:
    """A fabric-fronted reliable striped endpoint over faultable channels."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.channels = [
            Channel(
                sim,
                bandwidth_bps=BANDWIDTH_BPS,
                prop_delay=PROP_DELAY,
                queue_limit=QUEUE_LIMIT,
                name=f"ch{i}",
            )
            for i in range(N_CHANNELS)
        ]
        self.ports = [FastChannelPort(ch) for ch in self.channels]
        quanta = [float(PACKET_BYTES)] * N_CHANNELS
        self.table = FlowTable(quantum_bytes=float(PACKET_BYTES))
        self.fabric = FabricScheduler(self.table, flow_buffer_packets=None)
        self.sender = StripeSenderPipeline(
            self.ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
            marker_keepalive_s=0.02,
            reliability="reliable",
            fabric=self.fabric,
        )
        self.delivered: List[Tuple[str, int]] = []
        self.receiver = StripeReceiverPipeline(
            N_CHANNELS,
            SRR(quanta),
            mode="marker",
            on_message=lambda p: self.delivered.append(p.payload),
            sim=sim,
            reliability="reliable",
            send_ack=lambda sack: sim.schedule(
                PROP_DELAY, self.sender.on_ack, sack
            ),
        )
        for index, channel in enumerate(self.channels):
            channel.on_deliver = self.receiver.channel_handler(index)
            channel.on_space = self.sender.pump

    def prefill(self) -> None:
        for flow_id, weight in FLOW_WEIGHTS:
            self.table.register(flow_id, weight=weight)
        for flow_id, _ in FLOW_WEIGHTS:
            for k in range(PREFILL_PACKETS):
                self.sender.submit(
                    flow_id,
                    Packet(size=PACKET_BYTES, payload=(flow_id, k)),
                )


def run_composed_chaos(sim: Simulator, seed: int):
    """Returns the rig and a post-startup baseline of per-flow service.

    The fairness bounds are asserted over the *interval* from the
    baseline to the end of the run: the prefill transient (the first
    flow's packets drain alone while the later flows are still being
    registered) is real but is not the steady backlogged regime the DRR
    bound speaks about.
    """
    rig = FabricChaosRig(sim)
    rig.prefill()
    # 10% persistent loss everywhere + a full crash of one channel mid-run.
    events = list(
        persistent_loss_schedule(N_CHANNELS, 0.10, start=0.0, until=0.8)
    ) + [FaultEvent(time=0.3, channel=1, kind="crash", duration=0.15)]
    FaultSchedule(events).install(sim, rig.channels, seed=seed)
    sim.run(until=0.05)
    baseline = {
        f.flow_id: (f.serviced_bytes, f.visits) for f in rig.table
    }
    sim.run(until=1.0)
    return rig, baseline


@pytest.mark.parametrize("seed", range(3))
def test_channel_envelope_and_flow_drr_bound_simultaneously(sim, seed):
    """10% loss + channel crash: both fairness layers hold at once."""
    rig, baseline = run_composed_chaos(sim, seed)

    # The run actually exercised the claimed regime.
    assert len(rig.delivered) > 1000, "chaos run barely delivered anything"
    arq = rig.sender.reliable
    assert arq.stats.retransmissions > 0, "the loss regime never bit"
    flows = {f.flow_id: f for f in rig.table}
    assert all(f.backlog > 0 for f in flows.values()), (
        "a flow drained; the fairness bounds only apply while backlogged"
    )

    # Below: Theorem 3.2 over actual transmissions, repair included.
    per_channel = [port.data_bytes_sent for port in rig.sender.ports]
    assert max(per_channel) - min(per_channel) <= CHANNEL_ENVELOPE, (
        f"per-channel bytes broke the Theorem 3.2 envelope: {per_channel}"
    )

    # Above: the weighted-DRR service bound, per flow, over the interval.
    # Each interval endpoint contributes at most one in-progress visit
    # (< quantum + max packet) of slack.
    deltas = {}
    for flow_id, weight in FLOW_WEIGHTS:
        flow = flows[flow_id]
        base_bytes, base_visits = baseline[flow_id]
        d_bytes = flow.serviced_bytes - base_bytes
        d_visits = flow.visits - base_visits
        deltas[flow_id] = (d_bytes, d_visits)
        assert d_visits > 10, f"flow {flow_id} barely got scheduled"
        deviation = abs(d_bytes - d_visits * flow.quantum)
        assert deviation <= 2 * PACKET_BYTES + flow.quantum, (
            f"flow {flow_id}: {d_bytes}B over {d_visits} visits of "
            f"{flow.quantum}B breaks the DRR bound"
        )

    # Backlogged flows advance in lockstep around the active ring (<= 1
    # lap of skew at each interval endpoint)...
    visit_deltas = [deltas[fid][1] for fid, _ in FLOW_WEIGHTS]
    assert max(visit_deltas) - min(visit_deltas) <= 2, (
        f"backlogged flows diverged beyond ring-lap skew: {visit_deltas}"
    )
    # ...so per-unit-weight service is near-equal across all flows.
    shares = normalized_shares(
        [deltas[fid][0] for fid, _ in FLOW_WEIGHTS],
        [weight for _, weight in FLOW_WEIGHTS],
    )
    assert all(abs(s - 1.0) <= 0.05 for s in shares), (
        f"weighted shares drifted beyond 5%: {shares}"
    )


def test_lossy_channel_does_not_starve_any_flow(sim):
    """While one channel drops half its packets, every flow progresses.

    (A *fully* silent channel legitimately stalls the whole bundle until
    it heals or a lifecycle manager excludes it — that is the marker
    algorithm's head-of-line wait, shared fairly by all flows — so the
    per-flow liveness claim is tested against a degraded channel that
    still carries occasional markers.)
    """
    rig = FabricChaosRig(sim)
    rig.prefill()
    FaultSchedule(
        [
            FaultEvent(
                time=0.2, channel=0, kind="crash", duration=0.2,
                magnitude=0.5,
            )
        ]
    ).install(sim, rig.channels, seed=7)
    sim.run(until=0.2)
    before = {f.flow_id: f.serviced_packets for f in rig.table}
    sim.run(until=0.4)
    for flow in rig.table:
        assert flow.serviced_packets > before[flow.flow_id], (
            f"flow {flow.flow_id} starved while channel 0 was degraded"
        )
