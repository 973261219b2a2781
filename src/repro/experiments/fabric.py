"""The 10k-flow fabric scalability experiment.

One bundle, many tenants: ``n_flows`` flows spread across three tenants
with skewed weights (gold 4x, silver 2x, bronze 1x) submit through a
:class:`~repro.transport.fabric.FabricScheduler` mounted on one striped
sender pipeline — FQ across flows above, SRR across channels below.  The
run measures what the ROADMAP's "millions of users on one bundle" goal
actually needs:

* **aggregate goodput** — the flow layer must not tax the striper;
* **Jain's fairness across equal-weight flows** (per tenant, sampled
  mid-run while every flow is still backlogged — the only regime where
  fairness is defined) — acceptance: >= 0.95 for every tenant;
* **weighted tenant shares** — per-unit-weight service within 10% of
  equal (the weighted-DRR guarantee surfaced end to end);
* **p99 delivery latency** over the whole run.

Each flow's packet count is proportional to its weight, so all flows
drain together and stay backlogged through the mid-run fairness sample
(a flow that finishes early would rightly stop taking service and
depress any naive fairness number).

Results are emitted as :class:`FabricResult`; the benchmark wrapper
(``benchmarks/test_bench_fabric.py``) asserts the acceptance bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.tables import QUANTITY_VALUE, render_rows
from repro.core.fairness import jain_fairness_index, normalized_shares
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

#: tenant -> DRR weight (skewed on purpose; gold pays for 4x bronze)
TENANT_WEIGHTS: Dict[str, float] = {"gold": 4.0, "silver": 2.0, "bronze": 1.0}
_TENANTS = tuple(TENANT_WEIGHTS)


@dataclass
class FabricResult:
    n_flows: int
    n_channels: int
    total_packets: int
    delivered_packets: int
    duration_s: float
    aggregate_goodput_mbps: float
    #: Jain's index across the equal-weight flows of each tenant,
    #: sampled mid-run (all flows backlogged)
    jain_per_tenant: Dict[str, float] = field(default_factory=dict)
    #: per-unit-weight tenant service normalized to mean 1.0 (ideal: 1.0)
    tenant_shares: Dict[str, float] = field(default_factory=dict)
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0

    @property
    def jain_min(self) -> float:
        return min(self.jain_per_tenant.values(), default=0.0)

    @property
    def max_share_error(self) -> float:
        """Worst relative deviation of a tenant's per-weight share from 1."""
        return max(
            (abs(s - 1.0) for s in self.tenant_shares.values()), default=1.0
        )

    def render(self) -> str:
        def per_tenant(values: Dict[str, float]) -> str:
            return " ".join(f"{t}={values.get(t, 0.0):.3f}" for t in _TENANTS)

        return render_rows([
            ("delivered packets",
             f"{self.delivered_packets}/{self.total_packets}"),
            ("duration s", f"{self.duration_s:.3f}"),
            ("aggregate Mbps", f"{self.aggregate_goodput_mbps:.1f}"),
            ("Jain per tenant (mid-run)", per_tenant(self.jain_per_tenant)),
            ("Jain min", f"{self.jain_min:.3f}"),
            ("per-weight tenant shares", per_tenant(self.tenant_shares)),
            ("share max error", f"{self.max_share_error:.1%}"),
            ("latency p50 ms", f"{self.p50_latency_s * 1e3:.1f}"),
            ("latency p99 ms", f"{self.p99_latency_s * 1e3:.1f}"),
        ], QUANTITY_VALUE, title=f"{self.n_flows} flows / {len(_TENANTS)} "
                                 f"tenants over {self.n_channels} channels "
                                 f"(FQ x SRR):")


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_fabric(
    n_flows: int = 10_000,
    n_channels: int = 4,
    packet_bytes: int = 400,
    packets_per_unit_weight: int = 8,
    bandwidth_bps: float = 250e6,
    prop_delay: float = 0.2e-3,
    queue_limit: int = 64,
) -> FabricResult:
    """Push ``n_flows`` weighted flows through one striped bundle.

    Flow ``i`` belongs to tenant ``_TENANTS[i % 3]`` and submits
    ``packets_per_unit_weight * weight`` packets of ``packet_bytes`` at
    t=0 — an all-backlogged open-loop burst, the worst case for the flow
    scheduler.  The fabric's quantum equals the packet size, so weighted
    DRR degenerates to weighted round robin and any mid-run unfairness
    beyond one scheduler visit is a real scheduling bug, not quantum
    granularity.
    """
    sim = Simulator()
    channels = [
        Channel(
            sim,
            bandwidth_bps=bandwidth_bps,
            prop_delay=prop_delay,
            queue_limit=queue_limit,
            name=f"ch{i}",
        )
        for i in range(n_channels)
    ]
    ports = [FastChannelPort(ch) for ch in channels]
    quanta = [float(packet_bytes) * 3] * n_channels

    table = FlowTable(
        tenant_weights=TENANT_WEIGHTS, quantum_bytes=float(packet_bytes)
    )
    fabric = FabricScheduler(table, flow_buffer_packets=None)

    delivered: List[float] = []  # per-packet delivery latency
    delivered_bytes = 0
    total_packets = sum(
        packets_per_unit_weight * int(TENANT_WEIGHTS[_TENANTS[i % 3]])
        for i in range(n_flows)
    )
    #: per-flow serviced_bytes snapshot taken when half the run delivered
    midrun: Dict[str, List[int]] = {}
    midrun_tenant_totals: Dict[str, int] = {}

    def on_message(packet: Packet) -> None:
        nonlocal delivered_bytes
        delivered.append(sim.now - packet.payload)
        delivered_bytes += packet.size
        if len(delivered) == total_packets // 2 and not midrun:
            for flow in table:
                midrun.setdefault(flow.tenant, []).append(flow.serviced_bytes)
                midrun_tenant_totals[flow.tenant] = (
                    midrun_tenant_totals.get(flow.tenant, 0)
                    + flow.serviced_bytes
                )

    sender = StripeSenderPipeline(
        ports,
        SRR(quanta),
        marker_policy=MarkerPolicy(interval_rounds=8),
        sim=sim,
        fabric=fabric,
    )
    receiver = StripeReceiverPipeline(
        n_channels,
        SRR(quanta),
        mode="marker",
        on_message=on_message,
        sim=sim,
    )
    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = sender.pump

    # The all-backlogged burst: every flow submits its full demand at t=0.
    # Registration order fixes the DRR ring order; packets are stamped
    # with their submit time for the latency percentiles.
    for i in range(n_flows):
        table.register(f"f{i}", tenant=_TENANTS[i % 3])
    seq = 0
    for i in range(n_flows):
        flow_id = f"f{i}"
        count = packets_per_unit_weight * int(TENANT_WEIGHTS[_TENANTS[i % 3]])
        for _ in range(count):
            sender.submit(
                flow_id, Packet(size=packet_bytes, seq=seq, payload=sim.now)
            )
            seq += 1

    sim.run()
    duration = sim.now

    jain_per_tenant = {
        tenant: jain_fairness_index(bytes_list)
        for tenant, bytes_list in midrun.items()
    }
    tenants = [t for t in _TENANTS if t in midrun_tenant_totals]
    shares = normalized_shares(
        [float(midrun_tenant_totals[t]) for t in tenants],
        [
            TENANT_WEIGHTS[t] * len(midrun.get(t, ())) for t in tenants
        ],  # tenant weight x population = aggregate entitlement
    )
    latencies = sorted(delivered)
    return FabricResult(
        n_flows=n_flows,
        n_channels=n_channels,
        total_packets=total_packets,
        delivered_packets=len(delivered),
        duration_s=duration,
        aggregate_goodput_mbps=(
            delivered_bytes * 8 / duration / 1e6 if duration > 0 else 0.0
        ),
        jain_per_tenant=jain_per_tenant,
        tenant_shares=dict(zip(tenants, shares)),
        p50_latency_s=_percentile(latencies, 0.50),
        p99_latency_s=_percentile(latencies, 0.99),
    )


__all__ = ["FabricResult", "TENANT_WEIGHTS", "run_fabric"]
