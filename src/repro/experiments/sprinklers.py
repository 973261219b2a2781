"""Sprinklers vs SRR+markers: the marker-free head-to-head.

Sprinklers (hash-synchronized, per-flow stripes) and the paper's
SRR+markers (simulated-sender resequencing) answer the same question —
"how does the receiver recover sender order?" — with opposite costs:
markers buy any-traffic generality with control packets and resequencer
memory; Sprinklers buys zero receiver state with per-flow rate tracking
and stripe pinning.  This experiment measures the trade on every
transport the repo has:

* **head-to-head on all five transports** (socket reference, fast path,
  session, TCP channels, duplex): goodput, reorder rate
  (:mod:`repro.analysis.reorder`), receiver high-water-mark memory, and
  markers sent.  On stable equal-rate channels Sprinklers must deliver
  **in order with zero resequencer buffering**; on elastic TCP channels
  its reorder rate is a *measured data point* (per-channel congestion
  state skews arrival order — exactly the Table 1 case where guaranteed
  FIFO needs logical reception, which Sprinklers deliberately omits).
* **goodput under chaos faults** (the PR-4 fault families — crashes,
  loss bursts, corruption — via :class:`repro.sim.faults.FaultPlan`):
  markers resynchronize through faults; Sprinklers never desynchronizes
  but its pinned flows ride dead channels until recovery.
* **flow-count scalability**: thousands of mice through the PR-6 fabric
  over one bundle — per-flow stripe state is O(flows), receiver state
  stays zero, and Jain's index across equal-weight flows stays high.

Results are emitted as :class:`SprinklersResult`; the benchmark wrapper
(``benchmarks/test_bench_sprinklers.py``) asserts the acceptance bars
(zero reordering on stable transports, zero receiver memory, goodput
parity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.reorder import analyze_order
from repro.core.fairness import jain_fairness_index
from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.experiments.fault_tolerance import build_session_testbed
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
    build_two_hosts,
)
from repro.experiments.tcp_channels import build_tcp_striped
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.duplex import connect_duplex
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort
from repro.workloads.generators import ClosedLoopSource

TRANSPORTS = ("socket", "fast", "session", "tcp", "duplex")
#: transports whose channels are stable (fixed-rate FIFO links) — the
#: regime where Sprinklers' in-order proof obligation applies.  TCP
#: channels are elastic (per-connection cwnd dynamics skew arrival
#: order), so TCP is measured but carries no zero-reorder obligation.
STABLE_TRANSPORTS = ("socket", "fast", "session", "duplex")

#: Sprinklers options for single-aggregate (flowless) workloads: the
#: whole stream is one flow, so provision its full stripe up front
#: instead of growing — and reordering — through mid-stream resizes.
AGGREGATE_OPTIONS = {"initial_share": 1.0}

MESSAGE_BYTES = 1000
N_CHANNELS = 4


@dataclass
class HeadToHeadRow:
    transport: str
    discipline: str
    delivered: int
    goodput_mbps: float
    out_of_order: int
    reorder_rate: float
    receiver_hwm: int
    markers_sent: int

    def render(self) -> str:
        return (
            f"{self.transport:>8} {self.discipline:>10} "
            f"{self.delivered:>8} {self.goodput_mbps:>7.2f} "
            f"{self.out_of_order:>6} {self.reorder_rate:>8.4%} "
            f"{self.receiver_hwm:>4} {self.markers_sent:>8}"
        )


@dataclass
class ChaosRow:
    discipline: str
    seed: int
    delivered: int
    duplicates: int
    goodput_during_mbps: float
    goodput_after_mbps: float

    def render(self) -> str:
        return (
            f"{self.discipline:>10} {self.seed:>4} {self.delivered:>8} "
            f"{self.duplicates:>4} {self.goodput_during_mbps:>8.2f} "
            f"{self.goodput_after_mbps:>8.2f}"
        )


@dataclass
class ScaleRow:
    discipline: str
    n_flows: int
    delivered: int
    total: int
    goodput_mbps: float
    jain_flows: float
    receiver_hwm: int
    stripe_state_flows: int

    def render(self) -> str:
        return (
            f"{self.discipline:>10} {self.n_flows:>6} "
            f"{self.delivered:>7}/{self.total:<7} "
            f"{self.goodput_mbps:>8.2f} {self.jain_flows:>6.4f} "
            f"{self.receiver_hwm:>4} {self.stripe_state_flows:>7}"
        )


@dataclass
class SprinklersResult:
    head_to_head: List[HeadToHeadRow] = field(default_factory=list)
    chaos: List[ChaosRow] = field(default_factory=list)
    scale: List[ScaleRow] = field(default_factory=list)

    def row(self, transport: str, discipline: str) -> HeadToHeadRow:
        for row in self.head_to_head:
            if row.transport == transport and row.discipline == discipline:
                return row
        raise KeyError((transport, discipline))

    def render(self) -> str:
        head = (
            f"{'trans':>8} {'disc':>10} {'deliv':>8} {'Mbps':>7} "
            f"{'OOO':>6} {'reorder':>9} {'hwm':>4} {'markers':>8}"
        )
        chaos_head = (
            f"{'disc':>10} {'seed':>4} {'deliv':>8} {'dup':>4} "
            f"{'during':>8} {'after':>8}"
        )
        scale_head = (
            f"{'disc':>10} {'flows':>6} {'delivered':>15} "
            f"{'Mbps':>8} {'jain':>6} {'hwm':>4} {'stripes':>7}"
        )
        lines = ["head-to-head (stable channels unless noted; tcp elastic):",
                 head, "-" * len(head)]
        lines += [row.render() for row in self.head_to_head]
        lines += ["", "chaos faults (socket transport):",
                  chaos_head, "-" * len(chaos_head)]
        lines += [row.render() for row in self.chaos]
        lines += ["", "flow-count scale (fabric over one bundle):",
                  scale_head, "-" * len(scale_head)]
        lines += [row.render() for row in self.scale]
        return "\n".join(lines)


def _receiver_hwm(receiver) -> int:
    """A receiver pipeline's resequencing-buffer high-water mark."""
    return int(receiver.receiver_state().get("max_buffered", 0))


# --------------------------------------------------------------------- #
# head-to-head runs, one per (transport, discipline)

def _discipline_kwargs(discipline: str) -> Dict:
    if discipline == "sprinklers":
        return {
            "discipline": "sprinklers",
            "discipline_options": dict(AGGREGATE_OPTIONS),
        }
    return {}  # the harness default IS SRR+markers


def _socket_config(
    discipline: str, seed: int, fast: bool = False
) -> SocketTestbedConfig:
    return SocketTestbedConfig(
        n_channels=N_CHANNELS,
        link_mbps=(10.0,),
        prop_delay_s=(1e-3,) * N_CHANNELS,
        loss_rates=(0.0,),
        message_bytes=MESSAGE_BYTES,
        fast=fast,
        seed=seed,
        **_discipline_kwargs(discipline),
    )


def _run_socket(discipline: str, duration_s: float, fast: bool):
    sim = Simulator()
    testbed = build_socket_testbed(sim, _socket_config(discipline, 2, fast))
    sim.run(until=duration_s)
    seqs = testbed.delivered_seqs()
    goodput = sum(d.size for d in testbed.deliveries) * 8 / duration_s / 1e6
    return (
        seqs, goodput,
        _receiver_hwm(testbed.receiver),
        testbed.sender.striper.markers_sent,
    )


def _run_session(discipline: str, duration_s: float):
    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=N_CHANNELS, link_mbps=(10.0,), loss_rates=(0.0,),
        message_bytes=MESSAGE_BYTES, seed=2,
        **_discipline_kwargs(discipline),
    )
    sim.run(until=duration_s)
    seqs = [seq for _, seq in testbed.deliveries]
    goodput = len(seqs) * MESSAGE_BYTES * 8 / duration_s / 1e6
    return (
        seqs, goodput,
        _receiver_hwm(testbed.receiver),
        testbed.sender.striper.markers_sent,
    )


def _run_tcp(discipline: str, duration_s: float):
    sim = Simulator()
    kwargs = _discipline_kwargs(discipline)
    sender, receiver, _ = build_tcp_striped(
        sim, n_channels=N_CHANNELS, message_sizes=(MESSAGE_BYTES,), seed=2,
        **kwargs,
    )
    sim.run(until=duration_s)
    seqs = [p.seq for p in receiver.delivered]
    goodput = (
        sum(p.size for p in receiver.delivered) * 8 / duration_s / 1e6
    )
    return seqs, goodput, _receiver_hwm(receiver), 0


def _run_duplex(discipline: str, duration_s: float):
    sim = Simulator()
    a, b, links = build_two_hosts(sim, N_CHANNELS, prop_delay_s=(1e-3,))
    a_targets = [(ip, 7100 + i) for i, ip in enumerate(b.local_addresses())]
    b_targets = [(ip, 7000 + i) for i, ip in enumerate(a.local_addresses())]
    if discipline == "sprinklers":
        end_a, end_b = connect_duplex(
            sim, a, b, a_targets, b_targets,
            discipline="sprinklers",
            discipline_options=dict(AGGREGATE_OPTIONS),
        )
    else:
        end_a, end_b = connect_duplex(
            sim, a, b, a_targets, b_targets,
            algorithm_factory=lambda: SRR(
                [float(MESSAGE_BYTES)] * N_CHANNELS
            ),
            buffer_packets=64,
        )
    source = ClosedLoopSource(
        sim, end_a.sender.submit_packet, lambda: end_a.sender.backlog,
        lambda: MESSAGE_BYTES, target=16,
    )
    source.start()
    for link in links:
        link.ab.on_space = end_a.sender.pump
        link.ba.on_space = end_b.sender.pump
    sim.run(until=duration_s)
    seqs = [p.seq for p in end_b.receiver.delivered]
    goodput = len(seqs) * MESSAGE_BYTES * 8 / duration_s / 1e6
    return (
        seqs, goodput,
        _receiver_hwm(end_b.receiver),
        end_a.sender.striper.markers_sent,
    )


def _head_to_head(duration_s: float) -> List[HeadToHeadRow]:
    runners = {
        "socket": lambda d: _run_socket(d, duration_s, fast=False),
        "fast": lambda d: _run_socket(d, duration_s, fast=True),
        "session": lambda d: _run_session(d, duration_s),
        "tcp": lambda d: _run_tcp(d, duration_s),
        "duplex": lambda d: _run_duplex(d, duration_s),
    }
    rows: List[HeadToHeadRow] = []
    for transport in TRANSPORTS:
        for discipline in ("srr", "sprinklers"):
            seqs, goodput, hwm, markers = runners[transport](discipline)
            report = analyze_order(seqs)
            rows.append(HeadToHeadRow(
                transport=transport,
                discipline=discipline,
                delivered=report.delivered,
                goodput_mbps=goodput,
                out_of_order=report.out_of_order,
                reorder_rate=(
                    report.out_of_order / report.delivered
                    if report.delivered else 0.0
                ),
                receiver_hwm=hwm,
                markers_sent=markers,
            ))
    return rows


# --------------------------------------------------------------------- #
# chaos faults (PR-4 fault families) on the socket transport

def _run_chaos_leg(
    discipline: str, seed: int, total_s: float
) -> ChaosRow:
    faults_start, faults_cease = 0.3, min(1.1, total_s - 0.4)
    sim = Simulator()
    testbed = build_socket_testbed(sim, _socket_config(discipline, seed))
    plan = FaultPlan(
        n_channels=N_CHANNELS,
        cease_by=faults_cease,
        start_after=faults_start,
        max_events=4,
    )
    schedule = plan.schedule(seed)
    schedule.install(sim, [link.ab for link in testbed.links], seed=seed)
    sim.run(until=total_s)
    cease = schedule.last_fault_end

    def goodput_between(start: float, end: float) -> float:
        if end <= start:
            return 0.0
        count = sum(
            1 for d in testbed.deliveries if start <= d.time < end
        )
        return count * MESSAGE_BYTES * 8 / (end - start) / 1e6

    seqs = testbed.delivered_seqs()
    return ChaosRow(
        discipline=discipline,
        seed=seed,
        delivered=len(seqs),
        duplicates=len(seqs) - len(set(seqs)),
        goodput_during_mbps=goodput_between(faults_start, cease),
        goodput_after_mbps=goodput_between(cease + 0.2, total_s),
    )


# --------------------------------------------------------------------- #
# flow-count scale: many mice through the fabric over one bundle

def _run_scale_leg(
    discipline: str, n_flows: int, packets_per_flow: int = 4,
    packet_bytes: int = 400,
) -> ScaleRow:
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=250e6, prop_delay=0.2e-3,
            queue_limit=64, name=f"spch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    ports = [FastChannelPort(ch) for ch in channels]
    table = FlowTable(quantum_bytes=float(packet_bytes))
    fabric = FabricScheduler(table, flow_buffer_packets=None)

    per_flow_bytes: Dict[str, int] = {}
    delivered_count = 0
    delivered_bytes = 0

    def on_message(packet: Packet) -> None:
        nonlocal delivered_count, delivered_bytes
        delivered_count += 1
        delivered_bytes += packet.size
        per_flow_bytes[packet.flow] = (
            per_flow_bytes.get(packet.flow, 0) + packet.size
        )

    if discipline == "sprinklers":
        sender = StripeSenderPipeline(
            ports, "sprinklers", sim=sim, fabric=fabric,
        )
        receiver = StripeReceiverPipeline(
            N_CHANNELS, None, mode="direct", on_message=on_message, sim=sim,
        )
    else:
        quanta = [float(packet_bytes) * 3] * N_CHANNELS
        sender = StripeSenderPipeline(
            ports, SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=8),
            sim=sim, fabric=fabric,
        )
        receiver = StripeReceiverPipeline(
            N_CHANNELS, SRR(quanta), mode="marker",
            on_message=on_message, sim=sim,
        )
    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = sender.pump

    rng = random.Random(11)
    flow_ids = [f"f{i}" for i in range(n_flows)]
    for flow_id in flow_ids:
        table.register(flow_id)
    submissions = [
        (flow_id, seq)
        for seq, flow_id in enumerate(
            fid for fid in flow_ids for _ in range(packets_per_flow)
        )
    ]
    rng.shuffle(submissions)
    for flow_id, seq in submissions:
        sender.submit(flow_id, Packet(size=packet_bytes, seq=seq))
    sim.run()

    total = n_flows * packets_per_flow
    duration = sim.now or 1.0
    sharer = sender.striper.sharer
    stripe_flows = getattr(sharer, "flow_count", 0)
    return ScaleRow(
        discipline=discipline,
        n_flows=n_flows,
        delivered=delivered_count,
        total=total,
        goodput_mbps=delivered_bytes * 8 / duration / 1e6,
        jain_flows=jain_fairness_index(
            [float(per_flow_bytes.get(fid, 0)) for fid in flow_ids]
        ),
        receiver_hwm=_receiver_hwm(receiver),
        stripe_state_flows=stripe_flows,
    )


def run_sprinklers(
    duration_s: float = 1.0,
    chaos_total_s: float = 2.0,
    chaos_seeds=(3, 9),
    scale_flows: int = 10_000,
    quick: bool = False,
) -> SprinklersResult:
    """The full Sprinklers vs SRR+markers comparison."""
    if quick:
        duration_s = 0.5
        chaos_total_s = 1.5
        chaos_seeds = (3,)
        scale_flows = 1_000
    result = SprinklersResult()
    result.head_to_head = _head_to_head(duration_s)
    for seed in chaos_seeds:
        for discipline in ("srr", "sprinklers"):
            result.chaos.append(
                _run_chaos_leg(discipline, seed, chaos_total_s)
            )
    for discipline in ("srr", "sprinklers"):
        result.scale.append(_run_scale_leg(discipline, scale_flows))
    return result
