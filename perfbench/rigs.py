"""The five workloads and the simulated rigs that run them.

Every rig is assembled here from public ``repro`` names only (the list is
in ``README.md``): default configuration, fast path, no numpy opt-ins.  All
traffic is simulated; no packet crosses a real link or a loopback socket.

A rig takes an optional :class:`~perfbench.spans.SpanLog`.  With one, every
callback the rig wires itself is wrapped in a span; without one the raw
callables are wired, so the untraced run pays nothing for tracing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import SRR, Codepoint, MarkerPolicy, Packet
from repro.core.packet import PacketPool
from repro.sim import BernoulliLoss, Channel, Simulator
from repro.transport import (
    FabricScheduler,
    FastChannelPort,
    FlowTable,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    wire_size,
)
from repro.transport.fast_path import wire_fast_ack_path
from repro.workloads import ClosedLoopSource, ConstantSizes, RandomMixSizes

from perfbench.spans import SpanLog

#: ISSUE 11 sizes the workloads at 10/12/8/8 simulated seconds and 6 fabric
#: packets per unit weight (2-3 min in total).  The driver's cap is about
#: 30 s of wall per run, so everything is scaled down uniformly by this
#: factor; the 10,000-flow table keeps its size, because table size is what
#: ``setup_s`` and ``peak_rss_mb`` measure on ``fabric_fanin``.
CONTRACT_SCALE = 0.3

#: ARQ options of the throughput deployment (``sim_bench``'s reliable row):
#: a BDP-sized window and a coarse ack cadence, so the batched pump engages.
ARQ_OPTIONS = {
    "sender": {"window_packets": 512},
    "receiver": {"ack_every": 16},
}

TENANT_WEIGHTS = {"gold": 4, "silver": 2, "bronze": 1}
PACKETS_PER_UNIT_WEIGHT = round(6 * CONTRACT_SCALE)

#: simulated seconds granted after the horizon for in-flight packets,
#: retransmissions and FEC group timeouts to finish; the drain stops at the
#: first slice boundary by which everything submitted has been delivered
DRAIN_S = 5.0
DRAIN_SLICE_S = 0.05

#: lossy workloads force a marker batch when none was sent for this long
#: (the repository's recovery experiments use the same value): once the
#: source stops, a receiver blocked on a lost packet's channel is only
#: resynchronised by a marker, and no data is left to carry one
MARKER_KEEPALIVE_S = 0.02

#: seed-derived jitter on every propagation delay, as a share of the delay:
#: small enough to leave each workload's character alone, large enough that
#: no simulated metric reads the same on two seeds
DELAY_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed": a backlogged source refills to 4N as the channels drain;
    #: "open": everything is submitted at t=0 regardless of the system
    loop: str
    rates_mbps: Tuple[float, ...]
    delays_ms: Tuple[float, ...]
    quanta: Tuple[float, ...]
    sizes: Tuple[int, ...]
    marker_rounds: int
    size_weights: Optional[Tuple[float, ...]] = None
    reliability: str = "quasi_fifo"
    loss: float = 0.0
    pool: bool = False
    payloads: bool = False
    queue_frames: int = 40
    #: closed-loop horizon in simulated seconds at scale 1
    sim_seconds: float = 0.0
    #: registered flows at scale 1 (``fabric_fanin`` only)
    flows: int = 0
    #: workloads sharing a key get identical inputs from a seed
    inputs_key: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="clean_bulk",
            why="16 equal clean channels, 1000 B, a marker every round: "
            "engine, trains, receive chain and pump do all the work",
            loop="closed",
            rates_mbps=(10.0,) * 16,
            delays_ms=tuple(0.5 + 0.1 * i for i in range(16)),
            quanta=(1000.0,) * 16,
            sizes=(1000,),
            marker_rounds=1,
            pool=True,
            sim_seconds=10.0 * CONTRACT_SCALE,
        ),
        Workload(
            name="skewed_small",
            why="4 dissimilar channels, 64/576 B, a marker every 8 rounds: "
            "smallest packets, deep buffering under skew, almost no markers",
            loop="closed",
            rates_mbps=(5.0, 10.0, 20.0, 40.0),
            delays_ms=(0.2, 1.0, 3.0, 8.0),
            quanta=(600.0, 1200.0, 2400.0, 4800.0),
            sizes=(64, 576),
            size_weights=(3.0, 1.0),
            marker_rounds=8,
            pool=True,
            sim_seconds=12.0 * CONTRACT_SCALE,
        ),
        Workload(
            name="lossy_reliable",
            why="4 channels at 5% loss under selective-repeat ARQ: "
            "scoreboard, retransmit striping, RTO timers, per-packet channel",
            loop="closed",
            rates_mbps=(10.0,) * 4,
            delays_ms=tuple(0.5 + 0.1 * i for i in range(4)),
            quanta=(1500.0,) * 4,
            sizes=(200, 1000, 1460),
            marker_rounds=1,
            reliability="reliable",
            loss=0.05,
            payloads=True,
            sim_seconds=8.0 * CONTRACT_SCALE,
            inputs_key="lossy",
        ),
        Workload(
            name="lossy_hybrid",
            why="same inputs as lossy_reliable with FEC above ARQ: "
            "the same contract met by reconstruction, not retransmission",
            loop="closed",
            rates_mbps=(10.0,) * 4,
            delays_ms=tuple(0.5 + 0.1 * i for i in range(4)),
            quanta=(1500.0,) * 4,
            sizes=(200, 1000, 1460),
            marker_rounds=1,
            reliability="hybrid",
            loss=0.05,
            payloads=True,
            sim_seconds=8.0 * CONTRACT_SCALE,
            inputs_key="lossy",
        ),
        Workload(
            name="fabric_fanin",
            why="10,000 flows of three weighted tenants in one t=0 burst: "
            "flow table and weighted DRR above the striper do the work",
            loop="open",
            rates_mbps=(250.0,) * 4,
            delays_ms=(0.2,) * 4,
            quanta=(1200.0,) * 4,
            sizes=(400,),
            marker_rounds=8,
            queue_frames=64,
            flows=10_000,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a rig takes from the seed."""

    delays_s: Tuple[float, ...]
    loss_seeds: Tuple[int, ...]
    size_seed: int
    payloads: Optional[Dict[int, bytes]]
    #: tenant of each flow, in registration order (``fabric_fanin`` only)
    tenants: Tuple[str, ...]
    sim_seconds: float


def make_inputs(
    workload: Workload, seed: int, rep: int = 0, scale: float = 1.0
) -> Inputs:
    """The inputs of repetition ``rep`` under ``seed``.

    The same pair gives the same inputs.  Repetitions of a run differ on
    purpose: loss patterns and buffering regimes move the cost per packet
    and the simulated latencies by 10-20% between inputs, so a run reports
    medians over several and is steady from seed to seed.
    """
    key = workload.inputs_key or workload.name
    rng = random.Random(f"{key}:{seed}:{rep}")
    delays = tuple(
        d * 1e-3 * (1.0 + DELAY_JITTER * rng.uniform(-1.0, 1.0))
        for d in workload.delays_ms
    )
    loss_seeds = tuple(rng.randrange(1 << 30) for _ in workload.rates_mbps)
    size_seed = rng.randrange(1 << 30)
    payloads = None
    if workload.payloads:
        payloads = {size: rng.randbytes(size) for size in workload.sizes}
    tenants: List[str] = []
    if workload.flows:
        names = tuple(TENANT_WEIGHTS)
        n_flows = max(len(names), round(workload.flows * scale))
        tenants = [names[i % len(names)] for i in range(n_flows)]
        rng.shuffle(tenants)
    return Inputs(
        delays_s=delays,
        loss_seeds=loss_seeds,
        size_seed=size_seed,
        payloads=payloads,
        tenants=tuple(tenants),
        sim_seconds=workload.sim_seconds * scale,
    )


def flow_demand(inputs: Inputs) -> List[int]:
    """Packets each flow submits, in registration order."""
    return [
        PACKETS_PER_UNIT_WEIGHT * TENANT_WEIGHTS[tenant]
        for tenant in inputs.tenants
    ]


def make_size_fn(workload: Workload, inputs: Inputs) -> Callable[[], int]:
    """The packet-size generator the source draws from (seeded)."""
    if len(workload.sizes) == 1:
        return ConstantSizes(workload.sizes[0])
    return RandomMixSizes(
        workload.sizes,
        workload.size_weights,
        rng=random.Random(inputs.size_seed),
    )


def make_channel(
    sim: Simulator, workload: Workload, inputs: Inputs, index: int, loss: float
) -> Channel:
    """Forward channel ``index`` of the workload on ``sim``."""
    return Channel(
        sim,
        workload.rates_mbps[index] * 1e6,
        inputs.delays_s[index],
        name=f"ch{index}",
        queue_limit=workload.queue_frames,
        loss_model=(
            BernoulliLoss(loss, rng=random.Random(inputs.loss_seeds[index]))
            if loss
            else None
        ),
        size_of=wire_size,
        fast=True,
    )


def make_fabric(workload: Workload, inputs: Inputs) -> FabricScheduler:
    """The flow scheduler with every flow of the workload registered."""
    table = FlowTable(
        tenant_weights=TENANT_WEIGHTS, quantum_bytes=float(workload.sizes[0])
    )
    for flow_id, tenant in enumerate(inputs.tenants):
        table.register(flow_id, tenant=tenant)
    return FabricScheduler(table, flow_buffer_packets=None)


class TimedPort(FastChannelPort):
    """A :class:`FastChannelPort` whose sends are ``chan_enqueue`` spans."""

    def __init__(self, channel: Channel, log: SpanLog) -> None:
        super().__init__(channel)
        self._timed_send = log.wrap("chan_enqueue", super().send)
        self._timed_burst = log.wrap("chan_enqueue", super().send_burst)

    def send(self, packet: Any, force: bool = False) -> bool:
        return self._timed_send(packet, force)

    def send_burst(self, packets: Any) -> None:
        self._timed_burst(packets)


class Rig:
    """One workload's testbed: channels, pipelines, source, records.

    ``run()`` is the timed region.  ``records`` holds one
    ``(sim_time, seq, size)`` tuple per application delivery;
    ``submit_times[seq]`` and ``submit_sizes[seq]`` are the simulated
    instant and the size each packet was submitted with.
    """

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        log: Optional[SpanLog] = None,
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.log = log
        self.sim = sim = Simulator()
        self.records: List[Tuple[float, int, int]] = []
        self.submit_times: List[float] = []
        self.submit_sizes: List[int] = []
        self.lost_data = 0
        self.corrupt_payloads = 0
        self.attempted = 0
        self.horizon = inputs.sim_seconds
        self.pool = PacketPool() if workload.pool else None
        self.source: Optional[ClosedLoopSource] = None
        self.fabric: Optional[FabricScheduler] = None
        self.reverse: Optional[Channel] = None
        self._ticking = False

        self.channels = [
            make_channel(sim, workload, inputs, index, workload.loss)
            for index in range(len(workload.rates_mbps))
        ]
        for channel in self.channels:
            channel.on_drop = self._on_drop
        if log is None:
            ports = [FastChannelPort(ch) for ch in self.channels]
        else:
            ports = [TimedPort(ch, log) for ch in self.channels]

        if workload.flows:
            self.fabric = make_fabric(workload, inputs)
        options = ARQ_OPTIONS if workload.reliability != "quasi_fifo" else {}
        n = len(self.channels)
        self.sender = StripeSenderPipeline(
            ports,
            SRR(list(workload.quanta)),
            marker_policy=MarkerPolicy(interval_rounds=workload.marker_rounds),
            sim=sim,
            marker_keepalive_s=MARKER_KEEPALIVE_S if workload.loss else None,
            reliability=workload.reliability,
            reliability_options=options.get("sender"),
            fabric=self.fabric,
        )
        send_ack = None
        if self.sender.reliable is not None:
            # Acks ride a clean reverse channel shaped like forward channel 0,
            # as in the repository's socket harness.
            self.reverse = Channel(
                sim,
                workload.rates_mbps[0] * 1e6,
                inputs.delays_s[0],
                name="reverse",
                queue_limit=workload.queue_frames,
            )
            send_ack = self._traced(
                "ack_tx", wire_fast_ack_path(self.reverse, self.sender).send_sack
            )
            self.reverse.on_deliver = self._traced(
                "ack_rx", self.reverse.on_deliver
            )
        self.receiver = StripeReceiverPipeline(
            n,
            SRR(list(workload.quanta)),
            mode="marker",
            on_message=self._traced("app", self._on_message),
            sim=sim,
            reliability=workload.reliability,
            send_ack=send_ack,
            reliability_options=options.get("receiver"),
        )
        self.receiver.retain_delivered = False
        for index, channel in enumerate(self.channels):
            channel.on_deliver = self._traced(
                "rx", self.receiver.channel_handler(index)
            )
        if self.fabric is not None:
            self._wire_open_burst()
        else:
            self._wire_closed_loop()
        self.run = self._traced("engine_channel", self._run)

    def _traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn if self.log is None else self.log.wrap(name, fn)

    # ------------------------------------------------------------------ #
    # callbacks the rig owns

    def _on_message(self, packet: Any) -> None:
        self.records.append((self.sim.now, packet.seq, packet.size))
        payloads = self.inputs.payloads
        if payloads is not None and packet.payload != payloads.get(packet.size):
            self.corrupt_payloads += 1
        if self.pool is not None:
            self.pool.release(packet)

    def _on_drop(self, packet: Any, reason: str) -> None:
        if packet.codepoint == Codepoint.DATA:
            self.lost_data += 1
            if self.pool is not None:
                self.pool.release(packet)

    # ------------------------------------------------------------------ #
    # closed loop: a backlogged source refilled as the channels drain

    def _wire_closed_loop(self) -> None:
        sim, sender = self.sim, self.sender
        payloads = self.inputs.payloads
        submit_times, submit_sizes = self.submit_times, self.submit_sizes
        submit = self._traced("tx_submit", sender.submit_packets)

        def submit_many(packets: List[Packet]) -> None:
            submit_times.extend([sim.now] * len(packets))
            submit_sizes.extend([packet.size for packet in packets])
            if payloads is not None:
                for packet in packets:
                    packet.payload = payloads[packet.size]
            submit(packets)

        def backlog() -> int:
            # A full ARQ window reads as "backlogged": the retransmission
            # buffer exerts backpressure instead of absorbing overflow.
            if not sender.can_submit():
                return 1 << 30
            return sender.backlog

        self.source = source = ClosedLoopSource(
            sim,
            submit=sender.submit_packet,
            backlog_fn=backlog,
            size_fn=make_size_fn(self.workload, self.inputs),
            target=4 * len(self.channels),
            submit_many=submit_many,
            pool=self.pool,
        )
        pump = self._traced("tx_pump", sender.pump)
        poke = self._traced("source", source.poke)

        def wake() -> None:
            pump()
            poke()

        for channel in self.channels:
            channel.on_space = wake
        if sender.reliable is not None:
            sender.reliable.on_window_open = wake

        def tick() -> None:
            # The source's own 1 ms refill timer, driven from here so the
            # refill shows up as a ``source`` span.
            if self._ticking:
                poke()
                sim.schedule(source.check_interval, tick)

        self._ticking = True
        sim.schedule(0.0, tick)

    # ------------------------------------------------------------------ #
    # open loop: every flow's whole demand in one burst at t=0

    def _wire_open_burst(self) -> None:
        sender = self.sender
        pump = self._traced("tx_pump", sender.pump)
        for channel in self.channels:
            channel.on_space = pump
        submit = self._traced("tx_submit", sender.submit)
        size = self.workload.sizes[0]

        def burst() -> None:
            seq = 0
            for flow_id, count in enumerate(flow_demand(self.inputs)):
                for _ in range(count):
                    submit(flow_id, Packet(size=size, seq=seq))
                    seq += 1
            self.submit_times.extend([0.0] * seq)
            self.submit_sizes.extend([size] * seq)

        self._burst = self._traced("source", burst)

    # ------------------------------------------------------------------ #

    def _run(self, at_horizon: Optional[Callable[["Rig"], None]] = None) -> None:
        """The timed region.  ``at_horizon`` (untimed runs only) is called
        with the pipelines still full: the checkpoint rung's state."""
        sim = self.sim
        if self.fabric is not None:
            self._burst()
            if at_horizon is not None:
                at_horizon(self)
            sim.run(until=60.0, batch=True)
            self.attempted = len(self.submit_times)
            self.horizon = self.records[-1][0] if self.records else 0.0
            return
        sim.run(until=self.horizon, batch=True)
        if at_horizon is not None:
            at_horizon(self)
        self.source.stop()
        self._ticking = False
        self.attempted = self.source.generated
        limit = self.horizon + DRAIN_S
        while len(self.records) < self.attempted and sim.now < limit:
            sim.run(until=sim.now + DRAIN_SLICE_S, batch=True)

    # ------------------------------------------------------------------ #
    # what the run produced

    def delivered_in_order(self) -> int:
        """Packets delivered exactly once and in order.

        Closed loop: the n-th delivery is seq n.  ``fabric_fanin``: the
        weighted DRR interleaves flows, so order is per flow.
        """
        if self.fabric is None:
            return sum(
                1 for index, record in enumerate(self.records)
                if record[1] == index
            )
        flow_of: List[int] = []
        for flow_id, count in enumerate(flow_demand(self.inputs)):
            flow_of.extend([flow_id] * count)
        last_of_flow: Dict[int, int] = {}
        good = 0
        for _, seq, _ in self.records:
            flow = flow_of[seq]
            if last_of_flow.get(flow, -1) < seq:
                good += 1
                last_of_flow[flow] = seq
        return good

    def wire_bytes(self) -> int:
        """Bytes offered to any wire: data, markers, parity, rtx, acks."""
        total = sum(ch.stats.offered_bytes for ch in self.channels)
        if self.reverse is not None:
            total += self.reverse.stats.offered_bytes
        return total

    def counts(self) -> Dict[str, float]:
        """Exact per-layer counts, per delivered data packet where a rate."""
        n = max(1, len(self.records))
        channels = self.channels + ([self.reverse] if self.reverse else [])
        drops = sum(
            ch.stats.lost_packets
            + ch.stats.corrupted_packets
            + ch.stats.queue_drops
            for ch in channels
        )
        out = {
            "sim.engine.events_per_pkt": self.sim.events_processed / n,
            "sim.channel.drops_per_pkt": drops / n,
            "transport.sync_model.markers_per_pkt": (
                self.sender.striper.markers_sent / n
            ),
            "core.resequencer.buffered_hwm": float(
                self.receiver.receiver_state()["max_buffered"]
            ),
            "transport.reliability.retransmits_per_pkt": 0.0,
            "transport.reliability.acks_per_pkt": 0.0,
            "transport.reliability.timeouts_per_kpkt": 0.0,
            "transport.reliability.dup_rx_per_pkt": 0.0,
            "transport.fec.parity_per_pkt": 0.0,
            "transport.fec.rebuilt_per_lost": 0.0,
            "transport.fabric.refusals": 0.0,
            "core.packet.pool_reuse_share": 0.0,
        }
        arq_tx, arq_rx = self.sender.reliable, self.receiver.reliable
        if arq_tx is not None:
            out["transport.reliability.retransmits_per_pkt"] = (
                arq_tx.stats.retransmissions / n
            )
            out["transport.reliability.timeouts_per_kpkt"] = (
                1e3 * arq_tx.stats.timeouts / n
            )
            out["transport.reliability.acks_per_pkt"] = (
                arq_rx.stats.acks_sent / n
            )
            out["transport.reliability.dup_rx_per_pkt"] = (
                arq_rx.stats.duplicates / n
            )
        if self.sender.fec is not None:
            out["transport.fec.parity_per_pkt"] = (
                self.sender.fec.stats.parity_packets / n
            )
            out["transport.fec.rebuilt_per_lost"] = (
                self.receiver.fec.stats.reconstructed / max(1, self.lost_data)
            )
        if self.fabric is not None:
            out["transport.fabric.refusals"] = float(self.fabric.stats.refusals)
        if self.pool is not None:
            made = self.pool.reused + self.pool.allocated
            out["core.packet.pool_reuse_share"] = self.pool.reused / max(1, made)
        return out
