"""Isolated rungs: one public function at a time, no rig around it.

Each rung replays inputs taken from the workload (its packet sizes in
submit order, channel shapes, quanta, marker policy, loss rate, flows)
through one layer's public entry point and reports the best of three
passes (the sandbox's noise only ever adds time).  The two channel rungs and the engine rung need an event engine to
exist at all; they run a bare :class:`Simulator` with nothing else on it.
A rung of a layer the workload does not mount reports 0.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter_ns
from typing import Any, Callable, Deque, Dict, List, Sequence, Tuple

from repro.core import (
    SRR,
    MarkerPolicy,
    Packet,
    SRRKernel,
    decode_marker,
    encode_marker,
    is_marker,
)
from repro.core.fec import make_codec
from repro.sim import Simulator
from repro.transport import StripeReceiverPipeline, StripeSenderPipeline
from repro.transport.fec import shard_for
from repro.transport.recovery import receiver_to_bytes, sender_to_bytes
from repro.transport.reliability import ReliableReceiver
from repro.workloads import ClosedLoopSource

from perfbench.rigs import (
    ARQ_OPTIONS,
    Inputs,
    Rig,
    Workload,
    flow_demand,
    make_channel,
    make_fabric,
    make_size_fn,
)

PASSES = 3
#: FecSender's default group geometry
FEC_K, FEC_M = 6, 2
#: how far behind a "lost" packet's retransmission arrives in the ARQ rung,
#: in packets: about one round trip of the lossy workloads' bundle
ARQ_REPAIR_LAG = 32


def _best_ns(one_pass: Callable[[], int]) -> float:
    """Least over :data:`PASSES` of ``one_pass()``, which returns its own
    elapsed nanoseconds (so it can build fresh objects outside the clock)."""
    return min(one_pass() for _ in range(PASSES))


def _chunks(items: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class LoopPort:
    """An unbounded burst-capable port that logs ``(channel, packet)``."""

    queue_length = 0

    def __init__(self, index: int, wire: List[Tuple[int, Any]]) -> None:
        self._index = index
        self._wire = wire

    def send(self, packet: Any, force: bool = False) -> bool:
        self._wire.append((self._index, packet))
        return True

    def send_burst(self, packets: Sequence[Any]) -> None:
        index = self._index
        self._wire.extend((index, packet) for packet in packets)

    def can_accept(self) -> bool:
        return True

    def free_capacity(self) -> int:
        return 1 << 30


def checkpoint_us(rig: Rig) -> float:
    """One sender plus one receiver checkpoint of a rig in full flight."""
    def one_pass() -> int:
        start = perf_counter_ns()
        sender_to_bytes(rig.sender)
        receiver_to_bytes(rig.receiver)
        return perf_counter_ns() - start

    return _best_ns(one_pass) / 1e3


def isolated_rungs(
    workload: Workload, inputs: Inputs, n_packets: int
) -> Dict[str, float]:
    size_fn = make_size_fn(workload, inputs)
    sizes = [size_fn() for _ in range(n_packets)]
    n = len(workload.rates_mbps)
    quanta = list(workload.quanta)
    backlog = 4 * n
    out: Dict[str, float] = {}

    # core.kernel: assign_many over the pump's chunk size
    size_chunks = _chunks(sizes, backlog)

    def kernel_pass() -> int:
        kernel = SRRKernel(SRR(quanta))
        start = perf_counter_ns()
        for chunk in size_chunks:
            kernel.assign_many(chunk)
        return perf_counter_ns() - start

    out["core.kernel.assign_ns_per_pkt"] = _best_ns(kernel_pass) / n_packets

    # core.striper: the sender pipeline into unbounded loop ports
    wire: List[Tuple[int, Any]] = []

    def stripe_pass() -> int:
        wire.clear()
        sender = StripeSenderPipeline(
            [LoopPort(i, wire) for i in range(n)],
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=workload.marker_rounds),
        )
        bursts = _chunks(
            [Packet(size=size, seq=seq) for seq, size in enumerate(sizes)],
            backlog,
        )
        start = perf_counter_ns()
        for burst in bursts:
            sender.submit_packets(burst)
        return perf_counter_ns() - start

    out["core.striper.stripe_ns_per_pkt"] = _best_ns(stripe_pass) / n_packets

    # core.markers: wire codec round trip of the markers the striper emitted
    markers = [packet for _, packet in wire if is_marker(packet)]
    marker_ops = max(len(markers), 20_000)
    markers = (markers * (marker_ops // len(markers) + 1))[:marker_ops]

    def codec_pass() -> int:
        start = perf_counter_ns()
        for marker in markers:
            decode_marker(encode_marker(marker))
        return perf_counter_ns() - start

    out["core.markers.codec_ns_per_marker"] = _best_ns(codec_pass) / marker_ops

    # transport.endpoint: the receive pipeline fed the striper's emissions
    def rx_pass() -> int:
        delivered: List[Any] = []
        receiver = StripeReceiverPipeline(
            n, SRR(quanta), mode="marker", on_message=delivered.append
        )
        receiver.retain_delivered = False
        handlers = [receiver.channel_handler(i) for i in range(n)]
        start = perf_counter_ns()
        for channel, packet in wire:
            handlers[channel](packet)
        elapsed = perf_counter_ns() - start
        assert len(delivered) == n_packets, "rx rung lost packets"
        return elapsed

    out["transport.endpoint.rx_ns_per_arrival"] = _best_ns(rx_pass) / len(wire)

    out.update(_engine_and_channel_rungs(workload, inputs, sizes))
    out.update(_generator_rung(workload, inputs, n_packets))
    out.update(_reliability_rung(workload, sizes))
    out.update(_fec_rungs(workload, inputs, sizes))
    out.update(_fabric_rungs(workload, inputs))
    return out


def _engine_and_channel_rungs(
    workload: Workload, inputs: Inputs, sizes: List[int]
) -> Dict[str, float]:
    n_packets = len(sizes)
    # sim.engine: self-rescheduling no-op timers, about as many live heap
    # entries as the rig keeps (a burst end and a train per channel)
    live = 2 * len(workload.rates_mbps)
    n_events = max(n_packets, 50_000)

    def engine_pass() -> int:
        sim = Simulator()

        def tick() -> None:
            sim.schedule_call(sim.now + 1e-3, tick)

        for i in range(live):
            sim.schedule_call(i * 1e-3 / live, tick)
        start = perf_counter_ns()
        sim.run(max_events=n_events, batch=True)
        return perf_counter_ns() - start

    out = {"sim.engine.ns_per_event": _best_ns(engine_pass) / n_events}

    # sim.channel: one channel shaped like channel 0, refilled to its queue
    # limit whenever it reports space; clean (trains) and lossy (per packet)
    def channel_pass(loss: float) -> int:
        sim = Simulator()
        channel = make_channel(sim, workload, inputs, 0, loss)
        channel.on_deliver = lambda packet: None
        bursts = iter(_chunks(
            [Packet(size=size, seq=seq) for seq, size in enumerate(sizes)],
            workload.queue_frames,
        ))

        def refill() -> None:
            if channel.queue_length == 0:
                burst = next(bursts, None)
                if burst is not None:
                    channel.send_burst(burst)

        channel.on_space = refill
        start = perf_counter_ns()
        refill()
        sim.run(batch=True)
        return perf_counter_ns() - start

    out["sim.channel.train_ns_per_pkt"] = (
        _best_ns(lambda: channel_pass(0.0)) / n_packets
    )
    out["sim.channel.lossy_ns_per_pkt"] = (
        _best_ns(lambda: channel_pass(workload.loss)) / n_packets
        if workload.loss
        else 0.0
    )
    return out


def _generator_rung(
    workload: Workload, inputs: Inputs, n_packets: int
) -> Dict[str, float]:
    if workload.loop != "closed":
        return {"workloads.generators.ns_per_pkt": 0.0}
    target = 4 * len(workload.rates_mbps)

    def generator_pass() -> int:
        # backlog reads empty once per poke, then full: one refill of
        # ``target`` packets per poke, swallowed by the sink
        state = {"full": True}

        def backlog() -> int:
            state["full"] = not state["full"]
            return target if state["full"] else 0

        source = ClosedLoopSource(
            Simulator(),
            submit=lambda packet: None,
            backlog_fn=backlog,
            size_fn=make_size_fn(workload, inputs),
            target=target,
            submit_many=lambda packets: None,
        )
        start = perf_counter_ns()
        while source.generated < n_packets:
            source.poke()
        return perf_counter_ns() - start

    return {
        "workloads.generators.ns_per_pkt": _best_ns(generator_pass) / n_packets
    }


def _reliability_rung(workload: Workload, sizes: List[int]) -> Dict[str, float]:
    name = "transport.reliability.rx_ns_per_pkt"
    if workload.reliability == "quasi_fifo":
        return {name: 0.0}
    # The ARQ receiver's input: rseqs in order, except that the workload's
    # loss share of packets shows up ARQ_REPAIR_LAG positions late (the
    # retransmission), which opens and closes SACK holes on the way.
    rng = random.Random(0)
    order: List[int] = []
    late: Deque[Tuple[int, int]] = deque()
    for rseq in range(len(sizes)):
        while late and late[0][0] <= rseq:
            order.append(late.popleft()[1])
        if rng.random() < workload.loss:
            late.append((rseq + ARQ_REPAIR_LAG, rseq))
        else:
            order.append(rseq)
    order.extend(rseq for _, rseq in late)

    def arq_pass() -> int:
        packets = [Packet(size=size, seq=seq) for seq, size in enumerate(sizes)]
        for rseq, packet in enumerate(packets):
            packet.rseq = rseq
        arrivals = [packets[rseq] for rseq in order]
        delivered: List[Any] = []
        receiver = ReliableReceiver(
            delivered.append,
            send_ack=lambda sack: None,
            **ARQ_OPTIONS["receiver"],
        )
        start = perf_counter_ns()
        for packet in arrivals:
            receiver.push(packet)
        elapsed = perf_counter_ns() - start
        assert len(delivered) == len(sizes), "ARQ rung lost packets"
        return elapsed

    return {name: _best_ns(arq_pass) / len(sizes)}


def _fec_rungs(
    workload: Workload, inputs: Inputs, sizes: List[int]
) -> Dict[str, float]:
    if workload.reliability != "hybrid":
        return {"core.fec.encode_mb_s": 0.0, "core.fec.decode_mb_s": 0.0}
    # Stripe groups exactly as FecSender seals them: k shards padded to the
    # longest; decode repairs one erased member per group.
    groups: List[List[bytes]] = []
    for chunk in _chunks(sizes, FEC_K):
        shards = []
        for size in chunk:
            packet = Packet(size=size, seq=0, payload=inputs.payloads[size])
            shards.append(shard_for(packet))
        longest = max(len(shard) for shard in shards)
        groups.append([shard.ljust(longest, b"\x00") for shard in shards])
    data_bytes = sum(len(shard) for group in groups for shard in group)
    parity: List[List[bytes]] = []

    def encode_pass() -> int:
        codec = make_codec(FEC_K, FEC_M)
        parity.clear()
        start = perf_counter_ns()
        for group in groups:
            parity.append(codec.encode(group))
        return perf_counter_ns() - start

    def decode_pass() -> int:
        codec = make_codec(FEC_K, FEC_M)
        erased = [[None] + group[1:] for group in groups]
        start = perf_counter_ns()
        for index, group in enumerate(erased):
            rebuilt = codec.decode(group, parity[index])
            assert rebuilt[0] == groups[index][0], "FEC rung rebuilt garbage"
        return perf_counter_ns() - start

    # bytes per nanosecond times 1e3 is megabytes per second
    return {
        "core.fec.encode_mb_s": 1e3 * data_bytes / _best_ns(encode_pass),
        "core.fec.decode_mb_s": 1e3 * data_bytes / _best_ns(decode_pass),
    }


def _fabric_rungs(workload: Workload, inputs: Inputs) -> Dict[str, float]:
    names = (
        "transport.fabric.submit_ns_per_pkt",
        "transport.fabric.pump_ns_per_pkt",
    )
    if not workload.flows:
        return dict.fromkeys(names, 0.0)
    size = workload.sizes[0]
    demand = flow_demand(inputs)
    total = sum(demand)
    submit_ns: List[int] = []

    def pump_pass() -> int:
        fabric = make_fabric(workload, inputs)
        gate = {"open": False}
        drained: List[Any] = []
        fabric.bind(drained.append, ready=lambda: gate["open"])
        packets = [
            (flow_id, Packet(size=size, seq=0))
            for flow_id, count in enumerate(demand)
            for _ in range(count)
        ]
        start = perf_counter_ns()
        for flow_id, packet in packets:
            fabric.submit(flow_id, packet)
        submit_ns.append(perf_counter_ns() - start)
        gate["open"] = True
        start = perf_counter_ns()
        fabric.pump()
        elapsed = perf_counter_ns() - start
        assert len(drained) == total, "fabric rung lost packets"
        return elapsed

    pump_ns = _best_ns(pump_pass)
    return {
        names[0]: min(submit_ns) / total,
        names[1]: pump_ns / total,
    }
