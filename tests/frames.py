"""What a delivered packet costs, counted: the table behind ``make frames``.

    PYTHONPATH=src python -m tests.frames [--top N]

Runs the five benchmark workload shapes (``BENCHMARK.json``) at 0.02 of
their size under ``sys.setprofile`` and prints, per shape, Python frames
per delivered packet, kernel steps per data packet the striper sent and
``Simulator.schedule_call`` frames per delivered packet.  ``--top N`` adds
the N functions with the most frames per packet under each shape.  A
second table gives the tracemalloc bytes per registered flow of the
``fabric_fanin`` flow table at 1k, 10k and 100k flows, idle and with 2
and 8 packets queued (:func:`bytes_per_flow`).  A last line gives the
frames per marker adoption of a resync across 4, 64 and 512 channels
(:func:`resync_frames_per_adoption`).

The counts are deterministic (no wall clock) and take seconds; the rigs
are built from public names and wired the way ``perfbench/rigs.py`` wires
them, so a perf issue can quote this table instead of re-deriving one.
``tests/integration/test_call_counts.py`` and ``test_wakeup_counts.py``
guard bounds on the same rigs, ``tests/transport/test_fabric_storage.py``
on the bytes per flow.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core import SRR, MarkerPolicy, Packet, SRRKernel, Striper
from repro.core.markers import SRRReceiver
from repro.core.packet import MarkerPacket, PacketPool
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

SCALE = 0.02
TENANT_WEIGHTS = {"gold": 4, "silver": 2, "bronze": 1}
ARQ_SENDER = {"window_packets": 512}
ARQ_RECEIVER = {"ack_every": 16}
MARKER_KEEPALIVE_S = 0.02


class Shape(NamedTuple):
    """One workload of ``perfbench/rigs.py``, full size."""

    rates_mbps: Tuple[float, ...]
    delays_ms: Tuple[float, ...]
    quanta: Tuple[float, ...]
    sizes: Tuple[int, ...]
    marker_rounds: int
    size_weights: Optional[Tuple[float, ...]] = None
    queue: int = 40
    reliability: str = "quasi_fifo"
    loss: float = 0.0
    pool: bool = False
    sim_seconds: float = 0.0
    flows: int = 0


# Five times the benchmark's horizon: at 0.02 of 2.4 s the lossy pair sees
# 340 packets, too few to spread the FEC codec's one-off tables over.
_LOSSY = Shape(
    (10.0,) * 4, tuple(0.5 + 0.1 * i for i in range(4)), (1500.0,) * 4,
    (200, 1000, 1460), 1, reliability="reliable", loss=0.05, sim_seconds=12.0,
)

SHAPES: Dict[str, Shape] = {
    "clean_bulk": Shape(
        (10.0,) * 16, tuple(0.5 + 0.1 * i for i in range(16)),
        (1000.0,) * 16, (1000,), 1, pool=True, sim_seconds=3.0,
    ),
    "skewed_small": Shape(
        (5.0, 10.0, 20.0, 40.0), (0.2, 1.0, 3.0, 8.0),
        (600.0, 1200.0, 2400.0, 4800.0), (64, 576), 8,
        size_weights=(3.0, 1.0), pool=True, sim_seconds=3.6,
    ),
    "lossy_reliable": _LOSSY,
    "lossy_hybrid": _LOSSY._replace(reliability="hybrid"),
    "fabric_fanin": Shape(
        (250.0,) * 4, (0.2,) * 4, (1200.0,) * 4, (400,), 8,
        queue=64, flows=10_000,
    ),
}


def build(sim: Simulator, shape: Shape, fabric: Any = None, seed: int = 15):
    """``(channels, sender, receiver, delivered)`` of ``shape`` on ``sim``;
    ``delivered`` collects the seq of every application delivery.  Arrival
    and space callbacks are left to the caller."""
    channels = [
        Channel(
            sim, rate * 1e6, delay * 1e-3, name=f"ch{i}",
            queue_limit=shape.queue, size_of=wire_size, fast=True,
            loss_model=(
                BernoulliLoss(shape.loss, rng=random.Random(seed + i))
                if shape.loss else None
            ),
        )
        for i, (rate, delay) in enumerate(
            zip(shape.rates_mbps, shape.delays_ms)
        )
    ]
    arq = shape.reliability != "quasi_fifo"
    sender = StripeSenderPipeline(
        [FastChannelPort(channel) for channel in channels],
        SRR(list(shape.quanta)),
        marker_policy=MarkerPolicy(interval_rounds=shape.marker_rounds),
        sim=sim,
        marker_keepalive_s=MARKER_KEEPALIVE_S if shape.loss else None,
        reliability=shape.reliability,
        reliability_options=ARQ_SENDER if arq else None,
        fabric=fabric,
    )
    send_ack = None
    if arq:
        # Acks ride a clean reverse channel shaped like forward channel 0.
        reverse = Channel(
            sim, shape.rates_mbps[0] * 1e6, shape.delays_ms[0] * 1e-3,
            name="reverse", queue_limit=shape.queue,
        )
        send_ack = wire_fast_ack_path(reverse, sender).send_sack
    delivered: List[int] = []
    receiver = StripeReceiverPipeline(
        len(channels), SRR(list(shape.quanta)), mode="marker",
        on_message=lambda packet: delivered.append(packet.seq), sim=sim,
        reliability=shape.reliability, send_ack=send_ack,
        reliability_options=ARQ_RECEIVER if arq else None,
    )
    receiver.retain_delivered = False
    return channels, sender, receiver, delivered


def drive_closed_loop(sim, shape, channels, sender, receiver, delivered, pool):
    """Wire a backlogged source and the wake-ups; returns ``run()``."""
    if len(shape.sizes) == 1:
        size_fn: Callable[[], int] = ConstantSizes(shape.sizes[0])
    else:
        size_fn = RandomMixSizes(
            shape.sizes, shape.size_weights, rng=random.Random(15)
        )
    submit_many = sender.submit_packets
    if shape.loss:
        payloads = {size: bytes(size) for size in shape.sizes}

        def submit_many(packets: List[Packet]) -> None:
            for packet in packets:
                packet.payload = payloads[packet.size]
            sender.submit_packets(packets)

    def backlog() -> int:
        # A full ARQ window reads as "backlogged", as in perfbench.
        if not sender.can_submit():
            return 1 << 30
        return sender.backlog

    source = ClosedLoopSource(
        sim,
        submit=sender.submit_packet,
        backlog_fn=backlog,
        size_fn=size_fn,
        target=4 * len(channels),
        submit_many=submit_many,
        pool=pool,
    )

    def wake() -> None:
        sender.pump()
        source.poke()

    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = wake
    if sender.reliable is not None:
        sender.reliable.on_window_open = wake

    def run() -> int:
        source.start()
        sim.run(until=shape.sim_seconds * SCALE, batch=True)
        source.stop()
        limit = sim.now + 5.0
        while len(delivered) < source.generated and sim.now < limit:
            sim.run(until=sim.now + 0.05, batch=True)
        return source.generated

    return run


def drive_open_burst(sim, shape, channels, sender, receiver, table):
    """Every flow's demand in one burst at t=0; returns ``run()``."""
    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = sender.pump
    tenants = list(TENANT_WEIGHTS)
    size = shape.sizes[0]

    def run() -> int:
        seq = 0
        for flow_id in range(round(shape.flows * SCALE)):
            tenant = tenants[flow_id % len(tenants)]
            table.register(flow_id, tenant=tenant)
            for _ in range(2 * TENANT_WEIGHTS[tenant]):
                sender.submit(flow_id, Packet(size=size, seq=seq))
                seq += 1
        sim.run(until=60.0, batch=True)
        return seq

    return run


class FrameCounter:
    """Python frames by code object while installed, plus the kernel steps
    (``step`` frames and the packets each batched assignment covered), the
    ``snapshot`` / ``restore`` frames inside :meth:`Striper.pump` and
    the engine's same-timestamp batches (a ``rest.reverse()`` each)."""

    _STEP = SRRKernel.step.__code__
    _ASSIGN_MANY = SRRKernel.assign_many.__code__
    _ASSIGN_ADMITTED = SRRKernel.assign_admitted.__code__
    _SAVES = (SRRKernel.snapshot.__code__, SRRKernel.restore.__code__)
    _PUMP = Striper.pump.__code__
    _ENGINE = Simulator.run.__code__.co_filename

    def __init__(self) -> None:
        self.by_code: Counter = Counter()
        self.kernel_steps = 0
        self.pump_saves = 0
        self.engine_groups = 0
        self._pump_depth = 0

    @property
    def frames(self) -> int:
        return sum(self.by_code.values())

    def frames_of(self, function: Any) -> int:
        return self.by_code[function.__code__]

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.by_code[code] += 1
            if code is self._STEP:
                self.kernel_steps += 1
            elif code is self._ASSIGN_MANY:
                self.kernel_steps += len(frame.f_locals["sizes"])
            elif code is self._PUMP:
                self._pump_depth += 1
            elif code in self._SAVES and self._pump_depth:
                self.pump_saves += 1
        elif event == "return":
            code = frame.f_code
            if code is self._PUMP:
                self._pump_depth -= 1
            elif code is self._ASSIGN_ADMITTED and arg is not None:
                self.kernel_steps += len(arg[0])
        elif (
            event == "c_call"
            and arg.__name__ == "reverse"
            and frame.f_code.co_filename == self._ENGINE
        ):
            self.engine_groups += 1

    def __enter__(self) -> "FrameCounter":
        sys.setprofile(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)


class Measured(NamedTuple):
    counter: FrameCounter
    delivered: List[int]
    generated: int
    channels: List[Channel]
    sender: StripeSenderPipeline

    @property
    def frames_per_packet(self) -> float:
        return self.counter.frames / len(self.delivered)

    @property
    def steps_per_packet_sent(self) -> float:
        return self.counter.kernel_steps / self.sender.striper.packets_sent

    @property
    def schedule_calls_per_packet(self) -> float:
        frames = self.counter.frames_of(Simulator.schedule_call)
        return frames / len(self.delivered)


def measure(name: str) -> Measured:
    """Run shape ``name`` to completion under a :class:`FrameCounter`."""
    shape = SHAPES[name]
    sim = Simulator()
    if shape.flows:
        table = FlowTable(
            tenant_weights=TENANT_WEIGHTS,
            quantum_bytes=float(shape.sizes[0]),
        )
        fabric = FabricScheduler(table, flow_buffer_packets=None)
        channels, sender, receiver, delivered = build(sim, shape, fabric)
        run = drive_open_burst(sim, shape, channels, sender, receiver, table)
    else:
        channels, sender, receiver, delivered = build(sim, shape)
        pool = PacketPool() if shape.pool else None
        if pool is not None:
            def on_message(packet: Packet) -> None:
                delivered.append(packet.seq)
                pool.release(packet)

            receiver.on_message = on_message
        run = drive_closed_loop(
            sim, shape, channels, sender, receiver, delivered, pool
        )
    with FrameCounter() as counter:
        generated = run()
    return Measured(counter, delivered, generated, channels, sender)


#: registered flows the bytes-per-flow table is read at (ROADMAP
#: direction 6's flows axis) and the packets queued on each
FLOW_COUNTS = (1_000, 10_000, 100_000)
QUEUED = (0, 2, 8)


def bytes_per_flow(flows: int, queued: int) -> float:
    """tracemalloc bytes per registered flow of a ``fabric_fanin`` flow
    table with ``queued`` packets on every flow, the packets excluded.

    Flows register under the shape's tenants as perfbench registers them
    (int ids made as they register) and nothing drains.  Every flow
    queues the same ``queued`` packet objects, made before tracing
    starts, so what is counted is the table, the flows and their storage.
    """
    size = SHAPES["fabric_fanin"].sizes[0]
    tenants = list(TENANT_WEIGHTS)
    packets = [Packet(size=size, seq=seq) for seq in range(queued)]
    gc.collect()
    tracemalloc.start()
    try:
        table = FlowTable(
            tenant_weights=TENANT_WEIGHTS, quantum_bytes=float(size)
        )
        fabric = FabricScheduler(table, flow_buffer_packets=None)
        fabric.bind(lambda packet: None, ready=lambda: 0)
        for flow_id in range(flows):
            table.register(flow_id, tenant=tenants[flow_id % len(tenants)])
            for packet in packets:
                fabric.submit(flow_id, packet)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / flows
    finally:
        tracemalloc.stop()


#: channel counts the resync row is read at (ROADMAP direction 6's
#: channels axis)
RESYNC_CHANNELS = (4, 64, 512)


def resync_frames_per_adoption(n: int) -> float:
    """Python frames per marker adoption while each of ``n`` channels, in
    channel order, adopts a marker for a future round (condition C1): the
    scan skips every synced channel and, once all are, fast-forwards."""
    receiver = SRRReceiver(SRR([100.0] * n))
    markers = [MarkerPacket(c, 10, 100.0) for c in range(n)]
    with FrameCounter() as counter:
        for channel, marker in enumerate(markers):
            receiver.push(channel, marker)
    assert receiver.stats.adoptions == n and receiver.round_number == 10
    return counter.frames / n


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    top = int(args[args.index("--top") + 1]) if "--top" in args else 0
    print(
        f"{'shape':<15} {'packets':>8} {'frames/pkt':>11} "
        f"{'kernel steps/sent':>18} {'schedule_call/pkt':>18}"
    )
    for name in SHAPES:
        m = measure(name)
        packets = len(m.delivered)
        print(
            f"{name:<15} {packets:>8} {m.frames_per_packet:>11.2f} "
            f"{m.steps_per_packet_sent:>18.2f} "
            f"{m.schedule_calls_per_packet:>18.2f}"
        )
        for code, frames in m.counter.by_code.most_common(top):
            where = code.co_filename.rsplit("/", 1)[-1]
            print(
                f"    {frames / packets:7.2f}  {code.co_qualname} "
                f"({where}:{code.co_firstlineno})"
            )
    print()
    print(
        f"{'flows':>7} "
        + " ".join(f"{f'{q} queued' if q else 'idle':>9}" for q in QUEUED)
        + "   (tracemalloc B per registered flow, packets excluded)"
    )
    for flows in FLOW_COUNTS:
        cells = " ".join(f"{bytes_per_flow(flows, q):>9.0f}" for q in QUEUED)
        print(f"{flows:>7} {cells}")
    print()
    print(
        "resync, frames per marker adoption at N = "
        + " / ".join(str(n) for n in RESYNC_CHANNELS) + ": "
        + " / ".join(
            f"{resync_frames_per_adoption(n):.2f}" for n in RESYNC_CHANNELS
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
