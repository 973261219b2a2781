"""Count guards for the wake-ups that cannot move a packet.

Deterministic counts only, no wall clock: the two rigs below are the
``fabric_fanin`` and ``clean_bulk`` benchmark workloads at 0.02 of their
size, built from public names in ``tests/frames.py``.  They pin what makes
those workloads cheap:

* once the fan-in burst is queued, the fabric drains it into the striper
  in batches, so the striper's batched pump engages (before batching, 91%
  of the data packets each cost one per-packet fallback pump and 10% were
  ever batched);
* a receiver parked on one channel's empty buffer does not rescan on an
  arrival elsewhere (before, every arrival ran one ``drain()``).
"""

from repro.core import Packet
from repro.sim import Simulator
from repro.transport import FabricScheduler, FlowTable
from repro.workloads import ClosedLoopSource, ConstantSizes

from tests.frames import SCALE, SHAPES, TENANT_WEIGHTS, build


def test_fabric_drain_reaches_the_striper_in_batches():
    sim = Simulator()
    table = FlowTable(tenant_weights=TENANT_WEIGHTS, quantum_bytes=400.0)
    fabric = FabricScheduler(table, flow_buffer_packets=None)
    channels, sender, receiver, delivered = build(
        sim, SHAPES["fabric_fanin"], fabric
    )
    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = sender.pump
    tenants = list(TENANT_WEIGHTS)
    seq = 0
    for flow_id in range(round(10_000 * SCALE)):
        tenant = tenants[flow_id % len(tenants)]
        table.register(flow_id, tenant=tenant)
        for _ in range(2 * TENANT_WEIGHTS[tenant]):
            sender.submit(flow_id, Packet(size=400, seq=seq))
            seq += 1
    # One submit is one pump of one packet, so the part of the burst that
    # fits the channel queues at t=0 is per-packet by construction; the
    # guard is on what the fabric drains afterwards.
    queued = sender.striper.stats()
    drained = seq - sender.striper.packets_sent
    assert drained > 0.5 * seq
    sim.run(until=60.0, batch=True)
    assert sorted(delivered) == list(range(seq))
    after = sender.striper.stats()
    fallback = after["fallback_pumps"] - queued["fallback_pumps"]
    batched = after["batched_packets"] - queued["batched_packets"]
    assert fallback <= 0.05 * drained, (fallback, drained)
    assert batched >= 0.90 * drained, (batched, drained)


def test_parked_receiver_scans_at_most_every_other_arrival():
    sim = Simulator()
    n = 16
    channels, sender, receiver, delivered = build(sim, SHAPES["clean_bulk"])
    drains = [0]
    resequencer = receiver.resequencer
    drain = resequencer.drain

    def counting_drain():
        drains[0] += 1
        return drain()

    resequencer.drain = counting_drain
    source = ClosedLoopSource(
        sim,
        submit=sender.submit_packet,
        backlog_fn=lambda: sender.backlog,
        size_fn=ConstantSizes(1000),
        target=4 * n,
        submit_many=sender.submit_packets,
    )

    def wake():
        sender.pump()
        source.poke()

    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = wake
    source.start()
    sim.run(until=10.0 * 0.3 * SCALE, batch=True)
    source.stop()
    sim.run(until=sim.now + 0.5, batch=True)
    assert delivered == list(range(source.generated)) and delivered
    arrivals = sum(channel.stats.delivered_packets for channel in channels)
    assert drains[0] <= 0.5 * arrivals, (drains[0], arrivals)
