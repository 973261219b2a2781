"""Count guards for the fixed per-packet path of the burst/train data path.

Deterministic counts under ``sys.setprofile``, no wall clock.  The rig is
the ``skewed_small`` benchmark workload (4 dissimilar channels, 64/576 B
drawn 3:1, a marker every 8 rounds, pooled packets) at 0.02 of its size,
built from public names.

Measured on CPython 3.11.7, Python-level frames per delivered packet over
the whole run (2,894 packets):

* parent (``random.choices`` per draw, ``_make`` per packet, ``size_of`` at
  send and again at burst start, ``handle -> is_marker -> push`` per
  arrival, a clock read per train run): 22.51
* this tree: 15.47

The bound sits halfway.  3.12 inlines comprehensions, which only lowers
the count.
"""

import random
import sys

from repro.core.packet import PacketPool
from repro.sim import Simulator
from repro.transport import wire_size
from repro.workloads import ClosedLoopSource, RandomMixSizes

from tests.integration.test_wakeup_counts import SCALE, build

FRAMES_PER_PACKET_BOUND = 19.0

_RUN_CODE = Simulator.run.__code__


class CallCounter:
    """Counts Python frames, ``wire_size`` frames and engine group batches
    (``group.clear()`` inside :meth:`Simulator.run`) while installed."""

    def __init__(self):
        self.frames = 0
        self.wire_size_frames = 0
        self.engine_groups = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            self.frames += 1
            if frame.f_code is wire_size.__code__:
                self.wire_size_frames += 1
        elif (
            event == "c_call"
            and frame.f_code is _RUN_CODE
            and arg.__name__ == "clear"
        ):
            self.engine_groups += 1

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def test_frames_per_small_packet_and_one_size_per_wire_packet():
    sim = Simulator()
    n = 4
    channels, sender, receiver, delivered = build(
        sim, (5.0, 10.0, 20.0, 40.0), (0.2, 1.0, 3.0, 8.0),
        (600.0, 1200.0, 2400.0, 4800.0), 8, 40,
    )
    pool = PacketPool()

    def on_message(packet):
        delivered.append(packet.seq)
        pool.release(packet)

    receiver.on_message = on_message
    source = ClosedLoopSource(
        sim,
        submit=sender.submit_packet,
        backlog_fn=lambda: sender.backlog,
        size_fn=RandomMixSizes((64, 576), (3.0, 1.0), rng=random.Random(15)),
        target=4 * n,
        submit_many=sender.submit_packets,
        pool=pool,
    )

    def wake():
        sender.pump()
        source.poke()

    for index, channel in enumerate(channels):
        channel.on_deliver = receiver.channel_handler(index)
        channel.on_space = wake
    with CallCounter() as counter:
        source.start()
        sim.run(until=12.0 * 0.3 * SCALE, batch=True)
        source.stop()
        sim.run(until=sim.now + 0.5, batch=True)
    assert delivered == list(range(source.generated)) and len(delivered) > 2000
    per_packet = counter.frames / len(delivered)
    assert per_packet <= FRAMES_PER_PACKET_BOUND, per_packet
    wire_packets = sum(channel.stats.offered_packets for channel in channels)
    assert wire_packets > len(delivered)  # the markers are wire packets too
    assert counter.wire_size_frames == wire_packets


def test_single_event_timestamps_never_enter_the_group_path():
    def run(delays):
        sim = Simulator()
        fired = []

        def fire(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule_call(sim.now + 0.0037, lambda: fire(depth - 1))

        for delay in delays:
            sim.schedule(delay, fire, 3)
        with CallCounter() as counter:
            processed = sim.run(batch=True)
        assert processed == len(fired) == 4 * len(delays)
        return counter.engine_groups, fired

    groups, fired = run([0.01 * i for i in range(200)])
    assert len(set(fired)) == len(fired)
    assert groups == 0
    # The counter does see the group path when timestamps are shared.
    groups, fired = run([0.5] * 10)
    assert groups == 4
