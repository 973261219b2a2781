"""Count guards for the fixed per-packet path of the burst/train data path.

Deterministic counts under ``sys.setprofile``, no wall clock.  The rigs are
the benchmark workloads at 0.02 of their size, built from public names in
``tests/frames.py`` (``make frames`` prints the whole table).

Measured on CPython 3.11.7, Python-level frames per delivered packet over
the whole run, parent commit -> this tree:

* ``clean_bulk`` shape (1,664 packets): 35.57 -> 18.98, bound 24
* ``skewed_small`` shape (2,894 packets): 15.59 -> 9.61, bound 12

and kernel steps per data packet the striper sent, 6.72 / 1.26 / 5.88
(``clean_bulk`` / ``skewed_small`` / ``lossy_reliable``) -> exactly 1.  The
parent spent the difference on a speculative pump (snapshot, assign the
backlog, walk it twice, restore, re-assign the admitted prefix), a
``schedule_call`` per train hop, two frames per arrival and helper frames
per marker.  3.12 inlines comprehensions, which only lowers the counts.

The lossy pair, same measure, before -> after FEC groups were encoded
unpadded through shared tables and the lossy channel dropped its ``Event``
handles:

* ``lossy_reliable`` shape (1,263 packets): 77.89 -> 62.85, bound 72
* ``lossy_hybrid`` shape (867 packets): 120.95 -> 70.53, bound 90

The difference was per-codec multiply tables (18.5 frames per packet on
the hybrid shape), a ``schedule``/``schedule_at``/``Event`` chain per
transmit and per delivery, a ``_kick``/``_start_next`` pair per restart,
the per-packet shard helpers of both FEC ends, the pump's kernel call on a
blocked pump and the Karn-sample, clamp and timer-check helpers per ack.

The ARQ receiver then merged the acks each simulated instant earns into
one standing for all of them, same measure, before -> after:

* ``lossy_reliable`` shape: 62.46 -> 54.11 frames per packet, bound 60;
  0.99 -> 0.39 acks sent per delivered packet, bound 0.5

A retransmission an ack answered while it waited in the striper's input
queue used to be striped and sent anyway.  Copies a channel took after an
ack had retired or SACKed their rseq, and receiver duplicates per
delivered packet, same measure, before -> after the sender withdrew them:

* ``lossy_reliable`` shape: 8 -> 0 copies; 7/1,267 -> 3/1,286 duplicates
* ``lossy_hybrid`` shape: 16 -> 0 copies; 19/866 -> 5/877 duplicates

Every duplicate left is a copy that went out before any ack or FEC rebuild
answered it.  On the hybrid shape, four are fast retransmissions racing a
rebuild that landed 0.07-2.8 ms later, and one is a timeout that fired
while a delayed ack was in flight (``DESIGN.md`` "Reliability", the RTO
paragraph).  That was 0.0057 per packet.

Fast retransmissions then went ahead of the first transmissions queued in
the striper, and a hybrid hole waited for the data striped behind its
FEC parity before one was sent.  Same measure, before -> after:

* ``lossy_reliable`` shape: 605 -> 0 first transmissions a channel took
  while a fast retransmission waited behind them (80 / 77 fast
  retransmissions); 3/1,286 -> 6/1,271 duplicates, each a copy that left
  before the ack for its merely late original could withdraw it
* ``lossy_hybrid`` shape: 19 -> 0 fast retransmissions, 5/877 -> 1/877
  duplicates, so the hybrid bound is the old figure, 0.0057

A marker resync across N channels, frames per adoption at N = 64 / 512
(``resync_frames_per_adoption``): 39.53 / 263.50 -> 2.02 / 2.00, once the
receiver counted the channels holding a sync round instead of testing all
N of them on every C1 skip.
"""

import random
from functools import lru_cache

import pytest

from repro.core import Packet, Striper, fec
from repro.sim import (
    BernoulliLoss,
    Channel,
    DeterministicLoss,
    Event,
    Simulator,
)
from repro.transport import wire_size

from tests.conftest import RepairOrderWatch
from tests.frames import (
    SHAPES,
    FrameCounter,
    build,
    drive_closed_loop,
    measure,
    resync_frames_per_adoption,
)

FRAMES_PER_PACKET_BOUND = {
    "clean_bulk": 24.0,
    "skewed_small": 12.0,
    "lossy_reliable": 60.0,
    "lossy_hybrid": 90.0,
}
SCHEDULE_CALLS_PER_PACKET_BOUND = 0.2
ACKS_PER_PACKET_BOUND = 0.5
DUPLICATES_PER_PACKET_BOUND = {"lossy_reliable": 0.005, "lossy_hybrid": 0.0057}

run_of = lru_cache(maxsize=None)(measure)


def _frames_within_bound(name):
    run = run_of(name)
    assert run.delivered == list(range(run.generated))
    assert len(run.delivered) > 1500
    assert run.frames_per_packet <= FRAMES_PER_PACKET_BOUND[name]
    wire_packets = sum(ch.stats.offered_packets for ch in run.channels)
    assert wire_packets > len(run.delivered)  # the markers are wire packets too
    assert run.counter.frames_of(wire_size) == wire_packets
    return run


def test_frames_per_small_packet_and_one_size_per_wire_packet():
    _frames_within_bound("skewed_small")


def test_frames_per_bulk_packet_and_trains_that_rearm_themselves():
    run = _frames_within_bound("clean_bulk")
    # One train hop per wire packet here, each once a ``schedule_call``.
    assert run.schedule_calls_per_packet <= SCHEDULE_CALLS_PER_PACKET_BOUND


@pytest.mark.parametrize("name", ["lossy_reliable", "lossy_hybrid"])
def test_frames_per_lossy_packet(name):
    run = run_of(name)
    # Exactly once and in order: ARQ (and FEC) hide every loss.
    assert run.delivered == list(range(run.generated)) and run.delivered
    assert sum(ch.stats.lost_packets for ch in run.channels) > 20
    assert run.frames_per_packet <= FRAMES_PER_PACKET_BOUND[name]


def test_one_ack_per_instant_on_the_lossy_reliable_shape():
    # A drain releases many buffered packets in one instant; their acks
    # leave as one that stands for all of them.
    run = run_of("lossy_reliable")
    assert run.delivered == list(range(run.generated)) and run.delivered
    assert run.acks_per_packet <= ACKS_PER_PACKET_BOUND


@pytest.mark.parametrize("name", ["lossy_reliable", "lossy_hybrid"])
def test_no_channel_takes_a_copy_an_ack_already_answered(name):
    run = run_of(name)
    assert run.delivered == list(range(run.generated)) and run.delivered
    stats = run.sender.reliable.stats
    # The repairs an ack overtook were there to withdraw ...
    assert stats.withdrawn > 0
    # ... and none reached a channel after its rseq was retired or SACKed.
    assert stats.late_copies == 0
    assert run.duplicates_per_packet <= DUPLICATES_PER_PACKET_BOUND[name]


def test_no_first_transmission_leaves_while_a_fast_retransmission_waits():
    # The lossy_reliable shape again, outside the frame counter: the watch
    # wraps the sender's hooks, and its frames are not the stack's.
    shape = SHAPES["lossy_reliable"]
    sim = Simulator()
    channels, sender, receiver, delivered = build(sim, shape)
    watch = RepairOrderWatch(sender)
    generated = drive_closed_loop(
        sim, shape, channels, sender, receiver, delivered, None
    )()
    assert delivered == list(range(generated)) and delivered
    assert watch.repairs > 0
    assert watch.passed == 0


def test_a_second_hybrid_rig_builds_no_tables():
    run_of("lossy_hybrid")
    tables = dict(fec._MUL_TABLES)
    assert tables  # the hybrid codec has coefficients other than 1
    second = measure("lossy_hybrid")
    assert second.delivered == list(range(second.generated))
    assert fec._MUL_TABLES.keys() == tables.keys()
    assert all(fec._MUL_TABLES[c] is table for c, table in tables.items())


@pytest.mark.parametrize("model", ["bernoulli", "deterministic", "skew"])
def test_lossy_channels_allocate_no_event(model):
    sim = Simulator()
    rng = random.Random(5)
    losses = {
        "bernoulli": BernoulliLoss(0.2, rng=rng),
        "deterministic": DeterministicLoss(range(0, 400, 7)),
        # a lossy channel whose delay moves with every send (dynamic skew)
        "skew": BernoulliLoss(0.2, rng=rng),
    }
    channel = Channel(
        sim, 10e6, 0.5e-3, queue_limit=8, fast=True, loss_model=losses[model]
    )
    delivered = []
    channel.on_deliver = delivered.append
    packets = iter(Packet(size=500 + i % 900, seq=i) for i in range(400))

    def refill():
        for packet in packets:
            if model == "skew":
                channel.prop_delay = 0.5e-3 + rng.uniform(0.0, 1e-3)
            channel.send(packet)
            if not channel.can_accept():
                return

    channel.on_space = refill
    with FrameCounter() as counter:
        refill()
        sim.run(batch=True)
    dropped = channel.stats.lost_packets
    assert dropped > 0 and len(delivered) + dropped == 400
    assert counter.frames_of(Event.__init__) == 0
    # one transmit-complete and one delivery per packet, both slot-free
    assert counter.frames_of(Simulator.schedule_call) == 400 + len(delivered)


@pytest.mark.parametrize("name", ["clean_bulk", "lossy_reliable"])
def test_pump_steps_the_kernel_once_per_packet_sent(name):
    run = run_of(name)
    assert run.delivered == list(range(run.generated)) and run.delivered
    striper = run.sender.striper
    assert striper.packets_sent >= len(run.delivered)  # retransmissions too
    assert run.counter.kernel_steps == striper.packets_sent
    assert run.counter.pump_saves == 0  # no snapshot / restore in the pump
    # nothing went through the choose-per-packet loop of kernel-less policies
    assert run.counter.frames_of(Striper._pump_choosing) == 0


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
        with FrameCounter() as counter:
            processed = sim.run(batch=True)
        assert processed == len(fired) == 4 * len(delays)
        return counter.engine_groups, fired

    groups, fired = run([0.01 * i for i in range(200)])
    assert len(set(fired)) == len(fired)
    assert groups == 0
    # The counter does see the group path when timestamps are shared.
    groups, fired = run([0.5] * 10)
    assert groups == 4


def test_a_resync_costs_the_same_per_channel_at_any_width():
    # Each C1 skip is O(1); only a fast-forward looks at every channel.
    narrow, wide = (resync_frames_per_adoption(n) for n in (64, 512))
    assert wide <= 1.25 * narrow
