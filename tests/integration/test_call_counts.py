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
"""

import random
from functools import lru_cache

import pytest

from repro.core import Packet, fec
from repro.sim import (
    BernoulliLoss,
    Channel,
    CorruptionModel,
    DeterministicLoss,
    Event,
    Simulator,
)
from repro.transport import wire_size

from tests.frames import FrameCounter, measure

FRAMES_PER_PACKET_BOUND = {
    "clean_bulk": 24.0,
    "skewed_small": 12.0,
    "lossy_reliable": 72.0,
    "lossy_hybrid": 90.0,
}
SCHEDULE_CALLS_PER_PACKET_BOUND = 0.2

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


def test_a_second_hybrid_rig_builds_no_tables():
    run_of("lossy_hybrid")
    tables = dict(fec._MUL_TABLES)
    assert tables  # the hybrid codec has coefficients other than 1
    second = measure("lossy_hybrid")
    assert second.delivered == list(range(second.generated))
    assert fec._MUL_TABLES.keys() == tables.keys()
    assert all(fec._MUL_TABLES[c] is table for c, table in tables.items())


@pytest.mark.parametrize(
    "model", ["bernoulli", "deterministic", "corruption", "skew"]
)
def test_lossy_channels_allocate_no_event(model):
    sim = Simulator()
    rng = random.Random(5)
    impairments = {
        "bernoulli": {"loss_model": BernoulliLoss(0.2, rng=rng)},
        "deterministic": {"loss_model": DeterministicLoss(range(0, 400, 7))},
        "corruption": {"corruption": CorruptionModel(1e-4, rng=rng)},
        "skew": {
            "loss_model": BernoulliLoss(0.2, rng=rng),
            "skew": lambda: rng.uniform(0.0, 1e-3),
        },
    }
    channel = Channel(
        sim, 10e6, 0.5e-3, queue_limit=8, fast=True, **impairments[model]
    )
    delivered = []
    channel.on_deliver = delivered.append
    packets = iter(Packet(size=500 + i % 900, seq=i) for i in range(400))

    def refill():
        for packet in packets:
            channel.send(packet)
            if not channel.can_accept():
                return

    channel.on_space = refill
    with FrameCounter() as counter:
        refill()
        sim.run(batch=True)
    dropped = channel.stats.lost_packets + channel.stats.corrupted_packets
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
    assert striper.stats()["fallback_pumps"] == 0


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
