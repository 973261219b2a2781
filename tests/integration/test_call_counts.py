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
"""

from functools import lru_cache

import pytest

from repro.sim import Simulator
from repro.transport import wire_size

from tests.frames import FrameCounter, measure

FRAMES_PER_PACKET_BOUND = {"clean_bulk": 24.0, "skewed_small": 12.0}
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
