"""Kill/restart chaos properties: exactly-once delivery across crashes.

The paper handles endpoint crashes "by doing a reset"; the recovery
subsystem upgrades that to warm restarts from durable state.  These
properties are the contract, run over randomized crash schedules layered
on 10% persistent loss (so ARQ is live while endpoints die):

* **reliable** (30+ seeds): every submitted message is delivered exactly
  once, in order, no matter how many times the sender and receiver are
  killed and restarted from checkpoint mid-run;
* **hybrid** (FEC above ARQ): same exactly-once contract — parity and
  group state must not confuse the replay;
* **fabric-attached**: conservation holds globally and FIFO holds per
  flow (the fabric interleaves flows by design), under a steady source
  and under a bursty one that leaves flow queues non-empty when the
  checkpoints are taken;
* **cold resync** (quasi-FIFO): a receiver restarted with *no* checkpoint
  converges to strictly-increasing delivery within one marker round plus
  a one-way delay after its restart (Theorem 5.1's fault-cessation bound
  applied to a reset receiver).
"""

import random

import pytest

from repro.experiments.recovery import (
    BANDWIDTH_BPS,
    KEEPALIVE_S,
    MESSAGE_BYTES,
    PROP_DELAY,
    QUEUE_LIMIT,
    RecoveryRig,
)
from repro.core.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultSchedule,
    endpoint_crash_schedule,
    persistent_loss_schedule,
)

LOSS_P = 0.10
SOURCE_STOP = 0.8
RUN_UNTIL = 2.5
SOURCE_INTERVAL = 0.4e-3


def _random_crashes(seed):
    """2-3 kills at spaced times, random targets (repeats allowed)."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    times, t = [], 0.1
    for _ in range(n):
        t += rng.uniform(0.12, 0.2)
        times.append(t)
    crashes = [(t, rng.choice(("sender", "receiver"))) for t in times]
    return crashes, rng.uniform(0.03, 0.06)


def _bursty_source(rig, interval, burst, checkpoint_at, stop_at):
    """Every ``interval``, ``burst`` messages round-robin over the rig's
    flows — more than the ARQ window takes, so the rest waits in the
    fabric's flow queues — with a sender checkpoint taken after the
    first ``checkpoint_at`` of them: the drain that follows binds
    packets the checkpoint holds and packets only the WAL holds."""
    sim = rig.sim

    def tick():
        if sim.now >= stop_at:
            return
        for index in range(burst):
            sender = rig.sender
            if sender is None:
                break
            if index == checkpoint_at:
                rig.sender_recovery.checkpoint()
            flow = rig.flows[rig.next_seq % len(rig.flows)]
            if not sender.can_submit(flow):
                break
            packet = Packet(size=MESSAGE_BYTES, seq=rig.next_seq, flow=flow)
            if sender.submit(flow, packet):
                rig.next_seq += 1
                rig.submit_times.append(sim.now)
        sim.schedule(interval, tick)

    sim.schedule_at(0.0, tick)


def _run(seed, source=None, **rig_kwargs):
    sim = Simulator()
    rig = RecoveryRig(sim, checkpoint_interval_s=0.05, **rig_kwargs)
    crashes, outage = _random_crashes(seed)
    loss = persistent_loss_schedule(
        rig.n_channels, LOSS_P, start=0.0, until=SOURCE_STOP
    )
    schedule = FaultSchedule(
        tuple(loss.events)
        + tuple(endpoint_crash_schedule(crashes, outage=outage).events)
    )
    if source is None:
        rig.start_source(interval=SOURCE_INTERVAL, stop_at=SOURCE_STOP)
    else:
        source(rig)
    schedule.install(sim, rig.channels, seed=seed, endpoints=rig.controller)
    sim.run(until=RUN_UNTIL)
    assert rig.controller.total_crashes == len(crashes)
    assert sum(rig.controller.restarts.values()) == len(crashes)
    assert rig.next_seq > 500  # the source actually ran
    return rig


@pytest.mark.parametrize("seed", range(30))
def test_reliable_exactly_once_in_order_across_kills(seed):
    rig = _run(seed, reliability="reliable")
    delivered = rig.delivered_seqs()
    assert delivered == sorted(set(delivered)), "duplicate or misordered"
    assert set(delivered) == set(range(rig.next_seq)), "messages lost"


@pytest.mark.parametrize("seed", range(100, 106))
def test_hybrid_exactly_once_in_order_across_kills(seed):
    rig = _run(seed, reliability="hybrid")
    delivered = rig.delivered_seqs()
    assert delivered == sorted(set(delivered)), "duplicate or misordered"
    assert set(delivered) == set(range(rig.next_seq)), "messages lost"


@pytest.mark.parametrize("seed", range(200, 206))
def test_fabric_per_flow_fifo_across_kills(seed):
    rig = _run(seed, reliability="reliable", with_fabric=True)
    delivered = rig.delivered_seqs()
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert set(delivered) == set(range(rig.next_seq)), "messages lost"
    n_flows = len(rig.flows)
    for k in range(n_flows):
        flow_seqs = [s for s in delivered if s % n_flows == k]
        assert flow_seqs == sorted(flow_seqs), f"flow {k} out of order"


@pytest.mark.parametrize("seed", range(200, 206))
def test_fabric_bursty_per_flow_fifo_across_kills(seed):
    """The fabric case with checkpoints taken over non-empty flow queues:
    packets drained after a checkpoint must come back under the rseqs
    they went out with, never re-drained under new ones."""
    backlogs = []

    def bursty(rig):
        save = rig.sender_store.save_checkpoint

        def observed(blob):
            backlogs.append(
                sum(flow.backlog for flow in rig.sender.fabric.table)
            )
            save(blob)

        rig.sender_store.save_checkpoint = observed
        _bursty_source(rig, 99 * SOURCE_INTERVAL, 99, 80, SOURCE_STOP)

    rig = _run(seed, source=bursty, reliability="reliable", with_fabric=True)
    assert sum(1 for backlog in backlogs if backlog) >= 10
    delivered = rig.delivered_seqs()
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert set(delivered) == set(range(rig.next_seq)), "messages lost"
    n_flows = len(rig.flows)
    for k in range(n_flows):
        flow_seqs = [s for s in delivered if s % n_flows == k]
        assert flow_seqs == sorted(flow_seqs), f"flow {k} out of order"


@pytest.mark.parametrize("seed", range(300, 306))
def test_cold_receiver_resyncs_via_markers(seed):
    """A checkpoint-less receiver restart converges cold (Theorem 5.1).

    Loss ceases before the kill so the post-restart world is fault-free;
    the delivered tail after restart + one marker keepalive + a worst-case
    one-way delay must be strictly increasing.
    """
    rng = random.Random(seed)
    down_at = rng.uniform(0.4, 0.5)
    outage = rng.uniform(0.03, 0.06)
    sim = Simulator()
    rig = RecoveryRig(
        sim,
        reliability="quasi_fifo",
        checkpoint_interval_s=0.05,
        cold_receiver=True,
    )
    loss = persistent_loss_schedule(
        rig.n_channels, LOSS_P, start=0.0, until=0.35
    )
    crashes = endpoint_crash_schedule(
        [(down_at, "receiver")], outage=outage
    )
    schedule = FaultSchedule(tuple(loss.events) + tuple(crashes.events))
    rig.start_source(interval=SOURCE_INTERVAL, stop_at=SOURCE_STOP)
    schedule.install(sim, rig.channels, seed=seed, endpoints=rig.controller)
    sim.run(until=RUN_UNTIL)

    assert rig.receiver_recovery.cold is True
    transmission = MESSAGE_BYTES * 8 / BANDWIDTH_BPS
    settle = (
        down_at + outage + KEEPALIVE_S
        + (QUEUE_LIMIT + 1) * transmission + PROP_DELAY
    )
    tail = [s for t, s in rig.deliveries if t >= settle]
    assert len(tail) > 100, "cold receiver never resynced"
    assert all(a < b for a, b in zip(tail, tail[1:])), (
        "cold resync did not restore strictly-increasing delivery"
    )


def test_repeated_same_target_kills_still_converge():
    """Kill the sender three times in one run; the contract must hold."""
    sim = Simulator()
    rig = RecoveryRig(sim, reliability="reliable", checkpoint_interval_s=0.05)
    loss = persistent_loss_schedule(
        rig.n_channels, LOSS_P, start=0.0, until=SOURCE_STOP
    )
    crashes = endpoint_crash_schedule(
        [(0.15, "sender"), (0.35, "sender"), (0.55, "sender")], outage=0.04
    )
    schedule = FaultSchedule(tuple(loss.events) + tuple(crashes.events))
    rig.start_source(interval=SOURCE_INTERVAL, stop_at=SOURCE_STOP)
    schedule.install(sim, rig.channels, seed=17, endpoints=rig.controller)
    sim.run(until=RUN_UNTIL)
    assert rig.controller.crashes["sender"] == 3
    delivered = rig.delivered_seqs()
    assert delivered == sorted(set(delivered))
    assert set(delivered) == set(range(rig.next_seq))


def test_recovery_latency_metric_reports_completed_outages():
    sim = Simulator()
    rig = RecoveryRig(sim, reliability="reliable", checkpoint_interval_s=0.05)
    loss = persistent_loss_schedule(
        rig.n_channels, LOSS_P, start=0.0, until=SOURCE_STOP
    )
    crashes = endpoint_crash_schedule(
        [(0.2, "sender"), (0.45, "receiver")], outage=0.05
    )
    schedule = FaultSchedule(tuple(loss.events) + tuple(crashes.events))
    rig.start_source(interval=SOURCE_INTERVAL, stop_at=SOURCE_STOP)
    schedule.install(sim, rig.channels, seed=7, endpoints=rig.controller)
    sim.run(until=RUN_UNTIL)
    latencies = rig.recovery_latencies()
    assert len(latencies) == 2
    assert all(lat is not None and lat >= 0.0 for lat in latencies)
