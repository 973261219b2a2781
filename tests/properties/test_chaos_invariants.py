"""Chaos property tests: randomized fault schedules vs the protocol's claims.

The executable form of Theorem 5.1 and section 5's reliability discussion.
For every randomized :class:`~repro.sim.faults.FaultPlan` schedule whose
faults cease (guaranteed by construction):

* **exactly-once** — no application message is delivered twice (the
  protocol adds no sequence numbers, so this is a machinery property);
* **conservation** — every data packet that physically survives to the
  receiver is eventually delivered (the striping machinery itself loses
  nothing; in particular nothing sent on a fault-free surviving channel
  is lost);
* **quasi-FIFO resumption** — once every fault has ceased and one
  worst-case one-way delay (propagation + a full transmit queue + the
  largest injected delay spike) has elapsed, deliveries are in strictly
  increasing sequence order again.

``duplicate`` faults inherently violate exactly-once (the paper's headline
constraint is *no extra headers*, hence no dedup), so they are exercised
separately with a bounded-duplication assertion.

The channel-revival acceptance test (failed channel rejoins via probe +
RESET and carries its quantum share again) lives at the session layer in
``tests/transport/test_lifecycle.py``.
"""

from typing import List, Tuple

import pytest

from repro.core.packet import is_marker
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    EXACTLY_ONCE_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    persistent_loss_schedule,
)
from repro.transport.endpoint import (
    ChannelLifecycleManager,
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fast_path import FastChannelPort

N_CHANNELS = 3
MESSAGE_BYTES = 500
BANDWIDTH_BPS = 8e6
PROP_DELAY = 0.5e-3
QUEUE_LIMIT = 64
CEASE_BY = 0.8
#: upper bound of the delay_spike magnitude sampler in repro.sim.faults
MAX_DELAY_SPIKE = 0.03


def one_way_delay_bound() -> float:
    """Worst-case one-way delay of a chaos-rig channel.

    A packet admitted at fault-cease time can sit behind a full transmit
    queue, then propagate, then suffer the largest injected delay spike;
    everything in flight when the last fault ends has arrived this much
    later (the "one one-way delay" of Theorem 5.1).
    """
    transmission = MESSAGE_BYTES * 8 / BANDWIDTH_BPS
    return (QUEUE_LIMIT + 1) * transmission + PROP_DELAY + MAX_DELAY_SPIKE


class ChaosRig:
    """Striped endpoint pipelines over raw simulated channels."""

    def __init__(
        self,
        sim: Simulator,
        n_channels: int = N_CHANNELS,
        detector: ChannelLifecycleManager = None,
        reliability: str = "quasi_fifo",
    ) -> None:
        self.sim = sim
        self.channels = [
            Channel(
                sim,
                bandwidth_bps=BANDWIDTH_BPS,
                prop_delay=PROP_DELAY,
                queue_limit=QUEUE_LIMIT,
                name=f"ch{i}",
            )
            for i in range(n_channels)
        ]
        self.ports = [FastChannelPort(ch) for ch in self.channels]
        quanta = [float(MESSAGE_BYTES)] * n_channels
        self.sender = StripeSenderPipeline(
            self.ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
            marker_keepalive_s=0.02,
            reliability=reliability,
        )
        self.deliveries: List[Tuple[float, int]] = []
        self.receiver = StripeReceiverPipeline(
            n_channels,
            SRR(quanta),
            mode="marker",
            on_message=lambda p: self.deliveries.append((sim.now, p.seq)),
            failure_detector=detector,
            sim=sim,
            reliability=reliability,
            # The reverse ack path: one propagation delay back to the
            # sender (loss-free — forward-path loss is the hard part;
            # ack loss only delays recovery).
            send_ack=lambda sack: sim.schedule(
                PROP_DELAY, self.sender.on_ack, sack
            ),
        )
        #: data packets that physically survived to the receiver (recorded
        #: downstream of any installed fault injector)
        self.arrived: List[int] = []
        for index, channel in enumerate(self.channels):
            inner = self.receiver.channel_handler(index)

            def handler(packet, inner=inner):
                # Raw bytes are corrupted-marker wire images from the
                # corrupt_deliver fault; the pipeline counts-and-drops.
                if not is_marker(packet) and not isinstance(packet, bytes):
                    self.arrived.append(packet.seq)
                inner(packet)

            channel.on_deliver = handler
            channel.on_space = self.sender.pump

    def start_source(self, interval: float, stop_at: float) -> None:
        sim = self.sim

        def tick() -> None:
            if sim.now >= stop_at:
                return
            # Closed loop: honor the ARQ window's backpressure (a no-op
            # in the default modes, where can_submit is always True).
            if self.sender.can_submit():
                self.sender.send_message(MESSAGE_BYTES)
            sim.schedule(interval, tick)

        sim.schedule_at(0.0, tick)

    def delivered_seqs(self) -> List[int]:
        return [seq for _, seq in self.deliveries]


def run_chaos(sim: Simulator, schedule: FaultSchedule, seed: int) -> tuple:
    rig = ChaosRig(sim)
    settle_at = schedule.last_fault_end + one_way_delay_bound()
    source_stop = settle_at + 0.1
    # ~42% aggregate utilization: pauses and backlogs can always drain.
    rig.start_source(interval=0.4e-3, stop_at=source_stop)
    installed = schedule.install(sim, rig.channels, seed=seed)
    sim.run(until=source_stop + 0.3)
    return rig, installed, settle_at


@pytest.mark.parametrize("seed", range(30))
def test_chaos_exactly_once_invariants(sim, seed):
    """>= 25 randomized schedules: no dup, no machinery loss, FIFO resumes."""
    plan = FaultPlan(
        n_channels=N_CHANNELS,
        cease_by=CEASE_BY,
        kinds=EXACTLY_ONCE_KINDS,
        max_events=6,
    )
    schedule = plan.schedule(seed)
    rig, installed, settle_at = run_chaos(sim, schedule, seed)

    delivered = rig.delivered_seqs()
    assert len(delivered) > 500, "chaos run barely delivered anything"

    # Invariant 1: exactly-once — no duplicate delivery, ever.
    assert len(delivered) == len(set(delivered)), (
        f"duplicate deliveries under schedule {list(schedule)}"
    )

    # Invariant 2: conservation — everything that physically arrived was
    # delivered (so nothing sent on a fault-free surviving channel is
    # lost: those channels drop nothing by construction).
    assert set(delivered) == set(rig.arrived)
    assert rig.sender.backlog == 0

    # Invariant 3 (Theorem 5.1): quasi-FIFO resumed within one one-way
    # delay of the last fault ceasing.
    tail = [seq for t, seq in rig.deliveries if t > settle_at]
    assert len(tail) > 100, "no post-settle traffic to check FIFO against"
    assert tail == sorted(tail), (
        f"out-of-order delivery after faults ceased + one-way delay "
        f"(schedule {list(schedule)})"
    )
    assert all(a < b for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_chaos_bounded_duplication(sim, seed):
    """Duplication faults: extra deliveries never exceed injected copies."""
    plan = FaultPlan(
        n_channels=N_CHANNELS,
        cease_by=CEASE_BY,
        kinds=("duplicate",),
        max_events=4,
    )
    schedule = plan.schedule(seed)
    rig, installed, settle_at = run_chaos(sim, schedule, seed)

    delivered = rig.delivered_seqs()
    excess = len(delivered) - len(set(delivered))
    assert installed.duplicates_injected > 0
    assert 0 < excess <= installed.duplicates_injected
    # Conservation still holds as a set property.
    assert set(delivered) == set(rig.arrived)
    # And once the fault ceases, the tail is duplicate-free and ordered.
    tail = [seq for t, seq in rig.deliveries if t > settle_at]
    assert tail == sorted(set(tail))


def test_chaos_mixed_kinds_all_channels(sim):
    """A dense schedule hitting every channel with several kinds at once."""
    events = [
        FaultEvent(time=0.10, channel=0, kind="crash", duration=0.10),
        FaultEvent(time=0.12, channel=1, kind="pause", duration=0.15),
        FaultEvent(time=0.15, channel=2, kind="reorder", duration=0.10,
                   magnitude=5.0),
        FaultEvent(time=0.30, channel=0, kind="marker_loss", duration=0.20),
        FaultEvent(time=0.35, channel=1, kind="delay_spike", duration=0.10,
                   magnitude=0.02),
        FaultEvent(time=0.40, channel=2, kind="corrupt", duration=0.10,
                   magnitude=0.8),
    ]
    schedule = FaultSchedule(events)
    rig, installed, settle_at = run_chaos(sim, schedule, seed=99)
    assert installed.total_faulted > 0
    delivered = rig.delivered_seqs()
    assert len(delivered) == len(set(delivered))
    assert set(delivered) == set(rig.arrived)
    tail = [seq for t, seq in rig.deliveries if t > settle_at]
    assert tail == sorted(tail) and len(tail) > 100


# ---------------------------------------------------------------------- #
# persistent loss: the regime where retransmission is load-bearing

PERSISTENT_P = 0.10
#: Theorem 3.2 envelope for equal quanta: any two channels' transmitted
#: byte counts differ by at most Max + 2 * Quantum over any interval.
FAIRNESS_ENVELOPE = MESSAGE_BYTES + 2 * MESSAGE_BYTES


def run_persistent_loss(sim, *, reliability: str, seed: int, p=PERSISTENT_P):
    """10% loss on every channel for the whole send window (never ceases
    while data flows, unlike the FaultPlan schedules)."""
    rig = ChaosRig(sim, reliability=reliability)
    stop_at = 0.8
    rig.start_source(interval=0.4e-3, stop_at=stop_at)
    schedule = persistent_loss_schedule(
        N_CHANNELS, p, start=0.0, until=stop_at
    )
    installed = schedule.install(sim, rig.channels, seed=seed)
    # Long drain: retransmissions of late losses need several RTOs.
    sim.run(until=stop_at + 2.0)
    return rig, installed


@pytest.mark.parametrize("seed", range(5))
def test_persistent_loss_reliable_exactly_once_in_order(sim, seed):
    """Reliable mode: every submitted packet arrives exactly once, in FIFO
    order, despite 10% forward loss that never stops during the run —
    and retransmission load stays inside the SRR fairness envelope."""
    rig, installed = run_persistent_loss(sim, reliability="reliable",
                                         seed=seed)
    assert installed.crash_drops > 50, "the loss regime never materialized"

    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    assert submitted > 1000
    assert delivered == sorted(set(delivered)), "not exactly-once in order"
    assert set(delivered) == set(range(submitted)), (
        f"lost {submitted - len(set(delivered))} of {submitted} messages"
    )
    arq = rig.sender.reliable
    assert arq.stats.retransmissions > 0
    assert not arq.unacked and not arq.backlog

    # Theorem 3.2, with recovery traffic included: total per-channel data
    # bytes (first transmissions + retransmissions, recorded at the
    # ports) stay within Max + 2*Quantum of each other, so ARQ repair
    # cannot silently unbalance the bundle.
    per_channel = [port.data_bytes_sent for port in rig.sender.ports]
    assert max(per_channel) - min(per_channel) <= FAIRNESS_ENVELOPE, (
        f"retransmissions broke striping fairness: {per_channel}"
    )


@pytest.mark.parametrize("seed", range(3))
def test_persistent_loss_best_effort_conservation(sim, seed):
    """Best-effort mode under the same schedule: losses are real (no
    recovery), but the machinery still never duplicates or invents
    packets, and everything that physically arrived is delivered."""
    rig, installed = run_persistent_loss(sim, reliability="best_effort",
                                         seed=seed)
    assert installed.crash_drops > 50

    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert set(delivered) == set(rig.arrived), "machinery lost an arrival"
    assert set(delivered) <= set(range(submitted))
    assert len(delivered) < submitted, "loss did not materialize"


def test_persistent_loss_reliable_rejoins_fifo_after_loss_ceases(sim):
    """Loss for the first half of the run only: the reliable stream is
    seamless across the transition (no gap, no reordering artifacts)."""
    rig = ChaosRig(sim, reliability="reliable")
    rig.start_source(interval=0.4e-3, stop_at=1.0)
    schedule = persistent_loss_schedule(N_CHANNELS, 0.15, until=0.5)
    schedule.install(sim, rig.channels, seed=1)
    sim.run(until=2.5)
    delivered = rig.delivered_seqs()
    assert delivered == list(range(rig.sender.messages_submitted))


# ---------------------------------------------------------------------- #
# duplicated markers (satellite of the reliability PR: idempotent
# marker adoption, driven through the fault injector)


def test_duplicated_markers_are_adopted_once(sim):
    """A duplication window covering all traffic: every re-delivered
    marker is dropped by the receiver's (round, deficit) memo, and the
    stream stays exactly-once / conservative / quasi-FIFO."""
    schedule = FaultSchedule(
        [
            FaultEvent(time=0.1, channel=c, kind="duplicate",
                       duration=0.3, magnitude=1.0)
            for c in range(N_CHANNELS)
        ]
    )
    rig, installed, settle_at = run_chaos(sim, schedule, seed=5)
    assert installed.duplicates_injected > 100

    stats = rig.receiver.resequencer.stats
    assert stats.duplicate_markers > 0, "no duplicated marker was dropped"
    # Markers were deduplicated; duplicated *data* is still delivered
    # twice (best-effort mode has no sequence numbers, by design).
    delivered = rig.delivered_seqs()
    excess = len(delivered) - len(set(delivered))
    assert excess <= installed.duplicates_injected
    assert set(delivered) == set(rig.arrived)
    tail = [seq for t, seq in rig.deliveries if t > settle_at]
    assert tail == sorted(set(tail))


def test_chaos_lifecycle_survives_permanent_death_then_revival(sim):
    """A channel dies outright; the lifecycle detector writes it off, and
    when it heals the revival path re-admits it without a session."""
    detector = ChannelLifecycleManager(
        sim, silence_threshold=0.1, check_interval=0.02,
        revival_arrivals=2, min_down_time=0.05,
    )
    rig = ChaosRig(sim, detector=detector)
    heal_at = 1.0
    schedule = FaultSchedule(
        [FaultEvent(time=0.3, channel=1, kind="crash", duration=heal_at - 0.3)]
    )
    rig.start_source(interval=0.4e-3, stop_at=1.6)
    schedule.install(sim, rig.channels, seed=0)
    sim.run(until=1.8)

    assert detector.failures_reported == [1]
    assert detector.revivals_reported == [1]
    assert detector.channel_state(1) == detector.REVIVED
    # Delivery kept flowing while channel 1 was dark...
    mid = [seq for t, seq in rig.deliveries if 0.6 < t < 1.0]
    assert len(mid) > 100
    # ...and after revival the tail is in order and conservation holds.
    tail = [seq for t, seq in rig.deliveries if t > heal_at + 0.2]
    assert len(tail) > 100 and tail == sorted(tail)
    delivered = rig.delivered_seqs()
    assert len(delivered) == len(set(delivered))
    assert set(delivered) == set(rig.arrived)
