"""FEC / hybrid recovery properties over the full striped pipeline.

The executable form of the erasure-coding claims:

* **pure fec** — at modest random loss, `reliability="fec"` delivers an
  in-order, duplicate-free, bit-exact stream with *zero* retransmissions
  (there is no ARQ mounted to retransmit) and non-trivial local
  reconstruction;
* **hybrid** — FEC in front of the PR-5 ARQ backstop preserves ARQ's
  exactly-once / complete / in-order guarantee under persistent loss plus
  a full channel crash, while repairing most holes locally (never more
  retransmissions than pure ARQ under the same regime);
* **fairness** — parity rides the SRR kernel like any data, so total
  per-channel bytes (data + parity + retransmissions) stay inside the
  Theorem 3.2 envelope.

The rig mirrors ``test_chaos_invariants.ChaosRig``: endpoint pipelines
over raw simulated channels with the fault injector layered on top.
"""

from typing import List, Tuple

import pytest

from repro.core.packet import Codepoint, is_marker
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultEvent,
    FaultSchedule,
    burst_loss_schedule,
    persistent_loss_schedule,
)
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fast_path import FastChannelPort

N_CHANNELS = 3
MESSAGE_BYTES = 500
PAYLOAD_BYTES = 64
BANDWIDTH_BPS = 8e6
PROP_DELAY = 0.5e-3
QUEUE_LIMIT = 64
#: Theorem 3.2 envelope for equal quanta (Max + 2 * Quantum).
FAIRNESS_ENVELOPE = MESSAGE_BYTES + 2 * MESSAGE_BYTES


def payload_for(seq: int) -> bytes:
    """Deterministic per-message payload (reconstruction fidelity probe)."""
    return seq.to_bytes(4, "big") * (PAYLOAD_BYTES // 4)


class FecRig:
    """Striped endpoint pipelines over raw channels, FEC modes enabled."""

    def __init__(
        self,
        sim: Simulator,
        *,
        reliability: str,
        ack_delay_s: float = PROP_DELAY,
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
            for i in range(N_CHANNELS)
        ]
        self.ports = [FastChannelPort(ch) for ch in self.channels]
        quanta = [float(MESSAGE_BYTES)] * N_CHANNELS
        sender_options = {}
        if reliability in ("reliable", "hybrid"):
            # A roomy ARQ window so the closed-loop source keeps offering
            # traffic across a crash window instead of stalling on
            # backpressure (the stall itself is covered elsewhere).
            sender_options["window_packets"] = 256
        self.sender = StripeSenderPipeline(
            self.ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
            marker_keepalive_s=0.02,
            reliability=reliability,
            reliability_options=sender_options,
        )
        self.deliveries: List[Tuple[float, int]] = []
        self.payloads: dict = {}

        def on_message(packet):
            self.deliveries.append((sim.now, packet.seq))
            self.payloads[packet.seq] = packet.payload

        self.receiver = StripeReceiverPipeline(
            N_CHANNELS,
            SRR(quanta),
            mode="marker",
            on_message=on_message,
            sim=sim,
            reliability=reliability,
            send_ack=lambda sack: sim.schedule(
                ack_delay_s, self.sender.on_ack, sack
            ),
        )
        self.arrived: List[int] = []
        self.parity_arrived = 0
        for index, channel in enumerate(self.channels):
            inner = self.receiver.channel_handler(index)

            def handler(packet, inner=inner):
                if packet.codepoint == Codepoint.PARITY:
                    self.parity_arrived += 1
                elif not is_marker(packet):
                    self.arrived.append(packet.seq)
                inner(packet)

            channel.on_deliver = handler
            channel.on_space = self.sender.pump

    def start_source(self, interval: float, stop_at: float) -> None:
        sim = self.sim

        def tick() -> None:
            if sim.now >= stop_at:
                self.sender.flush()  # seal the trailing partial group
                return
            if self.sender.can_submit():
                self.sender.send_message(
                    MESSAGE_BYTES,
                    payload=payload_for(self.sender.messages_submitted),
                )
            sim.schedule(interval, tick)

        sim.schedule_at(0.0, tick)

    def delivered_seqs(self) -> List[int]:
        return [seq for _, seq in self.deliveries]


def run_rig(sim, schedule, *, reliability, seed, drain=2.0, **rig_kw):
    rig = FecRig(sim, reliability=reliability, **rig_kw)
    stop_at = 0.8
    rig.start_source(interval=0.4e-3, stop_at=stop_at)
    installed = schedule.install(sim, rig.channels, seed=seed)
    sim.run(until=stop_at + drain)
    return rig, installed


# --------------------------------------------------------------------- #
# acceptance: pure fec at 5% random loss — zero retransmissions


@pytest.mark.parametrize("seed", range(10))
def test_pure_fec_random_loss_recovers_without_retransmission(sim, seed):
    """k=6, m=2 at 5% i.i.d. loss: in-order, duplicate-free, bit-exact
    delivery with no ARQ in the stack at all — recovery is purely local."""
    schedule = persistent_loss_schedule(N_CHANNELS, 0.05, until=0.8)
    rig, installed = run_rig(sim, schedule, reliability="fec", seed=seed)
    assert installed.crash_drops > 20, "the loss regime never materialized"
    # Structurally zero retransmissions: no reliability layer is mounted.
    assert rig.sender.reliable is None
    assert rig.receiver.reliable is None

    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    assert submitted > 1000
    assert delivered == sorted(set(delivered)), "not in order / not unique"
    assert len(delivered) >= 0.98 * submitted, (
        f"recovered only {len(delivered)} of {submitted}"
    )
    fec = rig.receiver.fec
    assert fec.stats.reconstructed > 0, "loss never exercised the decoder"
    # Bit-exact reconstruction: every delivered payload matches what the
    # source attached, including the reconstructed ones.
    for seq in delivered:
        assert rig.payloads[seq] == payload_for(seq), f"payload of {seq}"
    assert rig.sender.fec.stats.groups_sealed > 0
    assert fec.stats.parity_packets > 0


@pytest.mark.parametrize("seed", range(3))
def test_pure_fec_lossless_is_transparent(sim, seed):
    """No loss: FEC adds parity overhead but changes nothing observable."""
    schedule = FaultSchedule([])
    rig, _ = run_rig(sim, schedule, reliability="fec", seed=seed)
    submitted = rig.sender.messages_submitted
    assert rig.delivered_seqs() == list(range(submitted))
    assert rig.receiver.fec.stats.reconstructed == 0
    assert rig.receiver.fec.stats.skipped == 0


@pytest.mark.parametrize("seed", range(3))
def test_pure_fec_under_burst_loss_stays_in_order(sim, seed):
    """Gilbert–Elliott bursts (satellite fault kind): striping decorrelates
    a one-channel burst across many groups, so most positions still
    recover; whatever cannot is gap-skipped without breaking order."""
    schedule = burst_loss_schedule(N_CHANNELS, 0.15, until=0.8)
    rig, installed = run_rig(sim, schedule, reliability="fec", seed=seed)
    assert installed.burst_drops > 50
    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    assert delivered == sorted(set(delivered))
    assert len(delivered) >= 0.85 * submitted
    fec = rig.receiver.fec
    assert fec.stats.reconstructed > 0
    # Position conservation: every submitted position was either
    # delivered or explicitly abandoned — the resequencer never wedges.
    assert len(delivered) + fec.stats.skipped == submitted
    assert not fec._pending


# --------------------------------------------------------------------- #
# hybrid: exactly-once under loss + crash, parity inside the envelope


@pytest.mark.parametrize("seed", range(30))
def test_hybrid_exactly_once_under_loss_and_crash(sim, seed):
    """30 seeds of persistent 8% loss plus a full channel crash window:
    hybrid keeps ARQ's guarantee — every submitted message delivered
    exactly once, in order — and total per-channel bytes (data + parity +
    retransmissions) stay inside the Theorem 3.2 fairness envelope."""
    stop_at = 0.8
    events = list(persistent_loss_schedule(N_CHANNELS, 0.08, until=stop_at))
    events.append(
        FaultEvent(
            time=0.2, channel=seed % N_CHANNELS, kind="crash", duration=0.15
        )
    )
    schedule = FaultSchedule(events)
    rig, installed = run_rig(
        sim, schedule, reliability="hybrid", seed=seed, drain=2.5,
    )
    assert installed.crash_drops > 100

    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    # The closed-loop source stalls while the crash fills the ARQ window,
    # so volume is below the loss-only runs — but still substantial.
    assert submitted > 500
    assert delivered == sorted(set(delivered)), "not exactly-once in order"
    assert set(delivered) == set(range(submitted)), (
        f"lost {submitted - len(set(delivered))} of {submitted} messages"
    )
    arq = rig.sender.reliable
    assert not arq.unacked and not arq.backlog
    # FEC actually repaired holes locally (the crash window guarantees
    # multi-packet gaps; parity fills most of them without a round trip).
    assert rig.receiver.fec.stats.reconstructed > 0

    per_channel = [port.data_bytes_sent for port in rig.sender.ports]
    assert max(per_channel) - min(per_channel) <= FAIRNESS_ENVELOPE, (
        f"parity/retransmissions broke striping fairness: {per_channel}"
    )


@pytest.mark.parametrize("seed", range(5))
def test_hybrid_never_retransmits_more_than_pure_arq(sim, seed):
    """Same persistent-loss regime, same seed: the hybrid's local repairs
    strictly reduce the retransmission load the ARQ layer carries."""
    def run(reliability):
        local_sim = Simulator()
        schedule = persistent_loss_schedule(N_CHANNELS, 0.10, until=0.8)
        rig, _ = run_rig(
            local_sim, schedule, reliability=reliability, seed=seed,
            drain=2.5,
        )
        submitted = rig.sender.messages_submitted
        assert rig.delivered_seqs() == list(range(submitted))
        return rig.sender.reliable.stats.retransmissions

    arq_retx = run("reliable")
    hybrid_retx = run("hybrid")
    assert arq_retx > 0
    assert hybrid_retx <= arq_retx, (
        f"hybrid retransmitted more than pure ARQ "
        f"({hybrid_retx} > {arq_retx})"
    )


def test_hybrid_unrecoverable_groups_fall_back_to_arq(sim):
    """Loss heavier than the parity budget (m=2 at 20%): FEC alone cannot
    cover every group, yet nothing is lost — the ARQ backstop retransmits
    what parity could not rebuild."""
    schedule = persistent_loss_schedule(N_CHANNELS, 0.20, until=0.8)
    # The ARQ repairs must land after the group timeout to observe groups
    # giving up: over a fast reverse path they land first and every group
    # resolves as recovered, so the acks here take longer than the timeout.
    rig, _ = run_rig(
        sim, schedule, reliability="hybrid", seed=11, drain=3.0,
        ack_delay_s=0.3,
    )
    submitted = rig.sender.messages_submitted
    delivered = rig.delivered_seqs()
    assert delivered == list(range(submitted))
    assert rig.receiver.fec.stats.unrecoverable_groups > 0
    assert rig.sender.reliable.stats.retransmissions > 0
    assert rig.receiver.fec.stats.reconstructed > 0
