"""Fairness accounting and the Theorem 3.2 / Lemma 3.3 bounds.

The paper's fairness notion (section 3.3): over any backlogged execution,
the bytes allocated to any two queues (FQ) or channels (load sharing) may
differ by at most a constant — for SRR specifically, after K rounds the
bytes actually sent on channel *i* deviate from the ideal ``K * Quantum_i``
by at most ``Max + 2 * Quantum`` (Max = maximum packet size, Quantum =
maximum quantum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.packet import Packet
from repro.core.srr import SRR, SRRState
from repro.core.transform import TransformedLoadSharer


@dataclass
class FairnessReport:
    """Result of checking an SRR execution against the paper's bound.

    Attributes:
        rounds_completed: number of complete rounds K in the execution.
        ideal_bytes: ``K * Quantum_i`` per channel.
        actual_bytes: bytes sent per channel during those K rounds.
        deviations: ``|actual - ideal|`` per channel.
        bound: the Theorem 3.2 bound ``Max + 2 * Quantum``.
        within_bound: True iff every deviation is <= bound.
    """

    rounds_completed: int
    ideal_bytes: List[float]
    actual_bytes: List[int]
    deviations: List[float]
    bound: float
    within_bound: bool


def srr_fairness_report(
    algorithm: SRR, packets: Sequence[Packet]
) -> FairnessReport:
    """Stripe ``packets`` with SRR and audit the per-channel byte counts.

    Only byte-counting SRR has the byte-fairness bound; packet-counting
    variants (RR / GRR) are exactly what the bound is *not* claimed for.
    """
    if algorithm.count_packets:
        raise ValueError("byte-fairness bound applies to byte-counting SRR only")
    sharer = TransformedLoadSharer(algorithm)
    n = algorithm.n_channels
    sent = [0] * n
    max_packet = 0
    for packet, channel in zip(packets, sharer.assign_many(packets)):
        sent[channel] += packet.size
        if packet.size > max_packet:
            max_packet = packet.size
    final = sharer.state
    assert isinstance(final, SRRState)
    rounds_completed = final.round_number - 1
    quantum_max = max(algorithm.quanta)
    bound = max_packet + 2 * quantum_max
    ideal = [rounds_completed * q for q in algorithm.quanta]
    deviations = [abs(sent[i] - ideal[i]) for i in range(n)]
    return FairnessReport(
        rounds_completed=rounds_completed,
        ideal_bytes=ideal,
        actual_bytes=sent,
        deviations=deviations,
        bound=bound,
        within_bound=all(d <= bound for d in deviations),
    )


def jain_fairness_index(byte_counts: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal shares.

    Not from the paper, but the standard scalar summary for load-sharing
    quality; used in benches to compare schemes at a glance.
    """
    values = [float(v) for v in byte_counts]
    if not values or all(v == 0 for v in values):
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def normalized_shares(
    byte_counts: Sequence[int], weights: Sequence[float]
) -> List[float]:
    """Bytes per unit weight, normalized so a fair split gives all 1.0."""
    if len(byte_counts) != len(weights):
        raise ValueError("byte_counts and weights must have equal length")
    per_weight = [b / w for b, w in zip(byte_counts, weights)]
    mean = sum(per_weight) / len(per_weight) if per_weight else 0.0
    if mean == 0:
        return [0.0 for _ in per_weight]
    return [v / mean for v in per_weight]
