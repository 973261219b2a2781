"""Reordering metrics for delivered packet sequences.

The §6.3 experiments count "out of order deliveries".  We adopt the
standard definitions (in the spirit of RFC 4737):

* A delivery is **out of order** if its harness sequence number is smaller
  than some sequence number already delivered.
* **Reorder extent** of an out-of-order packet: how many packets with
  larger sequence numbers were delivered before it.
* **Displacement**: | delivered position − original position | among the
  packets that actually arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class ReorderReport:
    """Summary of reordering in one delivered sequence."""

    delivered: int
    out_of_order: int
    max_extent: int
    mean_displacement: float
    max_displacement: int
    missing: int
    duplicates: int

    @property
    def out_of_order_fraction(self) -> float:
        if self.delivered == 0:
            return 0.0
        return self.out_of_order / self.delivered

    @property
    def is_fifo(self) -> bool:
        return self.out_of_order == 0 and self.duplicates == 0


def analyze_order(
    delivered_seqs: Sequence[int], sent_count: int | None = None
) -> ReorderReport:
    """Analyze a delivered sequence of harness sequence numbers.

    Args:
        delivered_seqs: sequence numbers in delivery order.
        sent_count: how many packets were originally sent (for the missing
            count); default assumes ``max(seq)+1``.
    """
    out_of_order = 0
    max_extent = 0
    max_seen = -1
    seen: set = set()
    duplicates = 0
    # extent computation: for each OOO packet count larger-seq packets
    # delivered before it.
    delivered_so_far: List[int] = []
    displacement_sum = 0
    max_displacement = 0

    order_of_arrival = {}
    unique_in_order: List[int] = []
    for seq in delivered_seqs:
        if seq in seen:
            duplicates += 1
            continue
        seen.add(seq)
        if seq < max_seen:
            out_of_order += 1
            extent = sum(1 for other in delivered_so_far if other > seq)
            max_extent = max(max_extent, extent)
        max_seen = max(max_seen, seq)
        order_of_arrival[seq] = len(unique_in_order)
        unique_in_order.append(seq)
        delivered_so_far.append(seq)

    # displacement: compare delivery rank to rank within the sorted set of
    # delivered packets (losses excluded so pure loss has displacement 0).
    for rank_sorted, seq in enumerate(sorted(unique_in_order)):
        displacement = abs(order_of_arrival[seq] - rank_sorted)
        displacement_sum += displacement
        max_displacement = max(max_displacement, displacement)

    delivered = len(unique_in_order)
    if sent_count is None:
        sent_count = (max(unique_in_order) + 1) if unique_in_order else 0
    return ReorderReport(
        delivered=delivered,
        out_of_order=out_of_order,
        max_extent=max_extent,
        mean_displacement=(displacement_sum / delivered) if delivered else 0.0,
        max_displacement=max_displacement,
        missing=max(0, sent_count - delivered),
        duplicates=duplicates,
    )

