"""Bench: regenerate Table 1 and verify each claim by micro-simulation.

The paper's Table 1 is qualitative; this bench backs every cell with a
measurement: load-sharing quality is measured as byte imbalance on the
adversarial alternating workload, and FIFO behaviour is measured by
delivering a skewed striped stream.
"""

from repro.analysis.reorder import analyze_order
from repro.analysis.tables import paper_table1_rows, table1_text
from repro.core.resequencer import Resequencer
from repro.core.srr import SRR, make_rr
from repro.core.transform import (
    TransformedLoadSharer,
    stripe_sequence,
)
from tests.conftest import alternating_packets, bytes_per_channel


def verify_table1_claims():
    """Measure the Table 1 claims; returns a dict of evidence."""
    evidence = {}

    # --- Round-Robin, no header: poor sharing, may reorder ---------------
    packets = alternating_packets(400)
    rr_channels = stripe_sequence(TransformedLoadSharer(make_rr(2)), packets)
    rr_bytes = bytes_per_channel(rr_channels)
    evidence["rr_imbalance"] = abs(rr_bytes[0] - rr_bytes[1]) / sum(rr_bytes)

    # skewed physical arrival without resequencing reorders:
    arrival = rr_channels[0] + rr_channels[1]  # channel 0 wholly first
    evidence["rr_no_reseq_ooo"] = analyze_order(
        [p.seq for p in arrival]
    ).out_of_order

    # --- Fair Queuing algorithm, no header: good sharing, quasi-FIFO -----
    packets = alternating_packets(400)
    srr = SRR([1500, 1500])
    srr_channels = stripe_sequence(TransformedLoadSharer(srr), packets)
    srr_bytes = bytes_per_channel(srr_channels)
    evidence["srr_imbalance"] = abs(srr_bytes[0] - srr_bytes[1]) / sum(srr_bytes)

    receiver = Resequencer(SRR([1500, 1500]))
    delivered = []
    receiver.on_deliver = lambda p: delivered.append(p.seq)
    for p in srr_channels[1]:
        receiver.push(1, p)
    for p in srr_channels[0]:
        receiver.push(0, p)
    evidence["srr_lr_ooo"] = analyze_order(delivered).out_of_order

    # --- BONDING: good sharing via fixed frames --------------------------
    from repro.baselines.bonding import BondingMux

    mux = BondingMux(2, frame_bytes=128)
    per_channel = [0, 0]
    for packet in alternating_packets(200):
        for frame in mux.submit(packet):
            per_channel[frame.channel] += frame.payload_bytes
    evidence["bonding_imbalance"] = abs(
        per_channel[0] - per_channel[1]
    ) / sum(per_channel)
    return evidence


def test_bench_table1(benchmark):
    evidence = benchmark.pedantic(
        verify_table1_claims, rounds=1, iterations=1
    )
    print()
    print(table1_text())
    print()
    print("measured evidence for the qualitative cells:")
    for key, value in evidence.items():
        print(f"  {key}: {value:.4f}" if isinstance(value, float)
              else f"  {key}: {value}")

    # Poor vs good load sharing with variable-length packets:
    assert evidence["rr_imbalance"] > 0.3          # RR: poor
    assert evidence["srr_imbalance"] < 0.02        # SRR: good
    assert evidence["bonding_imbalance"] < 0.02    # BONDING: good
    # FIFO columns:
    assert evidence["rr_no_reseq_ooo"] > 0         # RR w/o header reorders
    assert evidence["srr_lr_ooo"] == 0             # logical reception: FIFO


def test_bench_table1_rows_complete(benchmark):
    rows = benchmark.pedantic(paper_table1_rows, rounds=1, iterations=1)
    assert len(rows) == 5  # exactly the paper's five rows
