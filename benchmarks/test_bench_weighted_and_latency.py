"""Benches: weighted quanta (WFQ correspondence) and resequencing latency.

* §3.5: "It is also possible to generalize SRR to handle channels with
  different rated bandwidths by assigning larger quantum values to the
  higher bandwidth lines — this corresponds to weighted fair queuing."
  Measured: byte shares track configured weights across heterogeneous
  bundles.

* §4: "Buffering of packets often does not introduce any extra overhead"
  — that's the *CPU* claim; the latency cost of waiting out channel skew
  is real and quantified here: per-message delivery latency with logical
  reception vs none, as a function of skew.
"""

from statistics import fmean

import pytest

from repro.core.fairness import normalized_shares
from repro.core.srr import SRR
from repro.core.transform import (
    TransformedLoadSharer,
    stripe_sequence,
)
from tests.conftest import bytes_per_channel, random_mix_packets


def weighted_shares():
    rows = []
    for weights in ((1, 1), (2, 1), (4, 2, 1), (10, 3, 2, 1)):
        quanta = [1500.0 * w for w in weights]
        packets = random_mix_packets(4000, seed=13)
        channels = stripe_sequence(
            TransformedLoadSharer(SRR(quanta)), packets
        )
        shares = normalized_shares(bytes_per_channel(channels), weights)
        rows.append((weights, shares))
    return rows


def test_bench_weighted_quanta(benchmark):
    rows = benchmark.pedantic(weighted_shares, rounds=1, iterations=1)
    print()
    print("§3.5: weighted quanta ⇒ weighted fair shares "
          "(1.0 = exactly proportional)")
    for weights, shares in rows:
        rendered = " ".join(f"{s:.3f}" for s in shares)
        print(f"  weights {str(weights):>14}: shares {rendered}")
    for weights, shares in rows:
        for share in shares:
            assert share == pytest.approx(1.0, abs=0.05)


def resequencing_latency():
    """CBR stream over two channels with growing static skew; per-message
    latency with logical reception vs physical-order delivery."""
    from repro.experiments.socket_harness import (
        SocketTestbedConfig,
        build_socket_testbed,
    )
    from repro.sim.engine import Simulator
    from repro.workloads.generators import ConstantSizes, PacedSource, cbr_intervals

    rows = []
    for skew_ms in (0.0, 2.0, 10.0):
        per_mode = {}
        for mode in ("plain", "none"):
            sim = Simulator()
            config = SocketTestbedConfig(
                prop_delay_s=(0.5e-3, 0.5e-3 + skew_ms * 1e-3),
                mode=mode,
                marker_interval_rounds=0,
                closed_loop=False,
            )
            testbed = build_socket_testbed(sim, config)
            send_times = {}

            def submit(packet, tb=testbed, st=send_times, s=sim):
                st[packet.seq] = s.now
                tb.sender.submit_packet(packet)

            source = PacedSource(
                sim, submit, ConstantSizes(1000), cbr_intervals(1000.0)
            )
            source.start()
            sim.schedule_at(1.4995, source.stop)  # 1500 packets
            sim.run(until=3.0)
            per_mode[mode] = [
                delivery.time - send_times[delivery.seq]
                for delivery in testbed.deliveries
            ]
        rows.append((skew_ms, per_mode["plain"], per_mode["none"]))
    return rows


def test_bench_resequencing_latency(benchmark):
    rows = benchmark.pedantic(resequencing_latency, rounds=1, iterations=1)
    print()
    print("§4 cost model: logical reception's latency vs channel skew")
    print(f"{'skew':>8} {'reseq mean':>11} {'reseq max':>10} "
          f"{'no-reseq mean':>14} {'no-reseq max':>13}")
    for skew_ms, reseq, raw in rows:
        print(f"{skew_ms:>6.1f}ms {fmean(reseq) * 1e3:>9.2f}ms "
              f"{max(reseq) * 1e3:>8.2f}ms {fmean(raw) * 1e3:>12.2f}ms "
              f"{max(raw) * 1e3:>11.2f}ms")

    # With no skew the resequencer adds (essentially) nothing.
    no_skew = rows[0]
    assert fmean(no_skew[1]) == pytest.approx(fmean(no_skew[2]), rel=0.05)
    # With skew, the fast channel's packets wait out ~the skew: mean
    # resequencing latency exceeds raw arrival latency and grows with skew.
    big_skew = rows[-1]
    assert fmean(big_skew[1]) > fmean(big_skew[2])
    assert fmean(big_skew[1]) > fmean(rows[1][1])
