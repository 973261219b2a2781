"""Ablation benches for the design choices DESIGN.md calls out.

* Quantum sizing: Theorem 5.1 assumes ``quantum_i >= Max``; undersized
  quanta cause deep-overdraw channel skips (measured here).
* Resequencer buffering vs skew: logical reception's memory cost grows
  with channel skew — quantified against MPPP's sequence-number buffer.
* Marker overhead: bandwidth spent on markers vs interval.
* MPPP header overhead and MTU rejects vs strIPe's zero modification.
"""

from repro.analysis.reorder import analyze_order
from repro.baselines.mppp import MpppReceiver
from repro.core.markers import SRRReceiver
from repro.core.packet import is_marker
from repro.core.resequencer import Resequencer
from repro.core.srr import SRR, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer, stripe_sequence
from tests.baselines.test_mppp import MpppSender
from tests.conftest import random_mix_packets


def quantum_sizing_ablation():
    """Compare skip counts with quantum >= Max vs quantum < Max."""
    results = {}
    packets = random_mix_packets(2000, sizes=(200, 1000, 1460), seed=3)
    for label, quantum in (("quantum>=Max", 1500.0), ("quantum<Max", 400.0)):
        algorithm = SRR([quantum, quantum])
        channels = stripe_sequence(TransformedLoadSharer(algorithm), packets)
        receiver = SRRReceiver(SRR([quantum, quantum]))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        longest = max(len(c) for c in channels)
        for i in range(longest):
            for index, stream in enumerate(channels):
                if i < len(stream):
                    receiver.push(index, stream[i])
        results[label] = {
            "delivered": len(delivered),
            "fifo": delivered == sorted(delivered),
            "deep_overdraw_skips": receiver.stats.deep_overdraw_skips,
            "max_buffered": receiver.stats.max_buffered,
        }
    return results


def test_bench_ablation_quantum(benchmark):
    results = benchmark.pedantic(quantum_sizing_ablation, rounds=1, iterations=1)
    print()
    print("ablation: quantum sizing (Theorem 5.1 assumption)")
    for label, stats in results.items():
        print(f"  {label}: {stats}")
    # Both deliver FIFO without loss, but undersized quanta violate the
    # Theorem 5.1 assumption: channels get skipped for whole rounds
    # because one quantum cannot cover a max-size packet's overdraw.
    assert results["quantum>=Max"]["fifo"]
    assert results["quantum<Max"]["fifo"]
    assert results["quantum>=Max"]["deep_overdraw_skips"] == 0
    assert results["quantum<Max"]["deep_overdraw_skips"] > 0


def buffering_vs_skew():
    """Resequencer peak buffering as channel-major skew grows."""
    rows = []
    packets = random_mix_packets(1000, seed=5)
    algorithm = SRR([1500.0, 1500.0])
    channels = stripe_sequence(TransformedLoadSharer(algorithm), packets)
    for skew_packets in (0, 50, 200, 500):
        receiver = Resequencer(SRR([1500.0, 1500.0]))
        # channel 1 is delayed by `skew_packets` relative to channel 0
        fed0 = 0
        fed1 = 0
        while fed0 < len(channels[0]) or fed1 < len(channels[1]):
            if fed0 < len(channels[0]):
                receiver.push(0, channels[0][fed0])
                fed0 += 1
            if fed0 > skew_packets and fed1 < len(channels[1]):
                receiver.push(1, channels[1][fed1])
                fed1 += 1
        while fed1 < len(channels[1]):
            receiver.push(1, channels[1][fed1])
            fed1 += 1
        rows.append((skew_packets, receiver.max_buffered))
    return rows


def test_bench_ablation_buffering(benchmark):
    rows = benchmark.pedantic(buffering_vs_skew, rounds=1, iterations=1)
    print()
    print("ablation: resequencer peak buffering vs channel skew (packets)")
    for skew, buffered in rows:
        print(f"  skew={skew:>4}: max buffered {buffered}")
    buffers = [buffered for _, buffered in rows]
    # peak buffering tracks the skew once the skew dominates quantum
    # phasing effects, and grows roughly linearly with it
    assert buffers[-1] > buffers[0]
    assert buffers[-1] >= 0.8 * 500
    assert buffers[2] >= 0.8 * 200


def marker_overhead():
    """Marker bytes as a fraction of data bytes, per interval."""
    rows = []
    packets = random_mix_packets(3000, seed=6)
    for interval in (1, 5, 20, 100):
        algorithm = SRR([1500.0, 1500.0])
        ports = [ListPort(), ListPort()]
        striper = Striper(
            TransformedLoadSharer(algorithm), ports,
            MarkerPolicy(interval_rounds=interval, initial_markers=False),
        )
        for packet in packets:
            striper.submit(packet)
        marker_bytes = sum(
            p.size for port in ports for p in port.sent if is_marker(p)
        )
        data_bytes = sum(
            p.size for port in ports for p in port.sent if not is_marker(p)
        )
        rows.append((interval, marker_bytes / data_bytes))
    return rows


def test_bench_ablation_marker_overhead(benchmark):
    rows = benchmark.pedantic(marker_overhead, rounds=1, iterations=1)
    print()
    print("ablation: marker bandwidth overhead vs interval (rounds)")
    for interval, overhead in rows:
        print(f"  every {interval:>3} rounds: {overhead:.4%} of data bytes")
    overheads = [o for _, o in rows]
    assert overheads == sorted(overheads, reverse=True)
    assert overheads[-1] < 0.001  # sparse markers are nearly free
    assert overheads[0] < 0.05  # even per-round markers cost under 5%


def mppp_vs_stripe_overhead():
    """Header overhead and MTU rejects: MPPP vs strIPe."""
    packets = random_mix_packets(2000, sizes=(200, 1000, 1500), seed=7)
    ports = [ListPort(), ListPort()]
    sender = MpppSender(
        TransformedLoadSharer(make_rr(2)), ports, channel_mtu=1500
    )
    for packet in packets:
        sender.submit(packet)
    receiver = MpppReceiver()
    delivered = []
    for index, port in enumerate(ports):
        for fragment in port.sent:
            delivered.extend(receiver.push(index, fragment))
    delivered.extend(receiver.flush())
    return {
        "mppp_header_bytes": sender.header_overhead_bytes,
        "mppp_mtu_rejects": sender.oversize_rejects,
        "mppp_fifo": analyze_order([p.seq for p in delivered]).is_fifo,
        "data_bytes": sum(p.size for p in packets),
    }


def test_bench_ablation_mppp_overhead(benchmark):
    stats = benchmark.pedantic(mppp_vs_stripe_overhead, rounds=1, iterations=1)
    print()
    print("ablation: MPPP sequence headers vs strIPe's zero modification")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    # MPPP guarantees FIFO but pays header bytes and rejects MTU-sized
    # packets — the cost the strIPe design avoids entirely.
    assert stats["mppp_fifo"]
    assert stats["mppp_header_bytes"] > 0
    assert stats["mppp_mtu_rejects"] > 0
