"""Benches for the extension experiments (beyond the paper's tables).

* ``mtu`` — the §6.2 min-MTU restriction, quantified, plus the internal-
  fragmentation alternative the paper declined.
* duplex credits — §6.3's "credits could be piggybacked on the periodic
  marker packets", demonstrated with zero standalone credit packets.
"""

from repro.experiments.mtu_fragmentation import run_mtu_fragmentation
from tests.conftest import row_where


def test_bench_mtu_fragmentation(benchmark):
    result = benchmark.pedantic(
        run_mtu_fragmentation,
        kwargs=dict(duration_s=2.0, warmup_s=0.5),
        rounds=1, iterations=1,
    )
    print()
    print("§6.2 extension: MTU clamping vs internal fragmentation "
          "(Ethernet 1500 + ATM 9180, CPU-bound receiver)")
    print(result.render())

    plain = row_where(result.rows, label="plain strIPe (min MTU)")
    frag = row_where(result.rows, label="fragmenting strIPe (max MTU)")
    atm = row_where(result.rows, label="ATM alone, 9180 MTU")

    # The paper's point: clamped to the small MTU, the whole bundle can be
    # worth less than the big-MTU link alone -> "stripe similar MTUs".
    assert atm.goodput_mbps > plain.goodput_mbps
    # The alternative the paper declined: fragmentation recovers both the
    # big-MTU efficiency and the extra link.
    assert frag.goodput_mbps > atm.goodput_mbps
    assert frag.goodput_mbps > 1.3 * plain.goodput_mbps
    # Mechanism check: the min-MTU run is CPU-saturated, the others not.
    assert plain.cpu_utilization > 0.95
    assert atm.cpu_utilization < 0.6


def test_bench_duplex_piggybacked_credits(benchmark):
    from repro.sim.engine import Simulator
    from tests.transport.test_duplex import build_duplex

    def run():
        sim = Simulator()
        end_a, end_b, _ = build_duplex(
            sim, link_mbps=(10.0, 2.0), buffer_packets=12
        )
        sim.run(until=1.5)
        return sim, end_a, end_b

    sim, end_a, end_b = benchmark.pedantic(run, rounds=1, iterations=1)
    a_count = len(end_a.receiver.delivered)
    b_count = len(end_b.receiver.delivered)
    print()
    print("§6.3 extension: duplex striping, credits riding markers only")
    print(f"  A<-B delivered: {a_count}, B<-A delivered: {b_count}")
    print(f"  buffer drops: A={end_a.receiver.buffer_drops} "
          f"B={end_b.receiver.buffer_drops}")
    print(f"  credit stalls: A={end_a.sender.credit.stalls} "
          f"B={end_b.sender.credit.stalls}")
    assert a_count > 100 and b_count > 100
    assert end_a.receiver.buffer_drops == 0
    assert end_b.receiver.buffer_drops == 0
    for endpoint in (end_a, end_b):
        seqs = [p.seq for p in endpoint.receiver.delivered]
        assert seqs == sorted(seqs)


def test_bench_scalability(benchmark):
    from repro.experiments.scalability import run_scalability

    result = benchmark.pedantic(run_scalability, rounds=1, iterations=1)
    print()
    print("title claim: scalability in the channel count (10 Mbps links)")
    print(result.render())
    print(f"  scaling efficiency (per-channel, 16 vs 2): "
          f"{result.scaling_efficiency():.2f}")

    assert result.scaling_efficiency() > 0.95      # ~linear aggregate
    assert all(r.out_of_order == 0 for r in result.rows)  # FIFO at all N
    overheads = [r.marker_overhead_fraction for r in result.rows]
    assert max(overheads) < 0.05                   # small, ~constant
    assert max(overheads) - min(overheads) < 0.01
    recoveries = [r.recovery_time_s for r in result.rows]
    assert all(t is not None and t < 0.05 for t in recoveries)  # ms-scale


def test_bench_tcp_channels(benchmark):
    from repro.experiments.tcp_channels import run_tcp_channels

    result = benchmark.pedantic(run_tcp_channels, rounds=1, iterations=1)
    print()
    print("§2 extension: striping over TCP connections (message mode)")
    print(result.render())

    rows = {(r.n_channels, r.loss_rate): r for r in result.rows}
    # Guaranteed FIFO everywhere — no markers, no quasi-FIFO caveat.
    assert all(r.fifo for r in result.rows)
    # Clean links: aggregate scales with the channel count.
    assert rows[(2, 0.0)].goodput_mbps > 1.8 * rows[(1, 0.0)].goodput_mbps
    assert rows[(4, 0.0)].goodput_mbps > 3.3 * rows[(1, 0.0)].goodput_mbps
    # Lossy links: channel-internal retransmissions happened, stream intact.
    assert rows[(2, 0.03)].channel_retransmits > 0


def test_bench_cell_striping(benchmark):
    from repro.experiments.cell_striping import run_cell_striping

    result = benchmark.pedantic(run_cell_striping, rounds=1, iterations=1)
    print()
    print("conclusion extension: cell vs packet striping over congested "
          "ATM VCs (the early-discard argument)")
    print(result.render())
    epd = row_where(result.rows, mode="packet striping + EPD")
    cells = row_where(result.rows, mode="cell striping")
    assert epd.goodput_mbps > 10.0
    assert cells.goodput_mbps < 2.0
    assert cells.damaged_fraction > 0.9
