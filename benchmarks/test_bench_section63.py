"""Benches: the four quantitative §6.3 findings.

* sync_loss — FIFO restored after losses stop, swept to 80% loss.
* marker_freq — OOO deliveries fall as marker frequency rises.
* marker_pos — round-boundary markers minimize OOO deliveries.
* credit_fc — FCVC credits eliminate congestion loss.
"""

from repro.experiments.flow_control import run_flow_control
from repro.experiments.loss_recovery import run_loss_recovery
from repro.experiments.marker_frequency import run_marker_frequency
from repro.experiments.marker_position import run_marker_position
from tests.conftest import row_where


def test_bench_sync_loss(benchmark):
    result = benchmark.pedantic(
        run_loss_recovery,
        kwargs=dict(
            loss_rates=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
            loss_phase_s=1.0, total_s=2.5,
        ),
        rounds=1, iterations=1,
    )
    print()
    print("§6.3 finding 1: resynchronization after loss stops")
    print(result.render())
    assert result.all_recovered
    # Losses really happened at every swept rate and scale with the rate.
    losses = [row.lost for row in result.rows]
    assert all(l > 0 for l in losses)
    assert losses[-1] > losses[0]


def test_bench_marker_freq(benchmark):
    result = benchmark.pedantic(
        run_marker_frequency,
        kwargs=dict(intervals=(1, 2, 5, 10, 20, 50), duration_s=2.0),
        rounds=1, iterations=1,
    )
    print()
    print("§6.3 finding 2: marker frequency vs out-of-order deliveries")
    print(result.render())
    assert result.is_monotone_enough()
    fractions = [row.ooo_fraction for row in result.rows]
    # the sparsest markers are much worse than the densest
    assert fractions[-1] > 3 * fractions[0]


def test_bench_marker_pos(benchmark):
    result = benchmark.pedantic(
        run_marker_position,
        kwargs=dict(duration_s=2.0, seeds=(0, 1, 2, 3, 4)),
        rounds=1, iterations=1,
    )
    print()
    print("§6.3 finding 3: marker position within the round")
    print(result.render())
    assert result.boundary_is_near_optimal(slack=1.1)


def test_bench_credit_fc(benchmark):
    result = benchmark.pedantic(
        run_flow_control,
        kwargs=dict(duration_s=2.0),
        rounds=1, iterations=1,
    )
    print()
    print("§6.3 finding 4: FCVC credit flow control")
    print(result.render())
    without = row_where(result.rows, use_credit=False)
    with_credits = row_where(result.rows, use_credit=True)
    assert without.buffer_drops > 0
    assert with_credits.buffer_drops == 0
    # flow control also improves goodput (no wasted transmissions)
    assert with_credits.goodput_mbps >= without.goodput_mbps
