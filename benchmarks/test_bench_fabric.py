"""The 10k-flow fabric scalability benchmark (ISSUE 6 acceptance run).

One striped bundle carries 10,000 concurrent flows across three tenants
with 4:2:1 weights, scheduled by the weighted-DRR
:class:`~repro.transport.fabric.FabricScheduler` above the unchanged SRR
striper.  Acceptance bars asserted here:

* every requested flow sustained in one run (10,000 at full size);
* Jain's fairness >= 0.95 across the equal-weight flows of every tenant
  (sampled mid-run while all flows are backlogged);
* per-unit-weight tenant shares within 10% of the configured weights;
* every submitted packet delivered (the flow layer loses nothing).

p99 delivery latency and aggregate goodput are reported alongside; the
recorded full-size numbers are the ``fabric`` rows of EXPERIMENTS.md.
``test_bench_fabric_quick`` is the CI smoke setting (``make smoke``
selects ``-k quick``).
"""

from __future__ import annotations

from repro.experiments.fabric import run_fabric

MIN_JAIN = 0.95
MAX_SHARE_ERROR = 0.10


def test_bench_fabric_quick():
    """512 weighted flows (the ``--quick`` experiment size)."""
    _check(n_flows=512)


def test_bench_fabric_full():
    """10,000 weighted flows through one bundle."""
    _check(n_flows=10_000)


def _check(n_flows: int) -> None:
    result = run_fabric(n_flows=n_flows)

    assert result.n_flows >= n_flows
    assert result.delivered_packets == result.total_packets, (
        f"flow layer lost packets: {result.delivered_packets}"
        f"/{result.total_packets}"
    )
    assert result.jain_min >= MIN_JAIN, (
        f"per-tenant Jain {result.jain_per_tenant} below {MIN_JAIN}:\n"
        + result.render()
    )
    assert result.max_share_error <= MAX_SHARE_ERROR, (
        f"tenant shares {result.tenant_shares} deviate more than "
        f"{MAX_SHARE_ERROR:.0%} from weights:\n" + result.render()
    )

    print()
    print(result.render())
