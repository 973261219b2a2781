"""The Sprinklers vs SRR+markers head-to-head (ISSUE 8 acceptance run).

Runs the full :mod:`repro.experiments.sprinklers` comparison — all five
transports, chaos faults, flow-count scale — and asserts the
marker-free acceptance bars:

* **zero reordering** for Sprinklers on every stable transport (socket
  reference, fast path, session, duplex).  TCP channels are elastic
  (per-connection congestion state skews arrival order), so TCP's
  reorder rate is recorded as a data point, not gated;
* **zero receiver memory**: the Sprinklers high-water mark is 0 packets
  on every transport (direct reception buffers nothing), while
  SRR+markers holds a resequencer backlog;
* **zero markers**: the marker-free path sends no control packets;
* **goodput parity**: Sprinklers is within 10% of SRR+markers on every
  stable transport (in practice it is slightly ahead — no marker
  bandwidth);
* at scale, every submitted packet is delivered exactly once and Jain's
  index across equal-weight flows stays >= 0.95.

The recorded full-size numbers are the ``sprinklers`` rows of
EXPERIMENTS.md.  ``test_bench_sprinklers_quick`` is the CI smoke setting
(``make smoke`` selects ``-k quick``).
"""

from __future__ import annotations

from repro.experiments import run_experiment
from repro.experiments.sprinklers import (
    STABLE_TRANSPORTS,
    TRANSPORTS,
    run_sprinklers,
)
from tests.conftest import row_where

GOODPUT_PARITY = 0.90
MIN_JAIN = 0.95


def test_bench_sprinklers_quick():
    """Acceptance bars on short runs, one chaos seed, 1,000 flows."""
    _check(run_experiment("sprinklers", quick=True))


def test_bench_sprinklers_full():
    """Acceptance bars at full size: two chaos seeds, 10,000 flows."""
    _check(run_sprinklers())


def _check(result) -> None:
    assert {row.transport for row in result.head_to_head} == set(TRANSPORTS)
    for transport in STABLE_TRANSPORTS:
        sprinklers = row_where(
            result.head_to_head, transport=transport, discipline="sprinklers"
        )
        srr = row_where(
            result.head_to_head, transport=transport, discipline="srr"
        )
        assert sprinklers.out_of_order == 0, (
            f"{transport}: Sprinklers reordered on stable channels:\n"
            + result.render()
        )
        assert sprinklers.receiver_hwm == 0, (
            f"{transport}: marker-free receiver buffered packets:\n"
            + result.render()
        )
        assert sprinklers.markers_sent == 0
        assert sprinklers.goodput_mbps >= GOODPUT_PARITY * srr.goodput_mbps, (
            f"{transport}: Sprinklers goodput fell behind SRR+markers:\n"
            + result.render()
        )
    # TCP: elastic channels — reorder is measured, not gated; but direct
    # reception must still hold zero receiver memory.
    tcp = row_where(
        result.head_to_head, transport="tcp", discipline="sprinklers"
    )
    assert tcp.receiver_hwm == 0

    for row in result.chaos:
        assert row.duplicates == 0

    for row in result.scale:
        assert row.delivered == row.total, (
            f"{row.discipline}: lost packets at {row.n_flows} flows"
        )
        assert row.jain_flows >= MIN_JAIN
    sprinklers_scale = [
        row for row in result.scale if row.discipline == "sprinklers"
    ]
    assert all(row.receiver_hwm == 0 for row in sprinklers_scale)

    print()
    print(result.render())
