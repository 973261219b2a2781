"""The FEC recovery chaos-sweep benchmark (ISSUE 9 acceptance run).

Runs the full ``fec_recovery`` sweep — loss rate x loss shape (random /
Gilbert-Elliott bursts) x recovery mode ({reliable, fec, hybrid}) — over
the striped endpoint pipelines.  Acceptance bars asserted here:

* reliable and hybrid deliver every message exactly once, in order, at
  every sweep point;
* hybrid goodput >= pure-ARQ goodput at every matched sweep point;
* hybrid never retransmits more than pure ARQ in any matched cell, and
  saves retransmissions in aggregate (parity repairs land first);
* pure fec is structurally retransmission-free and stays within its
  parity budget at light loss (>= 98% completeness at <= 5% random
  loss).

The recorded full-size numbers are the ``fec`` rows of EXPERIMENTS.md.
``test_bench_fec_quick`` is the CI smoke setting (``make smoke`` selects
``-k quick``).
"""

from __future__ import annotations

from repro.analysis.tables import render_rows
from repro.experiments import run_experiment
from repro.experiments.fec_recovery import RUN_COLUMNS, run_fec_recovery


def test_bench_fec_quick():
    """Two loss rates, 0.4 s of traffic per cell."""
    _check(run_experiment("fec", quick=True))


def test_bench_fec_full():
    """Four loss rates, 0.8 s of traffic per cell."""
    _check(run_fec_recovery())


def _check(result) -> None:
    """Loss x shape x mode sweep: the recovery bars."""
    rates = sorted({r.loss_rate for r in result.rows})
    by_cell = {(r.mode, r.loss_kind, r.loss_rate): r for r in result.rows}
    for row in result.rows:
        if row.mode in ("reliable", "hybrid"):
            assert row.completeness == 1.0 and row.in_order, (
                f"{row.mode} broke its contract:\n"
                + render_rows([row], RUN_COLUMNS)
            )
        if row.mode == "fec":
            assert row.retransmissions == 0
            if row.loss_kind == "random" and row.loss_rate <= 0.05:
                assert row.completeness >= 0.98, (
                    "pure fec below its parity budget:\n"
                    + render_rows([row], RUN_COLUMNS)
                )

    saved_total = 0
    for kind in ("random", "burst"):
        for rate in rates:
            arq = by_cell[("reliable", kind, rate)]
            hybrid = by_cell[("hybrid", kind, rate)]
            assert hybrid.goodput_mbps >= arq.goodput_mbps, (
                f"hybrid goodput below pure ARQ at {kind} p={rate}:\n"
                + render_rows([hybrid, arq], RUN_COLUMNS)
            )
            assert hybrid.retransmissions <= arq.retransmissions, (
                f"hybrid retransmitted more than pure ARQ at "
                f"{kind} p={rate}"
            )
            saved_total += arq.retransmissions - hybrid.retransmissions
    assert saved_total > 0, "parity never displaced a retransmission"

    print()
    print(result.render())
