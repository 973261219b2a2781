"""The MTU-mismatch trade-off (§6.2 discussion, implemented and measured).

Paper: "we obtain throughputs in excess of 70 Mbps over an ATM interface
using 8 KB sized packets.  However, our striping algorithm restricts the
MTU size used for a collection of links to be the smallest MTU size ...
we recommend that striping be done on links with similar MTU sizes."

This experiment quantifies all three options on an Ethernet (MTU 1500) +
ATM (MTU 9180) bundle with a CPU-bound receiver:

1. **plain strIPe** — bundle MTU clamped to 1500 (the paper's design);
2. **fragmenting strIPe** — bundle MTU 9180 via internal fragmentation
   (per-fragment headers, i.e. the modification the paper's goals forbid);
3. **ATM alone at 9180** — the paper's "70 Mbps with 8 KB packets"
   reference point: no striping, no MTU clamp.

Expected shape: with the per-packet CPU bottleneck, big-MTU options push
far more bytes per CPU-second, so (3) beats (1) despite using one link —
the reason the paper recommends similar-MTU bundles — while (2) recovers
the large-MTU efficiency *and* the second link.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.analysis.tables import render_rows
from repro.experiments.topology import (
    R_ATM_IP,
    R_ETH_IP,
    SCHEME_SRR,
    TestbedConfig,
    measure_tcp_goodput,
)

ATM_BIG_MTU = 9180


@dataclass
class MtuRow:
    label: str
    mtu: int
    goodput_mbps: float
    cpu_utilization: float


@dataclass
class MtuFragmentationResult:
    rows: List[MtuRow]

    def render(self) -> str:
        return render_rows(self.rows, [
            ("configuration", "label", ""), ("MTU", "mtu", ""),
            ("Mbps", "goodput_mbps", ".2f"), ("CPU", "cpu_utilization", ".2f"),
        ])


def run_mtu_fragmentation(
    atm_mbps: float = 45.0,
    duration_s: float = 3.0,
    warmup_s: float = 1.0,
) -> MtuFragmentationResult:
    """Measure the three MTU strategies on a 10 + 45 Mbps bundle."""
    base = TestbedConfig(atm_mbps=atm_mbps, atm_mtu=ATM_BIG_MTU)
    rows: List[MtuRow] = []

    plain = measure_tcp_goodput(
        replace(base, stripe_scheme=SCHEME_SRR, stripe_fragmentation=False),
        R_ETH_IP, duration_s, warmup_s,
        sizes=(1460,), mss=1460,
    )
    rows.append(MtuRow("plain strIPe (min MTU)", 1500,
                       plain["goodput_mbps"], plain["cpu_utilization"]))

    frag = measure_tcp_goodput(
        replace(base, stripe_scheme=SCHEME_SRR, stripe_fragmentation=True),
        R_ETH_IP, duration_s, warmup_s,
        sizes=(ATM_BIG_MTU - 40,), mss=ATM_BIG_MTU - 40,
    )
    rows.append(MtuRow("fragmenting strIPe (max MTU)", ATM_BIG_MTU,
                       frag["goodput_mbps"], frag["cpu_utilization"]))

    atm_alone = measure_tcp_goodput(
        replace(base, stripe_scheme=None),
        R_ATM_IP, duration_s, warmup_s,
        sizes=(ATM_BIG_MTU - 40,), mss=ATM_BIG_MTU - 40,
    )
    rows.append(MtuRow("ATM alone, 9180 MTU", ATM_BIG_MTU,
                       atm_alone["goodput_mbps"],
                       atm_alone["cpu_utilization"]))
    return MtuFragmentationResult(rows)
