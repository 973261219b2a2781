"""§6.2 in-text experiment: the GRR worst case.

"The rate of the PVC was set to 7.6 Mbps, so that the ATM interface gave
the same throughput as the Ethernet (6 Mbps).  Note that in this case GRR
reduces to RR.  Then packets were sent in deterministic fashion, with the
bigger (1000 bytes) packets alternating with the smaller (200 bytes) ones.
With SRR, the packet arrival sequence did not have any effect on
throughput, yielding a striped throughput of 11.2 Mbps.  With GRR, the
bigger packets are all sent on one interface, and the smaller packets on
the other, so the throughput drops dramatically to 6.8 Mbps."

We also run SRR and GRR under a *random* mix of the same sizes as the
control: there the two schemes tie, demonstrating that GRR's weakness is
adversarial, exactly as the paper argues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.tables import QUANTITY_VALUE, render_rows
from repro.experiments.topology import (
    R_ETH_IP,
    SCHEME_GRR,
    SCHEME_SRR,
    TestbedConfig,
    measure_tcp_goodput,
)
from repro.workloads.generators import AlternatingSizes


@dataclass
class GrrWorstCaseResult:
    srr_alternating_mbps: float
    grr_alternating_mbps: float
    srr_random_mbps: float
    grr_random_mbps: float

    @property
    def adversarial_drop(self) -> float:
        """GRR's throughput as a fraction of SRR's on the adversary."""
        if self.srr_alternating_mbps == 0:
            return 0.0
        return self.grr_alternating_mbps / self.srr_alternating_mbps

    def render(self) -> str:
        return render_rows([
            ("SRR Mbps, alternating 1000/200",
             f"{self.srr_alternating_mbps:.2f}"),
            ("GRR Mbps, alternating 1000/200",
             f"{self.grr_alternating_mbps:.2f}"),
            ("SRR Mbps, random 1000/200 mix", f"{self.srr_random_mbps:.2f}"),
            ("GRR Mbps, random 1000/200 mix", f"{self.grr_random_mbps:.2f}"),
        ], QUANTITY_VALUE) + (
            f"\n(paper: SRR 11.2 Mbps vs GRR 6.8 Mbps on the alternating "
            f"adversary; ratio {6.8 / 11.2:.2f} — measured ratio "
            f"{self.adversarial_drop:.2f})"
        )


#: PVC rate at which our simulated ATM interface delivers the same TCP
#: goodput as the Ethernet on the 1000/200 mix (~8 Mbps each).  The paper
#: did the same calibration on its hardware and landed at 7.6 Mbps (6 Mbps
#: each); the absolute point differs because our AAL5/CPU overheads differ,
#: the *equal-throughput* condition — which makes GRR reduce to RR — is
#: what matters.
EQUAL_GOODPUT_PVC_MBPS = 11.3


def run_grr_worst_case(
    duration_s: float = 3.0,
    warmup_s: float = 1.0,
    atm_mbps: float = EQUAL_GOODPUT_PVC_MBPS,
    base_config: Optional[TestbedConfig] = None,
) -> GrrWorstCaseResult:
    """Reproduce the adversarial alternating-size experiment.

    The receiver CPU model is disabled: this experiment isolates *link*
    fairness (the paper's SRR ran at the sum of both links here), and the
    small alternating packets would otherwise saturate the Figure 15 CPU
    model first.
    """
    base = base_config if base_config is not None else TestbedConfig()
    base = replace(base, atm_mbps=atm_mbps, grr_weights=(1, 1), cpu=None)

    def run(scheme: str, alternating: bool) -> float:
        config = replace(base, stripe_scheme=scheme)
        if alternating:
            sizes_fn = AlternatingSizes()
            result = _measure(config, sizes_fn, duration_s, warmup_s)
        else:
            rng = random.Random(11)
            result = _measure(
                config, lambda: rng.choice([1000, 200]), duration_s, warmup_s
            )
        return result

    return GrrWorstCaseResult(
        srr_alternating_mbps=run(SCHEME_SRR, True),
        grr_alternating_mbps=run(SCHEME_GRR, True),
        srr_random_mbps=run(SCHEME_SRR, False),
        grr_random_mbps=run(SCHEME_GRR, False),
    )


def _measure(config: TestbedConfig, size_fn, duration_s, warmup_s) -> float:
    from repro.experiments.topology import build_testbed
    from repro.sim.engine import Simulator

    sim = Simulator()
    testbed = build_testbed(sim, config)
    tx, rx = testbed.bulk_pair(R_ETH_IP, segment_size_fn=size_fn)
    tx.start()
    sim.run(until=warmup_s)
    start_bytes = rx.bytes_delivered
    sim.run(until=warmup_s + duration_s)
    return (rx.bytes_delivered - start_bytes) * 8.0 / duration_s / 1e6
