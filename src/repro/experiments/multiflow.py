"""Multiple TCP flows over one strIPe bundle.

The paper evaluates a single TCP connection; a natural adoption question is
whether the striping layer remains transparent when several flows share
the virtual interface.  Two properties matter:

* **aggregate preservation** — N flows together extract roughly what one
  flow does (the striping layer adds no per-flow penalty);
* **approximate fairness** — no flow starves: the strIPe layer is a single
  FIFO below TCP, so flows compete exactly as they would on one fat link,
  and AIMD convergence applies unchanged.

Per-flow FIFO is inherited trivially: the bundle delivers the *global*
sender order, which contains each flow's order (the same argument the
paper makes against address-hashing applies in reverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import QUANTITY_VALUE, render_rows
from repro.experiments.topology import (
    R_ETH_IP,
    SCHEME_SRR,
    TestbedConfig,
    build_testbed,
)
from repro.sim.engine import Simulator
from repro.transport.tcp import BulkReceiver, BulkSender


@dataclass
class MultiflowResult:
    n_flows: int
    per_flow_mbps: List[float]
    aggregate_mbps: float
    single_flow_mbps: float
    retransmits: List[int]

    @property
    def fairness(self) -> float:
        """Jain's fairness index over per-flow goodput (1.0 = perfect).

        Shared with the fabric experiment via
        :func:`repro.core.fairness.jain_fairness_index`; unlike the old
        min/max ratio it degrades gracefully — one slow flow among many
        fast ones costs ~1/n, not the whole score.
        """
        from repro.core.fairness import jain_fairness_index

        return jain_fairness_index(self.per_flow_mbps)

    @property
    def fairness_ratio(self) -> float:
        """min/max per-flow goodput (legacy metric; see :attr:`fairness`)."""
        if not self.per_flow_mbps or max(self.per_flow_mbps) == 0:
            return 0.0
        return min(self.per_flow_mbps) / max(self.per_flow_mbps)

    def render(self) -> str:
        flows = " ".join(f"{v:.2f}" for v in self.per_flow_mbps)
        return render_rows([
            ("per-flow goodput (Mbps)", flows),
            ("aggregate Mbps", f"{self.aggregate_mbps:.2f}"),
            ("single flow alone Mbps", f"{self.single_flow_mbps:.2f}"),
            ("fairness (Jain)", f"{self.fairness:.3f}"),
            ("fairness (min/max)", f"{self.fairness_ratio:.2f}"),
        ], QUANTITY_VALUE,
            title=f"{self.n_flows} TCP flows over strIPe (SRR + markers):")


def run_multiflow(
    n_flows: int = 4,
    duration_s: float = 4.0,
    warmup_s: float = 1.5,
    config: TestbedConfig | None = None,
) -> MultiflowResult:
    """Run N parallel bulk TCP flows over the striped testbed."""
    if config is None:
        config = TestbedConfig(stripe_scheme=SCHEME_SRR, cpu=None)

    def measure(count: int) -> List[float]:
        sim = Simulator()
        testbed = build_testbed(sim, config)
        pairs = []
        for flow in range(count):
            rx = BulkReceiver(testbed.tcp_r, 5000 + flow)
            tx = BulkSender(
                testbed.tcp_s, R_ETH_IP, 5000 + flow, 40000 + flow,
                mss=1460,
            )
            pairs.append((tx, rx))
        for tx, _ in pairs:
            tx.start()
        sim.run(until=warmup_s)
        starts = [rx.bytes_delivered for _, rx in pairs]
        sim.run(until=warmup_s + duration_s)
        rates = [
            (rx.bytes_delivered - start) * 8 / duration_s / 1e6
            for (_, rx), start in zip(pairs, starts)
        ]
        retransmits = [tx.retransmits for tx, _ in pairs]
        return rates, retransmits

    single, _ = measure(1)
    per_flow, retransmits = measure(n_flows)
    return MultiflowResult(
        n_flows=n_flows,
        per_flow_mbps=per_flow,
        aggregate_mbps=sum(per_flow),
        single_flow_mbps=single[0],
        retransmits=retransmits,
    )
