"""Figure 15: application-level throughput vs ATM PVC capacity.

For each PVC rate the paper plots seven quantities; we regenerate all of
them:

1. **Sum of Ethernet and ATM throughputs** — each interface measured alone
   (only one interface active at a time), then summed: the upper bound.
2. **SRR, logical reception** — the strIPe protocol.
3. **SRR, no logical reception** — resequencing disabled.
4. **GRR, logical reception**.
5. **GRR, no logical reception**.
6. **RR, logical reception**.
7. **RR, no logical reception**.

Expected shape (paper, section 6.2): the upper bound rises with the PVC
rate then stops rising (receiver CPU saturates); strIPe tracks the upper
bound until ≈14 Mbps then flattens (striping doubles the interrupt rate);
each no-resequencing variant sits below its logical-reception counterpart
(TCP misinterprets reordering); RR is capped by the slower Ethernet link
and goes flat once the PVC outruns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import render_rows
from repro.experiments.topology import (
    R_ATM_IP,
    R_ETH_IP,
    SCHEME_GRR,
    SCHEME_RR,
    SCHEME_SRR,
    TestbedConfig,
    measure_tcp_goodput,
)
from repro.net.stripe import RESEQ_MARKER, RESEQ_NONE

#: PVC rates swept in the figure (Mbps); the paper's x-axis runs 3.8-23.8.
DEFAULT_ATM_RATES = (3.8, 7.6, 13.8, 17.8, 23.8)

VARIANTS = (
    ("srr_lr", SCHEME_SRR, RESEQ_MARKER),
    ("srr_nolr", SCHEME_SRR, RESEQ_NONE),
    ("grr_lr", SCHEME_GRR, RESEQ_MARKER),
    ("grr_nolr", SCHEME_GRR, RESEQ_NONE),
    ("rr_lr", SCHEME_RR, RESEQ_MARKER),
    ("rr_nolr", SCHEME_RR, RESEQ_NONE),
)


@dataclass
class Figure15Row:
    """One x-axis point of Figure 15."""

    atm_mbps: float
    upper_bound: float
    eth_alone: float
    atm_alone: float
    variants: Dict[str, float] = field(default_factory=dict)


_COLUMNS = [("ATM Mbps", "atm_mbps", ".1f"), ("upper", "upper_bound", ".2f")]
_COLUMNS += [
    (header, lambda row, name=name: row.variants.get(name, 0.0), ".2f")
    for header, name in (
        ("SRR+LR", "srr_lr"), ("SRR-LR", "srr_nolr"), ("GRR+LR", "grr_lr"),
        ("GRR-LR", "grr_nolr"), ("RR+LR", "rr_lr"), ("RR-LR", "rr_nolr"),
    )
]


@dataclass
class Figure15Result:
    rows: List[Figure15Row]

    def series(self, name: str) -> List[float]:
        if name == "upper_bound":
            return [row.upper_bound for row in self.rows]
        return [row.variants[name] for row in self.rows]

    def render(self) -> str:
        text = render_rows(self.rows, _COLUMNS)
        if len(self.rows) >= 2:
            from repro.analysis.ascii_chart import Series, render_chart

            x = [row.atm_mbps for row in self.rows]
            text += "\n\n" + render_chart(
                x,
                [
                    # draw order = overdraw priority: SRR+LR last so the
                    # headline curve stays visible where GRR coincides
                    Series("upper bound", "*", self.series("upper_bound")),
                    Series("SRR-noLR", "s", self.series("srr_nolr")),
                    Series("RR+LR", "R", self.series("rr_lr")),
                    Series("GRR+LR", "G", self.series("grr_lr")),
                    Series("SRR+LR", "S", self.series("srr_lr")),
                ],
                y_label="Mbps",
                x_label="ATM PVC capacity (Mbps)",
            )
        return text


def run_figure15(
    atm_rates_mbps: Sequence[float] = DEFAULT_ATM_RATES,
    duration_s: float = 4.0,
    warmup_s: float = 1.0,
    base_config: Optional[TestbedConfig] = None,
) -> Figure15Result:
    """Regenerate Figure 15.

    ``duration_s``/``warmup_s`` trade fidelity for run time; the defaults
    are laptop-scale (tens of seconds of wall clock).
    """
    base = base_config if base_config is not None else TestbedConfig()
    rows: List[Figure15Row] = []
    for atm_mbps in atm_rates_mbps:
        # --- upper bound: each interface alone ---------------------------
        eth_alone = measure_tcp_goodput(
            replace(base, atm_mbps=atm_mbps, stripe_scheme=None),
            R_ETH_IP, duration_s, warmup_s,
        )["goodput_mbps"]
        atm_alone = measure_tcp_goodput(
            replace(base, atm_mbps=atm_mbps, stripe_scheme=None),
            R_ATM_IP, duration_s, warmup_s,
        )["goodput_mbps"]
        row = Figure15Row(
            atm_mbps=atm_mbps,
            upper_bound=eth_alone + atm_alone,
            eth_alone=eth_alone,
            atm_alone=atm_alone,
        )
        # --- the six striping variants -----------------------------------
        for name, scheme, reseq in VARIANTS:
            config = replace(
                base,
                atm_mbps=atm_mbps,
                stripe_scheme=scheme,
                resequencing=reseq,
            )
            result = measure_tcp_goodput(config, R_ETH_IP, duration_s, warmup_s)
            row.variants[name] = result["goodput_mbps"]
        rows.append(row)
    return Figure15Result(rows)


def check_figure15_shape(result: Figure15Result) -> List[str]:
    """Assertable shape properties from the paper; returns violations.

    * strIPe (SRR+LR) beats every other striping variant on average.
    * Each no-LR variant is below its LR counterpart on average.
    * RR stops scaling: its goodput at the highest PVC rate is not much
      better than at the point where the PVC matches Ethernet.
    * SRR+LR tracks the upper bound at low PVC rates (within 25%).
    """
    problems: List[str] = []
    rows = result.rows

    def mean(name: str) -> float:
        return sum(row.variants[name] for row in rows) / len(rows)

    srr_lr = mean("srr_lr")
    for name, _, _ in VARIANTS:
        if name == "srr_lr":
            continue
        # GRR+LR may tie SRR+LR on random workloads (the paper: "the
        # difference is not marked"); its guaranteed gap is adversarial
        # (see the grr_worst experiment).  Allow noise-level excess.
        tolerance = 0.75 if name == "grr_lr" else 0.3
        if mean(name) > srr_lr + tolerance:
            problems.append(
                f"{name} mean {mean(name):.2f} exceeds SRR+LR {srr_lr:.2f}"
            )
    for scheme in ("srr", "grr", "rr"):
        if mean(f"{scheme}_nolr") > mean(f"{scheme}_lr") + 0.3:
            problems.append(
                f"{scheme}: no-LR {mean(scheme + '_nolr'):.2f} beats "
                f"LR {mean(scheme + '_lr'):.2f}"
            )
    # RR flatness: compare the highest two PVC rates.
    if len(rows) >= 2:
        rr_top = rows[-1].variants["rr_lr"]
        rr_prev = rows[-2].variants["rr_lr"]
        if rr_top > rr_prev * 1.25 + 0.5:
            problems.append(
                f"RR kept scaling at high PVC rates ({rr_prev:.2f} -> {rr_top:.2f})"
            )
    # strIPe ≈ upper bound at the lowest PVC rate.
    low = rows[0]
    if low.variants["srr_lr"] < 0.75 * low.upper_bound:
        problems.append(
            f"SRR+LR {low.variants['srr_lr']:.2f} far below upper bound "
            f"{low.upper_bound:.2f} at {low.atm_mbps} Mbps"
        )
    return problems
