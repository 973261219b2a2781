"""Striping over TCP connections (§2's transport-channel suggestion).

Measures the configuration the paper proposes for hosts with "intelligent"
adaptors: the application stream striped across N TCP connections, one per
physical link.  Because each channel is reliable and FIFO, plain logical
reception yields **guaranteed** FIFO delivery — the quasi-FIFO caveat and
the whole marker apparatus vanish (compare Table 1's with-header rows).

Reported per channel count: aggregate goodput, FIFO check, and the per-
channel TCP retransmission totals when the links are lossy (losses are
repaired inside the channels, invisible to the striping layer).

A caveat this experiment surfaces (and that the paper's clean-LAN setting
sidesteps): on *lossy* links, any one channel's TCP recovery stalls the
whole striped stream — logical reception must wait for that channel's
in-order bytes — so scaling turns sub-linear (reliable channels trade the
quasi-FIFO caveat for cross-channel head-of-line blocking during
recovery).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.tables import render_rows
from repro.core.srr import SRR
from repro.experiments.socket_harness import build_two_hosts
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.transport.discipline import receiver_args_for
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.tcp import TcpLayer
from repro.transport.tcp_striping import bind_tcp_receiver, tcp_ports
from repro.workloads.generators import ClosedLoopSource, RandomMixSizes


def build_tcp_striped(
    sim: Simulator,
    n_channels: int = 2,
    link_mbps: float = 10.0,
    loss: float = 0.0,
    message_sizes: Sequence[int] = (200, 1000, 1460),
    seed: int = 0,
    failure_detector=None,
    closed_loop: bool = True,
    discipline: str | None = None,
    discipline_options: dict | None = None,
) -> Tuple[StripeSenderPipeline, StripeReceiverPipeline, list]:
    """Two hosts, one link per TCP channel, closed-loop striped stream.

    With ``closed_loop=False`` no source is created; the caller paces
    submissions (e.g. through an attached fabric).  ``discipline`` swaps
    the default SRR for any registry discipline on both ends (both halves
    resolve the same name, so the receiver mode follows automatically: a
    CFQ algorithm gets plain logical reception — guaranteed FIFO over
    reliable channels — and a marker-free discipline ``"direct"``, no
    resequencer at all).  A whole connection can still die; the optional
    ``failure_detector`` turns that into assumed-lost gaps instead of a
    permanent stall.
    """
    host_a, host_b, links = build_two_hosts(
        sim, n_channels, link_mbps=(link_mbps,),
        loss_ab=[
            BernoulliLoss(loss, rng=random.Random(seed * 31 + index))
            for index in range(n_channels)
        ] if loss else None,
    )
    options = discipline_options or {}

    def spec():
        if discipline is not None:
            return discipline
        return SRR([1000.0] * n_channels)

    mode, algorithm = receiver_args_for(spec(), n_channels, **options)
    receiver = StripeReceiverPipeline(
        n_channels, algorithm, mode=mode, failure_detector=failure_detector,
    )
    bind_tcp_receiver(TcpLayer(host_b, sim), receiver)
    # Markers are unnecessary here: the channels are reliable and FIFO.
    sender = StripeSenderPipeline(
        tcp_ports(TcpLayer(host_a, sim), host_b.local_addresses()),
        spec(),
        discipline_options=options,
    )
    if closed_loop:
        sizes = RandomMixSizes(message_sizes, rng=random.Random(seed))
        source = ClosedLoopSource(
            sim, sender.submit_packet, lambda: sender.backlog, sizes,
            target=12,
        )
        source.start()
    return sender, receiver, links


@dataclass
class TcpChannelsRow:
    n_channels: int
    loss_rate: float
    goodput_mbps: float
    delivered: int
    fifo: bool
    channel_retransmits: int


@dataclass
class TcpChannelsResult:
    rows: List[TcpChannelsRow]

    def render(self) -> str:
        return render_rows(self.rows, [
            ("N", "n_channels", ""), ("loss", "loss_rate", ".2f"),
            ("Mbps", "goodput_mbps", ".2f"), ("delivered", "delivered", ""),
            ("FIFO", "fifo", ""), ("rexmits", "channel_retransmits", ""),
        ])


def run_tcp_channels(
    channel_counts: Sequence[int] = (1, 2, 4),
    loss_rates: Sequence[float] = (0.0, 0.03),
    duration_s: float = 2.0,
    link_mbps: float = 10.0,
) -> TcpChannelsResult:
    """Sweep channel count × loss rate for TCP-channel striping."""
    rows: List[TcpChannelsRow] = []
    for loss in loss_rates:
        for n in channel_counts:
            sim = Simulator()
            sender, receiver, _ = build_tcp_striped(
                sim, n_channels=n, link_mbps=link_mbps, loss=loss,
            )
            sim.run(until=duration_s)
            seqs = [p.seq for p in receiver.delivered]
            goodput = (
                sum(p.size for p in receiver.delivered)
                * 8 / duration_s / 1e6
            )
            rows.append(
                TcpChannelsRow(
                    n_channels=n,
                    loss_rate=loss,
                    goodput_mbps=goodput,
                    delivered=len(seqs),
                    fifo=seqs == sorted(seqs),
                    channel_retransmits=sum(
                        port.sender.retransmits for port in sender.ports
                    ),
                )
            )
    return TcpChannelsResult(rows)
