"""Exact reproductions of the paper's worked examples.

* Figures 2 & 3 — the fair-queuing / load-sharing duality on the
  six-packet example (a..f).
* Figures 5 & 6 — the SRR deficit-counter trace on the same example with
  quantum 500.
* Figures 7–13 — the marker synchronization-recovery walkthrough: two
  equal channels, unit packets, packet 7 lost, a marker with G=7
  resynchronizing the receiver.

These run the *real* implementation (striper, resequencer, marker
machinery) on the paper's inputs and compare against the packet-for-packet
sequences printed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import QUANTITY_VALUE, render_rows
from repro.core.cfq import fq_service_order
from repro.core.kernel import SRRKernel
from repro.core.markers import SRRReceiver
from repro.core.packet import Packet, is_marker
from repro.core.srr import SRR
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer, stripe_sequence


def paper_example_queues() -> Tuple[List[Packet], List[Packet]]:
    """Figure 2's input queues: a(550) b(150) c(300) and d(200) e(400) f(400)."""
    queue1 = [
        Packet(550, label="a"),
        Packet(150, label="b"),
        Packet(300, label="c"),
    ]
    queue2 = [
        Packet(200, label="d"),
        Packet(400, label="e"),
        Packet(400, label="f"),
    ]
    return queue1, queue2


#: The service order the paper's Figure 5 DC trace produces.
PAPER_FQ_ORDER = ["a", "d", "e", "b", "c", "f"]


@dataclass
class Fig2_3Result:
    fq_order: List[str]
    ls_channel_contents: List[List[str]]
    duality_holds: bool

    def render(self) -> str:
        return render_rows([
            ("FQ service order (Figure 2)", " ".join(self.fq_order)),
            ("LS channel 1 (Figure 3)", " ".join(self.ls_channel_contents[0])),
            ("LS channel 2 (Figure 3)", " ".join(self.ls_channel_contents[1])),
            ("time-reversal duality holds", str(self.duality_holds)),
        ], QUANTITY_VALUE)


def run_fig2_3() -> Fig2_3Result:
    """Check the FQ↔LS duality: striping the FQ output recreates the queues."""
    queue1, queue2 = paper_example_queues()
    algorithm = SRR([500.0, 500.0])
    fq_order = fq_service_order(algorithm, [queue1, queue2])

    # Load sharing on the FQ output (Figure 3's input queue)...
    sharer = TransformedLoadSharer(SRR([500.0, 500.0]))
    channels = stripe_sequence(sharer, fq_order)
    # ...must land each packet back on its original queue, in order.
    duality = [p.label for p in channels[0]] == [p.label for p in queue1] and [
        p.label for p in channels[1]
    ] == [p.label for p in queue2]
    return Fig2_3Result(
        fq_order=[p.label or "?" for p in fq_order],
        ls_channel_contents=[[p.label or "?" for p in c] for c in channels],
        duality_holds=duality,
    )


@dataclass
class Fig5_6Result:
    order: List[str]
    dc_trace: List[Tuple[str, int, float]]  # (label, channel, DC after send)
    matches_paper: bool

    def render(self) -> str:
        pairs = [("service order", " ".join(self.order)),
                 ("paper", " ".join(PAPER_FQ_ORDER))]
        pairs += [(f"send {label}", f"channel {channel + 1}, DC -> {dc:g}")
                  for label, channel, dc in self.dc_trace]
        return (render_rows(pairs, QUANTITY_VALUE)
                + f"\nmatches paper: {self.matches_paper}")


def run_fig5_6() -> Fig5_6Result:
    """Trace the SRR deficit counters through the worked example."""
    queue1, queue2 = paper_example_queues()
    algorithm = SRR([500.0, 500.0])
    order = fq_service_order(algorithm, [queue1, queue2])

    trace: List[Tuple[str, int, float]] = []
    kernel = SRRKernel(algorithm)
    for packet in order:
        channel = kernel.step(packet.size)
        trace.append((packet.label or "?", channel, kernel.dc[channel]))

    # Paper DC values after each send: a: -50, d: 300, e: -100, b: 300,
    # c: 0, f: 0 (Figure 5).
    expected = [
        ("a", 0, -50.0),
        ("d", 1, 300.0),
        ("e", 1, -100.0),
        ("b", 0, 300.0),
        ("c", 0, 0.0),
        ("f", 1, 0.0),
    ]
    matches = (
        [p.label for p in order] == PAPER_FQ_ORDER
        and [(l, c, d) for l, c, d in trace] == expected
    )
    return Fig5_6Result(
        order=[p.label or "?" for p in order],
        dc_trace=trace,
        matches_paper=matches,
    )


#: Delivery order the paper's Figures 9-13 show: FIFO through packet 6,
#: misordered 9 8 11 10 during desynchronization, 12 while the marker's
#: skip is pending on the other channel, then FIFO from 13 after recovery.
PAPER_FIG8_13_DELIVERY = [1, 2, 3, 4, 5, 6, 9, 8, 11, 10, 12, 13, 14, 15, 16, 17, 18]


@dataclass
class Fig8_13Result:
    channel_streams: List[List[str]]
    delivered: List[int]
    matches_paper: bool
    skips: int

    def render(self) -> str:
        return render_rows([
            ("channel 1 stream", " ".join(self.channel_streams[0])),
            ("channel 2 stream", " ".join(self.channel_streams[1])),
            ("delivered", " ".join(map(str, self.delivered))),
            ("paper", " ".join(map(str, PAPER_FIG8_13_DELIVERY))),
            ("channel skips", str(self.skips)),
        ], QUANTITY_VALUE) + f"\nmatches paper: {self.matches_paper}"


def run_fig8_13() -> Fig8_13Result:
    """The marker-recovery walkthrough with packet 7 lost.

    Unit packets on two equal channels (SRR reduces to RR), markers every
    6 rounds at the round boundary — so exactly one marker batch is
    emitted before round 7, carrying G=7, as in Figure 12.
    """
    size = 100
    algorithm = SRR([float(size), float(size)])
    sharer = TransformedLoadSharer(algorithm)
    ports = [ListPort(), ListPort()]
    striper = Striper(
        sharer,
        ports,
        MarkerPolicy(interval_rounds=6, position=0, initial_markers=False),
    )
    packets = [Packet(size, seq=n, label=str(n)) for n in range(1, 19)]
    for packet in packets:
        striper.submit(packet)

    # Channel 1 loses packet 7 (Figure 10).
    def lose_7(stream):
        return [
            p for p in stream if is_marker(p) or p.seq != 7
        ]

    streams = [lose_7(ports[0].sent), list(ports[1].sent)]

    receiver = SRRReceiver(algorithm)
    delivered: List[int] = []
    receiver.on_deliver = lambda p: delivered.append(p.seq)
    # Arrival interleaving is irrelevant to logical order; alternate.
    longest = max(len(s) for s in streams)
    for i in range(longest):
        for channel, stream in enumerate(streams):
            if i < len(stream):
                receiver.push(channel, stream[i])

    labels = [
        ["M" if is_marker(p) else str(p.seq) for p in s] for s in streams
    ]
    return Fig8_13Result(
        channel_streams=labels,
        delivered=delivered,
        matches_paper=delivered == PAPER_FIG8_13_DELIVERY,
        skips=receiver.stats.channel_skips,
    )
