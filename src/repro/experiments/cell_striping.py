"""Cell-level vs packet-level striping over ATM VCs (paper's conclusion).

"When striping end-to-end across ATM circuits, it seems advisable to
stripe at the packet layer.  Striping cells across channels would mean
that AAL boundaries are unavailable within the ATM networks; however,
these boundaries are needed in order to implement early discard policies
[RF94]."

The mechanism (Romanov & Floyd): when a congested queue drops *random
cells*, the losses scatter across many packets and every hit packet is
garbage — goodput collapses.  With AAL packet boundaries visible, the
queue can do **early packet discard**: refuse a whole packet up front,
concentrating the same byte loss on few packets and keeping the rest
intact.

We overload two ATM VCs (finite cell queues) and stripe the same packet
stream two ways:

* **packet striping + EPD** — SRR assigns whole packets to VCs; a VC
  admits a packet only if its queue can hold *all* its cells (AAL
  boundaries available ⇒ early discard possible);
* **cell striping** — cells are dealt round-robin across both VCs with
  per-cell tail drop (boundaries invisible mid-network, as when cells of
  one AAL frame are spread over two circuits).

Reported: goodput (complete packets only), cell loss, and the fraction of
*damaged* packets (some but not all cells arrived — pure waste).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import render_rows
from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.transform import TransformedLoadSharer
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.workloads.generators import PacedSource, ConstantSizes, cbr_intervals

CELL_BYTES = 53
CELL_PAYLOAD = 48


@dataclass
class _Cell:
    packet_uid: int
    index: int
    count: int
    size: int = CELL_BYTES


@dataclass
class CellStripingRow:
    mode: str
    offered_packets: int
    complete_packets: int
    damaged_packets: int
    cells_dropped: int
    goodput_mbps: float

    @property
    def damaged_fraction(self) -> float:
        delivered_any = self.complete_packets + self.damaged_packets
        if delivered_any == 0:
            return 0.0
        return self.damaged_packets / delivered_any


@dataclass
class CellStripingResult:
    rows: List[CellStripingRow]

    def row(self, mode: str) -> CellStripingRow:
        return next(r for r in self.rows if r.mode == mode)

    def render(self) -> str:
        return render_rows(self.rows, [
            ("mode", "mode", ""), ("offered", "offered_packets", ""),
            ("complete", "complete_packets", ""),
            ("damaged", "damaged_packets", ""),
            ("cellloss", "cells_dropped", ""), ("Mbps", "goodput_mbps", ".2f"),
        ])


def _run_mode(
    mode: str,
    duration_s: float,
    vc_mbps: float,
    queue_cells: int,
    cells_per_packet: int,
    overload: float,
    seed: int,
) -> CellStripingRow:
    sim = Simulator()
    channels = [
        Channel(sim, bandwidth_bps=vc_mbps * 1e6, prop_delay=1e-3,
                queue_limit=queue_cells, name=f"vc{i}")
        for i in range(2)
    ]
    received: Dict[int, int] = {}
    for channel in channels:
        channel.on_deliver = lambda cell: received.__setitem__(
            cell.packet_uid, received.get(cell.packet_uid, 0) + 1
        )

    cells_dropped = [0]
    offered = [0]
    packet_bytes = cells_per_packet * CELL_PAYLOAD

    sharer = TransformedLoadSharer(
        SRR([float(packet_bytes)] * 2)
    )
    rr_next = [0]

    def submit(packet: Packet) -> None:
        offered[0] += 1
        cells = [
            _Cell(packet.uid, i, cells_per_packet)
            for i in range(cells_per_packet)
        ]
        if mode == "packet striping + EPD":
            vc = sharer.choose(packet)
            sharer.notify_sent(vc, packet)
            channel = channels[vc]
            # Early packet discard: all cells or none.
            if channel.queue_length + cells_per_packet > queue_cells:
                cells_dropped[0] += cells_per_packet
                return
            for cell in cells:
                channel.send(cell)
        else:  # cell striping: RR per cell, blind tail drop
            for cell in cells:
                channel = channels[rr_next[0]]
                rr_next[0] = (rr_next[0] + 1) % 2
                if not channel.send(cell):
                    cells_dropped[0] += 1

    packet_rate = overload * (2 * vc_mbps * 1e6) / (8 * CELL_BYTES) / (
        cells_per_packet
    )
    source = PacedSource(
        sim, submit, ConstantSizes(packet_bytes),
        cbr_intervals(packet_rate),
    )
    source.start()
    sim.run(until=duration_s)

    complete = sum(1 for n in received.values() if n == cells_per_packet)
    damaged = sum(1 for n in received.values() if 0 < n < cells_per_packet)
    goodput = complete * packet_bytes * 8 / duration_s / 1e6
    return CellStripingRow(
        mode=mode,
        offered_packets=offered[0],
        complete_packets=complete,
        damaged_packets=damaged,
        cells_dropped=cells_dropped[0],
        goodput_mbps=goodput,
    )


def run_cell_striping(
    duration_s: float = 2.0,
    vc_mbps: float = 10.0,
    queue_cells: int = 64,
    cells_per_packet: int = 20,
    overload: float = 1.3,
    seed: int = 0,
) -> CellStripingResult:
    """Overload two VCs by ``overload``×; compare the two striping layers."""
    rows = [
        _run_mode("packet striping + EPD", duration_s, vc_mbps, queue_cells,
                  cells_per_packet, overload, seed),
        _run_mode("cell striping", duration_s, vc_mbps, queue_cells,
                  cells_per_packet, overload, seed),
    ]
    return CellStripingResult(rows)
