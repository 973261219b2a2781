#!/usr/bin/env python3
"""Quickstart: the striping protocol in five minutes.

Walks the core API end to end, using the paper's own worked example:

1. build an SRR algorithm and transform it into a load sharer,
2. stripe a packet stream across two channels,
3. reassemble the FIFO stream with logical reception,
4. lose a packet and watch marker recovery restore synchronization.

Run with::

    python examples/quickstart.py
"""

from repro.core import (
    MarkerPolicy,
    Packet,
    Resequencer,
    SRR,
    SRRReceiver,
    Striper,
    TransformedLoadSharer,
    is_marker,
)
from repro.core.striper import ListPort
from repro.sim import Tracer


def main() -> None:
    # ------------------------------------------------------------------
    print("=" * 64)
    print("1. Fair striping with Surplus Round Robin (paper fig. 6)")
    print("=" * 64)

    # Two channels, 500-byte quantum each; the paper's packets a..f.
    algorithm = SRR(quanta=[500, 500])
    sharer = TransformedLoadSharer(algorithm)

    packets = [
        Packet(550, label="a"), Packet(200, label="d"),
        Packet(400, label="e"), Packet(150, label="b"),
        Packet(300, label="c"), Packet(400, label="f"),
    ]
    ports = [ListPort(), ListPort()]
    striper = Striper(sharer, ports)
    for packet in packets:
        striper.submit(packet)

    for index, port in enumerate(ports):
        labels = " ".join(p.label for p in port.sent)
        size = sum(p.size for p in port.sent)
        print(f"  channel {index + 1}: {labels}  ({size} bytes)")
    print("  -> roughly equal bytes per channel despite mixed sizes")

    # ------------------------------------------------------------------
    print()
    print("=" * 64)
    print("2. Logical reception: FIFO restored from skewed channels")
    print("=" * 64)

    receiver = Resequencer(SRR(quanta=[500, 500]))
    delivered = []
    receiver.on_deliver = lambda p: delivered.append(p.label)

    # Worst-case skew: ALL of channel 2 arrives before channel 1.
    for packet in ports[1].sent:
        receiver.push(1, packet)
    print(f"  after channel 2 arrived: delivered = {delivered} (blocked)")
    for packet in ports[0].sent:
        receiver.push(0, packet)
    print(f"  after channel 1 arrived: delivered = {delivered}")
    print("  -> exact sender order, no sequence numbers anywhere")

    # ------------------------------------------------------------------
    print()
    print("=" * 64)
    print("3. Losing a packet and recovering with markers (paper figs. 8-13)")
    print("=" * 64)

    algorithm = SRR(quanta=[100.0, 100.0])  # unit packets: SRR becomes RR
    ports = [ListPort(), ListPort()]
    striper = Striper(
        TransformedLoadSharer(algorithm),
        ports,
        MarkerPolicy(interval_rounds=6, initial_markers=False),
    )
    for n in range(1, 19):
        striper.submit(Packet(100, seq=n))

    # Channel 1 loses packet 7 in transit.
    channel1 = [p for p in ports[0].sent if is_marker(p) or p.seq != 7]
    channel2 = list(ports[1].sent)
    print("  channel 1 carries:",
          " ".join("M" if is_marker(p) else str(p.seq) for p in channel1))
    print("  channel 2 carries:",
          " ".join("M" if is_marker(p) else str(p.seq) for p in channel2))

    tracer = Tracer()
    receiver = SRRReceiver(SRR(quanta=[100.0, 100.0]), tracer=tracer)
    order = []
    receiver.on_deliver = lambda p: order.append(p.seq)
    for i in range(max(len(channel1), len(channel2))):
        if i < len(channel1):
            receiver.push(0, channel1[i])
        if i < len(channel2):
            receiver.push(1, channel2[i])

    print(f"  delivered: {' '.join(str(s) for s in order)}")
    print(f"  channel skips during recovery: {receiver.stats.channel_skips}")
    print(f"  traced: {tracer.count(kind='marker')} markers received, "
          f"{tracer.count(kind='skip')} skips")
    print("  -> quasi-FIFO: misordered only between the loss and the marker,")
    print("     perfectly FIFO again from packet 13 on (Theorem 5.1)")


if __name__ == "__main__":
    main()
