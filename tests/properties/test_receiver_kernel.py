"""Theorem 4.1 as a structural property: the receiver runs the sender's kernel.

With no loss the receiver does not approximate the sender, it *is* the
sender's SRR, stepped at the other end.  :class:`SRRReceiver` keeps its
simulated sender state in one :class:`SRRKernel`, so the property is an
equality of kernel snapshots: after every delivery the receiver's kernel
holds exactly the state the sender's kernel held right after assigning
that packet.  A delivery's state is read when the next delivery is handed
to the application (the receiver charges a packet after its callback, so
the callback sees the previous packet's state) or when the arrival that
released it returns.

Covered: SRR, RR and GRR; byte and packet counting; 1, 2, 5 and 16
channels; quanta below the largest packet (deep overdraw); markers off,
and every 1 or 3 rounds with keepalive batches forced at random points.
The arrival interleaving across channels is random; each channel is FIFO.
"""

import random
from itertools import chain

from hypothesis import given, settings, strategies as st

from repro.core.markers import SRRReceiver
from repro.core.packet import Packet, is_marker
from repro.core.srr import SRR, make_grr, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer


@st.composite
def algorithms(draw):
    n = draw(st.sampled_from([1, 2, 5, 16]))
    family = draw(st.sampled_from(["srr", "srr_packets", "rr", "grr"]))
    if family == "rr":
        return lambda: make_rr(n)
    if family == "grr":
        weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        return lambda: make_grr(weights)
    if family == "srr_packets":
        # Quanta below one packet overdraw deeply under packet counting.
        quanta = draw(
            st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=n,
                     max_size=n)
        )
        return lambda: SRR(quanta, count_packets=True)
    # Packets reach 1500 B, so every quantum but the last overdraws.
    quanta = draw(
        st.lists(st.sampled_from([64.0, 300.0, 700.0, 1500.0]), min_size=n,
                 max_size=n)
    )
    return lambda: SRR(quanta)


@st.composite
def runs(draw):
    make = draw(algorithms())
    sizes = draw(st.lists(st.integers(40, 1500), min_size=1, max_size=80))
    interval = draw(st.sampled_from([0, 1, 3]))
    keepalives = set(
        draw(st.lists(st.integers(0, len(sizes) - 1), max_size=6))
        if interval else ()
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return make, sizes, interval, keepalives, seed


@given(run=runs())
@settings(max_examples=200, deadline=None)
def test_receiver_kernel_equals_sender_kernel_after_every_delivery(run):
    make, sizes, interval, keepalives, seed = run
    algorithm = make()
    n = algorithm.n_channels
    ports = [ListPort() for _ in range(n)]
    sharer = TransformedLoadSharer(algorithm)
    striper = Striper(
        sharer, ports,
        MarkerPolicy(interval_rounds=interval) if interval else None,
    )
    before = [sharer.kernel.snapshot()]  # before[k]: before packet k
    for seq, size in enumerate(sizes):
        striper.submit(Packet(size, seq=seq))
        before.append(sharer.kernel.snapshot())
        if seq in keepalives:
            striper.force_marker_batch()
    assert striper.backlog == 0

    receiver = SRRReceiver(make())
    delivered = []

    def on_deliver(packet):
        # Charged after this callback: the state is the one before it.
        assert receiver.kernel.snapshot() == before[packet.seq]
        delivered.append(packet.seq)

    receiver.on_deliver = on_deliver
    streams = [list(port.sent) for port in ports]
    rng = random.Random(seed)
    while any(streams):
        channel = rng.choice([c for c in range(n) if streams[c]])
        receiver.push(channel, streams[channel].pop(0))
        if delivered:
            assert receiver.kernel.snapshot() == before[delivered[-1] + 1]
    assert delivered == list(range(len(sizes)))
    # What is left is markers for visits the sender has not made yet.
    assert all(map(is_marker, chain.from_iterable(receiver.buffers)))
    stats = receiver.stats
    assert stats.channel_skips == stats.lag_flushed == stats.assumed_lost == 0
