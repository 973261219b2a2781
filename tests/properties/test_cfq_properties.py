"""Property-based tests (hypothesis) for the core theorems.

These drive the actual implementations over randomly generated algorithm
configurations, packet-size sequences, and arrival interleavings, checking
the paper's formal claims as executable invariants:

* Theorem 3.1 — the reverse-correspondence construction holds for every
  CFQ algorithm and input.
* Theorem 3.2 / Lemma 3.3 — the SRR byte-fairness bound.
* Theorem 4.1 — logical reception restores FIFO under any loss-free
  arrival interleaving.
* Arrival-order invariance — the logical delivery order depends only on
  the per-channel streams, never on cross-channel arrival timing.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.markers import SRRReceiver
from repro.core.packet import Packet
from repro.core.resequencer import Resequencer
from repro.core.schemes import SeededRandomFQ
from repro.core.srr import SRR, make_grr, make_rr
from repro.core.transform import (
    TransformedLoadSharer,
    stripe_sequence,
    verify_reverse_correspondence,
)

sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=2000), min_size=1, max_size=200
)
quanta_strategy = st.lists(
    st.integers(min_value=1, max_value=3000), min_size=2, max_size=5
)


def packets_from(sizes):
    return [Packet(size=s, seq=i) for i, s in enumerate(sizes)]


class TestTheorem31:
    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=120, deadline=None)
    def test_srr_reverse_correspondence(self, sizes, quanta):
        assert verify_reverse_correspondence(SRR(quanta), packets_from(sizes))

    @given(sizes=sizes_strategy, n=st.integers(min_value=2, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_rr_reverse_correspondence(self, sizes, n):
        assert verify_reverse_correspondence(make_rr(n), packets_from(sizes))

    @given(
        sizes=sizes_strategy,
        weights=st.lists(st.integers(min_value=1, max_value=5),
                         min_size=2, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_grr_reverse_correspondence(self, sizes, weights):
        assert verify_reverse_correspondence(
            make_grr(weights), packets_from(sizes)
        )

    @given(
        sizes=sizes_strategy,
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomized_cfq_reverse_correspondence(self, sizes, seed, n):
        assert verify_reverse_correspondence(
            SeededRandomFQ(n, seed=seed), packets_from(sizes)
        )


class TestTheorem32Fairness:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1500),
                       min_size=20, max_size=400),
        quanta=st.lists(st.integers(min_value=1500, max_value=4000),
                        min_size=2, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_deviation_bounded(self, sizes, quanta):
        """After K rounds, |sent_i - K*quantum_i| <= Max + 2*Quantum."""
        from repro.core.fairness import srr_fairness_report

        report = srr_fairness_report(SRR(quanta), packets_from(sizes))
        assert report.within_bound


class TestTheorem41LogicalReception:
    @given(
        sizes=sizes_strategy,
        quanta=quanta_strategy,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_fifo_under_random_interleaving(self, sizes, quanta, seed):
        packets = packets_from(sizes)
        algorithm = SRR(quanta)
        channels = stripe_sequence(TransformedLoadSharer(algorithm), packets)
        receiver = Resequencer(SRR(quanta))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)

        rng = random.Random(seed)
        positions = [0] * len(channels)
        remaining = sum(len(c) for c in channels)
        while remaining:
            candidates = [
                i for i in range(len(channels))
                if positions[i] < len(channels[i])
            ]
            channel = rng.choice(candidates)
            receiver.push(channel, channels[channel][positions[channel]])
            positions[channel] += 1
            remaining -= 1
        assert delivered == [p.seq for p in packets]

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=50, deadline=None)
    def test_nothing_left_buffered(self, sizes, quanta):
        packets = packets_from(sizes)
        algorithm = SRR(quanta)
        channels = stripe_sequence(TransformedLoadSharer(algorithm), packets)
        receiver = Resequencer(SRR(quanta))
        for index, stream in enumerate(channels):
            for packet in stream:
                receiver.push(index, packet)
        assert receiver.buffered == 0
        assert receiver.delivered == len(packets)


class TestArrivalOrderInvariance:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1000),
                       min_size=5, max_size=120),
        quanta=st.lists(st.integers(min_value=500, max_value=1500),
                        min_size=2, max_size=3),
        seeds=st.tuples(st.integers(0, 999), st.integers(0, 999)),
        drop_index=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_marker_receiver_delivery_independent_of_interleaving(
        self, sizes, quanta, seeds, drop_index
    ):
        """Even WITH a loss, the SRRReceiver's delivered sequence is a
        function of the per-channel streams only — physical arrival
        interleavings cannot change it."""
        from repro.core.packet import is_marker
        from repro.core.striper import ListPort, MarkerPolicy, Striper

        algorithm = SRR(quanta)
        ports = [ListPort() for _ in quanta]
        striper = Striper(
            TransformedLoadSharer(algorithm), ports,
            MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for packet in packets_from(sizes):
            striper.submit(packet)
        streams = [list(p.sent) for p in ports]
        # drop one data packet from channel 0 (if it has that many)
        data0 = [p for p in streams[0] if not is_marker(p)]
        if data0 and drop_index < len(data0):
            victim = data0[drop_index]
            streams[0] = [p for p in streams[0] if p is not victim]

        def run(seed):
            receiver = SRRReceiver(SRR(quanta))
            delivered = []
            receiver.on_deliver = lambda p: delivered.append(p.seq)
            rng = random.Random(seed)
            positions = [0] * len(streams)
            remaining = sum(len(s) for s in streams)
            while remaining:
                candidates = [
                    i for i in range(len(streams))
                    if positions[i] < len(streams[i])
                ]
                channel = rng.choice(candidates)
                receiver.push(channel, streams[channel][positions[channel]])
                positions[channel] += 1
                remaining -= 1
            return delivered

        assert run(seeds[0]) == run(seeds[1])


@st.composite
def fabric_workloads(draw):
    """(flow quanta, per-flow prefilled packet queues) for the fabric."""
    quanta = draw(quanta_strategy)
    queues = []
    uid = 0
    for index in range(len(quanta)):
        sizes = draw(
            st.lists(st.integers(min_value=1, max_value=2000),
                     min_size=1, max_size=40)
        )
        queues.append(
            [Packet(size=s, seq=(uid + k), flow=f"q{index}")
             for k, s in enumerate(sizes)]
        )
        uid += len(sizes)
    return quanta, queues


class TestComposedFQxSRR:
    """Transform duality extended to the composed FQ x SRR pipeline.

    A :class:`~repro.transport.fabric.FabricScheduler` (weighted DRR
    across flows) feeding the SRR striping kernel is the two-level
    construction of Section 3 applied twice.  Three claims must survive
    the composition:

    * the fabric's service order is exactly the reference DRR driver's
      (:func:`~repro.core.cfq.fq_service_order_noncausal`) over the same
      prefilled queues;
    * the fabric-merged stream preserves every flow's submission order
      and still satisfies the Theorem 3.1 reverse correspondence when
      striped by a :class:`TransformedLoadSharer`;
    * snapshotting *both* layers mid-stream and restoring them into
      fresh instances replays the identical remaining sent order and
      per-channel streams.
    """

    @staticmethod
    def _prefilled(quanta, queues, downstream, ready):
        """A FabricScheduler with one flow per queue, all packets queued.

        Flows are registered (and first-submitted) in queue-index order,
        so the fabric's activation ring matches the reference driver's
        queue indexing; ``quantum_bytes=1.0`` makes each flow's quantum
        equal its weight, i.e. the reference algorithm's quantum.
        """
        from repro.transport.fabric import FabricScheduler, FlowTable

        table = FlowTable(quantum_bytes=1.0)
        fabric = FabricScheduler(
            table, flow_buffer_packets=None
        )
        for index, quantum in enumerate(quanta):
            table.register(f"q{index}", weight=float(quantum))
        fabric.bind(downstream, ready=ready)
        for index, queue in enumerate(queues):
            for packet in queue:
                assert fabric.submit(f"q{index}", packet)
        return fabric, table

    def _drain(self, quanta, queues):
        out = []
        gate = [False]
        fabric, _ = self._prefilled(
            quanta, queues, out.append, lambda: gate[0]
        )
        gate[0] = True
        fabric.pump()
        return out

    @given(workload=fabric_workloads())
    @settings(max_examples=80, deadline=None)
    def test_fabric_service_order_matches_reference_drr(self, workload):
        """The event-driven fabric == the offline non-causal DRR driver."""
        from repro.core.cfq import fq_service_order_noncausal
        from repro.core.srr import DRR

        quanta, queues = workload
        merged = self._drain(quanta, queues)
        reference = fq_service_order_noncausal(
            DRR([float(q) for q in quanta]), queues
        )
        assert [p.uid for p in merged] == [p.uid for p in reference]

    @given(workload=fabric_workloads(), channel_quanta=quanta_strategy)
    @settings(max_examples=60, deadline=None)
    def test_theorem31_holds_on_fabric_merged_stream(
        self, workload, channel_quanta
    ):
        """Per-flow FIFO + reverse correspondence survive the composition."""
        quanta, queues = workload
        merged = self._drain(quanta, queues)
        assert len(merged) == sum(len(q) for q in queues)
        for index, queue in enumerate(queues):
            flow_uids = [p.uid for p in merged if p.flow == f"q{index}"]
            assert flow_uids == [p.uid for p in queue], (
                f"flow q{index} left the fabric out of submission order"
            )
        assert verify_reverse_correspondence(SRR(channel_quanta), merged)

    @given(
        workload=fabric_workloads(),
        channel_quanta=quanta_strategy,
        cut=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_composed_snapshot_restore_replays_identically(
        self, workload, channel_quanta, cut
    ):
        """Fabric + SRR kernel snapshots taken mid-stream round-trip."""
        quanta, queues = workload
        total = sum(len(q) for q in queues)
        k = cut % total

        def run(sharer, budget, sent, channels):
            def downstream(packet):
                channel = sharer.choose(packet)
                sharer.notify_sent(channel, packet)
                channels[channel].append(packet)
                sent.append(packet)
                budget[0] -= 1

            return downstream

        # First execution: pause after exactly k packets, snapshot both
        # layers, then run to completion.
        sharer = TransformedLoadSharer(SRR(channel_quanta))
        sent, channels = [], [[] for _ in range(sharer.n_channels)]
        budget = [0]
        fabric, _ = self._prefilled(
            quanta, queues, run(sharer, budget, sent, channels),
            lambda: budget[0] > 0,
        )
        budget[0] = k
        fabric.pump()
        assert len(sent) == k
        fabric_snap = fabric.snapshot()
        kernel_snap = sharer.state
        prefix_lens = [len(c) for c in channels]
        budget[0] = total
        fabric.pump()
        assert len(sent) == total

        # Second execution: rebuild the same queues, fast-forward past the
        # k already-serviced packets, restore both snapshots, drain.
        sharer2 = TransformedLoadSharer(SRR(channel_quanta))
        sent2, channels2 = [], [[] for _ in range(sharer2.n_channels)]
        budget2 = [0]
        fabric2, _ = self._prefilled(
            quanta, queues, run(sharer2, budget2, sent2, channels2),
            lambda: budget2[0] > 0,
        )
        for packet in sent[:k]:
            assert fabric2.take_head(packet.flow) is packet
        fabric2.restore(fabric_snap)
        sharer2.state = kernel_snap
        budget2[0] = total
        fabric2.pump()

        assert [p.uid for p in sent2] == [p.uid for p in sent[k:]]
        for index, stream in enumerate(channels2):
            expected = channels[index][prefix_lens[index]:]
            assert [p.uid for p in stream] == [p.uid for p in expected], (
                f"channel {index} replayed a different stream after restore"
            )
