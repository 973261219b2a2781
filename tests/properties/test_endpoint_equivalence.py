"""Property tests: every transport adapter is the same striping endpoint.

After the endpoint-layer refactor, the plain striped-socket, session,
TCP-channel, and fast-path stacks are thin adapters over one
``StripeSenderPipeline``/``StripeReceiverPipeline`` pair.  These tests
push the same SRR workload through all four and assert the observable
protocol behaviour is identical:

* delivery order matches across every transport (FIFO over the common
  delivered prefix — quasi-FIFO effects need loss, and these runs are
  loss-free);
* the socket reference path and the fast path agree *exactly* — same
  ``(time, seq)`` records and same per-run marker arrival count;
* a named baseline discipline plugged into the shared testbed behaves
  the same as driving the raw discipline through in-memory ports.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet, is_marker
from repro.core.striper import ListPort
from repro.experiments.fault_tolerance import build_session_testbed
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.experiments.tcp_channels import build_tcp_striped
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    DISCIPLINES,
    StripeSenderPipeline,
    make_discipline,
)

DURATION_S = 0.4


def _socket_order(n, seed, fast):
    config = SocketTestbedConfig(
        n_channels=n,
        link_mbps=(10.0,),
        prop_delay_s=(0.5e-3,) * n,
        loss_rates=(0.0,),
        message_bytes=1000,
        seed=seed,
        fast=fast,
    )
    sim = Simulator()
    testbed = build_socket_testbed(sim, config)
    sim.run(until=DURATION_S)
    records = [(d.time, d.seq) for d in testbed.deliveries]
    markers = testbed.receiver.resequencer.stats.markers_received
    return records, markers


def _session_order(n, seed):
    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=n, link_mbps=(10.0,), loss_rates=(0.0,), seed=seed
    )
    sim.run(until=DURATION_S)
    return [seq for _, seq in testbed.deliveries]


def _tcp_order(n, seed):
    sim = Simulator()
    _, receiver, _ = build_tcp_striped(
        sim, n_channels=n, message_sizes=(1000,), seed=seed
    )
    sim.run(until=DURATION_S)
    return [p.seq for p in receiver.delivered]


class TestCrossTransportEquivalence:
    @given(
        n=st.sampled_from([2, 3, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=6, deadline=None)
    def test_all_adapters_deliver_the_same_order(self, n, seed):
        socket_records, _ = _socket_order(n, seed, fast=False)
        socket_seqs = [seq for _, seq in socket_records]
        session_seqs = _session_order(n, seed)
        tcp_seqs = _tcp_order(n, seed)
        fast_records, _ = _socket_order(n, seed, fast=True)
        fast_seqs = [seq for _, seq in fast_records]
        orders = [socket_seqs, session_seqs, tcp_seqs, fast_seqs]
        assert all(len(order) > 50 for order in orders)
        common = min(len(order) for order in orders)
        reference = socket_seqs[:common]
        for order in orders:
            assert order[:common] == reference

    @given(
        n=st.sampled_from([2, 3, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_fast_adapter_is_exact(self, n, seed):
        """Socket reference vs fast path: identical (time, seq) records
        AND identical marker arrival counts — the adapters share one
        pipeline, so only wall-clock may differ."""
        ref_records, ref_markers = _socket_order(n, seed, fast=False)
        fast_records, fast_markers = _socket_order(n, seed, fast=True)
        assert ref_records
        assert fast_records == ref_records
        assert fast_markers == ref_markers


class TestDisciplinePortability:
    @given(
        name=st.sampled_from(
            ["sqf", "random_selection", "address_hash", "srr"]
        ),
        n=st.sampled_from([2, 3, 4]),
        seed=st.integers(min_value=0, max_value=2**12),
    )
    @settings(max_examples=10, deadline=None)
    def test_pipeline_matches_raw_discipline(self, name, n, seed):
        """The pipeline adds nothing to a discipline's channel choices:
        striping a workload through StripeSenderPipeline lands every
        packet where driving the raw (s0, f, g) sharer by hand would."""
        sizes = [200 + (i * 997) % 1300 for i in range(60)]

        pipeline_ports = [ListPort() for _ in range(n)]
        pipeline = StripeSenderPipeline(
            pipeline_ports, name,
            discipline_options={"quantum": 1000.0, "seed": seed},
        )
        for i, size in enumerate(sizes):
            pipeline.submit_packet(Packet(size=size, seq=i))
        pipeline.flush()

        sharer = make_discipline(name, n, quantum=1000.0, seed=seed)
        wrap = getattr(sharer, "wrap_packet", None)
        manual_ports = [ListPort() for _ in range(n)]
        for i, size in enumerate(sizes):
            packet = Packet(size=size, seq=i)
            units = wrap(packet) if wrap is not None else [packet]
            for unit in units:
                channel = sharer.choose(unit, None)
                manual_ports[channel].sent.append(unit)
                sharer.notify_sent(channel, unit)
        flush = getattr(sharer, "flush", None)
        if flush is not None:
            for unit in flush():
                channel = sharer.choose(unit, None)
                manual_ports[channel].sent.append(unit)
                sharer.notify_sent(channel, unit)

        for pipe_port, manual_port in zip(pipeline_ports, manual_ports):
            pipe_data = [
                p for p in pipe_port.sent if not is_marker(p)
            ]
            assert [p.size for p in pipe_data] == [
                p.size for p in manual_port.sent
            ]


class TestRegistryRoundTrip:
    """Every registry discipline round-trips through the shared testbed.

    The registry's contract is that *any* named discipline — whatever its
    synchronization model — plugs into the transports and conserves
    packets **exactly once**: nothing delivered twice, nothing delivered
    that was never submitted.  Clean runs must also actually move traffic;
    lossy runs may drop (quasi-FIFO permits gaps) but never duplicate or
    invent.
    """

    #: disciplines whose receiver half delivers *frames* in their own
    #: sequence space (BONDING) rather than the submitted packets.
    FRAME_DELIVERY = {"bonding"}
    #: fragmenting disciplines the session transport rejects by contract
    #: (its epoch striper moves whole packets, not fragments).
    FRAGMENTING = {"mppp", "bonding"}

    @staticmethod
    def _options_for(name):
        # Sprinklers: provision the full stripe for the harness's single
        # flowless aggregate (resize transients are studied elsewhere).
        if name == "sprinklers":
            return {"initial_share": 1.0}
        return None

    @pytest.mark.parametrize("name", sorted(DISCIPLINES))
    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_socket_conservation(self, name, loss):
        sim = Simulator()
        config = SocketTestbedConfig(
            n_channels=2,
            link_mbps=(10.0,),
            prop_delay_s=(0.5e-3,) * 2,
            loss_rates=(loss,),
            message_bytes=1000,
            discipline=name,
            discipline_options=self._options_for(name),
            seed=7,
        )
        testbed = build_socket_testbed(sim, config)
        sim.run(until=0.3)
        seqs = testbed.delivered_seqs()
        submitted = testbed.source.generated
        assert len(seqs) == len(set(seqs)), f"{name}: duplicate delivery"
        if name not in self.FRAME_DELIVERY:
            assert set(seqs) <= set(range(submitted)), (
                f"{name}: delivered a packet that was never submitted"
            )
        if loss == 0.0:
            assert len(seqs) > 50, f"{name}: clean run barely delivered"

    @pytest.mark.parametrize("name", sorted(DISCIPLINES))
    def test_session_conserves(self, name):
        sim = Simulator()
        if name in self.FRAGMENTING:
            with pytest.raises(ValueError, match="whole packets"):
                build_session_testbed(
                    sim, n_channels=2, link_mbps=(10.0,),
                    loss_rates=(0.0,), seed=7, discipline=name,
                )
            return
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0,), loss_rates=(0.0,),
            seed=7, discipline=name,
            discipline_options=self._options_for(name),
        )
        sim.run(until=0.3)
        seqs = [seq for _, seq in testbed.deliveries]
        assert len(seqs) > 50
        assert len(seqs) == len(set(seqs))

    @pytest.mark.parametrize("name", sorted(DISCIPLINES))
    def test_tcp_builds_and_conserves(self, name):
        sim = Simulator()
        _, receiver, _ = build_tcp_striped(
            sim, n_channels=2, message_sizes=(1000,), seed=7,
            discipline=name,
            discipline_options=self._options_for(name),
        )
        sim.run(until=0.3)
        # BONDING delivers frames (sequence); everything else packets (seq).
        seqs = [
            p.sequence if name in self.FRAME_DELIVERY else p.seq
            for p in receiver.delivered
        ]
        assert len(seqs) > 50
        assert len(seqs) == len(set(seqs))


class TestMultiFlowCrossTransportEquivalence:
    """Every adapter drains an attached fabric into the same wire order.

    Two weighted flows are prefilled into a detached
    :class:`~repro.transport.fabric.FabricScheduler` (so the weighted-DRR
    merge order is fixed before any transport sees a packet), the fabric
    is mounted on each adapter — socket, session, TCP, fast path, and
    duplex — and the delivered sequence must equal the reference DRR
    merge on all five.  None of the adapters contains any flow logic;
    multi-flow submission is purely the shared pipeline's ``attach_fabric``
    surface, so any divergence here is a pipeline bug, not a transport
    feature.
    """

    MESSAGE_BYTES = 1000
    #: (flow_id, weight, packets): counts proportional to weight so the
    #: flows stay mutually backlogged until they drain together.
    FLOWS = (("gold", 2.0, 80), ("bronze", 1.0, 40))

    def _prefilled_fabric(self):
        from repro.transport.fabric import FabricScheduler, FlowTable

        table = FlowTable(quantum_bytes=float(self.MESSAGE_BYTES))
        fabric = FabricScheduler(
            table, flow_buffer_packets=None
        )
        for flow_id, weight, _ in self.FLOWS:
            table.register(flow_id, weight=weight)
        seq = 0
        for flow_id, _, count in self.FLOWS:
            for _ in range(count):
                assert fabric.submit(
                    flow_id, Packet(size=self.MESSAGE_BYTES, seq=seq)
                )
                seq += 1
        return fabric

    @property
    def _total(self):
        return sum(count for _, _, count in self.FLOWS)

    def _reference_order(self):
        """The pure weighted-DRR merge, no transport underneath."""
        out = []
        fabric = self._prefilled_fabric()
        fabric.bind(out.append)
        fabric.pump()
        return [p.seq for p in out]

    def _socket_seqs(self, fast):
        config = SocketTestbedConfig(
            n_channels=2,
            link_mbps=(10.0,),
            prop_delay_s=(0.5e-3, 0.5e-3),
            loss_rates=(0.0,),
            message_bytes=self.MESSAGE_BYTES,
            seed=0,
            fast=fast,
            closed_loop=False,
        )
        sim = Simulator()
        testbed = build_socket_testbed(sim, config)
        testbed.sender.attach_fabric(self._prefilled_fabric())
        testbed.sender.pump()
        sim.run(until=0.6)
        return testbed.delivered_seqs()

    def _session_seqs(self):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=self.MESSAGE_BYTES, seed=0, closed_loop=False,
        )
        testbed.sender.attach_fabric(self._prefilled_fabric())
        testbed.sender.pump()
        sim.run(until=0.6)
        return [seq for _, seq in testbed.deliveries]

    def _tcp_seqs(self):
        sim = Simulator()
        sender, receiver, _ = build_tcp_striped(
            sim, n_channels=2, message_sizes=(self.MESSAGE_BYTES,),
            seed=0, closed_loop=False,
        )
        sender.attach_fabric(self._prefilled_fabric())
        sender.pump()
        sim.run(until=0.6)
        return [p.seq for p in receiver.delivered]

    def _duplex_seqs(self):
        from repro.core.srr import SRR
        from repro.experiments.socket_harness import build_two_hosts
        from repro.transport.duplex import connect_duplex

        sim = Simulator()
        a, b, links = build_two_hosts(sim, 2)
        a_targets = [(ip, 7100 + i) for i, ip in enumerate(b.local_addresses())]
        b_targets = [(ip, 7000 + i) for i, ip in enumerate(a.local_addresses())]
        end_a, end_b = connect_duplex(
            sim, a, b, a_targets, b_targets,
            algorithm_factory=lambda: SRR([float(self.MESSAGE_BYTES)] * 2),
            buffer_packets=16,
        )
        end_a.sender.attach_fabric(self._prefilled_fabric())
        end_a.sender.pump()
        for link in links:
            link.ab.on_space = end_a.sender.pump
            link.ba.on_space = end_b.sender.pump
        sim.run(until=0.6)
        return [p.seq for p in end_b.receiver.delivered]

    def test_all_adapters_drain_the_fabric_in_reference_drr_order(self):
        reference = self._reference_order()
        assert len(reference) == self._total
        # The weighted merge is NOT the submission order — the transports
        # below must reproduce the *scheduler's* interleave, not FIFO.
        assert reference != sorted(reference)

        orders = {
            "socket": self._socket_seqs(fast=False),
            "fast": self._socket_seqs(fast=True),
            "session": self._session_seqs(),
            "tcp": self._tcp_seqs(),
            "duplex": self._duplex_seqs(),
        }
        for name, seqs in orders.items():
            assert seqs == reference, (
                f"{name} transport diverged from the reference DRR merge "
                f"(delivered {len(seqs)}/{len(reference)})"
            )

    def test_per_flow_fifo_on_every_transport(self):
        """Each flow's packets arrive in its own submission order."""
        bounds, start = {}, 0
        for flow_id, _, count in self.FLOWS:
            bounds[flow_id] = range(start, start + count)
            start += count
        for seqs in (self._session_seqs(), self._tcp_seqs()):
            for flow_id, flow_range in bounds.items():
                flow_seqs = [s for s in seqs if s in flow_range]
                assert flow_seqs == list(flow_range), (
                    f"flow {flow_id} delivered out of submission order"
                )
