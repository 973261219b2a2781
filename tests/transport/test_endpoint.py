"""Tests for the transport-agnostic endpoint layer.

Covers the discipline registry (any (s0, f, g) scheme into any
transport), the shared sender/receiver pipelines over in-memory ports,
and the dead-channel regressions for the plain striped-socket and TCP
paths.
"""

import pytest

from repro.baselines import (
    BondingFrame,
    MpppDiscipline,
    MpppFragment,
    ShortestQueueFirst,
)
from repro.core.kernel import kernel_for
from repro.core.packet import MarkerPacket, Packet, is_marker
from repro.core.srr import SRR, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.experiments.tcp_channels import build_tcp_striped
from repro.sim.loss import BernoulliLoss
from repro.transport.endpoint import (
    DISCIPLINES,
    ChannelFailureDetector,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
    resolve_discipline,
)
from tests.conftest import LimitedPort, peek_time


def make_ports(n, limit=None):
    return [LimitedPort(limit) for _ in range(n)]


class BurstPort(ListPort):
    """An unbounded list port with the burst surface."""

    def send_burst(self, packets):
        self.sent.extend(packets)

    def free_capacity(self):
        return 1 << 30


class TestDisciplineRegistry:
    @pytest.mark.parametrize("name", sorted(DISCIPLINES))
    def test_every_name_builds(self, name):
        sharer = make_discipline(name, 3)
        assert sharer.n_channels == 3
        assert hasattr(sharer, "choose") and hasattr(sharer, "notify_sent")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown discipline"):
            make_discipline("fifo", 2)

    def test_resolve_wraps_causal_fq(self):
        sharer = resolve_discipline(SRR([100.0, 100.0]), 2)
        assert isinstance(sharer, TransformedLoadSharer)

    def test_resolve_passes_sharer_through(self):
        sqf = ShortestQueueFirst(2)
        assert resolve_discipline(sqf, 2) is sqf

    def test_resolve_channel_mismatch(self):
        with pytest.raises(ValueError):
            resolve_discipline(SRR([100.0, 100.0]), 3)

    def test_resolve_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_discipline(42, 2)

    def test_receiver_modes(self):
        assert receiver_mode_for(SRR([1.0, 1.0]), markers=True) == "marker"
        assert receiver_mode_for(make_discipline("rr", 2)) == "plain"
        assert receiver_mode_for(ShortestQueueFirst(2)) == "none"
        assert receiver_mode_for(make_discipline("mppp", 2)) == "mppp"
        assert receiver_mode_for(make_discipline("bonding", 2)) == "bonding"
        # Marker-free disciplines: direct even when markers are offered.
        hash_based = make_discipline("address_hash", 2)
        assert receiver_mode_for(hash_based) == "direct"
        assert receiver_mode_for(hash_based, markers=True) == "direct"
        assert receiver_mode_for(make_discipline("sprinklers", 2)) == "direct"


class TestSenderPipeline:
    def test_matches_manual_striper_with_markers(self):
        policy = MarkerPolicy(interval_rounds=1)
        ports_a = make_ports(3)
        manual = Striper(
            TransformedLoadSharer(SRR([500.0] * 3)), ports_a, policy
        )
        ports_b = make_ports(3)
        pipeline = StripeSenderPipeline(
            ports_b, SRR([500.0] * 3), marker_policy=policy
        )
        for i in range(30):
            packet = Packet(size=200 + (i * 37) % 900, seq=i)
            manual.submit(packet)
            pipeline.submit_packet(
                Packet(size=packet.size, seq=i)
            )
        for a, b in zip(ports_a, ports_b):
            assert [type(p).__name__ for p in a.sent] == [
                type(p).__name__ for p in b.sent
            ]
            assert [p.seq for p in a.sent if isinstance(p, Packet)] == [
                p.seq for p in b.sent if isinstance(p, Packet)
            ]

    def test_named_discipline_and_counters(self):
        ports = make_ports(2)
        pipeline = StripeSenderPipeline(ports, "rr")
        first = pipeline.send_message(100)
        second = pipeline.send_message(100)
        assert (first.seq, second.seq) == (0, 1)
        assert pipeline.messages_submitted == 2
        assert pipeline.backlog == 0
        assert [len(p.sent) for p in ports] == [1, 1]

    def test_refused_flow_submission_is_not_counted(self):
        """A packet the flow's bounded queue refuses was not submitted:
        no count, no burnt ``seq``, and ``send_message`` says so."""
        from repro.transport.fabric import FabricScheduler, FlowTable

        pipeline = StripeSenderPipeline(make_ports(2), "rr")
        fabric = FabricScheduler(FlowTable(), flow_buffer_packets=1)
        # No room below: the flow's one slot fills and stays full.
        pipeline.attach_fabric(fabric, backlog_limit=0)
        assert pipeline.send_message(100, flow_id="f").seq == 0
        assert pipeline.send_message(100, flow_id="f") is None
        assert not pipeline.submit("f", Packet(100, seq=99))
        assert pipeline.messages_submitted == 1
        pipeline.attach_fabric(fabric)
        pipeline.pump()
        assert pipeline.send_message(100, flow_id="f").seq == 1

    def test_mppp_discipline_wraps_with_headers(self):
        ports = make_ports(2)
        pipeline = StripeSenderPipeline(ports, "mppp")
        for i in range(6):
            pipeline.send_message(500)
        fragments = [p for port in ports for p in port.sent]
        assert all(isinstance(f, MpppFragment) for f in fragments)
        assert sorted(f.sequence for f in fragments) == list(range(6))
        assert all(f.size == 500 + 4 for f in fragments)

    def test_bonding_discipline_carves_frames(self):
        ports = make_ports(2)
        pipeline = StripeSenderPipeline(
            ports, "bonding", discipline_options={"frame_bytes": 256}
        )
        pipeline.send_message(1000)  # 3 full frames + 232B residue
        frames = [p for port in ports for p in port.sent]
        assert all(isinstance(f, BondingFrame) for f in frames)
        assert len(frames) == 3
        pipeline.flush()
        frames = [p for port in ports for p in port.sent]
        assert len(frames) == 4
        assert all(f.size == 256 for f in frames)

    def test_one_pump_over_any_port_surface(self):
        """Ports with and without the burst surface get one striper and
        the same packets, markers included."""
        pipelines = [
            StripeSenderPipeline(
                ports, "srr", marker_policy=MarkerPolicy(interval_rounds=2)
            )
            for ports in (make_ports(3), [BurstPort() for _ in range(3)])
        ]
        for pipeline in pipelines:
            assert type(pipeline.striper) is Striper
            pipeline.submit_packets(
                [Packet(size=300 + 97 * i, seq=i) for i in range(20)]
            )
            for seq in range(20, 30):
                pipeline.send_message(700)
        plain, burst = (
            [
                [(p.round_number, p.deficit) if is_marker(p) else p.seq
                 for p in port.sent]
                for port in pipeline.ports
            ]
            for pipeline in pipelines
        )
        assert plain == burst
        assert sum(len(port.sent) for port in pipelines[1].ports) > 30

    def test_recording_ports_offer_a_burst_only_over_burst_ports(self, sim):
        """The recovery layers' recording proxies follow the port they
        wrap: no ``send_burst`` over a port without one (calling it used
        to raise ``AttributeError`` after charging the bytes)."""
        plain, burst = (
            StripeSenderPipeline(ports, "srr", sim=sim, reliability="reliable")
            for ports in (make_ports(2), [BurstPort(), BurstPort()])
        )
        assert not any(hasattr(port, "send_burst") for port in plain.ports)
        assert all(hasattr(port, "send_burst") for port in burst.ports)
        channels = []
        for pipeline in (plain, burst):
            pipeline.submit_packets(
                [Packet(size=1000, seq=i) for i in range(4)]
            )
            records = pipeline.reliable.unacked.values()
            assert [r.transmissions for r in records] == [1] * 4
            channels.append([r.first_channel for r in records])
            assert sum(p.data_bytes_sent for p in pipeline.ports) == 4000
        assert channels[0] == channels[1] and set(channels[0]) == {0, 1}

    def test_keepalive_requires_policy_and_scheduler(self):
        with pytest.raises(ValueError, match="marker policy"):
            StripeSenderPipeline(
                make_ports(2), "rr", marker_keepalive_s=0.1
            )


class TestReceiverPipeline:
    def feed(self, pipeline, algorithm, n_packets=20, n_channels=2):
        """Stripe a stream with a local striper and push arrivals in order."""
        ports = make_ports(n_channels)
        striper = Striper(TransformedLoadSharer(algorithm), ports)
        for i in range(n_packets):
            striper.submit(Packet(size=100, seq=i))
        # interleave per-channel FIFOs in logical order for a loss-free run
        cursors = [0] * n_channels
        kernel = kernel_for(SRR([100.0] * n_channels))
        for _ in range(n_packets):
            channel = kernel.step(100)
            pipeline.push(channel, ports[channel].sent[cursors[channel]])
            cursors[channel] += 1

    def test_plain_mode_delivers_fifo(self):
        pipeline = StripeReceiverPipeline(
            2, SRR([100.0, 100.0]), mode="plain"
        )
        self.feed(pipeline, SRR([100.0, 100.0]))
        assert [p.seq for p in pipeline.delivered] == list(range(20))

    def test_buffer_cap_drop_rule(self):
        pipeline = StripeReceiverPipeline(
            2, SRR([100.0, 100.0]), mode="plain", buffer_packets=2
        )
        # channel 1 floods while channel 0 stays silent: logical reception
        # blocks on channel 0 so channel 1's buffer fills and overflows.
        for i in range(6):
            pipeline.push(1, Packet(size=100, seq=i))
        assert pipeline.buffer_drops == 4
        assert pipeline.delivered == []

    def test_piggybacked_credit_reaches_sink(self):
        pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
        seen = []
        pipeline.credit_sink = lambda ch, credit: seen.append((ch, credit))
        pipeline.push(
            0,
            MarkerPacket(channel=0, round_number=0, deficit=100.0, credit=7),
        )
        assert seen == [(0, 7)]

    def test_credit_issued_as_packets_consumed(self):
        class StubCredit:
            def __init__(self):
                self.consumed = []

            def on_consumed(self, channel):
                self.consumed.append(channel)

        credit = StubCredit()
        pipeline = StripeReceiverPipeline(
            2, SRR([100.0, 100.0]), mode="plain", credit=credit
        )
        self.feed(pipeline, SRR([100.0, 100.0]), n_packets=8)
        assert sorted(credit.consumed) == [0] * 4 + [1] * 4

    def test_issued_handler_follows_a_sink_assigned_later(self):
        pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
        handle = pipeline.channel_handler(0)  # taken on the unchecked path
        credits = []
        pipeline.credit_sink = lambda ch, credit: credits.append((ch, credit))
        handle(MarkerPacket(channel=0, round_number=0, deficit=100.0, credit=7))
        assert credits == [(0, 7)]
        pipeline.credit_sink = None
        handle(MarkerPacket(channel=0, round_number=1, deficit=100.0, credit=4))
        assert credits == [(0, 7)]
        assert not pipeline._checked_arrivals[0]  # back on the unchecked path

    def test_issued_handler_follows_credit_and_cap_assigned_later(self):
        class StubCredit:
            consumed = 0

            def on_consumed(self, channel):
                self.consumed += 1

        pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
        handlers = [pipeline.channel_handler(i) for i in range(2)]
        pipeline.credit = credit = StubCredit()
        handlers[0](Packet(size=100, seq=0))
        assert credit.consumed == 1  # _issue_credits ran
        pipeline.credit = None
        pipeline.buffer_packets = 2
        # One is delivered, then the scan waits on channel 0: two buffer.
        for seq in range(1, 6):
            handlers[1](Packet(size=100, seq=seq))
        assert pipeline.buffer_drops == 2
        pipeline.buffer_packets = None  # back on the unchecked path
        handlers[1](Packet(size=100, seq=6))
        assert pipeline.buffer_drops == 2

    def test_issued_handler_follows_delivery_attributes_assigned_later(self):
        """The engine's delivery callback is bound straight to
        ``on_message`` when nothing is retained; a handler taken before
        ``on_message`` / ``retain_delivered`` / ``credit`` is assigned
        must follow each assignment, in either order."""
        class StubCredit:
            consumed = 0

            def on_consumed(self, channel):
                self.consumed += 1

        pipeline = StripeReceiverPipeline(1, SRR([100.0]))
        handle = pipeline.channel_handler(0)
        first, second = [], []
        handle(Packet(size=100, seq=0))  # retained, no callback yet
        pipeline.on_message = first.append
        handle(Packet(size=100, seq=1))  # retained and called back
        pipeline.retain_delivered = False
        handle(Packet(size=100, seq=2))  # called back only
        pipeline.on_message = second.append
        handle(Packet(size=100, seq=3))
        pipeline.credit = credit = StubCredit()  # onto the checked path
        handle(Packet(size=100, seq=4))
        pipeline.retain_delivered = True
        handle(Packet(size=100, seq=5))
        pipeline.on_message = None
        handle(Packet(size=100, seq=6))
        assert [p.seq for p in pipeline.delivered] == [0, 1, 5, 6]
        assert [p.seq for p in first] == [1, 2]
        assert [p.seq for p in second] == [3, 4, 5]
        assert credit.consumed == 7  # caught up on the first checked arrival
        assert pipeline.on_message is None and pipeline.retain_delivered

    def test_delivery_attributes_with_an_arq_layer_between(self, sim):
        got = []
        pipeline = StripeReceiverPipeline(
            1, SRR([100.0]), sim=sim, reliability="reliable",
            send_ack=lambda sack: None,
        )
        handle = pipeline.channel_handler(0)
        pipeline.retain_delivered = False
        pipeline.on_message = got.append
        for rseq in (1, 0):  # out of order: the ARQ layer holds 1 back
            packet = Packet(size=100, seq=rseq)
            packet.rseq = rseq
            handle(packet)
        assert [p.seq for p in got] == [0, 1] and pipeline.delivered == []

    def test_handler_paths_deliver_alike(self):
        def run(checked):
            pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
            handlers = [pipeline.channel_handler(i) for i in range(2)]
            if checked:
                pipeline.credit_sink = lambda channel, credit: None
            ports = make_ports(2)
            sender = StripeSenderPipeline(
                ports, SRR([100.0, 100.0]),
                marker_policy=MarkerPolicy(interval_rounds=1),
            )
            for i in range(20):
                sender.submit_packet(Packet(size=100 + 7 * i, seq=i))
            for index, port in enumerate(ports):
                for packet in port.sent:
                    handlers[index](packet)
            handlers[0](b"\x00" * 31)  # a corrupted wire frame is counted
            stats = pipeline.resequencer.stats
            return (
                [p.seq for p in pipeline.delivered], list(pipeline._pushed_data),
                stats, pipeline.marker_decode_errors,
            )

        assert run(checked=False) == run(checked=True)
        assert run(checked=False)[0] == list(range(20))

    def test_push_wire_decodes_markers(self):
        from repro.core.markers import encode_marker

        pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
        wire = encode_marker(
            MarkerPacket(channel=0, round_number=1, deficit=100.0, credit=3)
        )
        seen = []
        pipeline.credit_sink = lambda ch, credit: seen.append((ch, credit))
        pipeline.push(0, wire)
        assert seen == [(0, 3)]
        assert pipeline.marker_decode_errors == 0

    def test_push_wire_counts_and_drops_malformed_frames(self):
        pipeline = StripeReceiverPipeline(2, SRR([100.0, 100.0]))
        for blob in (b"", b"\x00" * 31, b"\xff" * 32, b"\x00" * 40):
            assert pipeline.push(0, blob) == []
        assert pipeline.marker_decode_errors == 4
        assert pipeline.resequencer.stats.markers_received == 0

    def test_mppp_mode_strips_headers(self):
        discipline = MpppDiscipline(2)
        pipeline = StripeReceiverPipeline(2, mode="mppp")
        sharer_ports = make_ports(2)
        sender = StripeSenderPipeline(sharer_ports, discipline)
        for i in range(10):
            sender.send_message(300)
        # arbitrary arrival interleaving: sequence numbers fix the order
        for channel in (1, 0):
            for fragment in sharer_ports[channel].sent:
                pipeline.push(channel, fragment)
        assert [p.seq for p in pipeline.delivered] == list(range(10))
        assert all(p.size == 300 for p in pipeline.delivered)


class TestFailureDetectorPipeline:
    def test_plain_pipeline_survives_dead_channel(self, sim):
        detector = ChannelFailureDetector(sim, silence_threshold=0.05)
        pipeline = StripeReceiverPipeline(
            2, SRR([100.0, 100.0]), mode="plain", failure_detector=detector
        )
        # Equal quanta + equal sizes => strict alternation 0,1,0,1,...
        # Channel 1 dies after seq 5; channel 0 keeps receiving.
        def arrival(t, channel, seq):
            sim.schedule_at(
                t, lambda: pipeline.push(channel, Packet(size=100, seq=seq))
            )

        seq = 0
        t = 0.0
        while seq < 6:  # both channels alive
            arrival(t, seq % 2, seq)
            seq += 1
            t += 0.005
        for dead_seq in range(6, 20, 2):  # only channel 0 from here on
            arrival(t, 0, dead_seq)
            t += 0.01
        sim.run(until=1.0)
        assert detector.failures_reported == [1]
        # the receiver kept delivering channel 0's packets (with gaps)
        delivered = [p.seq for p in pipeline.delivered]
        assert delivered[:6] == [0, 1, 2, 3, 4, 5]
        assert set(range(6, 20, 2)) <= set(delivered)
        assert pipeline.resequencer.assumed_lost > 0

    def test_striped_socket_plain_path_survives_dead_channel(self, sim):
        detector = ChannelFailureDetector(sim, silence_threshold=0.1)
        config = SocketTestbedConfig(
            mode="plain", failure_detector=detector, message_bytes=1000
        )
        testbed = build_socket_testbed(sim, config)

        def kill_channel_one():
            testbed.loss_models[1].p = 1.0

        sim.schedule_at(0.3, kill_channel_one)
        sim.run(until=1.5)
        assert detector.failures_reported == [1]
        late = testbed.deliveries_after(0.8)
        assert late, "delivery stalled after the channel died"
        assert testbed.receiver.resequencer.assumed_lost > 0

    def test_striped_tcp_path_survives_dead_connection(self, sim):
        detector = ChannelFailureDetector(sim, silence_threshold=0.15)
        sender, receiver, links = build_tcp_striped(
            sim, failure_detector=detector
        )

        progress = {}

        def kill_channel_zero():
            links[0].ab.loss_model = BernoulliLoss(1.0)
            progress["at_failure"] = len(receiver.delivered)

        sim.schedule_at(0.5, kill_channel_zero)
        sim.run(until=3.0)
        assert 0 in detector.failures_reported
        # everything buffered on the surviving connection was flushed
        # instead of stalling behind the dead channel forever
        assert len(receiver.delivered) > progress["at_failure"]
        assert receiver.resequencer.assumed_lost > 0
        assert receiver.resequencer.buffered == 0


def _udp_behind_arp(sim, a, b, links):
    from repro.transport.socket_striping import udp_ports

    for iface in a.interfaces:
        iface.arp_cache._entries.clear()  # next hop unresolved again
    ports = udp_ports(
        a, [(ip, 6000 + i) for i, ip in enumerate(b.local_addresses())]
    )
    return ports, None, lambda: sim.run(until=0.05)  # ARP replies arrive


def _credit_stalled_udp(sim, a, b, links):
    from repro.transport.credit import CreditPacket, CreditSender
    from repro.transport.socket_striping import credit_listener, udp_ports

    credit = CreditSender(2, initial_credit=0)
    ports = udp_ports(
        a, [(ip, 6000 + i) for i, ip in enumerate(b.local_addresses())],
        credit=credit,
    )
    on_payload = credit_listener(credit)
    return ports, credit, lambda: on_payload(CreditPacket(channel=0, limit=1))


def _full_udp_egress(sim, a, b, links):
    from repro.transport.socket_striping import udp_ports

    ports = udp_ports(
        a, [(ip, 6000 + i) for i, ip in enumerate(b.local_addresses())]
    )
    for port, link in zip(ports, links):
        link.ab.queue_limit = 1
        while port.can_accept():  # one frame on the wire, one queued
            port.send(Packet(size=1000))
    return ports, None, lambda: sim.run(until=0.05)  # the frames leave


def _tcp_before_handshake(sim, a, b, links):
    from repro.transport.tcp import BulkReceiver, TcpLayer
    from repro.transport.tcp_striping import tcp_ports

    listening = TcpLayer(b, sim)
    for index in range(2):
        BulkReceiver(listening, 8800 + index)
    ports = tcp_ports(TcpLayer(a, sim), b.local_addresses())
    return ports, None, lambda: sim.run(until=0.05)  # SYN-ACKs arrive


def _fast_behind_full_queue(sim, a, b, links):
    from repro.transport.fast_path import FastChannelPort

    ports = [FastChannelPort(link.ab) for link in links]
    for port in ports:
        port.channel.queue_limit = 0
    return ports, None, None  # no slot: the rig owns channel.on_space


class TestPortFactories:
    """A transport is a port type: whatever a factory returns drives the
    one sender pipeline, and a stalled port resumes it by itself."""

    @pytest.mark.parametrize("blocked_ports", [
        _udp_behind_arp,
        _credit_stalled_udp,
        _full_udp_egress,
        _tcp_before_handshake,
        _fast_behind_full_queue,
    ])
    def test_ports_satisfy_protocol_and_resume_the_pump(
        self, sim, blocked_ports
    ):
        from repro.core.striper import ChannelPort
        from repro.experiments.socket_harness import build_two_hosts

        ports, credit, unblock = blocked_ports(sim, *build_two_hosts(sim, 2))
        assert ports and all(isinstance(p, ChannelPort) for p in ports)
        sender = StripeSenderPipeline(
            ports, SRR([1000.0, 1000.0]), credit=credit, sim=sim
        )
        sender.send_message(1000)
        assert sender.backlog == 1  # channel 0 cannot take it yet
        if unblock is None:
            assert not hasattr(ports[0], "on_unblocked")
            return
        # Nothing but the port's own resume path pumps from here on.
        unblock()
        assert sender.backlog == 0

    def test_no_transport_subclasses_a_pipeline(self):
        """Transports differ in their ports only; the two pipelines are
        subclassed nowhere in the package."""
        import importlib
        import pkgutil

        import repro.transport

        for info in pkgutil.iter_modules(repro.transport.__path__):
            module = importlib.import_module(f"repro.transport.{info.name}")
            for value in vars(module).values():
                if not isinstance(value, type):
                    continue
                if value in (StripeSenderPipeline, StripeReceiverPipeline):
                    continue
                assert not issubclass(
                    value, (StripeSenderPipeline, StripeReceiverPipeline)
                ), f"{module.__name__}.{value.__name__}"


    def test_one_endpoint_pair(self):
        """The submission surface, the fabric mount and the construction
        of striper and reception engine each exist once under ``src/``:
        a session is a controller over the pipelines, not another pair."""
        import ast
        from collections import Counter
        from pathlib import Path

        import repro

        once = ("attach_fabric", "_fabric_ready", "send_message",
                "submit_packet")
        builders = {"Striper", "make_resequencer",
                    "SRRReceiver"}
        may_build = {"transport/endpoint.py"}
        root = Path(repro.__file__).parent
        defined, offenders = Counter(), []
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root).as_posix()
            guarded = name not in may_build and (
                name == "core/session.py" or name.startswith("transport/")
            )
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in once:
                    defined[node.name] += 1
                if guarded and isinstance(node, ast.Call):
                    callee = node.func
                    called = getattr(callee, "id", getattr(callee, "attr", ""))
                    if called in builders:
                        offenders.append(f"{name}:{node.lineno} {called}()")
        assert dict(defined) == dict.fromkeys(once, 1)
        assert offenders == []


class TestSenderPipelineClose:
    def test_keepalive_stops_after_close(self, sim):
        """A closed pipeline's pending keepalive tick must not fire
        markers into ports that may already be torn down."""
        ports = make_ports(2)
        pipeline = StripeSenderPipeline(
            ports, SRR([100.0, 100.0]),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim, marker_keepalive_s=0.05,
        )
        pipeline.send_message(100)
        sim.run(until=0.2)
        idle_markers = sum(
            1 for port in ports for p in port.sent if is_marker(p)
        )
        assert idle_markers > 2  # keepalives flowed while open
        pipeline.close()
        sim.run(until=1.0)
        after = sum(
            1 for port in ports for p in port.sent if is_marker(p)
        )
        assert after == idle_markers

    @pytest.mark.parametrize("reliability", ["reliable", "fec", "hybrid"])
    def test_close_stops_every_timer(self, sim, reliability):
        """Nothing acks the five messages, so the ARQ timer would keep
        retransmitting them; a closed pipeline sends nothing more and
        leaves no event behind."""
        ports = make_ports(2)
        pipeline = StripeSenderPipeline(
            ports, SRR([100.0, 100.0]), sim=sim, reliability=reliability
        )
        for _ in range(5):
            pipeline.send_message(100)
        pipeline.close()
        sent = [len(port.sent) for port in ports]
        assert sim.run(until=5.0) == 0
        assert [len(port.sent) for port in ports] == sent

    @pytest.mark.parametrize("reliability", ["reliable", "fec", "hybrid"])
    def test_receiver_stop_cancels_every_timer(self, sim, reliability):
        """An out-of-order arrival, the group's parity, then the head of
        the stream leave a delayed ack, a gap skip or a group timeout
        pending; a stopped pipeline fires none of them."""
        ports = make_ports(2)
        sender = StripeSenderPipeline(
            ports, SRR([100.0, 100.0]), sim=sim, reliability=reliability
        )
        for _ in range(5):
            sender.send_message(100)
        sender.close()
        sent = [p for port in ports for p in port.sent]
        data = {p.seq: p for p in sent if isinstance(p, Packet)}
        parity = [p for p in sent if not isinstance(p, Packet)]
        acks = []
        receiver = StripeReceiverPipeline(
            2, None, mode="none", sim=sim, reliability=reliability,
            send_ack=acks.append,
        )
        for packet in [data[2], *parity, data[0]]:
            receiver.push(0, packet)
        assert peek_time(sim) is not None
        receiver.stop()
        acked = len(acks)
        assert sim.run(until=5.0) == 0
        assert len(acks) == acked


class TestDetectorBounds:
    def test_note_arrival_out_of_range_raises(self, sim):
        detector = ChannelFailureDetector(sim, silence_threshold=0.2)
        detector.bind(2, lambda channel: None)
        with pytest.raises(ValueError, match="arrival on port 5"):
            detector.note_arrival(5)
        with pytest.raises(ValueError):
            detector.note_arrival(-1)
        with pytest.raises(ValueError, match="was bind"):
            ChannelFailureDetector(sim, 0.2).note_arrival(0)

    def test_idle_sender_keepalive_prevents_false_failure(self, sim):
        """The source stops but the channels are healthy: keepalive
        markers must keep the silence watchdog quiet."""
        from repro.sim.channel import Channel
        from repro.transport.fast_path import FastChannelPort

        channels = [
            Channel(
                sim, bandwidth_bps=8e6, prop_delay=0.5e-3,
                queue_limit=16, name=f"ch{i}",
            )
            for i in range(2)
        ]
        ports = [FastChannelPort(ch) for ch in channels]
        sender = StripeSenderPipeline(
            ports, SRR([500.0, 500.0]),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim, marker_keepalive_s=0.05,
        )
        detector = ChannelFailureDetector(sim, silence_threshold=0.15)
        receiver = StripeReceiverPipeline(
            2, SRR([500.0, 500.0]), mode="marker",
            failure_detector=detector, sim=sim,
        )
        for index, channel in enumerate(channels):
            channel.on_deliver = receiver.channel_handler(index)
            channel.on_space = sender.pump

        def tick():
            if sim.now < 0.2:  # the source stops at t=0.2
                sender.send_message(500)
                sim.schedule(0.001, tick)

        sim.schedule_at(0.0, tick)
        sim.run(until=1.5)
        assert detector.failures_reported == []
        assert len(receiver.delivered) == 200
        # The watchdog stayed quiet because keepalives kept arriving,
        # not because it never looked.
        assert receiver.resequencer.stats.markers_received > 220


class TestFailChannelAllModes:
    """Satellite: ``fail_channel`` works on every factory path."""

    @pytest.mark.parametrize(
        "mode", ["marker", "plain", "none", "mppp", "bonding"]
    )
    def test_fail_then_revive_never_raises(self, mode):
        algorithm = (
            SRR([100.0, 100.0]) if mode in ("marker", "plain") else None
        )
        pipeline = StripeReceiverPipeline(2, algorithm, mode=mode)
        assert pipeline.fail_channel(1) == []
        assert pipeline.failed_channels == {1}
        pipeline.revive_channel(1)
        assert pipeline.failed_channels == set()

    def test_marker_mode_survives_and_revives(self):
        pipeline = StripeReceiverPipeline(
            2, SRR([100.0, 100.0]), mode="marker"
        )
        # Strict alternation 0,1,0,1 with equal quanta.
        for seq in range(4):
            pipeline.push(seq % 2, Packet(size=100, seq=seq))
        pipeline.fail_channel(1)
        for seq in range(4, 10, 2):
            pipeline.push(0, Packet(size=100, seq=seq))
        delivered = [p.seq for p in pipeline.delivered]
        assert set(range(4, 10, 2)) <= set(delivered)
        # Revival re-enters the adoption path: the next marker resyncs.
        pipeline.revive_channel(1)
        resequencer = pipeline.resequencer
        assert resequencer.sync_round[1] is None
        # Its deficit restarts from one fresh quantum, granted at once
        # because the scan waits on channel 1.
        assert resequencer.ptr == 1
        assert resequencer.dc[1] == 100.0

    def test_mppp_mode_fail_skips_gap_and_flushes(self):
        discipline = MpppDiscipline(2)
        ports = make_ports(2)
        sender = StripeSenderPipeline(ports, discipline)
        for i in range(6):
            sender.send_message(300)
        fragments = sorted(
            (f for port in ports for f in port.sent),
            key=lambda f: f.sequence,
        )
        pipeline = StripeReceiverPipeline(2, mode="mppp")
        pipeline.push(0, fragments[0])
        pipeline.push(0, fragments[1])
        # Fragment 2 is lost on the dying channel; 3..5 arrive and wait.
        for fragment in fragments[3:]:
            pipeline.push(1, fragment)
        assert [p.seq for p in pipeline.delivered] == [0, 1]
        released = pipeline.fail_channel(0)
        assert [p.seq for p in released] == [3, 4, 5]
        assert pipeline.resequencer.gaps_skipped == 1
