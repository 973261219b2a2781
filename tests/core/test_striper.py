"""Unit tests for the event-driven sender (backpressure + marker emission)."""

import pytest

from repro.core.packet import Packet, is_marker
from repro.core.srr import SRR, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer
from repro.baselines.sqf import ShortestQueueFirst
from tests.conftest import LimitedPort


def make_striper(algorithm, port_limits=None, policy=None):
    n = algorithm.n_channels
    ports = [
        LimitedPort(port_limits[i] if port_limits else None)
        for i in range(n)
    ]
    striper = Striper(TransformedLoadSharer(algorithm), ports, policy)
    return striper, ports


class TestBackpressure:
    def test_blocks_when_selected_channel_full(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        striper.submit(Packet(100, seq=0))  # ch0 (fills it)
        striper.submit(Packet(100, seq=1))  # ch1
        striper.submit(Packet(100, seq=2))  # ch0 full -> must wait
        striper.submit(Packet(100, seq=3))  # queued behind 2
        assert [p.seq for p in ports[0].sent] == [0]
        assert [p.seq for p in ports[1].sent] == [1]
        assert striper.backlog == 2

    def test_does_not_reorder_around_full_channel(self):
        """Causality: the striper must never skip ahead to another
        channel — that would break receiver simulation."""
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        for i in range(6):
            striper.submit(Packet(100, seq=i))
        # Only 0 (ch0) and 1 (ch1) went out; 2 is stuck on ch0, and
        # crucially 3 (which would go to ch1) did NOT jump the queue.
        assert [p.seq for p in ports[1].sent] == [1]

    def test_pump_resumes_after_space(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        for i in range(4):
            striper.submit(Packet(100, seq=i))
        ports[0].limit = 10  # space appears
        sent = striper.pump()
        assert sent == 2
        assert striper.backlog == 0
        assert [p.seq for p in ports[0].sent] == [0, 2]
        assert [p.seq for p in ports[1].sent] == [1, 3]

    def test_can_send_now(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 1])
        assert striper.pump() == 0  # empty input queue
        striper.submit(Packet(100, seq=0))
        striper.submit(Packet(100, seq=1))
        striper.submit(Packet(100, seq=2))
        assert striper.backlog == 1  # seq 2 waits: its channel 0 is full
        assert striper.pump() == 0

    def test_counters(self):
        striper, ports = make_striper(make_rr(2))
        for i in range(5):
            striper.submit(Packet(100, seq=i))
        assert striper.packets_sent == 5
        assert striper.bytes_sent == 500


class TestMarkerEmission:
    def test_markers_every_round(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for i in range(10):
            striper.submit(Packet(100, seq=i))
        # 10 unit packets exhaust a quantum each, so the pointer wraps
        # into rounds 2..6: 5 boundary crossings, each emitting one marker
        # per channel.
        markers0 = [p for p in ports[0].sent if is_marker(p)]
        markers1 = [p for p in ports[1].sent if is_marker(p)]
        assert len(markers0) == len(markers1) == 5
        assert striper.markers_sent == 10

    def test_interval_thins_markers(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=3, initial_markers=False),
        )
        for i in range(20):
            striper.submit(Packet(100, seq=i))
        markers0 = [p for p in ports[0].sent if is_marker(p)]
        assert len(markers0) == 3  # rounds 4, 7, 10 boundaries

    def test_initial_markers(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=5, initial_markers=True),
        )
        striper.submit(Packet(100, seq=0))
        assert is_marker(ports[0].sent[0])
        assert is_marker(ports[1].sent[0])

    def test_marker_contents_match_implicit_numbers(self):
        algorithm = SRR([500.0, 500.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for size in [300, 300, 600, 200, 500, 400, 100]:
            striper.submit(Packet(size))
        for port in ports:
            for packet in port.sent:
                if is_marker(packet):
                    assert packet.round_number >= 1
                    assert packet.deficit > 0

    def test_marker_position_mid_round(self):
        algorithm = SRR([100.0, 100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(
                interval_rounds=1, position=1, initial_markers=False
            ),
        )
        for i in range(9):
            striper.submit(Packet(100, seq=i))
        # Emission happens when the pointer enters channel 1: on channel 0
        # the marker should appear right after channel 0's packet of each
        # round.
        stream0 = ports[0].sent
        assert not is_marker(stream0[0])
        assert is_marker(stream0[1])

    def test_force_marker_batch(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=10, initial_markers=False),
        )
        striper.force_marker_batch()
        assert all(is_marker(port.sent[0]) for port in ports)

    def test_markers_require_srr_family(self):
        sharer = ShortestQueueFirst(2)
        with pytest.raises(ValueError):
            Striper(sharer, [ListPort(), ListPort()], MarkerPolicy())

    def test_force_marker_without_policy_rejected(self):
        striper, _ = make_striper(SRR([100.0, 100.0]))
        with pytest.raises(RuntimeError):
            striper.force_marker_batch()

    def test_markers_bypass_full_queue(self):
        algorithm = SRR([100.0, 100.0])
        ports = [LimitedPort(1), LimitedPort(1)]
        striper = Striper(
            TransformedLoadSharer(algorithm), ports,
            MarkerPolicy(interval_rounds=1, initial_markers=True),
        )
        striper.submit(Packet(100, seq=0))
        # The forced initial marker got through despite limit=1; the data
        # packet now honours backpressure and waits.
        assert is_marker(ports[0].sent[0])
        assert striper.backlog == 1
        ports[0].limit = 10
        striper.pump()
        assert [p.seq for p in ports[0].sent if not is_marker(p)] == [0]


class TestValidation:
    def test_port_count_mismatch(self):
        with pytest.raises(ValueError):
            Striper(TransformedLoadSharer(make_rr(2)), [ListPort()])

    def test_bad_policy_values(self):
        with pytest.raises(ValueError):
            MarkerPolicy(interval_rounds=-1)
        with pytest.raises(ValueError):
            MarkerPolicy(position=-2)

    def test_non_causal_sharer_works_without_markers(self):
        sharer = ShortestQueueFirst(2)
        ports = [ListPort(), ListPort()]
        striper = Striper(sharer, ports)
        for i in range(10):
            striper.submit(Packet(100, seq=i))
        assert len(ports[0].sent) + len(ports[1].sent) == 10


class TestTracing:
    def test_send_and_marker_events(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        algorithm = SRR([100.0, 100.0])
        striper = Striper(
            TransformedLoadSharer(algorithm),
            [ListPort(), ListPort()],
            MarkerPolicy(interval_rounds=1, initial_markers=False),
            tracer=tracer,
        )
        for i in range(6):
            striper.submit(Packet(100, seq=i))
        assert tracer.count(kind="send") == 6
        assert tracer.count(kind="marker") > 0
        first = next(tracer.filter(kind="send"))
        assert first.detail["channel"] == 0
