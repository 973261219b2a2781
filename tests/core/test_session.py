"""Unit tests for session control: reset, reconfiguration, local checking."""

import pytest

from repro.core.markers import encode_marker
from repro.core.packet import MarkerPacket, Packet
from repro.core.session import (
    LocalChecker,
    ResetAckPacket,
    ResetPacket,
    ResetRequestPacket,
    StripeConfig,
    StripeSenderSession,
)
from repro.core.striper import ListPort, MarkerPolicy
from repro.transport.endpoint import StripeSenderPipeline
from tests.session_rig import Loopback


class TestResetProtocol:
    def test_plain_reset_round_trip(self, sim):
        loop = Loopback(sim)
        for i in range(4):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        assert loop.delivered == [0, 1, 2, 3]

        epoch = loop.sender_session.initiate_reset()
        assert epoch == 1
        assert loop.sender_session.state == StripeSenderSession.RESETTING
        loop.flush()  # RESETs reach the receiver; ACK comes back inline
        assert loop.sender_session.state == StripeSenderSession.RUNNING
        assert loop.receiver_session.epoch == 1
        assert loop.sender_session.resets_completed == 1

        for i in range(4, 8):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        assert loop.delivered == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_data_submitted_during_reset_is_replayed(self, sim):
        loop = Loopback(sim)
        loop.sender_session.initiate_reset()
        for i in range(3):
            loop.sender.submit_packet(Packet(100, seq=i))  # queued
        assert loop.sender.striper.packets_sent == 0
        loop.flush()
        loop.flush()
        assert loop.delivered == [0, 1, 2]

    def test_in_flight_old_data_before_resets_still_delivers(self, sim):
        loop = Loopback(sim)
        for i in range(4):
            loop.sender.submit_packet(Packet(100, seq=i))
        # Reset issued before the old data reaches the receiver: each
        # channel's FIFO holds data *ahead of* the RESET, so with bounded
        # skew it all delivers first, then the epoch switches.
        loop.sender_session.initiate_reset()
        loop.flush()
        assert loop.delivered == [0, 1, 2, 3]
        assert loop.receiver_session.epoch == 1

    def test_in_flight_old_data_racing_a_reset_is_discarded(self, sim):
        loop = Loopback(sim)
        for i in range(4):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.sender_session.initiate_reset()
        # Maximal skew: channel 0's whole stream (incl. its RESET) lands
        # before channel 1's old-epoch data — which is then discarded, the
        # defined reset semantics for stragglers.
        loop.flush(interleave=False)
        assert loop.receiver_session.epoch == 1
        assert len(loop.delivered) + loop.receiver_session.reset_discards >= 4
        assert loop.receiver_session.reset_discards > 0

    def test_lost_reset_retried(self, sim):
        loop = Loopback(sim)
        loop.sender_session.initiate_reset()
        # Drop the RESET on channel 0 the first time round.
        first_reset = loop.ports[0].sent[-1]
        assert isinstance(first_reset, ResetPacket)
        loop.flush(drop=[first_reset])
        assert loop.sender_session.state == StripeSenderSession.RESETTING
        sim.run(until=1.0)  # retry timer fires, RESETs re-sent
        loop.flush()
        assert loop.sender_session.state == StripeSenderSession.RUNNING

    def test_duplicate_resets_are_idempotent(self, sim):
        loop = Loopback(sim)
        loop.sender_session.initiate_reset()
        loop.flush()
        acks_before = loop.receiver_session.acks_sent
        # Replay the same epoch's RESET (retry arriving late).
        loop.receiver_session.push(0, ResetPacket(epoch=1, config=loop.config))
        assert loop.receiver_session.epoch == 1
        assert loop.receiver_session.acks_sent == acks_before + 1  # re-acked
        assert loop.sender_session.resets_completed == 1  # no double completion

    def test_receiver_reset_request_triggers_reset(self, sim):
        loop = Loopback(sim)
        loop.receiver_session.request_reset("rebooted")
        assert loop.sender_session.epoch == 1
        loop.flush()
        assert loop.sender_session.state == StripeSenderSession.RUNNING

    def test_retry_gives_up_eventually(self, sim):
        loop = Loopback(sim, retry_timeout=0.01, max_retries=3)
        loop.sender_session.initiate_reset()  # nobody ever acks
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)


    def test_back_to_back_resets_send_every_packet_once(self, sim):
        """A reset started while one is in flight supersedes it: the held
        queue goes out once, in the latest epoch, and the superseded
        epoch's acknowledgment completes nothing."""
        ports = [ListPort(1), ListPort(1)]
        loop = Loopback(sim, ports=ports)
        loop.lose_control = True
        for i in range(6):
            loop.sender.submit_packet(Packet(100, seq=i))  # 0, 1 go out
        loop.sender.pump()
        assert loop.sender.backlog == 4
        session = loop.sender_session
        assert (session.initiate_reset(), session.initiate_reset()) == (1, 2)
        assert loop.sender.backlog == 4
        for port in ports:
            port.limit = None
        session.on_control(ResetAckPacket(epoch=1))
        assert session.state == session.RESETTING
        assert session.resets_completed == 0
        session.on_control(ResetAckPacket(epoch=2))
        assert session.state == session.RUNNING
        assert session.resets_completed == 1
        wire = sorted(p.seq for port in ports for p in port.data_packets())
        assert wire == [0, 1, 2, 3, 4, 5]

    def test_damaged_marker_frame_is_counted_not_raised(self, sim):
        """What ``FaultInjector._corrupted_copy`` delivers for a marker on
        a direct channel — its wire bytes with the magic byte flipped —
        goes through the pipeline's codec path like on any transport."""
        loop = Loopback(sim)
        wire = bytearray(encode_marker(MarkerPacket(0, 1, 100.0)))
        wire[0] ^= 0xFF
        loop.receiver_session.push(0, bytes(wire))
        assert loop.receiver.marker_decode_errors == 1
        loop.receiver_session.push(0, Packet(100, seq=0))
        assert loop.delivered == [0]
        # The count and the piggyback sinks outlive the epoch's engine.
        loop.receiver.sack_sink = sink = object()
        loop.sender_session.initiate_reset()
        loop.flush()
        assert loop.receiver_session.epoch == 1
        assert loop.receiver.marker_decode_errors == 1
        assert loop.receiver.sack_sink is sink

    def test_damaged_frame_racing_a_reset_is_discarded(self, sim):
        loop = Loopback(sim)
        receiver = loop.receiver_session
        receiver.push(0, ResetPacket(epoch=1, config=loop.config))
        # Channel 1 is still in epoch 0: its straggler is bytes this time.
        receiver.push(1, b"\xde\xad\xbe\xef")
        assert receiver.reset_discards == 1
        assert loop.receiver.marker_decode_errors == 0


class TestReconfiguration:
    def test_quanta_change_applies_at_epoch(self, sim):
        loop = Loopback(sim, quanta=(100.0, 100.0))
        loop.sender_session.initiate_reset(
            StripeConfig(quanta=(300.0, 100.0))
        )
        loop.flush()
        assert loop.receiver_session.config.quanta == (300.0, 100.0)
        # New epoch stripes 3:1 by bytes.
        for i in range(8):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        assert loop.delivered == list(range(8))
        data0 = [p for p in loop.ports[0].sent if isinstance(p, Packet)]
        data1 = [p for p in loop.ports[1].sent if isinstance(p, Packet)]
        assert len(data0) == 6 and len(data1) == 2

    def test_channel_failure_reconfiguration(self, sim):
        """Drop a dead channel: reset to the surviving subset."""
        loop = Loopback(sim, n_ports=3, quanta=(100.0, 100.0, 100.0))
        for i in range(6):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        # Channel 1 dies; reconfigure to channels (0, 2).
        loop.sender_session.initiate_reset(
            StripeConfig(quanta=(100.0, 100.0), active_channels=(0, 2))
        )
        loop.flush()
        assert loop.sender_session.state == StripeSenderSession.RUNNING
        before = len(loop.ports[1].sent)
        for i in range(6, 12):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        assert loop.delivered == list(range(12))
        # the dead channel carried no new data
        new_data = [
            p for p in loop.ports[1].sent[before:] if isinstance(p, Packet)
        ]
        assert new_data == []

    def test_stragglers_on_inactive_channel_discarded(self, sim):
        loop = Loopback(sim, n_ports=2)
        loop.sender_session.initiate_reset(
            StripeConfig(quanta=(100.0,), active_channels=(0,))
        )
        loop.flush()
        # A stale data packet arrives on the now-inactive channel 1.
        loop.receiver_session.push(1, Packet(100, seq=99))
        assert 99 not in loop.delivered
        assert loop.receiver_session.reset_discards >= 1

    def test_invalid_configs_rejected(self, sim):
        config = StripeConfig(quanta=(1.0, 1.0))
        pipeline = StripeSenderPipeline(
            [ListPort(), ListPort()], config.algorithm()
        )
        with pytest.raises(ValueError):
            StripeSenderSession(
                sim, pipeline,
                StripeConfig(quanta=(1.0, 1.0), active_channels=(0,)),
            )
        sender = StripeSenderSession(sim, pipeline, config)
        with pytest.raises(ValueError):
            sender.initiate_reset(
                StripeConfig(quanta=(1.0,), active_channels=(7,))
            )
        assert sender.state == sender.RUNNING and sender.epoch == 0


class TestLocalChecker:
    def test_healthy_stream_never_trips(self, sim):
        checker = LocalChecker(window_rounds=10)
        loop = Loopback(
            sim, marker_policy=MarkerPolicy(interval_rounds=1),
            checker=checker,
        )
        for i in range(60):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        assert checker.violations == 0
        assert loop.delivered == list(range(60))

    def test_corrupted_round_detected_and_corrected(self, sim):
        checker = LocalChecker(window_rounds=10)
        loop = Loopback(
            sim, marker_policy=MarkerPolicy(interval_rounds=1),
            checker=checker,
        )
        for i in range(10):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        # Fault injection: the receiver's global round jumps by 1000.
        loop.receiver.resequencer.round_number += 1000
        for i in range(10, 30):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()   # checker sees divergent markers -> reset request
        assert checker.violations > 0
        assert checker.resets_requested == 1
        assert loop.sender_session.epoch == 1
        loop.flush()   # complete the reset handshake
        # Post-reset traffic flows in order again.
        base = len(loop.delivered)
        for i in range(30, 40):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.flush()
        tail = loop.delivered[base:]
        assert tail == sorted(tail)
        assert tail[-1] == 39

    def test_one_request_per_epoch(self, sim):
        checker = LocalChecker(window_rounds=5)
        loop = Loopback(
            sim, marker_policy=MarkerPolicy(interval_rounds=1),
            checker=checker,
        )
        loop.receiver.resequencer.round_number += 500
        for i in range(40):
            loop.sender.submit_packet(Packet(100, seq=i))
        # Push only markers/data without flushing control both ways? The
        # loopback acks inline, so multiple violations still yield one
        # request for the corrupt epoch.
        loop.flush()
        assert checker.resets_requested <= 2  # corrupt epoch + none after

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalChecker(window_rounds=0)
