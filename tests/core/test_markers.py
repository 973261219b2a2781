"""Unit tests for the marker-synchronized receiver (section 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.markers import SRRReceiver
from repro.core.packet import MarkerPacket, Packet, is_marker
from repro.core.srr import SRR, SRRState, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer
from repro.sim.trace import Tracer
from tests.conftest import make_packets, mirror_state, random_sizes


def stripe_with_markers(algorithm, packets, interval=1, position=0):
    sharer = TransformedLoadSharer(algorithm)
    ports = [ListPort() for _ in range(algorithm.n_channels)]
    striper = Striper(
        sharer, ports,
        MarkerPolicy(interval_rounds=interval, position=position,
                     initial_markers=False),
    )
    for packet in packets:
        striper.submit(packet)
    return [list(port.sent) for port in ports]


def feed(receiver, streams, order="alternate"):
    delivered = []
    receiver.on_deliver = lambda p: delivered.append(p.seq)
    longest = max(len(s) for s in streams)
    for i in range(longest):
        for channel, stream in enumerate(streams):
            if i < len(stream):
                receiver.push(channel, stream[i])
    return delivered


class TestNoLossEquivalence:
    def test_matches_plain_resequencer_without_loss(self):
        """With no loss, the marker receiver delivers exactly FIFO, marker
        packets notwithstanding."""
        algorithm = SRR([500, 700])
        packets = make_packets(random_sizes(150, seed=11))
        streams = stripe_with_markers(algorithm, packets, interval=2)
        receiver = SRRReceiver(SRR([500, 700]))
        delivered = feed(receiver, streams)
        assert delivered == [p.seq for p in packets]
        assert receiver.stats.channel_skips == 0

    def test_mirror_state_tracks_sender(self):
        algorithm = SRR([500, 500])
        receiver = SRRReceiver(algorithm)
        receiver.push(0, Packet(600, seq=0))
        state = mirror_state(receiver)
        assert state["ptr"] == 1
        assert state["dc"][0] == pytest.approx(-100.0)


class TestLossRecovery:
    def test_paper_walkthrough(self):
        """Figures 8-13: packet 7 lost, marker G=7 resynchronizes."""
        size = 100
        algorithm = SRR([float(size)] * 2)
        packets = [Packet(size, seq=n) for n in range(1, 19)]
        streams = stripe_with_markers(algorithm, packets, interval=6)
        streams[0] = [
            p for p in streams[0] if is_marker(p) or p.seq != 7
        ]
        receiver = SRRReceiver(SRR([float(size)] * 2))
        delivered = feed(receiver, streams)
        assert delivered == [1, 2, 3, 4, 5, 6, 9, 8, 11, 10, 12,
                             13, 14, 15, 16, 17, 18]
        assert receiver.stats.channel_skips == 1

    def test_recovery_restores_fifo_tail(self):
        """Theorem 5.1: after the marker batch following the last loss,
        everything is FIFO."""
        algorithm = SRR([500.0, 500.0])
        packets = make_packets([500] * 400)
        streams = stripe_with_markers(algorithm, packets, interval=1)
        # Lose a mid-stream data packet on channel 0.
        victim = [p for p in streams[0] if not is_marker(p)][50]
        streams[0] = [p for p in streams[0] if p is not victim]
        receiver = SRRReceiver(SRR([500.0, 500.0]))
        delivered = feed(receiver, streams)
        assert victim.seq not in delivered
        # find last out-of-order index
        max_seen = -1
        last_violation = -1
        for index, seq in enumerate(delivered):
            if seq < max_seen:
                last_violation = index
            max_seen = max(max_seen, seq)
        # the disruption is confined to a small window after the loss
        assert last_violation < 120

    def test_multiple_losses_still_recover(self):
        algorithm = SRR([400.0, 400.0, 400.0])
        packets = make_packets([400] * 600)
        streams = stripe_with_markers(algorithm, packets, interval=1)
        for channel in range(3):
            data = [p for p in streams[channel] if not is_marker(p)]
            victims = {data[20].uid, data[60].uid, data[100].uid}
            streams[channel] = [
                p for p in streams[channel]
                if is_marker(p) or p.uid not in victims
            ]
        receiver = SRRReceiver(SRR([400.0, 400.0, 400.0]))
        delivered = feed(receiver, streams)
        # FIFO at the tail (post-recovery)
        tail = delivered[-100:]
        assert tail == sorted(tail)

    def test_marker_lost_too_next_one_recovers(self):
        algorithm = SRR([500.0, 500.0])
        packets = make_packets([500] * 300)
        streams = stripe_with_markers(algorithm, packets, interval=1)
        data0 = [p for p in streams[0] if not is_marker(p)]
        # lose data packet 40 AND the next marker after it
        victim = data0[40]
        idx = streams[0].index(victim)
        following_marker = next(
            p for p in streams[0][idx:] if is_marker(p)
        )
        gone = {victim.uid, following_marker.uid}
        streams[0] = [p for p in streams[0] if p.uid not in gone]
        receiver = SRRReceiver(SRR([500.0, 500.0]))
        delivered = feed(receiver, streams)
        tail = delivered[-60:]
        assert tail == sorted(tail)


class TestSkipLogic:
    def test_future_marker_causes_skip(self):
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        # Receiver is in round 1; a marker says channel 0's next packet is
        # round 3 -> skip channel 0 until G reaches 3.
        receiver.push(0, MarkerPacket(channel=0, round_number=3, deficit=100.0))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        # Round 1 and 2 data on channel 1 deliver despite channel 0 block.
        receiver.push(1, Packet(100, seq=10))
        receiver.push(1, Packet(100, seq=11))
        assert delivered == [10, 11]
        assert receiver.stats.channel_skips >= 2
        # Now channel 0's round-3 packet is serviced.
        receiver.push(0, Packet(100, seq=12))
        assert delivered == [10, 11, 12]

    def test_stale_marker_is_harmless(self):
        """A marker whose round equals the receiver's expectation changes
        nothing (pure confirmation)."""
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        receiver.push(0, MarkerPacket(channel=0, round_number=1, deficit=100.0))
        receiver.push(0, Packet(100, seq=0))
        receiver.push(1, Packet(100, seq=1))
        assert delivered == [0, 1]
        assert receiver.stats.channel_skips == 0

    def test_all_channels_future_fast_forwards(self):
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        receiver.push(0, MarkerPacket(channel=0, round_number=50, deficit=100.0))
        receiver.push(1, MarkerPacket(channel=1, round_number=50, deficit=100.0))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        receiver.push(0, Packet(100, seq=0))
        receiver.push(1, Packet(100, seq=1))
        assert delivered == [0, 1]
        assert receiver.round_number >= 50

    def test_trace_events_emitted(self):
        tracer = Tracer()
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm, tracer=tracer)
        receiver.push(0, MarkerPacket(channel=0, round_number=3, deficit=100.0))
        receiver.push(1, Packet(100, seq=0))
        assert tracer.count(kind="marker") == 1
        assert tracer.count(kind="skip") >= 1
        assert tracer.count(kind="deliver") == 1


class TestDuplicateMarkers:
    """Network-duplicated markers must be adopted at most once: a repeat
    of the last adopted (round, deficit) pair re-applied after data was
    consumed would inflate the mirrored deficit and skip rounds."""

    def test_stream_with_every_marker_doubled_is_unchanged(self):
        algorithm = SRR([500.0, 500.0])
        packets = make_packets(random_sizes(200, seed=3))
        streams = stripe_with_markers(algorithm, packets, interval=1)
        clean = feed(SRRReceiver(SRR([500.0, 500.0])), streams)

        doubled = []
        n_markers = 0
        for stream in streams:
            out = []
            for packet in stream:
                out.append(packet)
                if is_marker(packet):
                    out.append(packet)
                    n_markers += 1
            doubled.append(out)
        receiver = SRRReceiver(SRR([500.0, 500.0]))
        delivered = feed(receiver, doubled)
        assert delivered == clean
        # At least every injected copy was deduplicated (idle channels
        # also re-emit the same (round, deficit) naturally, so the
        # counter may exceed the injected count).
        assert receiver.stats.duplicate_markers >= n_markers

    def test_duplicate_after_data_consumption_is_dropped(self):
        """The harmful interleaving: marker, data consumed, then the
        duplicate arrives.  Re-adoption would rewind the channel's DC."""
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        marker = MarkerPacket(channel=0, round_number=1, deficit=100.0)
        receiver.push(0, marker)
        receiver.push(0, Packet(100, seq=0))
        receiver.push(1, Packet(100, seq=1))
        receiver.push(0, marker)  # the network's late duplicate
        receiver.push(0, Packet(100, seq=2))
        receiver.push(1, Packet(100, seq=3))
        assert delivered == [0, 1, 2, 3]
        assert receiver.stats.duplicate_markers == 1

    def test_distinct_marker_with_same_round_still_adopts(self):
        """Only an exact (round, deficit) repeat is a duplicate; a new
        marker for the same round with a different deficit is real."""
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        receiver.push(0, MarkerPacket(channel=0, round_number=1,
                                      deficit=100.0))
        receiver.push(0, MarkerPacket(channel=0, round_number=1,
                                      deficit=200.0))
        assert receiver.stats.adoptions == 2
        assert receiver.stats.duplicate_markers == 0

    def test_memo_cleared_on_state_restore(self):
        """adopt_snapshot / restore reset the dedup memo: after a state
        reset the 'same' (round, deficit) may legitimately reappear."""
        algorithm = SRR([100.0, 100.0])
        receiver = SRRReceiver(algorithm)
        marker = MarkerPacket(channel=0, round_number=2, deficit=100.0)
        receiver.push(0, marker)
        assert receiver.stats.adoptions == 1
        snapshot = receiver.snapshot()
        receiver.adopt_snapshot(snapshot)
        receiver.push(0, marker)
        assert receiver.stats.adoptions == 2
        assert receiver.stats.duplicate_markers == 0


class TestValidation:
    def test_requires_srr_family(self):
        from repro.core.schemes import SeededRandomFQ

        with pytest.raises(TypeError):
            SRRReceiver(SeededRandomFQ(2))

    def test_invalid_channel(self):
        receiver = SRRReceiver(SRR([100.0, 100.0]))
        with pytest.raises(ValueError):
            receiver.push(3, Packet(100))

    def test_arrival_checks_the_channel_once_at_creation(self):
        receiver = SRRReceiver(SRR([100.0, 100.0]))
        for channel in (-1, 2):
            with pytest.raises(ValueError):
                receiver.arrival(channel)

    def test_rr_family_supported(self):
        receiver = SRRReceiver(make_rr(2))
        delivered = []
        receiver.on_deliver = lambda p: delivered.append(p.seq)
        receiver.push(0, Packet(999, seq=0))
        receiver.push(1, Packet(40, seq=1))
        assert delivered == [0, 1]


class AlwaysDrainReceiver(SRRReceiver):
    """The receiver without the parked scan: every push runs ``drain()``.

    This is ``push`` as it was before ``_blocked_on``, kept as the oracle
    the shortcut is checked against.
    """

    def push(self, channel, packet):
        if not 0 <= channel < self._n:
            raise ValueError(f"channel {channel} out of range")
        self.buffers[channel].append(packet)
        self._buffered += 1
        if self._buffered > self.stats.max_buffered:
            self.stats.max_buffered = self._buffered
        return self.drain()


@st.composite
def receiver_scripts(draw):
    n = draw(st.integers(2, 4))
    quanta = draw(
        st.lists(st.sampled_from([300.0, 500.0, 1000.0]), min_size=n,
                 max_size=n)
    )
    sizes = draw(
        st.lists(st.sampled_from([64, 200, 500, 900]), min_size=5,
                 max_size=60)
    )
    interval = draw(st.integers(1, 3))
    channel = st.integers(0, n - 1)
    # An arrival takes the next packet of that channel's striped stream;
    # one in eight is lost on the way.
    arrive = st.tuples(st.just("arrive"), channel, st.integers(0, 7))
    ops = draw(
        st.lists(
            st.one_of(
                arrive, arrive, arrive,
                st.tuples(
                    st.just("marker"), channel, st.integers(0, 8),
                    st.sampled_from([-200.0, 0.0, 100.0, 500.0]),
                ),
                st.tuples(st.just("fail"), channel),
                st.tuples(st.just("revive"), channel),
                st.tuples(st.just("snapshot")),
                st.tuples(st.just("restore")),
                st.tuples(st.just("adopt"), channel, st.integers(1, 6)),
            ),
            max_size=150,
        )
    )
    return quanta, sizes, interval, ops


class ArrivalCallableReceiver(SRRReceiver):
    """``push`` routed through the per-channel :meth:`arrival` callables.

    The callables are taken once, at construction — before any
    ``restore`` / ``adopt_snapshot`` / ``revive_channel`` of a script — so
    a closure that captured state those calls replace would show — and
    ``drain`` is replaced on the instance afterwards, the way
    ``tests/integration/test_wakeup_counts.py`` counts scans.
    """

    def __init__(self, algorithm):
        super().__init__(algorithm)
        self._arrivals = [self.arrival(c) for c in range(self._n)]
        self.drains = 0
        drain = self.drain

        def counting_drain():
            self.drains += 1
            return drain()

        self.drain = counting_drain

    def push(self, channel, packet):
        return self._arrivals[channel](packet)


class TestParkedScanMatchesAlwaysDrain:
    @given(script=receiver_scripts())
    @settings(max_examples=300, deadline=None)
    def test_equal_outputs_and_mirror_state_after_every_step(self, script):
        self.check(SRRReceiver, script)

    @given(script=receiver_scripts())
    @settings(max_examples=300, deadline=None)
    def test_arrival_callables_match_push_after_every_step(self, script):
        self.check(ArrivalCallableReceiver, script)

    @staticmethod
    def check(receiver_cls, script):
        quanta, sizes, interval, ops = script
        n = len(quanta)
        streams = stripe_with_markers(
            SRR(quanta), make_packets(sizes), interval=interval
        )
        fast = receiver_cls(SRR(quanta))
        oracle = AlwaysDrainReceiver(SRR(quanta))

        def both(method, *args):
            return getattr(fast, method)(*args), getattr(oracle, method)(*args)

        cursor = [0] * n
        saved = None
        # Whatever the script leaves of the streams arrives at the end.
        tail = [
            ("arrive", channel, 1)
            for channel in range(n)
            for _ in streams[channel]
        ]
        for op in ops + tail:
            kind = op[0]
            if kind == "arrive":
                _, channel, fate = op
                if cursor[channel] == len(streams[channel]):
                    continue
                packet = streams[channel][cursor[channel]]
                cursor[channel] += 1
                if fate == 0:
                    continue
                got, want = both("push", channel, packet)
            elif kind == "marker":
                _, channel, round_number, deficit = op
                marker = MarkerPacket(
                    channel=channel, round_number=round_number,
                    deficit=deficit,
                )
                got, want = both("push", channel, marker)
            elif kind == "fail":
                got, want = both("fail_channel", op[1])
            elif kind == "revive":
                got, want = both("revive_channel", op[1])
            elif kind == "snapshot":
                saved = fast.snapshot()
                assert saved == oracle.snapshot()
                continue
            elif kind == "restore":
                if saved is None:
                    continue
                got, want = both("restore", saved)
            else:
                _, ptr, round_number = op
                state = SRRState(
                    ptr=ptr, round_number=round_number,
                    dc=tuple(
                        q if c == ptr else 0.0 for c, q in enumerate(quanta)
                    ),
                )
                got, want = both("adopt_snapshot", state)
            assert got == want
            assert mirror_state(fast) == mirror_state(oracle)
            assert fast.stats == oracle.stats
            assert fast.buffered == oracle.buffered

    def test_raising_callback_does_not_leave_the_scan_parked(self):
        receiver = SRRReceiver(SRR([100.0, 100.0]))
        receiver.push(1, Packet(100, seq=1))  # parks on channel 0

        def refuse_seq_1(packet):
            if packet.seq == 1:
                raise RuntimeError("application error")

        receiver.on_deliver = refuse_seq_1
        with pytest.raises(RuntimeError):
            receiver.push(0, Packet(100, seq=0))  # the scan is at 1 by now
        receiver.on_deliver = None
        late = Packet(100, seq=3)
        assert receiver.push(1, late) == [late]
