"""Unit tests for the FIFO channel model."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, DeterministicLoss, CorruptionModel


def collect(channel):
    out = []
    channel.on_deliver = out.append
    return out


class TestTiming:
    def test_transmission_time_from_bandwidth(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.0)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append(sim.now)
        channel.send(Packet(1000))  # 8000 bits at 8000 bps = 1 s
        sim.run()
        assert arrivals == [pytest.approx(1.0)]

    def test_propagation_delay_added(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.5)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append(sim.now)
        channel.send(Packet(1000))
        sim.run()
        assert arrivals == [pytest.approx(1.5)]

    def test_back_to_back_packets_serialize(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.0)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append((p.seq, sim.now))
        channel.send(Packet(1000, seq=0))
        channel.send(Packet(1000, seq=1))
        sim.run()
        assert arrivals == [(0, pytest.approx(1.0)), (1, pytest.approx(2.0))]

    def test_bandwidth_change_applies_to_next_packet(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.0)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append(sim.now)
        channel.send(Packet(1000))
        sim.run()
        channel.bandwidth_bps = 16000.0
        channel.send(Packet(1000))
        sim.run()
        assert arrivals[1] - arrivals[0] == pytest.approx(0.5)


class TestFifo:
    def test_delivery_order_matches_send_order(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.001)
        out = collect(channel)
        packets = [Packet(100 + i, seq=i) for i in range(50)]
        for p in packets:
            channel.send(p)
        sim.run()
        assert [p.seq for p in out] == list(range(50))

    def test_skew_preserves_fifo(self, sim):
        rng = random.Random(1)
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.001,
            skew=lambda: rng.uniform(0, 0.01),
        )
        times = []
        channel.on_deliver = lambda p: times.append((p.seq, sim.now))
        for i in range(100):
            channel.send(Packet(500, seq=i))
        sim.run()
        seqs = [s for s, _ in times]
        stamps = [t for _, t in times]
        assert seqs == list(range(100))
        assert stamps == sorted(stamps)

    def test_negative_skew_clamped(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.001, skew=lambda: -5.0
        )
        out = collect(channel)
        channel.send(Packet(500, seq=0))
        sim.run()
        assert len(out) == 1
        assert sim.now >= 0.001


class TestQueueing:
    def test_queue_limit_drops_excess(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0, queue_limit=2)
        drops = []
        channel.on_drop = lambda p, reason: drops.append(reason)
        # First send starts transmitting immediately (not queued), then two
        # queue, then overflow.
        assert channel.send(Packet(1000, seq=0)) is True
        assert channel.send(Packet(1000, seq=1)) is True
        assert channel.send(Packet(1000, seq=2)) is True
        assert channel.send(Packet(1000, seq=3)) is False
        assert drops == ["queue_full"]
        assert channel.stats.queue_drops == 1

    def test_force_bypasses_queue_limit(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0, queue_limit=1)
        channel.send(Packet(1000))
        channel.send(Packet(1000))
        assert channel.can_accept() is False
        assert channel.send(Packet(100), force=True) is True
        out = collect(channel)
        sim.run()
        assert len(out) == 3

    def test_on_space_fires_as_queue_drains(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0, queue_limit=1)
        spaces = []
        channel.on_space = lambda: spaces.append(sim.now)
        channel.send(Packet(1000))
        channel.send(Packet(1000))
        sim.run()
        assert len(spaces) >= 1

    def test_queued_bytes(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0)
        channel.send(Packet(1000))  # transmitting
        channel.send(Packet(200))
        channel.send(Packet(300))
        assert channel.queue_length == 2
        assert channel.queued_bytes == 500


class TestLossAndCorruption:
    def test_deterministic_loss_drops_exact_index(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.0,
            loss_model=DeterministicLoss([1, 3]),
        )
        out = collect(channel)
        for i in range(5):
            channel.send(Packet(100, seq=i))
        sim.run()
        assert [p.seq for p in out] == [0, 2, 4]
        assert channel.stats.lost_packets == 2

    def test_bernoulli_loss_rate_approximate(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e9, prop_delay=0.0,
            loss_model=BernoulliLoss(0.3, rng=random.Random(42)),
        )
        out = collect(channel)
        n = 2000
        for i in range(n):
            channel.send(Packet(100, seq=i))
        sim.run()
        rate = 1 - len(out) / n
        assert 0.25 < rate < 0.35

    def test_corruption_drops_and_counts(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e9, prop_delay=0.0,
            corruption=CorruptionModel(1e-3, rng=random.Random(7)),
        )
        out = collect(channel)
        for i in range(200):
            channel.send(Packet(1000, seq=i))
        sim.run()
        assert channel.stats.corrupted_packets > 0
        assert len(out) + channel.stats.corrupted_packets == 200

    def test_losses_occupy_bandwidth(self, sim):
        """A lost packet still consumed transmission time (it was sent)."""
        channel = Channel(
            sim, bandwidth_bps=8000.0, prop_delay=0.0,
            loss_model=DeterministicLoss([0]),
        )
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append(sim.now)
        channel.send(Packet(1000, seq=0))  # lost, but takes 1 s on the wire
        channel.send(Packet(1000, seq=1))
        sim.run()
        assert arrivals == [pytest.approx(2.0)]


class TestStatsAndValidation:
    def test_stats_accumulate(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0)
        collect(channel)
        for i in range(10):
            channel.send(Packet(100, seq=i))
        sim.run()
        assert channel.stats.offered_packets == 10
        assert channel.stats.delivered_packets == 10
        assert channel.stats.delivered_bytes == 1000
        assert channel.stats.busy_time == pytest.approx(10 * 100 * 8 / 1e6)

    def test_utilization(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.0)
        channel.send(Packet(1000))
        sim.run()
        assert channel.stats.utilization(2.0) == pytest.approx(0.5)

    def test_invalid_bandwidth_rejected(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, bandwidth_bps=0, prop_delay=0.0)

    def test_invalid_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, bandwidth_bps=1e6, prop_delay=-0.1)

    def test_packet_without_size_rejected(self, sim):
        channel = Channel(sim, bandwidth_bps=1e6, prop_delay=0.0)
        with pytest.raises(TypeError):
            channel.send(object())

    def test_custom_size_of(self, sim):
        channel = Channel(
            sim, bandwidth_bps=8000.0, prop_delay=0.0,
            size_of=lambda p: p.size + 100,  # framing overhead
        )
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append(sim.now)
        channel.send(Packet(900))
        sim.run()
        assert arrivals == [pytest.approx(1.0)]


class TestFastBurstMode:
    def _timed(self, sim, fast, packets, **kwargs):
        channel = Channel(sim, fast=fast, **kwargs)
        arrivals = []
        channel.on_deliver = lambda p: arrivals.append((p.seq, sim.now))
        for packet in packets:
            channel.send(packet)
        sim.run()
        return channel, arrivals

    def test_burst_timing_identical_to_classic(self):
        """A burst-mode channel delivers at the exact classic timestamps."""
        import copy
        from repro.sim.engine import Simulator

        packets = [Packet(100 * (i % 7 + 1), seq=i) for i in range(50)]
        results = []
        for fast in (False, True):
            sim = Simulator()
            _, arrivals = self._timed(
                sim, fast, copy.deepcopy(packets),
                bandwidth_bps=1e6, prop_delay=0.01,
            )
            results.append(arrivals)
        assert results[0] == results[1]  # bit-identical, not approx

    def test_lossy_channel_stays_classic(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.0, fast=True,
            loss_model=BernoulliLoss(0.5, rng=random.Random(1)),
        )
        out = collect(channel)
        for i in range(100):
            channel.send(Packet(100, seq=i))
        assert channel.in_flight == 0  # no train: the per-packet pipeline
        sim.run()
        assert 0 < len(out) < 100  # losses actually happened

    def test_zero_rate_loss_model_is_burst_capable(self, sim):
        channel = Channel(
            sim, bandwidth_bps=1e6, prop_delay=0.0, fast=True,
            loss_model=BernoulliLoss(0.0, rng=random.Random(1)),
        )
        channel.send(Packet(100, seq=0))
        assert channel.in_flight == 1  # serialized onto the train at once

    def test_upgrades_to_burst_after_losses_stop(self, sim):
        """stop_losses_at zeroes p; later sends must take the burst path."""
        channel = Channel(
            sim, bandwidth_bps=8000.0, prop_delay=0.0, fast=True,
            loss_model=BernoulliLoss(0.8, rng=random.Random(3)),
        )
        sim.schedule_at(5.0, lambda: setattr(channel.loss_model, "p", 0.0))
        out = collect(channel)
        for i in range(5):
            channel.send(Packet(1000, seq=i))  # classic, lossy
        sim.run(until=10.0)
        lossy_deliveries = len(out)
        assert lossy_deliveries < 5
        for i in range(5, 15):
            channel.send(Packet(1000, seq=i))
        # p was zeroed at t=5: the first burst train is already armed
        assert channel.in_flight >= 1
        sim.run()
        assert [p.seq for p in out[lossy_deliveries:]] == list(range(5, 15))

    def test_send_burst_and_in_flight(self, sim):
        channel = Channel(sim, bandwidth_bps=8000.0, prop_delay=0.0, fast=True)
        out = collect(channel)
        channel.send_burst([Packet(1000, seq=i) for i in range(4)])
        sim.run(until=0.5)  # mid-first-transmission
        assert channel.in_flight + len(channel._queue) + len(out) == 4
        sim.run()
        assert [p.seq for p in out] == [0, 1, 2, 3]
        assert channel.stats.offered_packets == 4
        assert channel.stats.delivered_packets == 4
        assert channel.stats.busy_time == pytest.approx(4.0)

    def test_on_space_fires_after_burst_drains_queue(self, sim):
        channel = Channel(
            sim, bandwidth_bps=8000.0, prop_delay=0.0, fast=True,
            queue_limit=2,
        )
        collect(channel)
        spaces = []
        channel.on_space = lambda: spaces.append(sim.now)
        channel.send(Packet(1000, seq=0))
        channel.send(Packet(1000, seq=1))
        channel.send(Packet(1000, seq=2))
        sim.run()
        assert spaces  # backpressure callback still functions in burst mode


class _ResizingQueue(deque):
    """A transmit queue that forgets the carried size and asks ``size_of``
    again at every read: the channel as it was when the queue held bare
    packets, kept as the oracle for the size carried from ``send``."""

    def __init__(self, size_of):
        super().__init__()
        self.size_of = size_of

    def popleft(self):
        packet, _ = super().popleft()
        return packet, self.size_of(packet)

    def __iter__(self):
        return ((packet, self.size_of(packet)) for packet, _ in super().__iter__())


_channel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(40, 1500), st.booleans()),
        st.tuples(
            st.just("burst"),
            st.lists(st.integers(40, 1500), min_size=1, max_size=5),
        ),
        st.tuples(st.just("pause")),
        st.tuples(st.just("resume")),
        st.tuples(st.just("advance"), st.sampled_from([1e-4, 1e-3, 0.02])),
    ),
    max_size=60,
)


class TestSizeCarriedFromSend:
    @given(
        ops=_channel_ops,
        fast=st.booleans(),
        queue_limit=st.none() | st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_size_of_every_time_twin(self, ops, fast, queue_limit):
        from repro.sim.engine import Simulator

        def play(twin):
            sim = Simulator()
            calls = []

            def size_of(packet):  # framing that differs per packet
                calls.append(packet.seq)
                return packet.size + 18 + packet.seq % 5

            channel = Channel(
                sim, bandwidth_bps=1e6, prop_delay=0.003, fast=fast,
                queue_limit=queue_limit, size_of=size_of,
            )
            if twin:
                channel._queue = _ResizingQueue(size_of)
            arrivals = []
            channel.on_deliver = lambda p: arrivals.append((sim.now, p.seq))
            seen = []
            seq = 0
            for op in ops + [("resume",), ("advance", 1.0)]:
                if op[0] == "send":
                    channel.send(Packet(op[1], seq=seq), force=op[2])
                    seq += 1
                elif op[0] == "burst":
                    channel.send_burst(
                        [Packet(size, seq=seq + i) for i, size in enumerate(op[1])]
                    )
                    seq += len(op[1])
                elif op[0] == "advance":
                    sim.run(until=sim.now + op[1], batch=fast)
                else:
                    getattr(channel, op[0])()
                seen.append(
                    (channel.queue_length, channel.queued_bytes,
                     channel.in_flight, vars(channel.stats).copy())
                )
            return arrivals, seen, seq, calls

        arrivals, seen, offered, calls = play(twin=False)
        assert (arrivals, seen) == play(twin=True)[:2]
        # One size per wire packet; queued_bytes reads it back, never asks.
        assert sorted(calls) == list(range(offered))


class EventChannel(Channel):
    """The per-packet pipeline as it was: ``Event``-handle scheduling of
    every transmit-complete and delivery, and every restart via ``_kick``.
    The oracle for the slot-free pipeline, which must push the same heap
    entries at the same points."""

    def _start_next(self):
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet, size = self._queue.popleft()
        tx_time = (8.0 * size) / self.bandwidth_bps
        self.stats.busy_time += tx_time
        self.sim.schedule(tx_time, self._tx_done, packet, size)

    def _tx_done(self, packet, size):
        index = self._offered_index
        self._offered_index += 1
        lost = self.loss_model.should_drop(index, size)
        corrupted = (
            not lost
            and self.corruption is not None
            and self.corruption.is_corrupted(size)
        )
        if lost:
            self.stats.lost_packets += 1
            if self.on_drop is not None:
                self.on_drop(packet, "loss")
        elif corrupted:
            self.stats.corrupted_packets += 1
            if self.on_drop is not None:
                self.on_drop(packet, "corruption")
        else:
            arrival = self.sim.now + self.prop_delay
            if self.skew is not None:
                arrival += max(0.0, self.skew())
            if arrival < self._last_arrival:
                arrival = self._last_arrival
            self._last_arrival = arrival
            self.sim.schedule_at(arrival, self._deliver, packet, size)
        self._kick()
        if self.on_space is not None and (
            self.queue_limit is None or len(self._queue) < self.queue_limit
        ):
            self.on_space()


_MODELS = ("bernoulli", "deterministic", "skew", "corruption")

_lossy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(40, 1500), st.booleans()),
        st.tuples(
            st.just("burst"),
            st.lists(st.integers(40, 1500), min_size=1, max_size=5),
        ),
        st.tuples(st.just("pause")),
        st.tuples(st.just("resume")),
        st.tuples(st.just("lossless")),
        st.tuples(st.just("advance"), st.sampled_from([1e-4, 1e-3, 0.02])),
    ),
    max_size=60,
)


class TestSlotFreePerPacketPipeline:
    @given(
        ops=_lossy_ops,
        model=st.sampled_from(_MODELS),
        fast=st.booleans(),
        queue_limit=st.none() | st.integers(1, 4),
        refill=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_time_seq_log_as_the_event_handle_twin(
        self, ops, model, fast, queue_limit, refill, seed
    ):
        """Deliveries, drops, ``on_space`` calls and every executed
        event's ``(time, seq)`` match the ``schedule_at`` twin, through
        pauses, forced sends, bursts and a mid-run drop of the loss rate
        to zero (after which a fast channel may switch to trains)."""

        def play(cls):
            sim = Simulator()
            rng = random.Random(seed)
            loss = corruption = skew = None
            if model == "bernoulli":
                loss = BernoulliLoss(0.3, rng=rng)
            elif model == "deterministic":
                loss = DeterministicLoss(range(0, 200, 3))
            elif model == "skew":
                loss = BernoulliLoss(0.2, rng=random.Random(seed + 1))
                skew = lambda: rng.uniform(-1e-3, 4e-3)  # noqa: E731
            else:
                corruption = CorruptionModel(2e-4, rng=rng)
            channel = cls(
                sim, bandwidth_bps=1e6, prop_delay=0.003, fast=fast,
                queue_limit=queue_limit, loss_model=loss,
                corruption=corruption, skew=skew,
            )
            log = []
            sent = [0]

            def send(size, force=False):
                channel.send(Packet(size, seq=sent[0]), force=force)
                sent[0] += 1

            def on_space():
                log.append((sim.now, "space", channel.queue_length))
                if refill and sent[0] < 80:
                    send(100 + sent[0])

            channel.on_deliver = lambda p: log.append(
                (sim.now, "deliver", p.seq)
            )
            channel.on_drop = lambda p, why: log.append(
                (sim.now, why, p.seq)
            )
            channel.on_space = on_space
            events = []

            def advance(until):
                while True:
                    at = sim.peek_time()  # drops cancelled heads
                    if at is None or at > until:
                        break
                    events.append(tuple(sim._heap[0][:2]))
                    sim.step()
                sim.run(until=until)

            for op in ops + [("resume",), ("advance", 1.0)]:
                if op[0] == "send":
                    send(op[1], op[2])
                elif op[0] == "burst":
                    channel.send_burst([
                        Packet(size, seq=sent[0] + i)
                        for i, size in enumerate(op[1])
                    ])
                    sent[0] += len(op[1])
                elif op[0] == "advance":
                    advance(sim.now + op[1])
                elif op[0] == "lossless":
                    if model == "deterministic":
                        channel.loss_model.indices.clear()
                    elif model == "corruption":
                        channel.corruption.ber = 0.0
                    else:
                        channel.loss_model.p = 0.0
                else:
                    getattr(channel, op[0])()
                log.append((sim.now, "state", channel.queue_length,
                            channel.in_flight, sim._seq))
            return log, events, vars(channel.stats), sim.events_processed

        slot_free = play(Channel)
        assert slot_free == play(EventChannel)
