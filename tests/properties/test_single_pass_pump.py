"""Oracle twin: the single-pass ``FastStriper`` against the per-packet pump.

The base :class:`~repro.core.striper.Striper` pump looks at one packet at a
time: ask the pointer port, send, step the kernel, walk the pointer path
for marker crossings.  ``FastStriper`` does the same work through one
``SRRKernel.assign_admitted`` per pass.  It is only allowed to be faster:
over random quanta (including quanta below the largest packet, where one
step hops several channels or wraps several rounds), sizes, per-port
capacities (0...k, with forced markers overfilling a queue), marker
interval x position, and interleaved submit / pump / space events, both
must put the same sequence of data and markers on every port and end in
the same state.
"""

from hypothesis import given, settings, strategies as st

from repro.core import SRR, MarkerPacket, MarkerPolicy, Packet, SRRKernel
from repro.core.transform import TransformedLoadSharer
from repro.core.striper import Striper
from repro.transport.endpoint import FastStriper


class CapPort:
    """A burst-capable port with ``limit`` queue slots that logs what it
    is sent; ``drain`` frees slots (the channel serialized something)."""

    def __init__(self, limit):
        self.limit = limit
        self.queue_length = 0
        self.sent = []

    def can_accept(self):
        return self.limit is None or self.queue_length < self.limit

    def free_capacity(self):
        if self.limit is None:
            return 1 << 30
        return max(0, self.limit - self.queue_length)

    def send(self, packet, force=False):
        if not force and not self.can_accept():
            return False
        self.sent.append(packet)
        self.queue_length += 1
        return True

    def send_burst(self, packets):
        # The pump admits against free slots; it must never overfill.
        assert len(packets) <= self.free_capacity()
        self.sent.extend(packets)
        self.queue_length += len(packets)

    def drain(self, count):
        self.queue_length = max(0, self.queue_length - count)

    def log(self):
        return [
            ("marker", p.channel, p.round_number, p.deficit)
            if isinstance(p, MarkerPacket) else ("data", p.seq)
            for p in self.sent
        ]


def _state(striper, ports):
    kernel = striper._kernel
    return (
        [port.log() for port in ports],
        [port.queue_length for port in ports],
        kernel.snapshot(),
        striper._crossings_seen,
        striper.packets_sent,
        striper.bytes_sent,
        striper.markers_sent,
        striper.backlog,
    )


setups = st.integers(1, 5).flatmap(
    lambda n: st.fixed_dictionaries({
        # 40 is far below the largest packet: a 1500-byte packet then takes
        # the pointer through dozens of rounds in one step.
        "quanta": st.lists(
            st.sampled_from([40, 100, 333, 600, 1000, 1500, 3000]),
            min_size=n, max_size=n,
        ),
        "limits": st.lists(
            st.none() | st.integers(0, 6), min_size=n, max_size=n
        ),
        "interval": st.integers(0, 3),
        "position": st.integers(0, n + 1),
        "initial": st.booleans(),
        "count_packets": st.booleans(),
    })
)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.lists(st.integers(1, 1500), min_size=1, max_size=12),
        ),
        st.tuples(st.just("pump"), st.none()),
        st.tuples(
            st.just("space"),
            st.tuples(st.integers(0, 4), st.integers(1, 7)),
        ),
    ),
    min_size=1, max_size=25,
)


def _build(cls, setup):
    ports = [CapPort(limit) for limit in setup["limits"]]
    sharer = TransformedLoadSharer(
        SRR(setup["quanta"], count_packets=setup["count_packets"])
    )
    policy = MarkerPolicy(
        interval_rounds=setup["interval"],
        position=setup["position"],
        initial_markers=setup["initial"],
    )
    return cls(sharer, ports, policy), ports


@given(setup=setups, script=ops)
@settings(max_examples=400, deadline=None)
def test_single_pass_pump_is_the_per_packet_pump(setup, script):
    slow, slow_ports = _build(Striper, setup)
    fast, fast_ports = _build(FastStriper, setup)
    seq = 0
    for op, arg in script:
        if op == "submit":
            for striper in (slow, fast):
                striper.submit_many(
                    [Packet(size=size, seq=seq + i) for i, size in enumerate(arg)]
                )
            seq += len(arg)
        elif op == "pump":
            assert fast.pump() == slow.pump()
        else:
            channel, count = arg
            for ports in (slow_ports, fast_ports):
                ports[channel % len(ports)].drain(count)
            assert fast.pump() == slow.pump()
        assert _state(fast, fast_ports) == _state(slow, slow_ports)
    assert fast.fallback_pumps == 0  # nothing was handed to the base pump


def _stepwise(kernel, sizes, free, position, due):
    """``assign_admitted`` one ``step`` at a time, counting crossings the
    way ``Striper._check_marker_crossing`` walks them."""
    n = len(kernel.quanta)
    channels, crossings = [], 0
    for size in sizes:
        if free[kernel.ptr] <= 0 or (due and crossings >= due):
            break
        free[kernel.ptr] -= 1
        ptr, rnd = kernel.ptr, kernel.round_number
        channels.append(kernel.step(size))
        while (ptr, rnd) != (kernel.ptr, kernel.round_number):
            ptr += 1
            if ptr == n:
                ptr, rnd = 0, rnd + 1
            crossings += ptr == position
    return channels, crossings


@given(
    quanta=st.lists(st.integers(20, 2000), min_size=1, max_size=5),
    sizes=st.lists(st.integers(1, 1500), min_size=0, max_size=60),
    free=st.lists(st.integers(0, 9), min_size=5, max_size=5),
    position=st.integers(-1, 4),
    due=st.integers(0, 4),
    warmup=st.lists(st.integers(1, 1500), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_assign_admitted_is_step_by_step(
    quanta, sizes, free, position, due, warmup
):
    asked = []

    def capacity_of(channel):
        def ask():
            asked.append(channel)
            return free[channel]
        return ask

    fast, slow = SRRKernel(SRR(quanta)), SRRKernel(SRR(quanta))
    for kernel in (fast, slow):
        kernel.assign_many(warmup)  # start from an arbitrary state
    queue = [Packet(size=size) for size in sizes]
    got = fast.assign_admitted(
        queue, [capacity_of(c) for c in range(len(quanta))], position, due
    )
    assert got == _stepwise(slow, sizes, list(free), position, due)
    assert fast.snapshot() == slow.snapshot()
    # Lazily, and once: only ports the pointer landed on were asked.
    assert len(set(asked)) == len(asked)
    assert set(asked) <= set(got[0]) | {fast.ptr, slow.ptr}
