"""Oracle twin: :meth:`Striper.pump` against the packet-at-a-time pump.

The oracle (``pump_oracle.PerPacketStriper``) looks at one packet at a
time: ask the pointer port, send, step the kernel, walk the pointer path
for marker crossings.  ``Striper.pump`` does the same work through one
``SRRKernel.assign_admitted`` per pass.  It is only allowed to be faster:
over random quanta (including quanta below the largest packet, where one
step hops several channels or wraps several rounds), sizes, per-port
capacities (0...k, with forced markers overfilling a queue), marker
interval x position, and interleaved submit / pump / space events, both
must put the same sequence of data and markers on every port and end in
the same state — over ports with the burst surface, over ports without
it (which must also see the oracle's calls, in the oracle's order), and
with a tracer on (which must record the oracle's trace).
"""

from hypothesis import given, settings, strategies as st

from repro.core import SRR, MarkerPacket, MarkerPolicy, Packet, SRRKernel
from repro.core.transform import TransformedLoadSharer
from repro.core.striper import Striper
from repro.sim.trace import Tracer

from tests.properties.pump_oracle import PerPacketStriper


def _label(packet):
    if isinstance(packet, MarkerPacket):
        return ("marker", packet.channel, packet.round_number, packet.deficit)
    return ("data", packet.seq)


class SlotPort:
    """A port without the burst surface: ``limit`` queue slots, a log of
    what it is sent and of every call it gets; ``drain`` frees slots (the
    channel serialized something)."""

    def __init__(self, limit):
        self.limit = limit
        self.queue_length = 0
        self.sent = []
        self.calls = []

    def _room(self):
        return self.limit is None or self.queue_length < self.limit

    def can_accept(self):
        self.calls.append(("can_accept", self._room()))
        return self._room()

    def send(self, packet, force=False):
        self.calls.append(("send", _label(packet)))
        if not force and not self._room():
            return False
        self.sent.append(packet)
        self.queue_length += 1
        return True

    def drain(self, count):
        self.queue_length = max(0, self.queue_length - count)

    def log(self):
        return [_label(p) for p in self.sent]


class CapPort(SlotPort):
    """A port with the burst surface."""

    def free_capacity(self):
        if self.limit is None:
            return 1 << 30
        return max(0, self.limit - self.queue_length)

    def send_burst(self, packets):
        # The pump admits against free slots; it must never overfill.
        assert len(packets) <= self.free_capacity()
        self.sent.extend(packets)
        self.queue_length += len(packets)


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


def setups(burst):
    """Striper setups; ``burst`` draws whether each port has the burst
    surface."""
    return st.integers(1, 5).flatmap(
        lambda n: st.fixed_dictionaries({
            # 40 is far below the largest packet: a 1500-byte packet then
            # takes the pointer through dozens of rounds in one step.
            "quanta": st.lists(
                st.sampled_from([40, 100, 333, 600, 1000, 1500, 3000]),
                min_size=n, max_size=n,
            ),
            "limits": st.lists(
                st.none() | st.integers(0, 6), min_size=n, max_size=n
            ),
            "burst": st.lists(burst, min_size=n, max_size=n),
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


def _build(cls, setup, tracer=None):
    ports = [
        (CapPort if burst else SlotPort)(limit)
        for limit, burst in zip(setup["limits"], setup["burst"])
    ]
    sharer = TransformedLoadSharer(
        SRR(setup["quanta"], count_packets=setup["count_packets"])
    )
    policy = MarkerPolicy(
        interval_rounds=setup["interval"],
        position=setup["position"],
        initial_markers=setup["initial"],
    )
    options = {} if tracer is None else {"tracer": tracer}
    return cls(sharer, ports, policy, **options), ports


def _run_both(setup, script, traced=False):
    """Play ``script`` on the oracle and on :class:`Striper`, comparing
    the state after every step; returns both ``(striper, ports)``."""
    pair = [
        _build(cls, setup, Tracer() if traced else None)
        for cls in (PerPacketStriper, Striper)
    ]
    (slow, slow_ports), (fast, fast_ports) = pair
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
    return pair


@given(setup=setups(st.just(True)), script=ops)
@settings(max_examples=400, deadline=None)
def test_single_pass_pump_is_the_per_packet_pump(setup, script):
    _run_both(setup, script)


@given(setup=setups(st.booleans()), script=ops)
@settings(max_examples=300, deadline=None)
def test_ports_without_the_burst_surface_get_the_oracle_calls(setup, script):
    """A one-slot port sees exactly the oracle's ``can_accept`` / ``send``
    sequence; only the interleaving across ports differs."""
    (_, slow_ports), (_, fast_ports) = _run_both(setup, script)
    for slow_port, fast_port in zip(slow_ports, fast_ports):
        if not isinstance(fast_port, CapPort):
            assert fast_port.calls == slow_port.calls


@given(setup=setups(st.booleans()), script=ops)
@settings(max_examples=300, deadline=None)
def test_traced_pump_records_the_oracle_trace(setup, script):
    (slow, _), (fast, _) = _run_both(setup, script, traced=True)
    trace = [(e.kind, e.detail) for e in fast.tracer.events]
    assert trace == [(e.kind, e.detail) for e in slow.tracer.events]
    assert len(trace) == fast.packets_sent + fast.markers_sent


def _stepwise(kernel, sizes, free, position, due):
    """``assign_admitted`` one ``step`` at a time, counting crossings the
    way the oracle's pointer walk does."""
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
