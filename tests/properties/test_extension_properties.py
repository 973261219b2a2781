"""Property-based tests for the extension subsystems.

* Fragmentation: cut-to-fit + reassembly is lossless and order-preserving
  for arbitrary packet sizes, MTUs, and quanta.
* Reset protocol: after any interleaving of data and a reset, the
  delivered stream is the concatenation of an old-epoch prefix and a
  new-epoch stream, each in order.
* Credit invariant: under arbitrary schedules, in-flight never exceeds the
  advertised buffer.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet
from repro.core.resequencer import Resequencer
from repro.core.srr import SRR
from repro.core.striper import ListPort
from repro.core.transform import TransformedLoadSharer
from repro.net.fragmentation import (
    FRAGMENT_HEADER_BYTES,
    FragmentingStriper,
    Reassembler,
)


class TestFragmentationRoundtrip:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20000),
                       min_size=1, max_size=60),
        mtus=st.lists(st.integers(min_value=100, max_value=9000),
                      min_size=2, max_size=4),
        quanta=st.lists(st.integers(min_value=500, max_value=5000),
                        min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_lossless_ordered_reassembly(self, sizes, mtus, quanta, seed):
        n = min(len(mtus), len(quanta))
        mtus, quanta = mtus[:n], [float(q) for q in quanta[:n]]
        ports = [ListPort() for _ in range(n)]
        striper = FragmentingStriper(
            TransformedLoadSharer(SRR(quanta)), ports, mtus=mtus
        )
        packets = [Packet(size=s, seq=i) for i, s in enumerate(sizes)]
        for packet in packets:
            striper.submit(packet)

        # byte conservation on the wire
        fragments = [f for port in ports for f in port.sent]
        assert sum(f.payload_bytes for f in fragments) == sum(sizes)
        assert all(f.size <= max(mtus) for f in fragments)

        # reassembly through logical reception under a random interleaving
        rebuilt = []
        reassembler = Reassembler(on_packet=rebuilt.append)
        receiver = Resequencer(SRR(quanta), on_deliver=reassembler.push)
        rng = random.Random(seed)
        positions = [0] * n
        remaining = sum(len(p.sent) for p in ports)
        while remaining:
            candidates = [
                i for i in range(n) if positions[i] < len(ports[i].sent)
            ]
            channel = rng.choice(candidates)
            receiver.push(channel, ports[channel].sent[positions[channel]])
            positions[channel] += 1
            remaining -= 1
        assert [p.seq for p in rebuilt] == [p.seq for p in packets]
        assert reassembler.packets_aborted == 0

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20000),
                       min_size=1, max_size=40),
        mtu=st.integers(min_value=64, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fragment_sizes_respect_channel_mtu(self, sizes, mtu):
        ports = [ListPort(), ListPort()]
        striper = FragmentingStriper(
            TransformedLoadSharer(SRR([1500.0, 1500.0])), ports,
            mtus=[mtu, 2 * mtu],
        )
        for i, size in enumerate(sizes):
            striper.submit(Packet(size=size, seq=i))
        for fragment in ports[0].sent:
            assert fragment.size <= mtu
        for fragment in ports[1].sent:
            assert fragment.size <= 2 * mtu


class TestResetStreamProperty:
    @given(
        before=st.integers(min_value=0, max_value=40),
        after=st.integers(min_value=1, max_value=40),
        quanta=st.lists(st.integers(min_value=100, max_value=1000),
                        min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_is_prefix_then_new_epoch(self, before, after, quanta, seed):
        from repro.sim.engine import Simulator
        from tests.session_rig import Loopback

        n = len(quanta)
        loop = Loopback(Simulator(), n_ports=n, quanta=[float(q) for q in quanta])
        ports, receiver, delivered = (
            loop.ports, loop.receiver_session, loop.delivered
        )
        for i in range(before):
            loop.sender.submit_packet(Packet(100, seq=i))
        loop.sender_session.initiate_reset()
        for i in range(before, before + after):
            loop.sender.submit_packet(Packet(100, seq=i))

        # random channel-preserving interleaving of everything
        rng = random.Random(seed)
        positions = [0] * n
        total = sum(len(p.sent) for p in ports)
        while total:
            candidates = [
                i for i in range(n) if positions[i] < len(ports[i].sent)
            ]
            channel = rng.choice(candidates)
            receiver.push(channel, ports[channel].sent[positions[channel]])
            positions[channel] += 1
            total -= 1
        # flush post-ack traffic (reset completion re-pumps the sender)
        for channel in range(n):
            for packet in ports[channel].sent[positions[channel]:]:
                receiver.push(channel, packet)

        # Delivered = some subset of old epoch (in order, values < before)
        # followed by the complete new epoch (in order).
        new_epoch = [s for s in delivered if s >= before]
        old_epoch = [s for s in delivered if s < before]
        assert old_epoch == sorted(old_epoch)
        assert new_epoch == sorted(new_epoch)
        assert new_epoch == list(range(before, before + after))
        # no interleaving: every old-epoch delivery precedes the new epoch
        if old_epoch and new_epoch:
            last_old = max(i for i, s in enumerate(delivered) if s < before)
            first_new = min(i for i, s in enumerate(delivered) if s >= before)
            assert last_old < first_new


class TestCreditScheduleProperty:
    @given(
        schedule=st.lists(st.sampled_from(["send", "consume"]),
                          min_size=1, max_size=500),
        buffer_size=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_inflight_never_exceeds_buffer(self, schedule, buffer_size):
        from repro.transport.credit import CreditReceiver, CreditSender

        sender = CreditSender(1, initial_credit=buffer_size)
        receiver = CreditReceiver(
            1, buffer_size, send_credit=lambda c, l: sender.on_credit(c, l)
        )
        in_buffer = 0
        for action in schedule:
            if action == "send" and sender.can_send(0):
                sender.on_send(0)
                in_buffer += 1
            elif action == "consume" and in_buffer:
                in_buffer -= 1
                receiver.on_consumed(0)
            assert in_buffer <= buffer_size
