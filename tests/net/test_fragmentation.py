"""Unit tests for internal fragmentation/reassembly."""

import pytest

from repro.core.packet import Packet, is_marker
from repro.core.resequencer import Resequencer
from repro.core.srr import SRR
from repro.core.striper import ListPort, MarkerPolicy
from repro.core.transform import TransformedLoadSharer
from repro.net.fragmentation import (
    FRAGMENT_HEADER_BYTES,
    Fragment,
    FragmentingStriper,
    Reassembler,
)
from tests.conftest import LimitedPort, make_packets, random_sizes


def frag_setup(mtus=(1500, 1500), quanta=(1500.0, 1500.0), policy=None):
    ports = [ListPort() for _ in mtus]
    striper = FragmentingStriper(
        TransformedLoadSharer(SRR(list(quanta))), ports, mtus=list(mtus),
        marker_policy=policy,
    )
    return striper, ports


class TestFragmentingStriper:
    def test_small_packet_single_fragment(self):
        striper, ports = frag_setup()
        striper.submit(Packet(1000, seq=0))
        fragments = ports[0].sent
        assert len(fragments) == 1
        assert fragments[0].count == 1
        assert fragments[0].size == 1000 + FRAGMENT_HEADER_BYTES

    def test_big_packet_cut_to_channel_mtu(self):
        striper, ports = frag_setup(mtus=(1500, 1500), quanta=(3000.0, 3000.0))
        striper.submit(Packet(4000, seq=0))
        fragments = [f for port in ports for f in port.sent]
        assert sum(f.payload_bytes for f in fragments) == 4000
        assert all(f.size <= 1500 for f in fragments)
        counts = {f.count for f in fragments}
        assert counts == {len(fragments)}

    def test_fragment_sized_to_selected_channel(self):
        """Heterogeneous MTUs: each fragment fits the channel the causal
        algorithm picked for it."""
        striper, ports = frag_setup(
            mtus=(1500, 9180), quanta=(1500.0, 9180.0)
        )
        striper.submit(Packet(9000, seq=0))
        for index, port in enumerate(ports):
            for fragment in port.sent:
                if isinstance(fragment, Fragment):
                    assert fragment.size <= (1500, 9180)[index]

    def test_overhead_accounting(self):
        """The send counters count fragments, each with its header."""
        striper, ports = frag_setup()
        striper.submit(Packet(4000, seq=0))
        fragments = [f for port in ports for f in port.sent]
        assert striper.packets_sent == len(fragments) >= 3
        assert (
            striper.bytes_sent
            == 4000 + len(fragments) * FRAGMENT_HEADER_BYTES
        )

    def test_blocking_mid_packet(self):
        """Backpressure can strike between fragments; the striper resumes
        the same packet on pump."""
        ports = [LimitedPort(1), LimitedPort(1)]
        striper = FragmentingStriper(
            TransformedLoadSharer(SRR([1500.0, 1500.0])), ports,
            mtus=[1500, 1500], marker_policy=None,
        )
        striper.submit(Packet(6000, seq=0))
        total = sum(len(p.sent) for p in ports)
        assert total == 2  # one fragment per port, then blocked
        ports[0].limit = ports[1].limit = 10
        striper.pump()
        fragments = [f for port in ports for f in port.sent]
        assert sum(f.payload_bytes for f in fragments) == 6000

    def test_validation(self):
        with pytest.raises(ValueError):
            FragmentingStriper(
                TransformedLoadSharer(SRR([100.0, 100.0])),
                [ListPort(), ListPort()], mtus=[1500], marker_policy=None,
            )
        with pytest.raises(ValueError):
            FragmentingStriper(
                TransformedLoadSharer(SRR([100.0])), [ListPort()], mtus=[4],
                marker_policy=None,
            )


class TestReassembler:
    def test_roundtrip_with_logical_reception(self):
        """Fragment, stripe, resequence, reassemble: original packets."""
        striper, ports = frag_setup(
            mtus=(1500, 9180), quanta=(1500.0, 9180.0)
        )
        packets = make_packets([s * 7 for s in random_sizes(40, seed=41, lo=50, hi=1300)])
        for packet in packets:
            striper.submit(packet)
        rebuilt = []
        reassembler = Reassembler(on_packet=rebuilt.append)
        receiver = Resequencer(
            SRR([1500.0, 9180.0]), on_deliver=reassembler.push
        )
        # maximal skew feed
        for fragment in ports[1].sent:
            receiver.push(1, fragment)
        for fragment in ports[0].sent:
            receiver.push(0, fragment)
        assert [p.uid for p in rebuilt] == [p.uid for p in packets]
        assert reassembler.packets_aborted == 0

    def test_mid_packet_loss_aborts_only_that_packet(self):
        striper, ports = frag_setup(quanta=(3000.0, 3000.0))
        packets = make_packets([4000, 4000, 4000])
        for packet in packets:
            striper.submit(packet)
        # logical order reconstruction via a resequencer:
        rebuilt = []
        reassembler = Reassembler(on_packet=rebuilt.append)
        receiver = Resequencer(SRR([3000.0, 3000.0]),
                               on_deliver=reassembler.push)
        victim = ports[0].sent[-1]  # a late fragment (earlier packets done)
        for fragment in ports[0].sent:
            if fragment is victim:
                continue
            receiver.push(0, fragment)
        for fragment in ports[1].sent:
            receiver.push(1, fragment)
        # Packets completed before the loss are delivered intact; the
        # packet whose fragment was lost never completes.
        assert [p.seq for p in rebuilt] == [0, 1]
        assert reassembler.packets_completed == 2

    def test_non_fragment_input_ignored(self):
        rebuilt = []
        reassembler = Reassembler(on_packet=rebuilt.append)
        assert reassembler.push(Packet(100)) is None
        assert rebuilt == []
        assert reassembler.fragments_seen == 0

    def test_markers_flow_through_striper(self):
        striper, ports = frag_setup(
            policy=MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for packet in make_packets([2000] * 10):
            striper.submit(packet)
        assert any(is_marker(p) for p in ports[0].sent)
