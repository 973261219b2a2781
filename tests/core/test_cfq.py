"""Unit tests for the CFQ interface and backlogged FQ drivers."""

from typing import List, Sequence, Tuple

import pytest

from repro.core.cfq import fq_service_order
from repro.core.srr import SRR, make_rr
from repro.core.cfq import CausalFQ
from repro.core.packet import Packet
from tests.conftest import make_packets


def bits_per_queue(
    algorithm: CausalFQ, queues: Sequence[Sequence[Packet]]
) -> Tuple[List[int], List[Packet]]:
    """Service the queues and return (bytes serviced per queue, order)."""
    order = fq_service_order(algorithm, queues)
    totals = [0] * algorithm.n_channels
    id_to_queue = {}
    for i, queue in enumerate(queues):
        for packet in queue:
            id_to_queue[packet.uid] = i
    for packet in order:
        totals[id_to_queue[packet.uid]] += packet.size
    return totals, order


class TestFqServiceOrder:
    def test_paper_example(self):
        queue1 = make_packets([550, 150, 300], labels="abc")
        queue2 = make_packets([200, 400, 400], labels="def")
        order = fq_service_order(SRR([500, 500]), [queue1, queue2])
        assert [p.label for p in order] == ["a", "d", "e", "b", "c", "f"]

    def test_consumes_all_packets_when_balanced(self):
        queues = [make_packets([100] * 10), make_packets([100] * 10)]
        order = fq_service_order(SRR([100, 100]), queues)
        assert len(order) == 20

    def test_stops_at_empty_selected_queue(self):
        """The backlogged prefix ends when the algorithm selects an empty
        queue — remaining packets in other queues are not serviced."""
        queue1 = make_packets([100])
        queue2 = make_packets([100] * 10)
        order = fq_service_order(make_rr(2), [queue1, queue2])
        # RR: q0, q1, q0(empty -> stop)
        assert len(order) == 2

    def test_wrong_queue_count_rejected(self):
        with pytest.raises(ValueError):
            fq_service_order(SRR([500, 500]), [[]])

    def test_max_packets_cap(self):
        queues = [make_packets([100] * 100), make_packets([100] * 100)]
        order = fq_service_order(SRR([100, 100]), queues, max_packets=7)
        assert len(order) == 7

    def test_empty_queues_yield_empty_order(self):
        assert fq_service_order(SRR([500, 500]), [[], []]) == []


class TestBitsPerQueue:
    def test_equal_quanta_equal_bytes(self):
        queues = [
            make_packets([300] * 20),
            make_packets([500] * 12),
        ]
        totals, order = bits_per_queue(SRR([500, 500]), queues)
        assert abs(totals[0] - totals[1]) <= 500 + 2 * 500

    def test_weighted_quanta_weighted_bytes(self):
        queues = [
            make_packets([400] * 30),
            make_packets([400] * 30),
        ]
        totals, _ = bits_per_queue(SRR([1000, 500]), queues)
        # Queue 0 should get roughly twice queue 1's bytes over the
        # backlogged prefix.
        assert totals[0] > totals[1]
        assert totals[0] / max(totals[1], 1) == pytest.approx(2.0, rel=0.35)


class TestCapabilities:
    def test_srr_declares_quasi_fifo(self):
        assert SRR([500, 500]).capabilities.fifo_delivery == "quasi"
        assert SRR([500, 500]).capabilities.load_sharing == "good"

    def test_rr_declares_poor_sharing(self):
        rr = make_rr(2)
        assert rr.capabilities.load_sharing == "poor"
        assert rr.capabilities.fifo_delivery == "may_reorder"
