"""Unit tests for the host CPU / interrupt model, and for the burst
arrival helper defined here, which only these tests use."""

from typing import Any, List

import pytest

from repro.core.packet import Packet
from repro.sim.host import HostCPU, NicQueue


def enqueue_many(nic: NicQueue, packets: List[Any]) -> int:
    """Burst arrival from the wire: one interrupt for the whole batch.

    This is the receive-side counterpart of the channel's burst
    transmit path — a back-to-back train landing on an idle NIC is
    exactly the "multiple packets received in a single interrupt
    routine" coalescing of section 6.2.  Returns the number accepted;
    overflow beyond the ring limit is dropped per packet.
    """
    accepted = 0
    queue = nic.queue
    limit = nic.queue_limit
    for packet in packets:
        if limit is not None and len(queue) >= limit:
            nic.drops += 1
            continue
        queue.append(packet)
        accepted += 1
    if accepted and not nic.interrupt_pending:
        nic.interrupt_pending = True
        nic.interrupts += 1
        nic.cpu._post_interrupt(nic)
    return accepted


def make_cpu(sim, per_packet_cost=0.0, per_interrupt_cost=0.0, max_batch=None):
    processed = []
    cpu = HostCPU(sim, per_packet_cost, per_interrupt_cost, max_batch)
    cpu.on_packet = lambda p, nic: processed.append((nic, p.seq))
    return cpu, processed


class TestBasicProcessing:
    def test_packet_flows_through(self, sim):
        cpu, processed = make_cpu(sim, per_packet_cost=0.001)
        nic = cpu.new_nic("eth0")
        nic.enqueue(Packet(100, seq=0))
        sim.run()
        assert processed == [("eth0", 0)]
        assert cpu.total_interrupts == 1

    def test_processing_takes_time(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.001, per_interrupt_cost=0.002
        )
        nic = cpu.new_nic("eth0")
        done = []
        cpu.on_packet = lambda p, n: done.append(sim.now)
        nic.enqueue(Packet(100, seq=0))
        sim.run()
        assert done == [pytest.approx(0.003)]

    def test_order_preserved_within_nic(self, sim):
        cpu, processed = make_cpu(sim, per_packet_cost=0.001)
        nic = cpu.new_nic("eth0")
        for i in range(10):
            nic.enqueue(Packet(100, seq=i))
        sim.run()
        assert [seq for _, seq in processed] == list(range(10))


class TestCoalescing:
    def test_burst_coalesces_into_one_interrupt(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.001, per_interrupt_cost=0.01
        )
        nic = cpu.new_nic("eth0")
        # 1 packet triggers the interrupt; 5 more arrive before service
        # completes and are drained in the next batch.
        nic.enqueue(Packet(100, seq=0))
        for i in range(1, 6):
            sim.schedule(0.001 * i, nic.enqueue, Packet(100, seq=i))
        sim.run()
        assert len(processed) == 6
        assert cpu.total_interrupts <= 3  # far fewer than 6

    def test_two_nics_interrupt_separately(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.001, per_interrupt_cost=0.01
        )
        a = cpu.new_nic("a")
        b = cpu.new_nic("b")
        a.enqueue(Packet(100, seq=0))
        b.enqueue(Packet(100, seq=1))
        sim.run()
        assert cpu.total_interrupts == 2

    def test_max_batch_limits_drain(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.001, per_interrupt_cost=0.01, max_batch=2
        )
        nic = cpu.new_nic("eth0")
        for i in range(5):
            nic.enqueue(Packet(100, seq=i))
        sim.run()
        assert len(processed) == 5
        assert cpu.total_interrupts >= 3  # ceil(5/2)

    def test_invalid_max_batch(self, sim):
        with pytest.raises(ValueError):
            HostCPU(sim, 0.0, 0.0, max_batch=0)


class TestRingLimits:
    def test_ring_overflow_drops(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=1.0  # very slow CPU
        )
        nic = cpu.new_nic("eth0")
        nic.queue_limit = 3
        accepted = [nic.enqueue(Packet(100, seq=i)) for i in range(10)]
        # First enqueue posts the interrupt and is drained immediately at
        # service start; subsequent ones queue up to the limit.
        assert nic.drops > 0
        assert accepted.count(False) == nic.drops

    def test_utilization(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.25, per_interrupt_cost=0.25
        )
        nic = cpu.new_nic("eth0")
        nic.enqueue(Packet(100, seq=0))
        sim.run()
        assert cpu.utilization(1.0) == pytest.approx(0.5)
        assert cpu.utilization(0.0) == 0.0

    def test_negative_costs_rejected(self, sim):
        with pytest.raises(ValueError):
            HostCPU(sim, -1, 0.0, None)


class TestEnqueueMany:
    def test_single_interrupt_for_burst(self, sim):
        cpu, processed = make_cpu(
            sim, per_packet_cost=0.001, per_interrupt_cost=0.01
        )
        nic = cpu.new_nic("eth0")
        accepted = enqueue_many(nic, [Packet(100, seq=i) for i in range(6)])
        sim.run()
        assert accepted == 6
        assert [seq for _, seq in processed] == list(range(6))
        assert cpu.total_interrupts == 1

    def test_ring_limit_drops_overflow(self, sim):
        cpu, processed = make_cpu(sim, per_packet_cost=0.001)
        nic = cpu.new_nic("eth0")
        nic.queue_limit = 3
        accepted = enqueue_many(nic, [Packet(100, seq=i) for i in range(8)])
        assert accepted == 3
        assert nic.drops == 5
        sim.run()
        assert [seq for _, seq in processed] == [0, 1, 2]

    def test_empty_batch_posts_no_interrupt(self, sim):
        cpu, processed = make_cpu(sim, per_packet_cost=0.001)
        nic = cpu.new_nic("eth0")
        assert enqueue_many(nic, []) == 0
        sim.run()
        assert cpu.total_interrupts == 0
