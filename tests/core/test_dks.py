"""DKS fair queuing — the paper's example of a *non-causal* algorithm —
and its unit tests, its only users.

Section 3.1: "the DKS algorithm [DKS89] depends on the packets at the head
of each queue in order to simulate bit-by-bit round robin.  Thus the DKS
fair queuing algorithm is non-causal, while ordinary round robin is
causal."

This is the Demers–Keshav–Shenker PGPS/WFQ emulation: each packet gets a
virtual *finish time* — the round number at which bit-by-bit round robin
would finish sending it — and packets are served in finish-time order.
Computing a packet's finish time requires its *length*, i.e. the algorithm
must look at queued packets before choosing, which is exactly what makes
it unusable for striping with logical reception: a receiver cannot predict
the sender's next channel without the very packets it has not received.

Kept (a) to regenerate the paper's causal/non-causal contrast
in tests, and (b) as a quality yardstick: DKS's fairness is tighter than
SRR's per-round bound, which quantifies what the paper trades for
causality.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import pytest

from repro.core.cfq import NonCausalFQ, fq_service_order, fq_service_order_noncausal
from repro.core.srr import SRR
from tests.conftest import make_packets, random_sizes


@dataclass(frozen=True)
class DKSState:
    """Virtual-time state of the DKS emulation (backlogged case).

    With every queue continuously backlogged, virtual time advances
    ``1/N`` of a byte per byte sent, so it can be tracked directly from
    the bytes served; each queue's last finish time is enough to assign
    the next finish time.
    """

    finish_times: Tuple[float, ...]


class DKS(NonCausalFQ):
    """Bit-by-bit round robin emulation (backlogged behaviour).

    ``weights[i]`` is queue *i*'s service share (bytes per virtual round).
    """

    def __init__(self, weights: Optional[Sequence[float]] = None,
                 n: Optional[int] = None) -> None:
        if weights is None:
            if n is None or n < 1:
                raise ValueError("give weights or a positive queue count")
            weights = [1.0] * n
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = tuple(float(w) for w in weights)

    @property
    def n_queues(self) -> int:
        return len(self.weights)

    def initial_state(self) -> DKSState:
        return DKSState(finish_times=tuple(0.0 for _ in self.weights))

    def next(
        self, state: DKSState, head_sizes: Sequence[Optional[int]]
    ) -> Tuple[int, DKSState]:
        """Serve the queue whose head packet finishes earliest.

        The head *sizes* are required to compute candidate finish times —
        the non-causal dependence the paper points at.
        """
        best_queue = -1
        best_finish = float("inf")
        for queue, head in enumerate(head_sizes):
            if head is None:
                continue
            finish = state.finish_times[queue] + head / self.weights[queue]
            if finish < best_finish:
                best_finish = finish
                best_queue = queue
        if best_queue < 0:
            raise ValueError("all queues empty")
        return best_queue, state

    def update(self, state: DKSState, queue: int, size: int) -> DKSState:
        finish_times = list(state.finish_times)
        finish_times[queue] += size / self.weights[queue]
        return DKSState(finish_times=tuple(finish_times))


def dks_service_gap(order, queue_of, n_queues: int) -> int:
    """Largest byte-service gap between any two queues over all prefixes.

    Utility for comparing DKS's fairness envelope with SRR's bound.
    """
    totals = [0] * n_queues
    worst = 0
    for packet in order:
        totals[queue_of(packet)] += packet.size
        worst = max(worst, max(totals) - min(totals))
    return worst


def queue_lookup(queues):
    table = {}
    for index, queue in enumerate(queues):
        for packet in queue:
            table[packet.uid] = index
    return lambda p: table[p.uid]


class TestDKSBehaviour:
    def test_equal_weights_interleave_equal_packets(self):
        q1 = make_packets([100] * 6)
        q2 = make_packets([100] * 6)
        order = fq_service_order_noncausal(DKS(n=2), [q1, q2])
        lookup = queue_lookup([q1, q2])
        # strict alternation for identical packets
        queues = [lookup(p) for p in order]
        assert queues == [0, 1] * 6 or queues == [1, 0] * 6

    def test_small_packets_finish_first(self):
        """A queue of small packets gets proportionally more packets."""
        big = make_packets([1000] * 5)
        small = make_packets([100] * 50)
        order = fq_service_order_noncausal(DKS(n=2), [big, small])
        lookup = queue_lookup([big, small])
        first_12 = [lookup(p) for p in order[:12]]
        # bytes stay balanced: ~10 small packets per big one
        assert first_12.count(1) >= 9

    def test_weighted_shares(self):
        q1 = make_packets([200] * 60)
        q2 = make_packets([200] * 60)
        order = fq_service_order_noncausal(DKS(weights=[2, 1]), [q1, q2])
        lookup = queue_lookup([q1, q2])
        prefix = [lookup(p) for p in order[:30]]
        assert prefix.count(0) == pytest.approx(20, abs=2)

    def test_byte_fairness_tight(self):
        q1 = make_packets(random_sizes(150, seed=31))
        q2 = make_packets(random_sizes(150, seed=32))
        order = fq_service_order_noncausal(DKS(n=2), [q1, q2])
        gap = dks_service_gap(order, queue_lookup([q1, q2]), 2)
        assert gap <= 2 * 1500  # within two max packets at all times

    def test_validation(self):
        with pytest.raises(ValueError):
            DKS()
        with pytest.raises(ValueError):
            DKS(weights=[1, 0])
        with pytest.raises(ValueError):
            DKS(n=0)

    def test_all_queues_empty_raises(self):
        dks = DKS(n=2)
        with pytest.raises(ValueError):
            dks.next(dks.initial_state(), [None, None])


class TestNonCausality:
    def test_decision_depends_on_head_sizes(self):
        """The same state chooses different queues for different heads —
        the defining non-causal behaviour (a striping receiver could not
        simulate this without the unseen packets)."""
        dks = DKS(n=2)
        state = dks.initial_state()
        choice_a, _ = dks.next(state, [100, 900])
        choice_b, _ = dks.next(state, [900, 100])
        assert choice_a == 0 and choice_b == 1

    def test_srr_decision_does_not(self):
        """Contrast: SRR's choice is a function of state alone."""
        srr = SRR([500, 500])
        state = srr.initial_state()
        assert srr.select(state) == srr.select(state)
        # no packet-dependent argument even exists in the interface


class TestFairnessComparison:
    def test_dks_tighter_than_srr_on_adversary(self):
        """DKS's instantaneous byte gap beats SRR's round-granularity gap
        on the alternating adversary — the service-quality cost the paper
        pays for causality."""
        sizes1 = [1400, 100] * 100
        sizes2 = [100, 1400] * 100
        q1 = make_packets(sizes1)
        q2 = make_packets(sizes2)
        dks_order = fq_service_order_noncausal(DKS(n=2), [q1, q2])
        dks_gap = dks_service_gap(dks_order, queue_lookup([q1, q2]), 2)

        q1b = make_packets(sizes1)
        q2b = make_packets(sizes2)
        srr_order = fq_service_order(SRR([1500, 1500]), [q1b, q2b])
        srr_gap = dks_service_gap(srr_order, queue_lookup([q1b, q2b]), 2)
        assert dks_gap <= srr_gap
