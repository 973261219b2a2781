"""Unit tests for the fairness accounting (Theorem 3.2 bound)."""

import random
from typing import Sequence

import pytest

from repro.core.fairness import (
    jain_fairness_index,
    normalized_shares,
    srr_fairness_report,
)
from repro.core.srr import SRR, make_rr
from tests.conftest import make_packets, random_sizes


def max_pairwise_imbalance(byte_counts: Sequence[int]) -> int:
    """Largest difference in bytes between any two channels."""
    if not byte_counts:
        return 0
    return max(byte_counts) - min(byte_counts)


class TestSrrFairnessReport:
    def test_bound_holds_on_random_traffic(self):
        packets = make_packets(random_sizes(500, seed=21))
        report = srr_fairness_report(SRR([1500, 1500]), packets)
        assert report.within_bound
        assert report.bound == max(p.size for p in packets) + 2 * 1500

    def test_bound_holds_on_adversarial_alternation(self):
        packets = make_packets([1000, 200] * 300)
        report = srr_fairness_report(SRR([1500, 1500]), packets)
        assert report.within_bound

    def test_bound_holds_with_weighted_quanta(self):
        packets = make_packets(random_sizes(600, seed=22))
        report = srr_fairness_report(SRR([1500, 3000]), packets)
        assert report.within_bound
        # weighted shares: channel 1 carries about twice the bytes
        assert report.actual_bytes[1] > report.actual_bytes[0]

    def test_rejects_packet_counting_variants(self):
        with pytest.raises(ValueError):
            srr_fairness_report(make_rr(2), make_packets([100]))

    def test_report_fields_consistent(self):
        packets = make_packets([500] * 100)
        report = srr_fairness_report(SRR([500, 500]), packets)
        assert len(report.actual_bytes) == 2
        assert sum(report.actual_bytes) == 500 * 100
        for deviation, ideal, actual in zip(
            report.deviations, report.ideal_bytes, report.actual_bytes
        ):
            assert deviation == pytest.approx(abs(actual - ideal))


class TestScalarMetrics:
    def test_jain_perfect(self):
        assert jain_fairness_index([100, 100, 100]) == pytest.approx(1.0)

    def test_jain_worst_case(self):
        assert jain_fairness_index([300, 0, 0]) == pytest.approx(1 / 3)

    def test_jain_empty_and_zero(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0, 0]) == 1.0

    def test_max_pairwise_imbalance(self):
        assert max_pairwise_imbalance([5, 9, 7]) == 4
        assert max_pairwise_imbalance([]) == 0

    def test_normalized_shares(self):
        shares = normalized_shares([200, 100], [2, 1])
        assert shares == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_normalized_shares_imbalanced(self):
        shares = normalized_shares([300, 100], [1, 1])
        assert shares[0] > 1.0 > shares[1]

    def test_normalized_shares_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_shares([1, 2], [1])
