"""Unit tests for metrics, reordering analysis, and Table 1 generation."""

import pytest

from repro.analysis.metrics import (
    DeliveryLog,
    LatencyStats,
    ThroughputWindow,
    mbps,
    percentile,
)
from repro.analysis.reorder import analyze_order, fifo_after_index
from repro.analysis.tables import (
    QUANTITY_VALUE,
    TABLE1_COLUMNS,
    extended_rows,
    paper_table1_rows,
    render_rows,
)


class TestMbps:
    def test_conversion(self):
        assert mbps(1_250_000, 1.0) == pytest.approx(10.0)

    def test_zero_interval(self):
        assert mbps(100, 0) == 0.0


class TestThroughputWindow:
    def test_window_excludes_warmup(self):
        counter = [0]
        window = ThroughputWindow(lambda: counter[0])
        counter[0] = 500  # warmup traffic
        window.open(1.0)
        counter[0] = 500 + 1_250_000
        window.close(2.0)
        assert window.mbps == pytest.approx(10.0)
        assert window.bytes == 1_250_000

    def test_unopened_window_raises(self):
        window = ThroughputWindow(lambda: 0)
        with pytest.raises(RuntimeError):
            window.close(1.0)


class TestLatencyStats:
    def test_streaming_moments(self):
        stats = LatencyStats()
        for value in [1.0, 2.0, 3.0, 4.0]:
            stats.add(value)
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(5 / 3)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_single_sample(self):
        stats = LatencyStats()
        stats.add(5.0)
        assert stats.variance == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)

    def test_extremes(self):
        assert percentile([3, 1, 2], 0) == 1
        assert percentile([3, 1, 2], 100) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 200)


class TestAnalyzeOrder:
    def test_fifo_stream(self):
        report = analyze_order([0, 1, 2, 3])
        assert report.is_fifo
        assert report.out_of_order == 0
        assert report.missing == 0

    def test_single_swap(self):
        report = analyze_order([0, 2, 1, 3])
        assert report.out_of_order == 1
        assert report.max_extent == 1
        assert report.max_displacement == 1

    def test_pure_loss_is_not_reordering(self):
        report = analyze_order([0, 2, 4, 6], sent_count=7)
        assert report.is_fifo
        assert report.missing == 3
        assert report.mean_displacement == 0.0

    def test_duplicates_counted(self):
        report = analyze_order([0, 1, 1, 2])
        assert report.duplicates == 1
        assert report.delivered == 3

    def test_extent_measures_depth(self):
        # 5 delivered before 0: extent 5
        report = analyze_order([1, 2, 3, 4, 5, 0])
        assert report.max_extent == 5

    def test_out_of_order_fraction(self):
        report = analyze_order([1, 0, 3, 2])
        assert report.out_of_order_fraction == pytest.approx(0.5)

    def test_empty(self):
        report = analyze_order([])
        assert report.is_fifo
        assert report.delivered == 0

    def test_fifo_after_index(self):
        assert fifo_after_index([0, 1, 2, 3]) == 0
        assert fifo_after_index([0, 2, 1, 3, 4]) == 2
        assert fifo_after_index([5, 0, 1, 2]) == 3


class TestDeliveryLog:
    def test_goodput_window(self):
        log = DeliveryLog()
        log.record(0.5, 0, 1000)
        log.record(1.5, 1, 1_250_000)
        log.record(3.0, 2, 99)
        assert log.goodput_mbps(1.0, 2.0) == pytest.approx(10.0)
        assert log.count == 3


class TestTable1:
    def test_paper_rows_match_claims(self):
        rows = paper_table1_rows()
        by_name = {row.scheme: row for row in rows}
        assert len(rows) == 5
        assert by_name["Round-Robin, no header"].fifo_delivery == "May be non-FIFO"
        assert by_name["Round-Robin, no header"].load_sharing == "Poor"
        assert by_name["BONDING"].fifo_delivery == "Guaranteed FIFO"
        assert by_name["BONDING"].load_sharing == "Good"
        assert (
            by_name["Fair Queuing algorithm, no header"].fifo_delivery
            == "Quasi-FIFO"
        )
        assert (
            by_name["Fair Queuing algorithm, no header"].load_sharing == "Good"
        )
        assert (
            by_name["Fair Queuing algorithm with header"].fifo_delivery
            == "Guaranteed FIFO"
        )

    def test_extended_rows_superset(self):
        rows = extended_rows()
        assert len(rows) == 9
        names = [row.scheme for row in rows]
        assert "MPPP (RFC 1717)" in names

    def test_render_aligned(self):
        text = render_rows(paper_table1_rows(), TABLE1_COLUMNS)
        lines = text.splitlines()
        assert len(lines) == 7  # header + rule + 5 rows
        assert len({len(line) for line in lines}) <= 2  # aligned widths


class TestRenderRows:
    def test_layout(self):
        rows = [("a", 1.5, None), ("bbb", 10.26, 3)]
        columns = [("name", lambda r: r[0], ""), ("x", lambda r: r[1], ".1f"),
                   ("n", lambda r: r[2], "")]
        assert render_rows(rows, columns, title="t").splitlines() == [
            "t",
            "name     x  n",
            "----  ----  -",
            "a      1.5  -",
            "bbb   10.3  3",
        ]

    def test_attribute_source_and_bools_left_aligned(self):
        rows = [paper_table1_rows()[0]]
        text = render_rows(rows, [("ok", lambda r: True, ""),
                                  ("scheme", "scheme", "")])
        assert text.splitlines()[2].startswith("True  Round-Robin")

    def test_quantity_value_pairs(self):
        text = render_rows([("k", "v"), ("key", "value")], QUANTITY_VALUE)
        assert text.splitlines()[0] == "quantity  value"
        assert text.splitlines()[3] == "key       value"

    def test_no_rows_draws_headers(self):
        assert render_rows([], QUANTITY_VALUE) == (
            "quantity  value\n--------  -----"
        )
