"""Tests of the experiment harnesses (quick-sized runs).

These check the *shape* claims each paper artifact makes, at reduced
simulation durations so the suite stays fast.  The full-size runs live in
``benchmarks/``.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig2_3", "fig5_6", "fig8_13", "fig15",
            "grr_worst", "sync_loss", "marker_freq", "marker_pos",
            "credit_fc", "video", "fault_tolerance", "chaos", "reliability",
            "recovery", "fec", "mtu", "multiflow", "fabric", "scalability",
            "sprinklers",
            "tcp_channels", "cell_striping",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_main_lists(self, capsys):
        from repro.experiments.runner import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out

    def test_main_runs_cheap_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig5_6"]) == 0
        out = capsys.readouterr().out
        assert "matches paper: True" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.experiments.runner import main

        assert main(["bogus"]) == 2


class TestLossRecoveryShape:
    def test_fifo_restored_up_to_80_percent(self):
        from repro.experiments.loss_recovery import run_loss_recovery

        result = run_loss_recovery(
            loss_rates=(0.2, 0.8), loss_phase_s=0.6, total_s=1.6
        )
        assert result.all_recovered
        for row in result.rows:
            assert row.lost > 0  # loss actually happened
            assert row.delivered > 0

    def test_quasi_fifo_during_loss(self):
        from repro.experiments.loss_recovery import run_loss_recovery

        result = run_loss_recovery(
            loss_rates=(0.3,), loss_phase_s=0.8, total_s=1.2
        )
        row = result.rows[0]
        assert row.ooo_total > 0  # reordering seen during the lossy phase


class TestReliabilityShape:
    def test_reliable_complete_where_best_effort_loses(self):
        from repro.experiments.reliability import run_reliability

        result = run_reliability(quick=True)
        reliable = [r for r in result.rows if r.mode == "reliable"]
        lossy_best_effort = [
            r for r in result.rows
            if r.mode == "best_effort" and r.loss_rate > 0
        ]
        assert all(
            r.completeness == 1.0 and r.in_order and r.duplicates == 0
            and r.drained
            for r in reliable
        )
        assert all(r.completeness < 1.0 for r in lossy_best_effort)
        assert any(r.retransmissions > 0 for r in reliable)


class TestMarkerFrequencyShape:
    def test_ooo_grows_with_interval(self):
        from repro.experiments.marker_frequency import run_marker_frequency

        result = run_marker_frequency(intervals=(1, 10, 40), duration_s=1.2)
        fractions = [row.ooo_fraction for row in result.rows]
        assert fractions[0] < fractions[-1]
        assert result.is_monotone_enough()


class TestMarkerPositionShape:
    def test_round_boundary_near_optimal(self):
        from repro.experiments.marker_position import run_marker_position

        result = run_marker_position(duration_s=1.0, seeds=(0, 1))
        assert result.boundary_is_near_optimal(slack=1.25)


class TestFlowControlShape:
    def test_credits_eliminate_loss(self):
        from repro.experiments.flow_control import run_flow_control

        result = run_flow_control(duration_s=1.0)
        without = result.row(False)
        with_credits = result.row(True)
        assert without.buffer_drops > 0
        assert with_credits.buffer_drops == 0
        assert with_credits.goodput_mbps >= without.goodput_mbps - 0.1


class TestVideoShape:
    def test_reordering_insignificant_vs_loss(self):
        from repro.experiments.video_quality import run_video_quality

        result = run_video_quality(
            loss_rates=(0.0, 0.2, 0.4), duration_s=3.0
        )
        assert result.reordering_insignificant()
        qualities = [row.striped_quality for row in result.rows]
        assert qualities[0] > qualities[-1]  # loss does hurt

    def test_perceptibility_thresholds_similar(self):
        from repro.experiments.video_quality import run_video_quality

        result = run_video_quality(
            loss_rates=(0.0, 0.2, 0.4, 0.6), duration_s=3.0
        )
        striped = result.first_perceptible_loss("striped")
        pure = result.first_perceptible_loss("pure_loss")
        assert striped == pure  # same threshold: reordering adds nothing


class TestExtensionShapes:
    def test_mtu_fragmentation_ordering(self):
        from repro.experiments.mtu_fragmentation import run_mtu_fragmentation

        result = run_mtu_fragmentation(duration_s=1.5, warmup_s=0.5)
        plain = result.row("plain strIPe (min MTU)")
        frag = result.row("fragmenting strIPe (max MTU)")
        atm = result.row("ATM alone, 9180 MTU")
        assert frag.goodput_mbps > atm.goodput_mbps > plain.goodput_mbps

    def test_multiflow_preserves_aggregate(self):
        from repro.experiments.multiflow import run_multiflow

        result = run_multiflow(n_flows=3, duration_s=2.0, warmup_s=1.0)
        assert result.aggregate_mbps > 0.85 * result.single_flow_mbps
        assert result.fairness_ratio > 0.3  # no starvation

    def test_scalability_linear(self):
        from repro.experiments.scalability import run_scalability

        result = run_scalability(
            channel_counts=(2, 6), duration_s=1.0,
            with_recovery_probe=False,
        )
        assert result.scaling_efficiency() > 0.9
        assert all(row.out_of_order == 0 for row in result.rows)

    def test_sprinklers_marker_free_on_stable_transports(self):
        from repro.experiments.sprinklers import run_sprinklers

        result = run_sprinklers(
            duration_s=0.4, chaos_total_s=1.2, chaos_seeds=(3,),
            scale_flows=64,
        )
        # Marker-free acceptance on one stable transport + TCP contrast.
        socket_row = result.row("socket", "sprinklers")
        assert socket_row.out_of_order == 0
        assert socket_row.receiver_hwm == 0
        assert socket_row.markers_sent == 0
        assert result.row("socket", "srr").markers_sent > 0
        for row in result.scale:
            assert row.delivered == row.total
        assert "sprinklers" in result.render()

    def test_chaos_recovers_and_counts_faults(self):
        from repro.experiments.chaos import run_chaos

        result = run_chaos(seeds=3, total_s=1.8)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.faults_injected >= 0
            assert row.delivered > 100
            # back above 80% of the pre-fault baseline once faults cease
            assert row.goodput_after > 0.8 * row.goodput_before
            if "duplicate" not in row.kinds:
                assert row.duplicates == 0
        # at least one schedule actually perturbed traffic
        assert any(row.faults_injected > 0 for row in result.rows)
        assert "recovered" in result.render()

    def test_json_export(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "results.json"
        assert main(["fig5_6", "--json", str(out)]) == 0
        import json

        data = json.loads(out.read_text())
        assert "fig5_6" in data
        assert data["fig5_6"]["matches_paper"] is True

    def test_to_jsonable_variants(self):
        from repro.experiments.runner import to_jsonable

        assert to_jsonable("hello") == {"text": "hello"}
        assert "repr" in to_jsonable(object())

    def test_cell_striping_epd_wins(self):
        from repro.experiments.cell_striping import run_cell_striping

        result = run_cell_striping(duration_s=1.0)
        epd = result.row("packet striping + EPD")
        cells = result.row("cell striping")
        # comparable raw cell loss, wildly different goodput
        assert abs(epd.cells_dropped - cells.cells_dropped) < (
            0.3 * max(epd.cells_dropped, cells.cells_dropped)
        )
        assert epd.goodput_mbps > 10 * max(cells.goodput_mbps, 0.01)
        assert cells.damaged_fraction > 0.9
        assert epd.damaged_fraction < 0.05
