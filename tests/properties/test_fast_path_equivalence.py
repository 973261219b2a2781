"""Property tests: the fast path is observably identical to the reference.

The burst-batched fast path (slot-free engine scheduling, channel transmit
bursts, batched striper pump) must be a pure wall-clock optimization.
These tests randomize the testbed configuration — channel count, link
rates, loss, marker cadence, resequencing mode — and assert that:

* the ``(time, seq)`` delivery record list is identical between the
  reference UDP/IP path and the fast path (clean *and* lossy runs);
* markers arrive at the receiver in identical numbers;
* results do not depend on how the engine pops events: ``run(batch=True)``
  and plain ``run()`` produce the same records, so nothing downstream
  keys off ``events_processed`` or event-granularity side effects.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultEvent,
    FaultSchedule,
    persistent_loss_schedule,
)

DURATION_S = 0.4

#: ARQ options the reliable-mode runs use on BOTH paths — the same
#: BDP-sized window / coarse ack cadence perfbench's lossy workloads run
#: with (``ARQ_OPTIONS`` in ``perfbench/rigs.py``), so the equivalence
#: property is exercised in the configuration the benchmark measures.
RELIABLE_OPTIONS = {
    "sender": {"window_packets": 512},
    "receiver": {"ack_every": 16},
}


def _run(config: SocketTestbedConfig, fast: bool, batch: bool):
    """Build and run one testbed; return its observable outcome."""
    config = dataclasses.replace(config, fast=fast)
    sim = Simulator()
    testbed = build_socket_testbed(sim, config)
    if any(rate > 0 for rate in config.loss_rates):
        testbed.stop_losses_at(DURATION_S / 2)
    sim.run(until=DURATION_S, batch=batch)
    records = [(d.time, d.seq) for d in testbed.deliveries]
    stats = getattr(testbed.receiver.resequencer, "stats", None)
    markers = stats.markers_received if stats is not None else 0
    return records, markers


def _config(n, link_mbps, loss_rate, interval, position, mode, backlog, seed):
    return SocketTestbedConfig(
        n_channels=n,
        link_mbps=(link_mbps,),
        prop_delay_s=tuple(0.5e-3 + 0.1e-3 * i for i in range(n)),
        loss_rates=(loss_rate,),
        message_bytes=1000,
        marker_interval_rounds=interval,
        marker_position=position,
        mode=mode,
        source_backlog=backlog,
        seed=seed,
    )


class TestFastPathEquivalence:
    @given(
        n=st.sampled_from([2, 3, 4, 8]),
        link_mbps=st.sampled_from([5.0, 10.0, 45.0]),
        interval=st.sampled_from([1, 2, 4]),
        position=st.integers(min_value=0, max_value=7),
        backlog=st.sampled_from([2, 8, 32]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_clean_runs_identical(
        self, n, link_mbps, interval, position, backlog, seed
    ):
        """Loss-free: bit-identical (time, seq) records and marker counts."""
        config = _config(
            n, link_mbps, 0.0, interval, position, "marker", backlog, seed
        )
        ref_records, ref_markers = _run(config, fast=False, batch=False)
        fast_records, fast_markers = _run(config, fast=True, batch=True)
        assert ref_records  # the run actually delivered something
        assert fast_records == ref_records
        assert fast_markers == ref_markers

    @given(
        n=st.sampled_from([2, 4]),
        loss_rate=st.sampled_from([0.1, 0.4, 0.8]),
        interval=st.sampled_from([1, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_lossy_runs_identical(self, n, loss_rate, interval, seed):
        """Under loss (stopping mid-run) the records still match exactly:
        lossy channels run the classic per-packet path, and the RNG draw
        order is preserved, so every loss hits the same packet."""
        config = _config(n, 10.0, loss_rate, interval, 0, "marker", 16, seed)
        ref_records, ref_markers = _run(config, fast=False, batch=False)
        fast_records, fast_markers = _run(config, fast=True, batch=True)
        assert fast_records == ref_records
        assert fast_markers == ref_markers

    @given(
        mode=st.sampled_from(["plain", "none"]),
        n=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_other_resequencing_modes_identical(self, mode, n, seed):
        config = _config(n, 10.0, 0.0, 1, 0, mode, 16, seed)
        ref_records, _ = _run(config, fast=False, batch=False)
        fast_records, _ = _run(config, fast=True, batch=True)
        assert fast_records == ref_records

    @given(
        n=st.sampled_from([2, 4]),
        loss_rate=st.sampled_from([0.0, 0.4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_results_independent_of_event_batching(self, n, loss_rate, seed):
        """run(batch=True) vs run(): same records on BOTH paths, even
        though events_processed differs — no observable state may depend
        on event pop granularity."""
        config = _config(n, 10.0, loss_rate, 1, 0, "marker", 16, seed)
        for fast in (False, True):
            plain, _ = _run(config, fast=fast, batch=False)
            batched, _ = _run(config, fast=fast, batch=True)
            assert batched == plain


def _mode_config(mode, loss=0.0, n=4, seed=0, backlog=None):
    return SocketTestbedConfig(
        n_channels=n,
        link_mbps=(10.0,),
        prop_delay_s=tuple(0.5e-3 + 0.1e-3 * i for i in range(n)),
        loss_rates=(loss,),
        message_bytes=1000,
        marker_interval_rounds=1,
        source_backlog=backlog if backlog is not None else 4 * n,
        seed=seed,
        reliability=mode,
        reliability_options=RELIABLE_OPTIONS if mode == "reliable" else None,
    )


def _run_with_faults(config, fast, schedule, fault_seed):
    """One run with an optional fault schedule installed post-build.

    The schedule must be installed *after* the testbed claims each
    channel's ``on_deliver`` (the injector interposes on the current
    handler), and with the same seed on both runs of a pair — the
    injector RNG is per-channel-seeded, so the fault draws replay
    identically and ref/fast equivalence stays well-defined.
    """
    config = dataclasses.replace(config, fast=fast)
    sim = Simulator()
    testbed = build_socket_testbed(sim, config)
    installed = None
    if schedule is not None:
        installed = schedule.install(
            sim, [link.ab for link in testbed.links], seed=fault_seed
        )
    sim.run(until=DURATION_S, batch=fast)
    records = [(d.time, d.seq) for d in testbed.deliveries]
    return records, installed, testbed


class TestReliabilityModeEquivalence:
    """All three reliability modes ride the fast path bit-identically.

    These mirror the per-mode benchmark rows (``run_reliability_mode_bench``)
    as deterministic regression tests: clean and persistently-lossy runs,
    plus reliable-mode recovery through a channel crash — each asserting
    the fast path's ``(time, seq)`` records equal the reference path's.
    """

    MODES = ("best_effort", "quasi_fifo", "reliable")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_clean_runs_identical(self, mode, seed):
        config = _mode_config(mode, seed=seed)
        ref_records, _, _ = _run_with_faults(config, False, None, 0)
        fast_records, _, _ = _run_with_faults(config, True, None, 0)
        assert ref_records
        assert fast_records == ref_records

    @pytest.mark.parametrize("mode", MODES)
    def test_lossy_runs_identical(self, mode):
        """10% Bernoulli loss for the whole run, never stopped — the
        regime the benchmark's per-mode equivalence column runs in."""
        config = _mode_config(mode, loss=0.1, seed=3)
        ref_records, _, _ = _run_with_faults(config, False, None, 0)
        fast_records, _, _ = _run_with_faults(config, True, None, 0)
        assert ref_records
        assert fast_records == ref_records

    def test_reliable_lossy_delivers_exactly_once_in_order(self):
        config = _mode_config("reliable", loss=0.1, seed=3)
        records, _, testbed = _run_with_faults(config, True, None, 0)
        seqs = [seq for _, seq in records]
        assert seqs == list(range(len(seqs)))
        arq = testbed.sender.reliable
        assert arq is not None and arq.stats.retransmissions > 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_reliable_channel_crash_identical(self, seed):
        """Reliable mode under 10% loss plus a one-channel crash: both
        paths recover identically (the injector forces faulted channels
        onto the classic per-packet pump on both runs, and the crash
        drops replay from the same per-channel RNG)."""
        config = _mode_config("reliable", loss=0.1, seed=seed)
        schedule = FaultSchedule(
            [FaultEvent(time=0.10, channel=0, kind="crash", duration=0.10)]
        )
        ref_records, ref_faults, _ = _run_with_faults(
            config, False, schedule, seed
        )
        fast_records, fast_faults, _ = _run_with_faults(
            config, True, schedule, seed
        )
        assert ref_records
        assert fast_records == ref_records
        assert ref_faults.crash_drops > 0
        assert fast_faults.crash_drops == ref_faults.crash_drops
        seqs = [seq for _, seq in fast_records]
        assert seqs == list(range(len(seqs)))

    def test_reliable_persistent_loss_schedule_identical(self):
        """PR-5's persistent-loss family (fractional crashes on every
        channel for half the run) through the fast path."""
        config = _mode_config("reliable", seed=7)
        schedule = persistent_loss_schedule(
            config.n_channels, 0.1, start=0.0, until=DURATION_S / 2
        )
        ref_records, _, ref_bed = _run_with_faults(config, False, schedule, 2)
        fast_records, _, fast_bed = _run_with_faults(config, True, schedule, 2)
        assert ref_records
        assert fast_records == ref_records
        for testbed in (ref_bed, fast_bed):
            arq = testbed.sender.reliable
            assert arq is not None and arq.stats.retransmissions > 0


class TestDissimilarRates:
    """A 10 Mb/s + 1 Mb/s pair keeps the sender back-pressured, which is
    where a burst-mode channel's extra buffering shows."""

    @staticmethod
    def _pair(mode, **overrides):
        return SocketTestbedConfig(
            n_channels=2, link_mbps=(10.0, 1.0), mode=mode, **overrides
        )

    @pytest.mark.parametrize("mode", ["marker", "plain"])
    def test_uncapped_records_identical(self, mode):
        config = self._pair(mode)
        ref_records, _ = _run(config, fast=False, batch=False)
        fast_records, _ = _run(config, fast=True, batch=True)
        assert len(ref_records) > 50
        assert fast_records == ref_records

    def test_receiver_cap_rejected_on_fast_path(self):
        """The buffer-cap drop rule reads sender-side queue depth, which
        burst mode changes: with ``buffer_packets=8`` the two paths
        delivered 158 vs 141 packets on this pair before the combination
        was refused."""
        self._pair("marker", buffer_packets=8)  # reference path: accepted
        with pytest.raises(ValueError, match="buffer_packets"):
            self._pair("marker", buffer_packets=8, fast=True)


class TestFastPathCounters:
    """The batched pump's and the ARQ sender's counters actually count."""

    def test_batched_pump_counters_nonzero(self):
        config = _mode_config("quasi_fifo", seed=1)
        _, _, testbed = _run_with_faults(config, True, None, 0)
        striper = testbed.sender.striper
        assert striper.packets_sent > 0 and striper.markers_sent > 0
        # every data packet the pump counted reached a port's counter
        ports = testbed.sender.ports
        assert sum(port.sent_data for port in ports) == striper.packets_sent
        assert testbed.sender.reliable is None  # no ARQ in quasi_fifo mode

    def test_reliable_arq_counters_nonzero(self):
        config = _mode_config("reliable", seed=1)
        _, _, testbed = _run_with_faults(config, True, None, 0)
        assert testbed.sender.striper.packets_sent > 0
        arq = testbed.sender.reliable.stats
        assert arq.submitted > 0
        assert arq.sack_scans > 0
        assert arq.acked > 0
        # A clean run's acks are cumulative only: nothing left to visit.
        assert arq.sack_visits == 0

    @pytest.mark.parametrize("fast", [False, True])
    def test_marker_free_pool_recycles_at_delivery(self, fast):
        """The PacketPool contract for marker-free receive: direct
        reception holds no reference past the delivery callback, so
        release-at-delivery actually recycles — after warm-up the pool
        serves (nearly) every acquire from the free list."""
        config = SocketTestbedConfig(
            n_channels=2,
            link_mbps=(10.0,),
            prop_delay_s=(0.5e-3,) * 2,
            loss_rates=(0.0,),
            message_bytes=1000,
            discipline="sprinklers",
            discipline_options={"initial_share": 1.0},
            packet_pool=True,
            fast=fast,
            seed=3,
        )
        sim = Simulator()
        testbed = build_socket_testbed(sim, config)
        sim.run(until=DURATION_S)
        pool = testbed.pool
        assert pool is not None
        assert len(testbed.deliveries) > 100
        assert pool.reused > 0
        assert pool.released >= pool.reused
        # Steady state: the free list absorbs the whole flight window, so
        # fresh constructions stop — reuse dominates allocation.
        assert pool.reused > pool.allocated
