"""Burst-error channels (section 2's model note, exercised end to end).

"Channels that occasionally deviate from FIFO delivery can also be modeled
as having burst errors."  These tests run the striped-UDP stack over
Gilbert–Elliott burst-loss channels and check the same recovery guarantees
as under i.i.d. loss.
"""

import random

from repro.analysis.reorder import analyze_order
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator
from repro.sim.loss import GilbertElliottLoss


def install_burst_loss(testbed, p_g2b=0.01, p_b2g=0.15, seed=0):
    """Swap the harness's Bernoulli models for Gilbert-Elliott ones."""
    models = []
    for index, link in enumerate(testbed.links):
        model = GilbertElliottLoss(
            p_g2b=p_g2b, p_b2g=p_b2g,
            rng=random.Random(seed * 101 + index),
        )
        link.ab.loss_model = model
        models.append(model)
    return models


class TestBurstLossRecovery:
    def test_quasi_fifo_through_bursts(self):
        sim = Simulator()
        testbed = build_socket_testbed(
            sim, SocketTestbedConfig(marker_interval_rounds=1)
        )
        install_burst_loss(testbed)
        sim.run(until=2.0)
        report = analyze_order(testbed.delivered_seqs(), testbed.messages_sent)
        assert report.missing > 20           # bursts really bit
        assert report.delivered > 1000
        # reordering bounded to desync windows, not persistent
        assert report.out_of_order_fraction < 0.25

    def test_fifo_restored_after_bursts_stop(self):
        sim = Simulator()
        testbed = build_socket_testbed(
            sim, SocketTestbedConfig(marker_interval_rounds=1)
        )
        models = install_burst_loss(testbed, p_g2b=0.03)

        def stop():
            for model in models:
                model.p_g2b = 0.0
                model._bad = False

        sim.schedule_at(1.0, stop)
        sim.run(until=2.5)
        tail = [d.seq for d in testbed.deliveries_after(1.2)]
        assert len(tail) > 500
        assert tail == sorted(tail)

    def test_long_burst_equivalent_to_short_outage(self):
        """A deep burst takes out a contiguous stretch of one channel; the
        next marker after the burst restores order in one shot."""
        sim = Simulator()
        testbed = build_socket_testbed(
            sim, SocketTestbedConfig(marker_interval_rounds=1)
        )
        # A single long forced outage on channel 0: p=1 for 100 ms.
        model = testbed.loss_models[0]
        sim.schedule_at(0.5, lambda: setattr(model, "p", 1.0))
        sim.schedule_at(0.6, lambda: setattr(model, "p", 0.0))
        sim.run(until=1.5)
        tail = [d.seq for d in testbed.deliveries_after(0.7)]
        assert tail == sorted(tail)
        assert testbed.receiver.resequencer.stats.channel_skips > 0
