"""Unit tests for the NV-style video workload and playback model, and for
the perceptibility test defined here, which only these tests use."""

import pytest

from repro.workloads.video import (
    PlaybackModel,
    PlaybackReport,
    VideoChunk,
    synthesize_nv_trace,
)


def perceptibly_different(
    reference: PlaybackReport, observed: PlaybackReport, threshold: float = 0.05
) -> bool:
    """A crude perceptibility test: quality differs by more than threshold."""
    return abs(reference.quality - observed.quality) > threshold


class TestTraceSynthesis:
    def test_frame_count_matches_duration(self):
        trace = synthesize_nv_trace(duration_s=5.0, fps=10.0)
        assert len(trace.frames) == 50
        assert trace.duration == pytest.approx(5.0)

    def test_packetization_respects_chunk_size(self):
        trace = synthesize_nv_trace(duration_s=2.0, packet_bytes=1000)
        for frame in trace.frames:
            assert all(size <= 1000 for size in frame.packet_sizes)
            assert sum(frame.packet_sizes) == frame.total_bytes

    def test_refresh_frames_larger(self):
        trace = synthesize_nv_trace(
            duration_s=10.0, refresh_every=25, refresh_scale=3.0, seed=1
        )
        refresh = [f.total_bytes for i, f in enumerate(trace.frames)
                   if i % 25 == 0]
        delta = [f.total_bytes for i, f in enumerate(trace.frames)
                 if i % 25 != 0]
        assert sum(refresh) / len(refresh) > 1.8 * sum(delta) / len(delta)

    def test_packets_flattened_in_capture_order(self):
        trace = synthesize_nv_trace(duration_s=1.0)
        packets = trace.packets()
        assert [p.seq for p in packets] == list(range(len(packets)))
        times = [p.payload.capture_time for p in packets]
        assert times == sorted(times)

    def test_reproducible(self):
        a = synthesize_nv_trace(duration_s=3.0, seed=9)
        b = synthesize_nv_trace(duration_s=3.0, seed=9)
        assert [f.packet_sizes for f in a.frames] == [
            f.packet_sizes for f in b.frames
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_nv_trace(duration_s=0)


class TestPlayback:
    def test_all_on_time_is_perfect(self):
        trace = synthesize_nv_trace(duration_s=2.0)
        playback = PlaybackModel(trace)
        for packet in trace.packets():
            playback.feed(packet, packet.payload.capture_time + 0.01)
        report = playback.report()
        assert report.quality == 1.0
        assert report.frames_missing == 0

    def test_lost_packets_damage_frames(self):
        trace = synthesize_nv_trace(duration_s=2.0)
        playback = PlaybackModel(trace)
        packets = trace.packets()
        for packet in packets[::2]:  # half the packets lost
            playback.feed(packet, packet.payload.capture_time + 0.01)
        report = playback.report()
        assert report.quality < 1.0
        assert report.frames_partial + report.frames_missing > 0

    def test_late_packet_counts_as_unusable(self):
        trace = synthesize_nv_trace(duration_s=1.0)
        playback = PlaybackModel(trace)
        for packet in trace.packets():
            playback.feed(packet, packet.payload.capture_time + 1.0)
        report = playback.report()
        assert report.packets_late == len(trace.packets())
        assert report.quality == 0.0

    def test_reordered_but_on_time_costs_nothing(self):
        """The crux of the paper's video argument: reordering within the
        playout budget is invisible."""
        trace = synthesize_nv_trace(duration_s=2.0)
        playback = PlaybackModel(trace)
        packets = list(reversed(trace.packets()[:20])) + trace.packets()[20:]
        for packet in packets:
            playback.feed(packet, packet.payload.capture_time + 0.1)
        assert playback.report().quality == 1.0

    def test_foreign_payload_ignored(self):
        from repro.core.packet import Packet

        trace = synthesize_nv_trace(duration_s=1.0)
        playback = PlaybackModel(trace)
        playback.feed(Packet(100), 0.0)
        assert playback.packets_received == 0


class TestPerceptibility:
    def test_equal_reports_not_different(self):
        trace = synthesize_nv_trace(duration_s=1.0)
        playback = PlaybackModel(trace)
        for packet in trace.packets():
            playback.feed(packet, packet.payload.capture_time)
        report = playback.report()
        assert not perceptibly_different(report, report)
