"""Synthetic NV-style video workload and playback model (section 6.3).

The paper captured traces from the NV video conferencing tool, striped them
over lossy UDP channels, and fed the (possibly reordered) result back to
NV: "Only at packet loss levels of 40% and above were any perceptible
differences found in the NV playback...  pure packet loss of 40% produced
the same qualitative difference, suggesting that the effect of packet
reordering was insignificant compared to the effect of packet loss."

We cannot run NV, so we substitute (a) a synthetic trace generator shaped
like NV output — ~10 fps, a frame split into several sub-1KB packets, with
periodic larger refresh frames — and (b) a playout model that scores what a
viewer would see: a frame renders cleanly if all its packets arrive within
a playout deadline; packets arriving late (e.g. held back or reordered past
the deadline) count the same as lost.  The comparison the paper makes —
quality under loss+reordering vs quality under pure loss — is a comparison
of these scores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.packet import Packet


@dataclass(frozen=True)
class VideoChunk:
    """Payload tag on a video packet: which frame, which piece."""

    frame_id: int
    index: int
    count: int
    capture_time: float


@dataclass
class VideoFrame:
    frame_id: int
    capture_time: float
    packet_sizes: List[int]

    @property
    def total_bytes(self) -> int:
        return sum(self.packet_sizes)


@dataclass
class VideoTrace:
    """A captured (here: synthesized) video session."""

    fps: float
    frames: List[VideoFrame]

    @property
    def duration(self) -> float:
        return len(self.frames) / self.fps

    @property
    def total_packets(self) -> int:
        return sum(len(f.packet_sizes) for f in self.frames)

    def packets(self) -> List[Packet]:
        """Flatten to striping-layer packets in capture order."""
        out: List[Packet] = []
        seq = 0
        for frame in self.frames:
            count = len(frame.packet_sizes)
            for index, size in enumerate(frame.packet_sizes):
                out.append(
                    Packet(
                        size=size,
                        seq=seq,
                        payload=VideoChunk(
                            frame.frame_id, index, count, frame.capture_time
                        ),
                    )
                )
                seq += 1
        return out


def synthesize_nv_trace(
    duration_s: float = 10.0,
    fps: float = 10.0,
    mean_frame_bytes: int = 3000,
    packet_bytes: int = 1000,
    refresh_every: int = 25,
    refresh_scale: float = 3.0,
    seed: int = 0,
) -> VideoTrace:
    """Generate an NV-like trace.

    Frames arrive at ``fps``; most are delta frames around
    ``mean_frame_bytes`` (lognormal-ish variation), with a larger refresh
    frame every ``refresh_every`` frames.  Frames are packetized into
    chunks of at most ``packet_bytes``.
    """
    if duration_s <= 0 or fps <= 0:
        raise ValueError("duration and fps must be positive")
    rng = random.Random(seed)
    frames: List[VideoFrame] = []
    n_frames = int(duration_s * fps)
    for frame_id in range(n_frames):
        base = mean_frame_bytes
        if refresh_every and frame_id % refresh_every == 0:
            base = int(mean_frame_bytes * refresh_scale)
        size = max(200, int(rng.gauss(base, base * 0.25)))
        sizes: List[int] = []
        remaining = size
        while remaining > 0:
            chunk = min(packet_bytes, remaining)
            sizes.append(chunk)
            remaining -= chunk
        frames.append(
            VideoFrame(
                frame_id=frame_id,
                capture_time=frame_id / fps,
                packet_sizes=sizes,
            )
        )
    return VideoTrace(fps=fps, frames=frames)


@dataclass
class PlaybackReport:
    """What the viewer saw."""

    frames_total: int
    frames_clean: int
    frames_partial: int
    frames_missing: int
    packets_expected: int
    packets_on_time: int
    packets_late: int
    packets_lost: int

    @property
    def quality(self) -> float:
        """Scalar quality: clean frames count 1, partial frames 0.5."""
        if self.frames_total == 0:
            return 1.0
        return (self.frames_clean + 0.5 * self.frames_partial) / self.frames_total


class PlaybackModel:
    """Scores a received (possibly reordered, lossy) video packet stream.

    Args:
        trace: the original trace (ground truth).
        latency_budget: playout deadline — a packet for a frame captured at
            time T must arrive by ``T + latency_budget`` (receiver clock) to
            be usable.  Reordered packets that still make the deadline cost
            nothing, which is exactly why quasi-FIFO is tolerable for video.
    """

    def __init__(self, trace: VideoTrace, latency_budget: float = 0.5) -> None:
        self.trace = trace
        self.latency_budget = latency_budget
        self._on_time: Dict[int, set] = {f.frame_id: set() for f in trace.frames}
        self.packets_late = 0
        self.packets_received = 0

    def feed(self, packet: Packet, arrival_time: float) -> None:
        """Record one received packet with its arrival time."""
        chunk = packet.payload
        if not isinstance(chunk, VideoChunk):
            return
        self.packets_received += 1
        if arrival_time <= chunk.capture_time + self.latency_budget:
            self._on_time[chunk.frame_id].add(chunk.index)
        else:
            self.packets_late += 1

    def report(self) -> PlaybackReport:
        clean = partial = missing = 0
        expected = on_time = 0
        for frame in self.trace.frames:
            need = len(frame.packet_sizes)
            got = len(self._on_time[frame.frame_id])
            expected += need
            on_time += got
            if got == need:
                clean += 1
            elif got > 0:
                partial += 1
            else:
                missing += 1
        return PlaybackReport(
            frames_total=len(self.trace.frames),
            frames_clean=clean,
            frames_partial=partial,
            frames_missing=missing,
            packets_expected=expected,
            packets_on_time=on_time,
            packets_late=self.packets_late,
            packets_lost=expected - on_time - self.packets_late,
        )


def perceptibly_different(
    reference: PlaybackReport, observed: PlaybackReport, threshold: float = 0.05
) -> bool:
    """A crude perceptibility test: quality differs by more than threshold."""
    return abs(reference.quality - observed.quality) > threshold
