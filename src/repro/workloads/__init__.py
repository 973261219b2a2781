"""Workload generation: packet-size mixes, paced sources, NV-style video.

The generators import with the package; the video model on first use.
"""

from repro import lazy_exports
from repro.workloads.generators import (
    AlternatingSizes,
    ClosedLoopSource,
    ConstantSizes,
    PacedSource,
    RandomMixSizes,
    UniformSizes,
    alternating_packets,
    backlogged_packets,
    cbr_intervals,
    poisson_intervals,
    random_mix_packets,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "video": (
        "PlaybackModel",
        "PlaybackReport",
        "VideoChunk",
        "VideoFrame",
        "VideoTrace",
        "perceptibly_different",
        "synthesize_nv_trace",
    ),
})

__all__ = [
    "RandomMixSizes",
    "AlternatingSizes",
    "UniformSizes",
    "ConstantSizes",
    "backlogged_packets",
    "random_mix_packets",
    "alternating_packets",
    "PacedSource",
    "ClosedLoopSource",
    "poisson_intervals",
    "cbr_intervals",
    "VideoTrace",
    "VideoFrame",
    "VideoChunk",
    "synthesize_nv_trace",
    "PlaybackModel",
    "PlaybackReport",
    "perceptibly_different",
]
