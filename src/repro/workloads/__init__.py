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
    cbr_intervals,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "video": (
        "PlaybackModel",
        "PlaybackReport",
        "VideoChunk",
        "VideoFrame",
        "VideoTrace",
        "synthesize_nv_trace",
    ),
})

__all__ = [
    "RandomMixSizes",
    "AlternatingSizes",
    "ConstantSizes",
    "PacedSource",
    "ClosedLoopSource",
    "cbr_intervals",
    "VideoTrace",
    "VideoFrame",
    "VideoChunk",
    "synthesize_nv_trace",
    "PlaybackModel",
    "PlaybackReport",
]
