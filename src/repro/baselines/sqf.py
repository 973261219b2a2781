"""Shortest Queue First — the Linux EQL serial-line driver's policy.

Section 2.1: "the channel with the smallest queue is selected for
transmitting the next packet."  Good load sharing (it adapts to channel
speed automatically) but **non-causal**: the choice depends on live queue
depths the receiver cannot observe, so there is no logical reception and
packets may be persistently misordered.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.cfq import Capabilities
from repro.core.transform import LoadSharer


class ShortestQueueFirst(LoadSharer):
    """Pick the channel with the fewest queued packets (ties -> lowest index)."""

    capabilities = Capabilities(
        fifo_delivery="may_reorder",
        load_sharing="good",
        environment="At all levels (Linux EQL driver)",
    )
    simulatable = False

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        self._n = n
        self._fallback = 0

    @property
    def n_channels(self) -> int:
        return self._n

    def choose(
        self, packet: Any, queue_depths: Optional[Sequence[int]] = None
    ) -> int:
        if queue_depths is None:
            # Without depth information degrade to round robin.
            return self._fallback
        best = 0
        for i in range(1, self._n):
            if queue_depths[i] < queue_depths[best]:
                best = i
        return best

    def notify_sent(self, channel: int, packet: Any) -> None:
        self._fallback = (channel + 1) % self._n

    def reset(self) -> None:
        self._fallback = 0

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        return {"fallback": self._fallback}

    def restore(self, state: Any) -> None:
        self._fallback = state["fallback"]
