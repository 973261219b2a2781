"""Address-based hashing — per-flow pinning.

Section 2.1: "the Address-based Hashing scheme relies on hashing packet
addresses to channels to route packets destined for the same address over
the same channel.  This provides FIFO delivery of packets destined for the
same address, but does not provide load sharing for packets addressed to
any given destination."

Packets expose an opaque ``flow`` key (e.g. the destination address); the
hash pins each flow to one channel.  Per-flow FIFO is free (each flow rides
one FIFO channel); aggregate load sharing depends entirely on the flow
population.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Sequence

from repro.core.cfq import Capabilities
from repro.core.transform import LoadSharer


def stable_hash(key: Any, buckets: int) -> int:
    """A deterministic hash (stable across processes, unlike ``hash()``)."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") % buckets


class AddressHashing(LoadSharer):
    """Hash the packet's flow key to a channel."""

    capabilities = Capabilities(
        fifo_delivery="per_flow_fifo",
        load_sharing="poor",
        environment="Routers (per-destination pinning)",
    )
    simulatable = False
    #: hash synchronization: per-flow pinning means arrival order is
    #: delivery order — receiver mode ``"direct"``: no resequencer, no
    #: marker codec call, and the sender pipeline refuses a marker policy
    #: (see repro.transport.discipline).
    marker_free = True

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        self._n = n

    @property
    def n_channels(self) -> int:
        return self._n

    def choose(
        self, packet: Any, queue_depths: Optional[Sequence[int]] = None
    ) -> int:
        flow = getattr(packet, "flow", None)
        return stable_hash(flow, self._n)

    def notify_sent(self, channel: int, packet: Any) -> None:
        pass

    def reset(self) -> None:
        pass
