"""Random channel selection — the Bay Networks router scheme.

Section 2.1: "the Random Selection scheme relies on random assignment of
channels to packets to ensure load sharing, but does not provide FIFO
delivery."  Unlike :class:`repro.core.schemes.SeededRandomFQ` (whose PRNG
state is shared with the receiver), this baseline's randomness is private
to the sender, so the receiver cannot simulate it.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence

from repro.core.cfq import Capabilities
from repro.core.transform import LoadSharer


class RandomSelection(LoadSharer):
    """Uniformly random channel per packet (sender-private randomness)."""

    capabilities = Capabilities(
        fifo_delivery="may_reorder",
        load_sharing="good",
        environment="At all levels (Bay Networks)",
    )
    simulatable = False

    def __init__(self, n: int, rng: Optional[random.Random] = None) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        self._n = n
        self.rng = rng if rng is not None else random.Random(0)
        self._pending: Optional[int] = None

    @property
    def n_channels(self) -> int:
        return self._n

    def choose(
        self, packet: Any, queue_depths: Optional[Sequence[int]] = None
    ) -> int:
        # choose() must be repeatable until notify_sent commits, so the
        # draw is latched.
        if self._pending is None:
            self._pending = self.rng.randrange(self._n)
        return self._pending

    def notify_sent(self, channel: int, packet: Any) -> None:
        self._pending = None

    def reset(self) -> None:
        self._pending = None

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        # Random.getstate() is a (version, ints-tuple, gauss) triple —
        # plain data, so checkpoints stay codec-native.
        return {"rng": self.rng.getstate(), "pending": self._pending}

    def restore(self, state: Any) -> None:
        self.rng.setstate(state["rng"])
        self._pending = state["pending"]
