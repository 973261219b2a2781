"""Loss models for simulated channels.

The paper assumes channels "can be subject to packet loss and corruption"
and models occasional non-FIFO behaviour as burst errors (section 2).  We
provide:

* :class:`NoLoss` — the lossless default.
* :class:`BernoulliLoss` — i.i.d. loss with probability ``p`` (used in the
  section 6.3 loss sweeps up to 80%).
* :class:`GilbertElliottLoss` — two-state burst-loss model, the standard way
  to exercise the "burst error" channels the paper mentions.
* :class:`DeterministicLoss` — drops an explicit set of packet indices; used
  to recreate the Figure 10 walkthrough where exactly packet 7 is lost.

Corruption ("any packet corruption causes the packet to be discarded, and
not handed over to the resequencing algorithm", section 5) is injected by
:mod:`repro.sim.faults` (``corrupt`` and ``corrupt_deliver`` faults).
"""

from __future__ import annotations

import abc
import random
from typing import Iterable, Optional, Set


class LossModel(abc.ABC):
    """Decides, per packet, whether the channel loses it."""

    @abc.abstractmethod
    def should_drop(self, packet_index: int, size: int) -> bool:
        """Return True if the ``packet_index``-th packet on this channel is lost."""


class NoLoss(LossModel):
    """A perfectly reliable channel."""

    def should_drop(self, packet_index: int, size: int) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Drop each packet independently with probability ``p``."""

    def __init__(self, p: float, rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = p
        self.rng = rng if rng is not None else random.Random(0)

    def should_drop(self, packet_index: int, size: int) -> bool:
        return self.rng.random() < self.p


class GilbertElliottLoss(LossModel):
    """Two-state (good/bad) Markov burst-loss model.

    The good state loses nothing and the bad state loses everything (each
    still draws once per packet).  State transitions happen per packet
    with probabilities ``p_g2b`` and ``p_b2g``.
    """

    def __init__(
        self,
        p_g2b: float,
        p_b2g: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        for name, value in (("p_g2b", p_g2b), ("p_b2g", p_b2g)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_g2b = p_g2b
        self.p_b2g = p_b2g
        self.rng = rng if rng is not None else random.Random(0)
        self._bad = False

    def should_drop(self, packet_index: int, size: int) -> bool:
        if self._bad:
            if self.rng.random() < self.p_b2g:
                self._bad = False
        else:
            if self.rng.random() < self.p_g2b:
                self._bad = True
        return self.rng.random() < (1.0 if self._bad else 0.0)


class DeterministicLoss(LossModel):
    """Drop exactly the packets whose per-channel index is in ``indices``.

    Indices count packets offered to the channel, starting at 0.  Used to
    reproduce the paper's Figure 10 example (packet 7 lost).
    """

    def __init__(self, indices: Iterable[int]) -> None:
        self.indices: Set[int] = set(indices)

    def should_drop(self, packet_index: int, size: int) -> bool:
        return packet_index in self.indices


class SizeGatedLoss(LossModel):
    """Applies an inner loss model only to packets above a size threshold.

    Used by controlled experiments that want loss to hit *data* packets but
    never the tiny control packets (markers, credits), so that runs varying
    only a control-plane parameter see the identical data-loss pattern.
    The per-packet index passed to the inner model counts gated packets
    only, which is what makes the pattern reproducible across variants.
    """

    def __init__(self, inner: LossModel, min_size: int) -> None:
        self.inner = inner
        self.min_size = min_size
        self._gated_index = 0

    def should_drop(self, packet_index: int, size: int) -> bool:
        if size < self.min_size:
            return False
        index = self._gated_index
        self._gated_index += 1
        return self.inner.should_drop(index, size)

