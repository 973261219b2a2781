"""A randomized CFQ algorithm beyond the SRR family.

The transformation theorem (3.1) applies to *any* causal FQ algorithm,
deterministic or randomized.  :class:`SeededRandomFQ` is the paper's RFQ
example: a randomized scheme that picks a uniformly random queue per
packet.  Seeding the PRNG and putting its state *into* the CFQ state makes
the scheme causal — a receiver sharing the seed can simulate the sender
exactly, so even a randomized striper gets logical reception.  It keeps
the ``(s0, f, g)`` discipline: ``select`` derives the choice from the PRNG
state without advancing it, ``update`` advances it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Tuple

from repro.core.cfq import Capabilities, CausalFQ


@dataclass(frozen=True)
class RandomFQState:
    """PRNG-state-carrying CFQ state; equality by PRNG state identity."""

    rng_state: Tuple[Any, ...]


def _draw(rng_state: Tuple[Any, ...], n: int) -> Tuple[int, Tuple[Any, ...]]:
    rng = random.Random()
    rng.setstate(rng_state)
    value = rng.randrange(n)
    return value, rng.getstate()


class SeededRandomFQ(CausalFQ):
    """Uniform random queue selection with a shared-seed PRNG.

    Fair in expectation: over backlogged executions the expected bytes per
    queue are identical (the paper's randomized fairness definition,
    section 3.3).
    """

    capabilities = Capabilities(
        fifo_delivery="quasi",
        load_sharing="good",
        environment="At all levels (requires shared seed)",
    )

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        self._n = n
        self.seed = seed

    @property
    def n_channels(self) -> int:
        return self._n

    def initial_state(self) -> RandomFQState:
        return RandomFQState(random.Random(self.seed).getstate())

    def select(self, state: RandomFQState) -> int:
        value, _ = _draw(state.rng_state, self._n)
        return value

    def update(self, state: RandomFQState, size: int) -> RandomFQState:
        _, new_state = _draw(state.rng_state, self._n)
        return RandomFQState(new_state)
